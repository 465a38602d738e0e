"""Span self-time arithmetic and wrapper install/uninstall."""

from ledger import trace


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, instants):
        self._instants = iter(instants)

    def __call__(self):
        return next(self._instants)


def test_self_time_is_span_minus_wrapped_children():
    # pass 0..10
    #   phase 1..4            (coarse)
    #     inner 2..3          (hot)
    #   hot_call 5..7         (hot)
    tracer = trace.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    inner = tracer.wrap_hot("inner", lambda: "inner result")
    phase = tracer.wrap_coarse("phase", inner)
    hot_call = tracer.wrap_hot("hot_call", lambda: None)
    with tracer.span("pass", query_id=7):
        assert phase() == "inner result"
        hot_call()
    assert tracer.layers["pass"] == [1, 10, 10 - 3 - 2]
    assert tracer.layers["phase"] == [1, 3, 3 - 1]
    assert tracer.layers["inner"] == [1, 1, 1]
    assert tracer.layers["hot_call"] == [1, 2, 2]
    # Self times partition the root span exactly.
    assert sum(own for _calls, _busy, own in tracer.layers.values()) == 10
    # Coarse spans keep name, start, end, parent and the query id.
    assert tracer.spans == [["pass", 0, 10, None, 7], ["phase", 1, 4, 0, 7]]


def test_hot_wrapper_accounts_a_raising_call():
    tracer = trace.Tracer(clock=FakeClock([0, 1, 3, 4]))

    def boom():
        raise KeyError("boom")

    wrapped = tracer.wrap_hot("boom", boom)
    with tracer.span("pass"):
        try:
            wrapped()
        except KeyError:
            pass
    assert tracer.layers["boom"] == [1, 2, 2]
    assert tracer.layers["pass"] == [1, 4, 2]


def test_observe_hooks_count_at_the_call_boundary():
    tracer = trace.Tracer(clock=FakeClock(range(100)))
    reserve = tracer.wrap_hot(
        "flow.reserve", lambda flow, stage, dest, n: min(n, 2),
        trace._observe_reserve,
    )
    reserve(None, 0, 1, 5)
    reserve(None, 0, 1, 1)
    assert tracer.counters == {"flow.asked": 6, "flow.granted": 3}


def test_install_wraps_every_binding_and_uninstall_restores_it():
    import repro.pgql
    import repro.runtime.engine
    from repro.runtime.flow_control import FlowControl

    original_parse = repro.pgql.parse_and_validate
    original_reserve = vars(FlowControl)["reserve"]
    tracer = trace.Tracer()
    patches = trace.install(tracer)
    try:
        # A function imported by name is patched in every module.
        assert repro.pgql.parse_and_validate is not original_parse
        assert (repro.runtime.engine.parse_and_validate
                is repro.pgql.parse_and_validate)
        assert vars(FlowControl)["reserve"] is not original_reserve
        repro.runtime.engine.parse_and_validate("SELECT a WHERE (a)")
        assert tracer.calls("pgql.parse_validate") == 1
    finally:
        leftovers = trace.uninstall(patches)
    assert leftovers == []
    assert repro.pgql.parse_and_validate is original_parse
    assert repro.runtime.engine.parse_and_validate is original_parse
    assert vars(FlowControl)["reserve"] is original_reserve
    assert {name for name, *_rest in trace.TARGETS} >= {
        "kernels.run", "machine.worker_step", "sim.step", "service.step",
    }
