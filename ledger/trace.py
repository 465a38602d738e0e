"""Per-layer tracing from outside the engine.

The traced pass installs timing wrappers around the public entry points
of each layer (``TARGETS``), runs one pass, and uninstalls them.  Nothing
under ``src/`` knows it is being traced; spans inside the program are a
later change (ROADMAP item 3).

Two kinds of wrapper share one stack, so self time falls out uniformly:

* *coarse* spans (one per query phase) keep name, start, end, parent and
  a query id;
* *hot* inner calls are aggregated as count + busy time per name.

A layer's self time is its span's duration minus the part of that
interval its wrapped children cover.  Everything is held in memory and
read out after the pass.
"""

import sys
import time
from contextlib import contextmanager

COARSE = "coarse"
HOT = "hot"


class Tracer:
    """Span stack, coarse span list and per-name aggregates."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        #: Open frames, innermost last: ``[child_seconds, span_index]``.
        self._stack = []
        #: Coarse spans: ``[name, start, end, parent_index, query_id]``.
        self.spans = []
        #: ``name -> [calls, busy_seconds, self_seconds]``.
        self.layers = {}
        #: Free-form counters fed by the ``observe`` hooks.
        self.counters = {}
        #: Query id stamped on coarse spans that do not carry their own.
        self.query_id = None

    def _aggregate(self, name):
        return self.layers.setdefault(name, [0, 0.0, 0.0])

    def _open_span_index(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    @contextmanager
    def span(self, name, query_id=None):
        """A coarse span opened by the benchmark's own code."""
        if query_id is not None:
            self.query_id = query_id
        record = [name, 0.0, 0.0, self._open_span_index(), self.query_id]
        self.spans.append(record)
        frame = [0.0, len(self.spans) - 1]
        aggregate = self._aggregate(name)
        self._stack.append(frame)
        record[1] = self._clock()
        try:
            yield record
        finally:
            record[2] = self._clock()
            self._close(frame, aggregate, record[2] - record[1])

    def _close(self, frame, aggregate, elapsed):
        stack = self._stack
        stack.pop()
        aggregate[0] += 1
        aggregate[1] += elapsed
        aggregate[2] += elapsed - frame[0]
        if stack:
            stack[-1][0] += elapsed

    def wrap_coarse(self, name, func, query_id_of=None):
        """*func* recorded as one coarse span per call.

        *query_id_of* maps the call's ``(args, kwargs)`` to a query id
        (or None, to inherit the tracer's current one).
        """
        def wrapper(*args, **kwargs):
            query_id = query_id_of(args, kwargs) if query_id_of else None
            with self.span(name, query_id):
                return func(*args, **kwargs)
        return wrapper

    def wrap_hot(self, name, func, observe=None):
        """*func* aggregated as count + busy + self time under *name*.

        *observe*, when given, is called as ``observe(counters, args,
        result)`` after each call, outside the timed interval.
        """
        stack = self._stack
        clock = self._clock
        aggregate = self._aggregate(name)
        counters = self.counters

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                aggregate[0] += 1
                aggregate[1] += elapsed
                aggregate[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(counters, args, result)
            return result
        return wrapper

    # -- read-out ------------------------------------------------------
    def calls(self, name):
        return self.layers.get(name, (0, 0.0, 0.0))[0]

    def busy(self, *names):
        return sum(self.layers.get(name, (0, 0.0, 0.0))[1] for name in names)

    def self_time(self, *names):
        return sum(self.layers.get(name, (0, 0.0, 0.0))[2] for name in names)


# ----------------------------------------------------------------------
# Observe hooks (counts taken at the same boundaries as the times)
# ----------------------------------------------------------------------
def _observe_worker_step(counters, args, result):
    if result == 0:
        counters["machine.idle_steps"] = (
            counters.get("machine.idle_steps", 0) + 1
        )


def _observe_reserve(counters, args, result):
    # FlowControl.reserve(self, stage, dest, n) -> granted
    counters["flow.asked"] = counters.get("flow.asked", 0) + max(0, args[3])
    counters["flow.granted"] = counters.get("flow.granted", 0) + result


def _context_query_id(position):
    """Query id of the ``context`` argument (the service stamps one on
    each scope; a solo query's context has None)."""
    def query_id_of(args, kwargs):
        context = kwargs["context"] if "context" in kwargs \
            else args[position]
        return getattr(context, "query_id", None)
    return query_id_of


#: ``(span name, module, class or None, attribute, kind, extra)``: the
#: public entry points of each layer.  Layer names are the repo's modules.
TARGETS = (
    ("pgql.parse_validate", "repro.pgql", None, "parse_and_validate",
     COARSE, None),
    ("plan.choose", "repro.plan.cost", None, "choose_plan", COARSE, None),
    ("plan.logical", "repro.plan.logical", None, "build_logical_plan",
     COARSE, None),
    ("plan.distributed", "repro.plan.distributed", None,
     "build_distributed_plan", COARSE, None),
    ("plan.execution", "repro.plan.execution", None,
     "build_execution_plan", COARSE, None),
    ("kernels.compile", "repro.plan.execution", "ExecutionPlan",
     "bulk_kernels", HOT, None),
    ("kernels.run", "repro.runtime.kernels", "PlanKernels", "run",
     HOT, None),
    ("machine.worker_step", "repro.runtime.machine", "QueryMachine",
     "worker_step", HOT, _observe_worker_step),
    ("machine.on_message", "repro.runtime.machine", "QueryMachine",
     "on_message", HOT, None),
    ("flow.reserve", "repro.runtime.flow_control", "FlowControl",
     "reserve", HOT, _observe_reserve),
    ("flow.on_send", "repro.runtime.flow_control", "FlowControl",
     "on_send", HOT, None),
    ("flow.on_ack_from", "repro.runtime.flow_control", "FlowControl",
     "on_ack_from", HOT, None),
    ("flow.release", "repro.runtime.flow_control", "FlowControl",
     "release", HOT, None),
    ("termination.newly_completable", "repro.runtime.termination",
     "TerminationTracker", "newly_completable", HOT, None),
    ("termination.on_completed", "repro.runtime.termination",
     "TerminationTracker", "on_completed", HOT, None),
    ("network.send", "repro.cluster.network", "Network", "send", HOT, None),
    ("network.deliver_due", "repro.cluster.network", "Network",
     "deliver_due", HOT, None),
    ("sim.step", "repro.cluster.simulator", "Simulator", "step", HOT, None),
    ("engine.prepare", "repro.runtime.engine", "PgxdAsyncEngine",
     "prepare_execution", COARSE, _context_query_id(2)),
    ("engine.finalize", "repro.runtime.engine", "PgxdAsyncEngine",
     "finalize_execution", COARSE, _context_query_id(4)),
    ("service.submit", "repro.service.service", "QueryService", "submit",
     COARSE, None),
    ("service.step", "repro.service.service", "QueryService", "step",
     HOT, None),
)


def _function_bindings(original):
    """Every ``repro`` module global bound to *original* (functions are
    imported by name, so one definition has several bindings)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                yield module, attribute


def install(tracer):
    """Wrap every target; returns the patch list for :func:`uninstall`.

    Each patch is ``(owner, attribute, original, wrapper)``.
    """
    import importlib

    # Import every module first: one imported after a function was
    # patched would bind the wrapper by name and never be restored.
    modules = {
        target[1]: importlib.import_module(target[1]) for target in TARGETS
    }
    patches = []
    for name, module_name, class_name, attribute, kind, extra in TARGETS:
        module = modules[module_name]
        owner = getattr(module, class_name) if class_name else module
        original = vars(owner)[attribute]
        if kind == COARSE:
            wrapper = tracer.wrap_coarse(name, original, extra)
        else:
            wrapper = tracer.wrap_hot(name, original, extra)
        if class_name:
            bindings = [(owner, attribute)]
        else:
            bindings = list(_function_bindings(original))
        for bound_owner, bound_attribute in bindings:
            setattr(bound_owner, bound_attribute, wrapper)
            patches.append((bound_owner, bound_attribute, original, wrapper))
    return patches


def uninstall(patches):
    """Restore every patched attribute; returns the attributes that are
    *not* the original object afterwards (must be empty)."""
    for owner, attribute, original, _wrapper in patches:
        setattr(owner, attribute, original)
    return [
        "%s.%s" % (getattr(owner, "__name__", owner), attribute)
        for owner, attribute, original, _wrapper in patches
        if vars(owner)[attribute] is not original
    ]
