"""The repro rule pack: invariants the paper's guarantees depend on.

Each rule encodes one cross-cutting contract of this codebase (see
``docs/static-analysis.md`` for the rendered catalogue):

* **RPR001** — the simulated runtime must be wall-clock- and
  RNG-deterministic;
* **RPR002** — instrumentation on hot paths must follow the
  zero-cost-off guard pattern (the TXT2 contract);
* **RPR003** — the message protocol must be exhaustive: every frame
  type has a dispatch handler and a construction site;
* **RPR004** — no mutable default arguments;
* **RPR005** — no broad exception handlers that can swallow
  ``QueryAborted`` or the termination protocol's control flow;
* **RPR006** — no effectful iteration over ``set``s / set-keyed dict
  views (hash-seed-dependent order breaks bit-determinism);
* **RPR008** — the generated bulk kernels must guard their recording
  calls (see :mod:`repro.analysis.kernel_audit`);
* **RPR009** — no ``QueryScope``-reachable mutable state mutated across
  the service boundary except through the scheduler API.
"""

import ast
import os

from repro.analysis.core import Rule, enclosing_symbols
from repro.analysis.dataflow import iter_scopes
from repro.analysis.flows import SetTypeAnalysis, class_set_model
from repro.analysis.guards import UnguardedCallScanner, dotted_parts

# ----------------------------------------------------------------------
# RPR001 — determinism
# ----------------------------------------------------------------------

#: Calls that read ambient nondeterminism (wall clock, OS entropy).
_NONDETERMINISTIC = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
}


def _import_aliases(tree):
    """Map local names to the dotted thing they import.

    ``import time as t`` maps ``t -> time``; ``from random import
    shuffle`` maps ``shuffle -> random.shuffle``.
    """
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    "%s.%s" % (node.module, alias.name)
                )
    return aliases


class DeterminismRule(Rule):
    """RPR001: no ambient wall-clock or unseeded randomness in the
    simulated runtime."""

    id = "RPR001"
    title = "determinism: no wall-clock or unseeded randomness"
    severity = "error"
    scope = ("repro.runtime", "repro.cluster", "repro.chaos",
             "repro.graph", "repro.workloads", "repro.bench",
             "repro.service", "repro.stats", "repro.plan.cost")
    rationale = (
        "The paper's guarantees — deterministic query completion under a "
        "finite memory budget — are only testable because a run is a pure "
        "function of (graph, query, config, seed). A single `time.time()` "
        "or module-level `random.random()` call inside the simulated "
        "runtime makes results, tick counts, and the regression gates "
        "unreproducible. Randomness must flow from an explicit "
        "`random.Random(seed)` threaded from the config; wall-clock reads "
        "are allowed only at explicitly suppressed sites that never feed "
        "back into control flow (benchmark wall-time reporting)."
    )
    example = (
        "# bad: ambient entropy, differs across runs\n"
        "delay = random.randint(0, 3)\n"
        "started = time.time()\n"
        "\n"
        "# good: seeded stream threaded from config\n"
        "rng = random.Random(config.seed)\n"
        "delay = rng.randint(0, 3)"
    )

    def check(self, module):
        aliases = _import_aliases(module.tree)
        symbols = enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_parts(node.func)
            if chain is None:
                continue
            resolved = aliases.get(chain[0])
            if resolved is None:
                continue
            dotted = ".".join((resolved,) + chain[1:])
            if dotted in _NONDETERMINISTIC or dotted.startswith("secrets."):
                yield self.finding(
                    module, node,
                    "nondeterministic call %s() in simulated runtime "
                    "code" % dotted,
                    dotted, symbols,
                )
            elif dotted == "random.Random" and not node.args \
                    and not node.keywords:
                yield self.finding(
                    module, node,
                    "random.Random() without a seed is nondeterministic; "
                    "thread an explicit seed from the config",
                    "random.Random:unseeded", symbols,
                )
            elif dotted.startswith("random.") and dotted != "random.Random":
                yield self.finding(
                    module, node,
                    "module-level %s() draws from the shared unseeded "
                    "RNG; use a random.Random(seed) instance" % dotted,
                    dotted, symbols,
                )


# ----------------------------------------------------------------------
# RPR002 — zero-cost-off instrumentation
# ----------------------------------------------------------------------

class ZeroCostOffRule(Rule):
    """RPR002: calls on the run's recording must sit under an
    ``is not None`` guard on the handle."""

    id = "RPR002"
    title = "zero-cost-off: guard recording calls with `is not None`"
    severity = "error"
    scope = ("repro.runtime", "repro.cluster", "repro.service",
             "repro.obs.feedback")
    rationale = (
        "Observability must cost nothing when disabled: the runtime holds "
        "either a Recording or None under the one name `recording`, and "
        "the TXT2 overhead benchmark pins the unrecorded path to a single "
        "pointer comparison per site. An instrumentation call with no "
        "`is not None` guard on its handle between it and its scope (an "
        "enclosing test, an earlier `and` operand, an earlier `assert` or "
        "early exit, with no rebinding in between) either crashes "
        "when the run is not recorded (AttributeError on None) or forces "
        "the handle to become a do-nothing object whose method calls are "
        "pure overhead on every hot-path operation. The guard on the root "
        "handle is the contract; sub-objects (`recording.series`, "
        "histogram families) are owned by it."
    )
    example = (
        "# bad: crashes (or costs a call) when the run is not recorded\n"
        "self.recording.emit(FlowBlock(now, self.machine_id, stage, dest))\n"
        "\n"
        "# good: one pointer comparison when disabled\n"
        "if self.recording is not None:\n"
        "    self.recording.emit(\n"
        "        FlowBlock(now, self.machine_id, stage, dest))"
    )

    def check(self, module):
        scanner = UnguardedCallScanner()
        scanner.scan_module(module.tree)
        symbols = enclosing_symbols(module.tree)
        for node, chain in scanner.found:
            dotted = ".".join(chain)
            yield self.finding(
                module, node,
                "call %s() has no `is not None` guard on its "
                "recording handle" % dotted,
                dotted, symbols,
            )


# ----------------------------------------------------------------------
# RPR003 — protocol exhaustiveness (cross-module)
# ----------------------------------------------------------------------

class ProtocolExhaustivenessRule(Rule):
    """RPR003: every message type is dispatched and constructed."""

    id = "RPR003"
    title = "protocol exhaustiveness: every message handled and constructed"
    severity = "error"
    project_wide = True
    #: Handler modules searched next to each ``messages.py``.
    handler_files = ("machine.py", "reliability.py")
    rationale = (
        "The termination protocol is a distributed wavefront: COMPLETED "
        "notifications, acks, and quota messages must all be consumed, or "
        "a frame silently vanishes in dispatch and the query wedges "
        "instead of terminating — the exact failure mode the paper's "
        "deterministic-completion guarantee rules out. This cross-module "
        "check ties `runtime/messages.py` to the dispatchers "
        "(`runtime/machine.py` for application traffic, "
        "`runtime/reliability.py` for the transport frames): every public "
        "message class must appear in an isinstance dispatch arm, and "
        "must be constructed somewhere — a never-built frame type is dead "
        "protocol surface that dispatch code still pays for."
    )
    example = (
        "# messages.py\n"
        "class Completed:\n"
        "    ...\n"
        "\n"
        "# machine.py — every concrete frame type gets an arm\n"
        "elif isinstance(payload, Completed):\n"
        "    self.termination.on_completed(payload.stage, src)"
    )

    def check_project(self, modules):
        by_dir = {}
        for module in modules:
            directory = os.path.dirname(module.abspath)
            by_dir.setdefault(directory, {})[
                os.path.basename(module.abspath)] = module
        constructed = set()
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call):
                    chain = dotted_parts(node.func)
                    if chain:
                        constructed.add(chain[-1])
        for directory, files in sorted(by_dir.items()):
            messages = files.get("messages.py")
            if messages is None:
                continue
            handlers = [
                files[name] for name in self.handler_files if name in files
            ]
            if not handlers:
                continue
            handled = set()
            for handler in handlers:
                handled |= _dispatched_classes(handler.tree)
            symbols = enclosing_symbols(messages.tree)
            for node in messages.tree.body:
                if not isinstance(node, ast.ClassDef) \
                        or node.name.startswith("_"):
                    continue
                if node.name not in handled:
                    yield self.finding(
                        messages, node,
                        "message type %s has no isinstance dispatch arm "
                        "in %s" % (
                            node.name,
                            "/".join(h.path for h in handlers),
                        ),
                        "%s:unhandled" % node.name, symbols,
                    )
                if node.name not in constructed:
                    yield self.finding(
                        messages, node,
                        "message type %s is never constructed — dead "
                        "frame type" % node.name,
                        "%s:unconstructed" % node.name, symbols,
                        severity="warning",
                    )


def _dispatched_classes(tree):
    """Class names appearing in isinstance/type-is dispatch tests."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            names |= _class_names(node.args[1])
        elif isinstance(node, ast.Compare) and len(node.ops) == 1 \
                and isinstance(node.ops[0], (ast.Is, ast.Eq)) \
                and isinstance(node.left, ast.Call) \
                and isinstance(node.left.func, ast.Name) \
                and node.left.func.id == "type":
            names |= _class_names(node.comparators[0])
    return names


def _class_names(node):
    if isinstance(node, ast.Tuple):
        names = set()
        for element in node.elts:
            names |= _class_names(element)
        return names
    chain = dotted_parts(node)
    return {chain[-1]} if chain else set()


# ----------------------------------------------------------------------
# RPR004 — mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "deque", "defaultdict",
                  "Counter", "OrderedDict"}


class MutableDefaultRule(Rule):
    """RPR004: no mutable default argument values."""

    id = "RPR004"
    title = "no mutable default arguments"
    severity = "error"
    rationale = (
        "A mutable default is evaluated once at definition time and "
        "shared by every call. In a runtime where per-query state "
        "isolation is the whole point (each QueryMachine, plan, and "
        "chaos plan must be independent), a shared default list or dict "
        "leaks state between queries and produces seed-dependent "
        "heisenbugs that the deterministic test matrix can't pin down. "
        "Default to None and materialize inside the function."
    )
    example = (
        "# bad: one shared list across every call\n"
        "def route(self, stage, dests=[]):\n"
        "    dests.append(stage)\n"
        "\n"
        "# good\n"
        "def route(self, stage, dests=None):\n"
        "    if dests is None:\n"
        "        dests = []"
    )

    def check(self, module):
        symbols = enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            for arg, default in zip(positional[len(positional)
                                               - len(args.defaults):],
                                    args.defaults):
                if self._mutable(default):
                    yield self._arg_finding(module, node, arg, default,
                                            symbols)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None and self._mutable(default):
                    yield self._arg_finding(module, node, arg, default,
                                            symbols)

    @staticmethod
    def _mutable(node):
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _MUTABLE_CALLS)

    def _arg_finding(self, module, func, arg, default, symbols):
        name = getattr(func, "name", "<lambda>")
        return self.finding(
            module, default,
            "mutable default for argument %r of %s() is shared across "
            "calls; default to None instead" % (arg.arg, name),
            "%s(%s)" % (name, arg.arg), symbols,
        )


# ----------------------------------------------------------------------
# RPR005 — exception hygiene
# ----------------------------------------------------------------------

#: Exception names broad enough to swallow QueryAborted / control flow.
_BROAD_EXCEPTIONS = {"Exception", "BaseException", "ReproError"}


class ExceptionHygieneRule(Rule):
    """RPR005: no bare/broad except that can swallow ``QueryAborted``."""

    id = "RPR005"
    title = "exception hygiene: no broad except without re-raise"
    severity = "error"
    rationale = (
        "QueryAborted is control flow, not an error: it carries the "
        "partial metrics, recording, and flow-control snapshot of a "
        "cancelled query up through the engine, and the termination "
        "protocol relies on it propagating. A bare `except:` or "
        "`except Exception:` (or `except ReproError:`, its base class) "
        "that does not re-raise can swallow an abort mid-wavefront, "
        "turning a clean structured cancellation into a silent hang or a "
        "half-updated machine state. Catch the narrowest exception the "
        "call can actually raise, or re-raise after cleanup."
    )
    example = (
        "# bad: also catches QueryAborted and RuntimeFault\n"
        "try:\n"
        "    worker.step(budget)\n"
        "except Exception:\n"
        "    pass\n"
        "\n"
        "# good: narrow catch, or re-raise after cleanup\n"
        "try:\n"
        "    worker.step(budget)\n"
        "except FlowControlError:\n"
        "    self.metrics.flow_control_blocks += 1"
    )

    def check(self, module):
        symbols = enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            if any(isinstance(child, ast.Raise) for child in ast.walk(node)):
                continue
            label = "bare except" if node.type is None \
                else "except %s" % broad
            yield self.finding(
                module, node,
                "%s swallows QueryAborted and the termination "
                "protocol's control flow without re-raising" % label,
                label.replace(" ", ":"), symbols,
            )

    @staticmethod
    def _broad_name(type_node):
        """The broad class name caught by *type_node*, or None."""
        if type_node is None:
            return "<bare>"
        candidates = (
            type_node.elts if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        for candidate in candidates:
            chain = dotted_parts(candidate)
            if chain and chain[-1] in _BROAD_EXCEPTIONS:
                return chain[-1]
        return None


# ----------------------------------------------------------------------
# RPR006 — iteration-order determinism
# ----------------------------------------------------------------------

#: Call-chain tails whose invocation inside a loop body makes iteration
#: order observable: message emission, buffer mutation, metric charges.
#: ``add``/``discard`` are deliberately absent — set insertion is
#: order-insensitive by construction.
_EMIT_SEGMENTS = frozenset({
    "send", "emit", "route", "flush", "_flush", "flush_buffer",
    "_flush_buffer", "enqueue", "push", "push_frame", "append",
    "appendleft", "extend", "extendleft", "put", "observe", "inc",
    "record", "charge",
})


def _metricish_target(target):
    """True when an AugAssign target looks like a metric/counter cell."""
    node = target
    while isinstance(node, ast.Subscript):
        node = node.value
    chain = dotted_parts(node)
    if not chain:
        return False
    return any(
        "metric" in segment or "profil" in segment or "stat" in segment
        or "counter" in segment or segment.startswith("stage_")
        for segment in chain
    )


def _loop_has_effects(body):
    """True when the loop body emits, mutates buffers, or charges
    metrics — i.e. when iteration order becomes observable."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                chain = dotted_parts(node.func)
                if chain and len(chain) >= 2 \
                        and chain[-1] in _EMIT_SEGMENTS:
                    return True
            elif isinstance(node, ast.AugAssign):
                if _metricish_target(node.target):
                    return True
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
    return False


class IterationOrderRule(Rule):
    """RPR006: no effectful loops over sets or set-keyed dict views."""

    id = "RPR006"
    title = "iteration-order determinism: no effectful loops over sets"
    severity = "error"
    scope = ("repro.runtime", "repro.cluster", "repro.service",
             "repro.analytics")
    rationale = (
        "Every parity gate — bulk-kernel differential, serial-vs-"
        "concurrent soak, chaos exact-result check — rests on bit-"
        "deterministic execution, and `set` iteration order depends on "
        "the interpreter's hash seed. A loop over a set (or over the "
        "views of a dict keyed from one) whose body sends messages, "
        "mutates shared buffers, or charges metrics makes emission "
        "order — and therefore traces, tick interleavings, and peak "
        "gauges — vary run to run. The dataflow analysis tracks which "
        "locals, attributes, and helper-method results must hold sets; "
        "wrap the iterable in `sorted(...)` to pin the order, or "
        "suppress with a comment when the body is provably order-"
        "insensitive."
    )
    example = (
        "# bad: message order depends on PYTHONHASHSEED\n"
        "higher = {v for v in neighbors if v > vertex}\n"
        "for target in higher:\n"
        "    ctx.send(target, payload)\n"
        "\n"
        "# good: deterministic emission order\n"
        "for target in sorted(higher):\n"
        "    ctx.send(target, payload)"
    )

    def check(self, module):
        symbols = enclosing_symbols(module.tree)
        class_models, parent_class = {}, {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                class_models[id(node)] = class_set_model(node)
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        parent_class[id(stmt)] = node
        reported = set()
        for scope, body in iter_scopes(module.tree):
            owner = parent_class.get(id(scope))
            if owner is not None:
                attrs, methods = class_models[id(owner)]
                analysis = SetTypeAnalysis(set_methods=methods,
                                           seed_attrs=attrs)
            else:
                analysis = SetTypeAnalysis()
            cfg, entry_facts = analysis.analyze(body)
            for block in cfg.blocks:
                fact = entry_facts[block.id]
                if fact is None:
                    fact = analysis.initial()
                for elem in block.elems:
                    kind, node = elem
                    if kind == "loop-iter" and id(node) not in reported:
                        classification = analysis.classify_iterable(
                            node.iter, fact)
                        if classification is not None \
                                and _loop_has_effects(node.body):
                            reported.add(id(node))
                            iterable = ast.unparse(node.iter)
                            what = (
                                "a set" if classification == "set"
                                else "a set-keyed dict view"
                            )
                            yield self.finding(
                                module, node,
                                "loop over %s iterates %s in hash order "
                                "while its body emits/mutates/charges; "
                                "rewrite as `for ... in sorted(%s):` to "
                                "pin the order"
                                % (iterable, what, iterable),
                                "set-iter:%s" % iterable, symbols,
                            )
                    fact = analysis.transfer(elem, fact)


# ----------------------------------------------------------------------
# RPR009 — cross-scope isolation
# ----------------------------------------------------------------------

#: Method names that mutate a container in place.
_MUTATOR_SEGMENTS = frozenset({
    "append", "appendleft", "add", "remove", "discard", "pop", "popleft",
    "clear", "extend", "extendleft", "update", "insert", "setdefault",
    "push", "sort", "reverse",
})


class CrossScopeIsolationRule(Rule):
    """RPR009: scopes only touch shared state via the scheduler API."""

    id = "RPR009"
    title = "cross-scope isolation: shared state only via the scheduler"
    severity = "error"
    scope = ("repro.service", "repro.runtime")
    rationale = (
        "The multi-query service's serial-parity gate holds because a "
        "QueryScope owns all its mutable state and the scheduler is the "
        "only cross-scope channel. A scope that writes through its "
        "service handle (`self.service.x = ...`, "
        "`self.service.registry.append(...)`) or a module-level mutable "
        "container in the runtime creates state shared across scopes "
        "outside the scheduler's control — co-tenant queries then "
        "observe each other and the concurrent run diverges from the "
        "serial replay under exactly the schedules the soak can't "
        "enumerate. Direct scheduler *calls* (`self.service.submit(...)`) "
        "are the sanctioned channel and stay allowed."
    )
    example = (
        "# bad: scope-side mutation of service-owned state\n"
        "self.service.active.append(self.query_id)\n"
        "self.service.last_result = rows\n"
        "\n"
        "# good: go through the scheduler API\n"
        "self.service.retire(self.query_id, rows)"
    )

    def check(self, module):
        symbols = enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    chain = self._service_chain(target)
                    if chain is not None and len(chain) >= 3:
                        dotted = ".".join(chain)
                        yield self.finding(
                            module, node,
                            "assignment to %s mutates service-owned "
                            "state from a scope; route it through the "
                            "scheduler API" % dotted,
                            "scope-write:%s" % dotted, symbols,
                        )
            elif isinstance(node, ast.Call):
                chain = self._service_chain(node.func)
                if chain is not None and len(chain) >= 4 \
                        and chain[-1] in _MUTATOR_SEGMENTS:
                    dotted = ".".join(chain)
                    yield self.finding(
                        module, node,
                        "%s() mutates a service-owned container from a "
                        "scope; route it through the scheduler API"
                        % dotted,
                        "scope-mutate:%s" % dotted, symbols,
                    )
        for node in module.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) \
                        and not target.id.startswith("__") \
                        and self._module_mutable(node.value):
                    yield self.finding(
                        module, node,
                        "module-level mutable %r is shared by every "
                        "scope in the process; move it into per-scope "
                        "state or freeze it" % target.id,
                        "module-mutable:%s" % target.id, symbols,
                    )

    @staticmethod
    def _service_chain(target):
        """The dotted chain when *target* goes through a service handle."""
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        chain = dotted_parts(node)
        if chain is None or len(chain) < 2:
            return None
        if chain[0] == "self" and chain[1].lstrip("_") == "service":
            return chain
        return None

    @staticmethod
    def _module_mutable(value):
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _MUTABLE_CALLS)


from repro.analysis.kernel_audit import KernelCodegenAuditRule  # noqa: E402

#: The default rule pack, in report order.  RPR008 (the kernel-codegen
#: audit, :mod:`repro.analysis.kernel_audit`) is the one rule that
#: compiles repository code (the bench plan matrix) instead of only
#: parsing it; its heavy imports are deferred into the check itself.
RULE_CLASSES = (
    DeterminismRule,
    ZeroCostOffRule,
    ProtocolExhaustivenessRule,
    MutableDefaultRule,
    ExceptionHygieneRule,
    IterationOrderRule,
    KernelCodegenAuditRule,
    CrossScopeIsolationRule,
)


def default_rules():
    """Fresh instances of the full rule pack."""
    return [cls() for cls in RULE_CLASSES]


def rule_by_id(rule_id):
    """Look up one rule instance by id (case-insensitive)."""
    for cls in RULE_CLASSES:
        if cls.id.lower() == rule_id.lower():
            return cls()
    return None
