"""Guard-domination analysis for the zero-cost-off contract (RPR002).

The runtime's observability contract (TXT2, see ``repro.obs``) is that
an absent recording costs exactly one pointer comparison on every hot
path: the handle is ``None`` and every
instrumentation site is dominated by an ``is not None`` test on it.
This module implements the flow-sensitive half of that check as a
client of the shared CFG + dataflow framework
(:mod:`repro.analysis.cfg`, :mod:`repro.analysis.dataflow`): guard
facts are a *must* property, so :class:`GuardAnalysis` joins with set
intersection — a call is satisfied only when a dominating guard holds
on **every** control-flow path reaching it, through branches, loops,
``try``/``finally``, and early returns alike.

The analysis understands the guard shapes that occur in idiomatic
Python:

* ``if x is not None: x.emit(...)`` (including ``and`` conjunctions);
* ``x.emit(...) if x is not None else None`` (ternary);
* ``x is not None and x.emit(...)`` (short-circuit);
* ``x is None or x.emit(...)``;
* early exits — ``if x is None: return`` guards the rest of the block;
* ``assert x is not None``;
* guards on a *prefix* of the access chain: ``if self.recording is not
  None: self.recording.series.flush(...)`` is fine, because a non-None
  handle owns its sub-objects.

Reassigning a guarded name (``recording = ...``) invalidates its guard —
including along loop back edges, which the old prefix-walk could not
see — and nested function/class scopes start with no guards: a closure
may run long after the guard was checked.
"""

import ast

from .dataflow import ForwardDataflow, iter_scopes


def dotted_parts(node):
    """``a.b.c`` as ``("a", "b", "c")``, or None for non-name chains."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return tuple(parts)
    return None


def _key(node):
    parts = dotted_parts(node)
    return ".".join(parts) if parts else None


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def positive_guards(test):
    """Expression keys proven non-None when *test* evaluates true."""
    guards = set()
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, op, right = test.left, test.ops[0], test.comparators[0]
        if isinstance(op, ast.IsNot):
            operand = left if _is_none(right) else (
                right if _is_none(left) else None
            )
            key = _key(operand) if operand is not None else None
            if key:
                guards.add(key)
    elif isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            guards |= positive_guards(value)
    elif isinstance(test, (ast.Name, ast.Attribute)):
        # Truthiness implies non-None.
        key = _key(test)
        if key:
            guards.add(key)
    elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        guards |= negative_guards(test.operand)
    return guards


def negative_guards(test):
    """Expression keys proven non-None when *test* evaluates false."""
    guards = set()
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, op, right = test.left, test.ops[0], test.comparators[0]
        if isinstance(op, ast.Is):
            operand = left if _is_none(right) else (
                right if _is_none(left) else None
            )
            key = _key(operand) if operand is not None else None
            if key:
                guards.add(key)
    elif isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        # The whole Or is false only if every operand is false.
        for value in test.values:
            guards |= negative_guards(value)
    elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        guards |= positive_guards(test.operand)
    return guards


def _invalidated(fact, key):
    """Drop *key* and everything rooted under it from a guard fact."""
    if key is None:
        return fact
    prefix = key + "."
    stale = {g for g in fact if g == key or g.startswith(prefix)}
    return fact - stale if stale else fact


def _invalidate_target(fact, target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            fact = _invalidate_target(fact, element)
        return fact
    if isinstance(target, ast.Starred):
        return _invalidate_target(fact, target.value)
    return _invalidated(fact, _key(target))


class GuardAnalysis(ForwardDataflow):
    """Must-analysis over guard keys: intersection join, edge refinement."""

    def initial(self):
        return frozenset()

    def join(self, a, b):
        return a & b

    def refine(self, test, polarity, fact):
        if polarity is True:
            return fact | frozenset(positive_guards(test))
        return fact | frozenset(negative_guards(test))

    def transfer(self, elem, fact):
        kind, node = elem
        if kind == "bind":
            return _invalidate_target(fact, node)
        if kind != "stmt":
            return fact
        if isinstance(node, ast.Assert):
            return fact | frozenset(positive_guards(node.test))
        if isinstance(node, ast.Assign):
            for target in node.targets:
                fact = _invalidate_target(fact, target)
            return fact
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return _invalidate_target(fact, node.target)
        if isinstance(node, ast.Delete):
            for target in node.targets:
                fact = _invalidate_target(fact, target)
            return fact
        return fact


#: The chain segment name (leading underscores aside) that denotes the
#: optional observability handle.
TRACERISH = frozenset({"recording"})


class UnguardedCallScanner:
    """Collect attribute calls on observability handles without a
    dominating ``is not None`` guard.

    A call qualifies when any proper prefix of its access chain ends in
    a :data:`TRACERISH` segment (``"recording"``), and is satisfied
    when any such prefix — or a longer prefix of the chain — is guarded.
    """

    def __init__(self):
        #: Violations: (call node, full dotted chain tuple).
        self.found = []
        self._reported = set()

    # -- statements ----------------------------------------------------
    def scan_module(self, tree):
        analysis = GuardAnalysis()
        for _scope, body in iter_scopes(tree):
            cfg, entry_facts = analysis.analyze(body)
            for block in cfg.blocks:
                fact = entry_facts[block.id]
                if fact is None:
                    # Dead code (after an unconditional exit): scan it
                    # anyway, assuming nothing.
                    fact = frozenset()
                self._scan_block(block, set(fact))
        return self.found

    def _scan_block(self, block, guarded):
        """Walk one block's elements with the fixpoint entry fact,
        scanning expressions and updating guards in evaluation order."""
        for kind, node in block.elems:
            if kind in ("test", "expr"):
                self.scan_expr(node, guarded)
            elif kind == "loop-iter":
                self.scan_expr(node.iter, guarded)
            elif kind == "bind":
                self._invalidate(node, guarded)
            elif kind == "stmt":
                self._scan_simple(node, guarded)

    def _scan_simple(self, stmt, guarded):
        if isinstance(stmt, ast.Assert):
            self.scan_expr(stmt.test, guarded)
            if stmt.msg is not None:
                self.scan_expr(stmt.msg, guarded)
            guarded |= positive_guards(stmt.test)
        elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if stmt.value is not None:
                self.scan_expr(stmt.value, guarded)
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                self._invalidate(target, guarded)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._invalidate(target, guarded)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Defaults/decorators evaluate in the enclosing scope now;
            # the body is its own scope (visited via iter_scopes) and
            # runs later, when no guard still holds.
            for default in (stmt.args.defaults
                            + [d for d in stmt.args.kw_defaults if d]):
                self.scan_expr(default, guarded)
            for decorator in stmt.decorator_list:
                self.scan_expr(decorator, guarded)
        elif isinstance(stmt, ast.ClassDef):
            for decorator in stmt.decorator_list:
                self.scan_expr(decorator, guarded)
            for base in stmt.bases:
                self.scan_expr(base, guarded)
            for keyword in stmt.keywords:
                self.scan_expr(keyword.value, guarded)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.scan_expr(child, guarded)

    def _invalidate(self, target, guarded):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._invalidate(element, guarded)
            return
        if isinstance(target, ast.Starred):
            self._invalidate(target.value, guarded)
            return
        key = _key(target)
        if key is None:
            return
        prefix = key + "."
        for stale in [g for g in guarded
                      if g == key or g.startswith(prefix)]:
            guarded.discard(stale)

    # -- expressions ---------------------------------------------------
    def scan_expr(self, node, guarded):
        if node is None:
            return
        if isinstance(node, ast.Call):
            self._check_call(node, guarded)
            for child in ast.iter_child_nodes(node):
                self.scan_expr(child, guarded)
        elif isinstance(node, ast.BoolOp):
            accumulated = set(guarded)
            for value in node.values:
                self.scan_expr(value, accumulated)
                if isinstance(node.op, ast.And):
                    accumulated |= positive_guards(value)
                else:
                    accumulated |= negative_guards(value)
        elif isinstance(node, ast.IfExp):
            self.scan_expr(node.test, guarded)
            self.scan_expr(node.body,
                           guarded | positive_guards(node.test))
            self.scan_expr(node.orelse,
                           guarded | negative_guards(node.test))
        elif isinstance(node, ast.Lambda):
            self.scan_expr(node.body, set())
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            element_guards = set(guarded)
            for comp in node.generators:
                self.scan_expr(comp.iter, element_guards)
                for condition in comp.ifs:
                    self.scan_expr(condition, element_guards)
                    element_guards |= positive_guards(condition)
            if isinstance(node, ast.DictComp):
                self.scan_expr(node.key, element_guards)
                self.scan_expr(node.value, element_guards)
            else:
                self.scan_expr(node.elt, element_guards)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.scan_expr(child, guarded)
                else:
                    # keywords, slices, formatted values, ...
                    for grandchild in ast.iter_child_nodes(child):
                        if isinstance(grandchild, ast.expr):
                            self.scan_expr(grandchild, guarded)

    def _check_call(self, node, guarded):
        chain = dotted_parts(node.func)
        if chain is None or len(chain) < 2:
            return
        base = chain[:-1]
        matching = [
            length for length in range(1, len(base) + 1)
            if base[length - 1].lstrip("_") in TRACERISH
        ]
        if not matching:
            return
        # Satisfied when a guard covers a matching prefix or anything
        # longer (a guard on the full base also proves the prefix).
        shortest = min(matching)
        for length in range(shortest, len(base) + 1):
            if ".".join(base[:length]) in guarded:
                return
        # finally-body duplication means one call node can be walked on
        # several paths; report it at most once.
        if id(node) not in self._reported:
            self._reported.add(id(node))
            self.found.append((node, chain))
