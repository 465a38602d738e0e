"""The ancestor walk, and the guard check of the zero-cost-off contract
(RPR002) built on it.

The runtime's observability contract (TXT2, see ``repro.obs``) is that
an absent recording costs exactly one pointer comparison on every hot
path: the handle is ``None`` and every instrumentation site sits under
an ``is not None`` test on it.  The check is syntactic: for each call on
a recording handle, :class:`UnguardedCallScanner` walks the call's
ancestors up to its scope (:func:`reaching`) and looks for a guard on
the way.  A guard is

* the test of an enclosing ``if``, ``while`` or ternary on the call's
  branch — ``if x is not None: x.emit(...)`` (``and`` conjunctions,
  ``not`` and truthiness included), or the ``else`` of ``if x is None``;
* an earlier operand of an enclosing ``and``/``or`` —
  ``x is not None and x.emit(...)``, ``x is None or x.emit(...)``;
* an earlier statement of an enclosing block — ``assert x is not
  None``, or an ``if x is None:`` whose body exits (``return``,
  ``raise``, ``break``, ``continue``).

A guard on a *prefix* of the access chain counts: ``if self.recording is
not None: self.recording.series.flush(...)`` is fine, because a non-None
handle owns its sub-objects.  Rebinding the handle (or a prefix of it)
between the guard and the call voids the guard, and so does rebinding
it anywhere in an enclosing loop (the back edge carries it round to the
call) or ``try`` (a handler or ``finally`` may run after any prefix of
the body), or as a ``with ... as`` target.  A nested function, class or
lambda starts with no guards: it may run long after the guard was
checked.

The same walk, asked for bindings instead of guards, finds the
assignment that reaches a loop for RPR006 (:mod:`repro.analysis.flows`);
both rules share one parent map per module (``SourceModule.parents``).
"""

import ast


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


#: The chain segment name (leading underscores aside) that denotes the
#: optional observability handle.
TRACERISH = frozenset({"recording"})

#: Ancestors whose body runs at another time, with no guard inherited.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
#: Statements that end a block: an ``if x is None:`` ending in one
#: guards what follows the ``if``.
_EXITS = (ast.Return, ast.Raise, ast.Break, ast.Continue)


def _position(parent, node):
    """``(field, index)`` of *node* in *parent* (index None if scalar)."""
    for field, value in ast.iter_fields(parent):
        if value is node:
            return field, None
        if isinstance(value, list) and node in value:
            return field, value.index(node)
    return None, None


def _void(live, *nodes):
    """*live* minus the keys *nodes* rebind (or rebind a prefix of)."""
    for node in nodes:
        bound = {_key(sub) for sub in ast.walk(node)
                 if isinstance(getattr(sub, "ctx", None), (ast.Store, ast.Del))}
        bound |= {sub.name for sub in ast.walk(node)
                  if isinstance(sub, ast.ExceptHandler) and sub.name}
        live = {key for key in live
                if not any(key == b or key.startswith(b + ".")
                           for b in bound if b)}
    return live


def _guards_after(stmt):
    """Keys a statement that completed normally proves non-None."""
    if isinstance(stmt, ast.Assert):
        return positive_guards(stmt.test)
    if isinstance(stmt, ast.If) and isinstance(stmt.body[-1], _EXITS):
        return _void(negative_guards(stmt.test), *stmt.orelse)
    return set()


def parent_map(tree):
    """``{child: parent}`` for every node of *tree*."""
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def reaching(node, live, parents, guards=True):
    """Walk from *node* to its scope and return what reaches it first.

    With *guards*, that is the first node holding a guard on a key in
    *live* (an enclosing test, an earlier ``and``/``or`` operand or an
    earlier statement); without, the first earlier statement that binds
    a key in *live* (RPR006 reads the plain assignment off it).  Keys
    rebound on the way are voided, and the walk returns None once none
    is left.  Reaching the top of the scope, it returns the scope node
    (the module, or the enclosing ``def``, ``class`` or ``lambda``).
    """
    while live:
        parent = parents.get(node)
        if parent is None:
            return node
        field, index = _position(parent, node)
        if isinstance(node, ast.stmt) and index is not None:
            for earlier in reversed(getattr(parent, field)[:index]):
                if guards and _guards_after(earlier) & live:
                    return earlier
                voided = _void(live, earlier)
                if not guards and voided != live:
                    return earlier
                live = voided
        elif guards and isinstance(parent, ast.BoolOp) \
                and index is not None:
            proves = (positive_guards if isinstance(parent.op, ast.And)
                      else negative_guards)
            if any(proves(value) & live for value in parent.values[:index]):
                return parent
        if isinstance(parent, SCOPES) and field == "body":
            return parent
        if guards and isinstance(parent, (ast.If, ast.While, ast.IfExp)):
            if field == "body" and positive_guards(parent.test) & live:
                return parent
            if field == "orelse" and negative_guards(parent.test) & live:
                return parent
        if isinstance(parent, (ast.While, ast.Try)) or (
                isinstance(parent, (ast.For, ast.AsyncFor))
                and field != "iter"):
            live = _void(live, parent)
        elif isinstance(parent, (ast.With, ast.AsyncWith)) \
                and field == "body":
            live = _void(live, *parent.items)
        node = parent
    return None


class UnguardedCallScanner:
    """Collect attribute calls on observability handles without an
    ``is not None`` guard on the way to their scope.

    A call qualifies when any proper prefix of its access chain ends in
    a :data:`TRACERISH` segment (``"recording"``), and is satisfied
    when any such prefix — or a longer prefix of the chain — is guarded.
    """

    def __init__(self):
        #: Violations: (call node, full dotted chain tuple).
        self.found = []

    def scan_module(self, tree, parents=None):
        if parents is None:
            parents = parent_map(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_parts(node.func)
            if chain is None or len(chain) < 2:
                continue
            base = chain[:-1]
            matching = [length for length in range(1, len(base) + 1)
                        if base[length - 1].lstrip("_") in TRACERISH]
            if not matching:
                continue
            # A guard on a matching prefix or anything longer (a guard
            # on the full base also proves the prefix).
            keys = {".".join(base[:length])
                    for length in range(min(matching), len(base) + 1)}
            hit = reaching(node, keys, parents)
            if hit is None or isinstance(hit, SCOPES + (ast.Module,)):
                self.found.append((node, chain))
        return self.found
