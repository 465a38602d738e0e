"""Set-typed values for the determinism rule RPR006.

Iterating a ``set`` (or the views of a dict keyed from one) runs in
hash order, so a loop over one that emits messages or charges metrics
breaks the bit-determinism contract.  :class:`SetTypes` decides whether
a loop's iterable is such a value with no control-flow graph: a name
takes the classification of the plain assignment that reaches the loop
along RPR002's ancestor walk (:func:`repro.analysis.guards.reaching`),
and a rebinding voids it where it voids a guard.  The walk follows one
path and joins an ``if``/``else`` only when both branches end by
assigning a set; a set assigned earlier in a branch, extended under an
``if`` without ``else``, rebound by a ``try`` handler after the loop, or
whose name an earlier comprehension or nested ``def`` reuses reads as
unknown, never as a set.
"""

import ast

from .guards import SCOPES, _key, dotted_parts, reaching

#: ``set`` methods returning another set.
_SET_PRODUCING_METHODS = frozenset({
    "intersection", "union", "difference", "symmetric_difference", "copy",
})


def _assigned(stmt, key):
    """The value *stmt* assigns to *key* alone, or None (unknown)."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        return stmt.value if _key(stmt.targets[0]) == key else None
    if isinstance(stmt, ast.AnnAssign) and _key(stmt.target) == key:
        return stmt.value
    return None


class SetTypes:
    """Classify the expressions of one module as sets or set-keyed dicts.

    An expression is classified where it is evaluated, just before the
    statement *at* of *scope*.  In a method, a ``self.<attr>`` that
    every assignment in the class sets to a set display is a set on
    entry, and ``self.<helper>()`` is a set when every return of the
    helper is one (one level deep, no fixpoint).
    """

    def __init__(self, tree, parents):
        self.parents = parents
        #: Class of each method, and the class models built so far.
        self.owner = {
            stmt: node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}
        self.models = {}

    def model(self, scope):
        """``(set_attrs, set_methods)`` seen from *scope*, empty outside
        a method."""
        cls = self.owner.get(scope)
        if cls is None:
            return frozenset(), frozenset()
        if cls not in self.models:
            attrs = self._set_attrs(cls)
            # The helpers' returns are classified knowing no helpers.
            self.models[cls] = (attrs, frozenset())
            self.models[cls] = (attrs, frozenset(
                stmt.name for stmt in cls.body
                if stmt in self.owner and self._returns_set(stmt)))
        return self.models[cls]

    def _set_attrs(self, cls):
        verdicts = {}
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and node.value is not None:
                is_set = self.kind(node.value, None, None) == "set"
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target]):
                    chain = dotted_parts(target)
                    if chain and len(chain) == 2 and chain[0] == "self":
                        verdicts.setdefault(_key(target), []).append(is_set)
        return frozenset(key for key, sets in verdicts.items() if all(sets))

    def _returns_set(self, method):
        returns = [node for node in ast.walk(method)
                   if isinstance(node, ast.Return)]
        return bool(returns) and all(
            node.value is not None
            and self.kind(node.value, node, self._scope(node)) == "set"
            for node in returns)

    def _scope(self, node):
        while not isinstance(node, SCOPES + (ast.Module,)):
            node = self.parents[node]
        return node

    def kind(self, expr, at, scope):
        """"set", "setdict" or None for *expr* evaluated just before the
        statement *at* of *scope* (with *at* None: from syntax alone)."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(expr, (ast.Name, ast.Attribute)):
            key = _key(expr)
            if key is None or at is None:
                return None
            hit = reaching(at, {key}, self.parents, guards=False)
            if hit is scope:
                return "set" if key in self.model(scope)[0] else None
            if isinstance(hit, ast.If) and hit.orelse:
                # The if/else join: both branches end assigning a set.
                return "set" if all(
                    self.kind(_assigned(end, key), end, scope) == "set"
                    for end in (hit.body[-1], hit.orelse[-1])) else None
            return self.kind(_assigned(hit, key), hit, scope)
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return "set"
            if isinstance(func, ast.Attribute):
                if func.attr in _SET_PRODUCING_METHODS \
                        and self.kind(func.value, at, scope) == "set":
                    return "set"
                # dict.fromkeys(some_set): keys iterate in set order
                if func.attr == "fromkeys" and expr.args \
                        and isinstance(func.value, ast.Name) \
                        and func.value.id == "dict" \
                        and self.kind(expr.args[0], at, scope) == "set":
                    return "setdict"
                chain = dotted_parts(func)
                if chain is not None and len(chain) == 2 \
                        and chain[0] == "self" \
                        and chain[1] in self.model(scope)[1]:
                    return "set"
            return None
        if isinstance(expr, ast.BinOp) \
                and isinstance(expr.op, (ast.BitOr, ast.BitAnd,
                                         ast.BitXor, ast.Sub)):
            if self.kind(expr.left, at, scope) == "set" \
                    or self.kind(expr.right, at, scope) == "set":
                return "set"
            return None
        if isinstance(expr, ast.IfExp):
            if self.kind(expr.body, at, scope) == "set" \
                    and self.kind(expr.orelse, at, scope) == "set":
                return "set"
            return None
        if isinstance(expr, ast.DictComp) \
                and self.kind(expr.generators[0].iter, at, scope) == "set":
            return "setdict"
        return None

    def iterable(self, loop):
        """"set", "setdict-view" or None for the iterable of *loop*.

        ``sorted(...)``/``list(...)`` wrappers pin the order, so they
        classify as None by construction.
        """
        expr, scope = loop.iter, self._scope(loop)
        if isinstance(expr, ast.Call) \
                and isinstance(expr.func, ast.Attribute) \
                and expr.func.attr in ("keys", "values", "items") \
                and not expr.args:
            if self.kind(expr.func.value, loop, scope) == "setdict":
                return "setdict-view"
            return None
        return "set" if self.kind(expr, loop, scope) == "set" else None
