"""The client dataflow analysis of the determinism rule RPR006.

:class:`SetTypeAnalysis`, built on the shared CFG/dataflow framework,
is a *must* analysis tracking which names and attributes definitely
hold a ``set`` (or a dict built from a set, whose view order is the
set's order).  Iterating such a value is order-nondeterministic under
hash randomization, so a loop over one that emits messages or charges
metrics breaks the bit-determinism contract.
"""

import ast

from .dataflow import ForwardDataflow
from .guards import dotted_parts, _key


# ---------------------------------------------------------------------------
# RPR006 support: set-typed value tracking
# ---------------------------------------------------------------------------

#: ``set`` methods returning another set.
_SET_PRODUCING_METHODS = frozenset({
    "intersection", "union", "difference", "symmetric_difference", "copy",
})


class SetTypeAnalysis(ForwardDataflow):
    """Track keys that *must* hold a set / set-keyed dict.

    The fact is ``(sets, setdicts)`` — two frozensets of dotted keys.
    ``sets`` holds values of type ``set``/``frozenset``; ``setdicts``
    holds dicts whose keys came from a set (``dict.fromkeys(s)``, dict
    comprehensions over a set), so ``.keys()``/``.items()``/``.values()``
    views inherit the nondeterministic order.

    *set_methods* optionally names methods of the enclosing class whose
    return value is known to be a set (``self._helper()`` call sites
    then classify as sets); *seed_attrs* pre-loads ``self.<attr>`` keys
    known to hold sets (assigned set literals anywhere in the class).
    """

    def __init__(self, set_methods=(), seed_attrs=()):
        self.set_methods = frozenset(set_methods)
        self.seed_attrs = frozenset(seed_attrs)

    def initial(self):
        return (frozenset(self.seed_attrs), frozenset())

    def join(self, a, b):
        return (a[0] & b[0], a[1] & b[1])

    def transfer(self, elem, fact):
        kind, node = elem
        if kind == "bind":
            return self._invalidate_target(fact, node)
        if kind == "loop-iter":
            # The loop target is invalidated by the head's bind elem.
            return fact
        if kind != "stmt":
            return fact
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            return self._assign(fact, node.targets[0], node.value)
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            return self._assign(fact, node.target, node.value)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                fact = self._invalidate_target(fact, target)
            return fact
        if isinstance(node, ast.Delete):
            for target in node.targets:
                fact = self._invalidate_target(fact, target)
            return fact
        return fact

    # -- helpers -------------------------------------------------------
    def _assign(self, fact, target, value):
        fact = self._invalidate_target(fact, target)
        key = _key(target)
        if key is None:
            return fact
        sets, setdicts = fact
        classification = self.classify(value, fact)
        if classification == "set":
            sets = sets | {key}
        elif classification == "setdict":
            setdicts = setdicts | {key}
        return (sets, setdicts)

    def _invalidate_target(self, fact, target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                fact = self._invalidate_target(fact, element)
            return fact
        if isinstance(target, ast.Starred):
            return self._invalidate_target(fact, target.value)
        key = _key(target)
        if key is None:
            return fact
        prefix = key + "."
        sets, setdicts = fact
        sets = frozenset(k for k in sets
                         if k != key and not k.startswith(prefix))
        setdicts = frozenset(k for k in setdicts
                             if k != key and not k.startswith(prefix))
        return (sets, setdicts)

    def classify(self, expr, fact):
        """Classify *expr* as "set", "setdict", or None (unknown)."""
        sets, setdicts = fact
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(expr, (ast.Name, ast.Attribute)):
            key = _key(expr)
            if key in sets:
                return "set"
            if key in setdicts:
                return "setdict"
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return "set"
            if isinstance(func, ast.Attribute):
                # set-producing methods on a known set
                if func.attr in _SET_PRODUCING_METHODS \
                        and self.classify(func.value, fact) == "set":
                    return "set"
                # dict.fromkeys(some_set) -> keys iterate in set order
                if func.attr == "fromkeys" and expr.args \
                        and isinstance(func.value, ast.Name) \
                        and func.value.id == "dict" \
                        and self.classify(expr.args[0], fact) == "set":
                    return "setdict"
                # self._helper() where _helper is known to return a set
                chain = dotted_parts(func)
                if chain is not None and len(chain) == 2 \
                        and chain[0] == "self" \
                        and chain[1] in self.set_methods:
                    return "set"
            return None
        if isinstance(expr, ast.BinOp) \
                and isinstance(expr.op, (ast.BitOr, ast.BitAnd,
                                         ast.BitXor, ast.Sub)):
            if self.classify(expr.left, fact) == "set" \
                    or self.classify(expr.right, fact) == "set":
                return "set"
            return None
        if isinstance(expr, ast.IfExp):
            if self.classify(expr.body, fact) == "set" \
                    and self.classify(expr.orelse, fact) == "set":
                return "set"
            return None
        if isinstance(expr, ast.DictComp) and expr.generators:
            first = expr.generators[0]
            if self.classify(first.iter, fact) == "set":
                return "setdict"
            return None
        return None

    def classify_iterable(self, expr, fact):
        """Classify a ``for``-loop iterable, seeing through dict views.

        Returns "set" / "setdict-view" / None.  ``sorted(...)`` and
        ``list(...)``/``tuple(...)`` wrappers normalize the order, so
        they classify as None by construction.
        """
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            if expr.func.attr in ("keys", "values", "items") \
                    and not expr.args:
                if self.classify(expr.func.value, fact) == "setdict":
                    return "setdict-view"
                return None
        classification = self.classify(expr, fact)
        return "set" if classification == "set" else None


def class_set_model(class_node):
    """Pre-pass over a class body: seed attrs and set-returning methods.

    Returns ``(set_attrs, set_methods)``:

    * ``set_attrs`` — every ``self.<attr>`` assigned a syntactic set
      expression somewhere in the class and never anything else-typed
      we can see; used to seed per-method initial facts.
    * ``set_methods`` — methods whose every ``return <value>``
      classifies as a set under the seeded analysis (and at least one
      valued return exists).  One level deep, no fixpoint: enough to
      catch helper methods like ``_higher_neighbors`` returning a
      built set.
    """
    candidate = {}
    probe = SetTypeAnalysis()
    for node in ast.walk(class_node):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            value = node.value
            if value is None:
                continue
            for target in targets:
                chain = dotted_parts(target)
                if chain is None or len(chain) != 2 or chain[0] != "self":
                    continue
                is_set = probe.classify(
                    value, (frozenset(), frozenset())) == "set"
                seen = candidate.get(chain[1])
                candidate[chain[1]] = is_set if seen is None \
                    else (seen and is_set)
    set_attrs = frozenset(
        "self." + attr for attr, ok in candidate.items() if ok
    )

    set_methods = set()
    for stmt in class_node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        returns = [node for node in ast.walk(stmt)
                   if isinstance(node, ast.Return)]
        valued = [node for node in returns if node.value is not None]
        if not valued or len(valued) != len(returns):
            continue
        analysis = SetTypeAnalysis(seed_attrs=set_attrs)
        cfg, entry_facts = analysis.analyze(stmt.body)
        facts_at = _facts_at_stmts(analysis, cfg, entry_facts)
        if all(
            analysis.classify(node.value,
                              facts_at.get(id(node),
                                           (frozenset(), frozenset())))
            == "set"
            for node in valued
        ):
            set_methods.add(stmt.name)
    return set_attrs, frozenset(set_methods)


def _facts_at_stmts(analysis, cfg, entry_facts):
    """Map ``id(stmt) -> fact`` holding just before each stmt element."""
    facts = {}
    for block in cfg.blocks:
        fact = entry_facts[block.id]
        if fact is None:
            fact = analysis.initial()
        for elem in block.elems:
            kind, node = elem
            facts.setdefault(id(node), fact)
            fact = analysis.transfer(elem, fact)
    return facts
