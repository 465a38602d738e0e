"""Generic expression evaluation.

Expressions are evaluated against an :class:`EvalEnv`, which resolves
variable references to matched entities and property reads to values.
The distributed runtime does not use this tree-walking evaluator on hot
paths — ``repro.plan.execution`` generates each filter as one flat
function over context offsets — but the semantics are defined here once:
a generated filter is ``evaluate_predicate`` unrolled, and the Python
operator it emits for each PGQL one is tested against ``_BINARY_OPS``.

Semantics notes:

* There are no NULLs: property columns are dense, so entities that never
  set a property observe the type default (0 / 0.0 / "" / False).
* ``=`` / ``!=`` follow Python equality (cross-type compares are unequal,
  never an error).
* Ordered comparisons and arithmetic between incompatible types make a
  *predicate* evaluate to False rather than crashing a query; when
  evaluated as a value (e.g. in SELECT) they raise
  :class:`~repro.errors.PgqlValidationError`.
"""

from repro.errors import PgqlValidationError
from repro.pgql.ast import (
    Aggregate,
    Binary,
    HasPropCall,
    IdCall,
    LabelCall,
    Literal,
    PropRef,
    Unary,
    VarRef,
)


class EvalEnv:
    """Resolution interface used by :func:`evaluate`.

    Subclasses override the four lookup methods.  ``var`` names may be
    bound to vertices or edges; the environment decides.
    """

    def entity_id(self, var):
        """The internal id the variable is bound to."""
        raise NotImplementedError

    def prop(self, var, prop):
        """The value of ``var.prop``."""
        raise NotImplementedError

    def label(self, var):
        """The label string of the bound entity (or None)."""
        raise NotImplementedError

    def has_prop(self, var, prop):
        """Whether the graph declares property *prop* for ``var``'s kind."""
        raise NotImplementedError


class MappingEnv(EvalEnv):
    """An env backed by plain dicts — convenient for tests and results.

    *ids* maps var -> entity id; *props* maps (var, prop) -> value;
    *labels* maps var -> label string.
    """

    def __init__(self, ids=None, props=None, labels=None):
        self._ids = ids or {}
        self._props = props or {}
        self._labels = labels or {}

    def entity_id(self, var):
        try:
            return self._ids[var]
        except KeyError:
            raise PgqlValidationError("unbound variable %r" % var)

    def prop(self, var, prop):
        try:
            return self._props[(var, prop)]
        except KeyError:
            raise PgqlValidationError("no value for %s.%s" % (var, prop))

    def label(self, var):
        return self._labels.get(var)

    def has_prop(self, var, prop):
        return (var, prop) in self._props


def evaluate(expr, env):
    """Evaluate *expr* strictly; type mismatches raise."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, VarRef):
        return env.entity_id(expr.name)
    if isinstance(expr, IdCall):
        return env.entity_id(expr.var)
    if isinstance(expr, PropRef):
        return env.prop(expr.var, expr.prop)
    if isinstance(expr, LabelCall):
        return env.label(expr.var)
    if isinstance(expr, HasPropCall):
        return env.has_prop(expr.var, expr.prop)
    if isinstance(expr, Unary):
        return apply_unary(expr.op, evaluate(expr.operand, env))
    if isinstance(expr, Binary):
        if expr.op == "AND":
            return bool(evaluate(expr.lhs, env)) and bool(evaluate(expr.rhs, env))
        if expr.op == "OR":
            return bool(evaluate(expr.lhs, env)) or bool(evaluate(expr.rhs, env))
        return apply_binary(expr.op, evaluate(expr.lhs, env),
                            evaluate(expr.rhs, env))
    if isinstance(expr, Aggregate):
        raise PgqlValidationError(
            "aggregate %s cannot be evaluated per-row" % expr.func.value
        )
    raise PgqlValidationError("unknown expression node: %r" % (expr,))


def evaluate_predicate(expr, env):
    """Evaluate *expr* as a filter: mismatches count as non-matches."""
    try:
        return bool(evaluate(expr, env))
    except (TypeError, ZeroDivisionError):
        return False


def apply_unary(op, value):
    if op == "NOT":
        return not value
    if op == "-":
        return -value
    raise PgqlValidationError("unknown unary operator %r" % op)


_BINARY_OPS = {
    "=": lambda lhs, rhs: lhs == rhs,
    "!=": lambda lhs, rhs: lhs != rhs,
    "<": lambda lhs, rhs: lhs < rhs,
    "<=": lambda lhs, rhs: lhs <= rhs,
    ">": lambda lhs, rhs: lhs > rhs,
    ">=": lambda lhs, rhs: lhs >= rhs,
    "+": lambda lhs, rhs: lhs + rhs,
    "-": lambda lhs, rhs: lhs - rhs,
    "*": lambda lhs, rhs: lhs * rhs,
    "/": lambda lhs, rhs: lhs / rhs,
    "%": lambda lhs, rhs: lhs % rhs,
}


def apply_binary(op, lhs, rhs):
    func = _BINARY_OPS.get(op)
    if func is None:
        raise PgqlValidationError("unknown binary operator %r" % op)
    return func(lhs, rhs)


def referenced_vars(expr):
    """The set of variable names an expression depends on."""
    vars_ = set()
    for node in expr.walk():
        if isinstance(node, VarRef):
            vars_.add(node.name)
        elif isinstance(node, (PropRef, IdCall, LabelCall, HasPropCall)):
            vars_.add(node.var)
    return vars_


def referenced_props(expr):
    """The set of ``(var, prop)`` pairs an expression reads."""
    pairs = set()
    for node in expr.walk():
        if isinstance(node, PropRef):
            pairs.add((node.var, node.prop))
    return pairs


def contains_aggregate(expr):
    return any(isinstance(node, Aggregate) for node in expr.walk())


def split_conjuncts(expr):
    """Split a boolean expression on top-level ANDs.

    The planner pushes each conjunct down to the earliest stage where all
    of its variables are bound.
    """
    if isinstance(expr, Binary) and expr.op == "AND":
        return split_conjuncts(expr.lhs) + split_conjuncts(expr.rhs)
    return [expr]
