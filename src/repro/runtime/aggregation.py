"""Result finalization: grouping, aggregation, DISTINCT, ORDER BY, LIMIT.

The output hop delivers raw context tuples to a machine-local
*collector*; this module turns the merged collections into the final
:class:`ResultSet`.  It covers the PGQL features the paper lists as
future work (§5): ``COUNT`` / ``SUM`` / ``AVG`` / ``MIN`` / ``MAX``
(with ``DISTINCT``), ``GROUP BY``, ``HAVING``, ``ORDER BY``, ``LIMIT``,
and ``SELECT DISTINCT``.

Nothing here evaluates an expression: the plan's
:class:`~repro.plan.execution.OutputSpec` carries the generated
``group`` and ``decorate`` functions that compute group keys, aggregate
arguments, HAVING, sort keys and rows.  What is left is to fold, to
merge, and the one DISTINCT / ORDER BY / LIMIT tail (:func:`finish`)
every engine's result passes through, a union of variable-length-path
expansions included.

Aggregating queries use **partial aggregation**: each machine folds its
matches into per-group aggregate states as they are produced (the
:class:`GroupAccumulator` collector) and the engine merges the partial
states at the end — the memory-frugal strategy a multi-tenant system
like PGX.D needs, since no machine ever materializes its raw match
list.
"""

from repro.errors import PgqlValidationError
from repro.pgql.ast import AggregateFunc
from repro.runtime.results import ResultSet


class AggregateState:
    """Streaming, mergeable state of one aggregate function.

    A SUM or AVG over a non-number, or a MIN or MAX over values that do
    not compare, raises :class:`PgqlValidationError`.
    """

    __slots__ = ("func", "distinct", "_seen", "_count", "_value")

    def __init__(self, func, distinct):
        self.func = func
        self.distinct = distinct
        self._seen = set() if distinct else None
        self._count = 0
        #: The running sum (SUM, AVG) or extreme (MIN, MAX, once
        #: ``_count`` is positive).
        self._value = 0

    def update(self, value):
        if self.distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._fold(value, 1)

    def merge(self, other):
        """Fold another machine's partial state into this one."""
        if self.distinct:
            for value in other._seen:
                self.update(value)
        elif other._count:
            self._fold(other._value, other._count)

    def _fold(self, value, count):
        """Fold *value*: one value, or the sum or extreme of *count*."""
        func = self.func
        try:
            if func is AggregateFunc.SUM or func is AggregateFunc.AVG:
                self._value += value
            elif func is AggregateFunc.MIN:
                self._value = min(self._value, value) if self._count \
                    else value
            elif func is AggregateFunc.MAX:
                self._value = max(self._value, value) if self._count \
                    else value
        except TypeError as exc:
            raise PgqlValidationError(
                "%s cannot aggregate %r: %s" % (func.value, value, exc)
            ) from None
        self._count += count

    def result(self):
        if self.func is AggregateFunc.COUNT:
            return self._count
        if self.func is AggregateFunc.AVG:
            return self._value / self._count if self._count else None
        if self.func is AggregateFunc.SUM or self._count:
            return self._value
        return None


# ----------------------------------------------------------------------
# Collectors (machine-local)
# ----------------------------------------------------------------------
class RowCollector:
    """Plain collector: keeps the raw output contexts."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = []

    def add(self, ctx):
        self.rows.append(ctx)

    def __len__(self):
        return len(self.rows)


class GroupAccumulator:
    """Partial-aggregation collector for one machine.

    Folds every emitted context into per-group aggregate states; the
    engine merges accumulators from all machines with :meth:`merge`.
    """

    def __init__(self, spec):
        self._group = spec.group
        self._aggregates = spec.aggregates
        #: group key -> (representative ctx, [AggregateState]).
        self.groups = {}
        self.count = 0

    def add(self, ctx):
        key, arguments = self._group(ctx)
        self.count += 1
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = (ctx, [
                AggregateState(func, distinct)
                for func, distinct in self._aggregates
            ])
        for state, value in zip(group[1], arguments):
            state.update(value)

    def merge(self, other):
        """Fold another machine's accumulator into this one."""
        self.count += other.count
        for key, (ctx, other_states) in other.groups.items():
            mine = self.groups.get(key)
            if mine is None:
                self.groups[key] = (ctx, other_states)
                continue
            for state, other_state in zip(mine[1], other_states):
                state.merge(other_state)

    def __len__(self):
        return self.count


def make_collector(spec):
    """The collector appropriate for *spec* (partial-agg or raw rows)."""
    if spec.group is not None:
        return GroupAccumulator(spec)
    return RowCollector()


# ----------------------------------------------------------------------
# Finalization
# ----------------------------------------------------------------------
def finalize(spec, raw_rows):
    """Turn raw output contexts into the final :class:`ResultSet`.

    The baselines' entry point, and the engine's for a plain query; the
    engine merges its machines' :class:`GroupAccumulator` collectors and
    calls :func:`finalize_grouped` itself.
    """
    if spec.group is not None:
        accumulator = GroupAccumulator(spec)
        for ctx in raw_rows:
            accumulator.add(ctx)
        return finalize_grouped(spec, accumulator)
    decorate = spec.decorate
    return finish(spec.query, spec.column_names,
                  [decorate(ctx, None) for ctx in raw_rows])


def finalize_grouped(spec, accumulator):
    """Build the ResultSet from a (merged) :class:`GroupAccumulator`."""
    decorate = spec.decorate
    decorated = []
    for ctx, states in accumulator.groups.values():
        pair = decorate(ctx, [state.result() for state in states])
        if pair is not None:
            decorated.append(pair)
    return finish(spec.query, spec.column_names, decorated)


def finish(query, columns, decorated):
    """The :class:`ResultSet` of the ``(sort key, row)`` pairs
    *decorated* under *query*'s DISTINCT, ORDER BY and LIMIT, applied in
    that order."""
    if query.distinct:
        # The first pair of each row.  With GROUP BY the groups are
        # unique by key, but their projected rows may still collide.
        first = {}
        for pair in decorated:
            first.setdefault(pair[1], pair)
        decorated = list(first.values())
    for position in range(len(query.order_by) - 1, -1, -1):
        try:
            decorated.sort(key=lambda pair: pair[0][position],
                           reverse=not query.order_by[position].ascending)
        except TypeError:
            raise PgqlValidationError(
                "ORDER BY key %d mixes incomparable types" % position
            ) from None
    rows = [row for _key, row in decorated]
    if query.limit is not None:
        rows = rows[: query.limit]
    return ResultSet(columns, rows)
