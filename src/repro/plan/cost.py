"""Cost-based distributed planning over collected graph statistics.

The paper's §5 leaves query scheduling to future work; this module
implements it as a classical cost-based optimizer specialized to the
distributed async engine's cost structure.  A :class:`CostModel` walks
the logical plan a candidate vertex order would produce and propagates a
cardinality estimate through every operator, charging

* **work** — simulated micro-ops: vertex-function evaluations, edge
  scans during neighbor expansion, and probe lookups, and
* **messages** — contexts shipped between machines: one per neighbor
  expansion (contexts always hop to the destination's owner), one per
  inspection the distributed lowering inserts when the traversal is not
  at the vertex a check needs, and a discounted payload charge for the
  candidate lists the common-neighbor operator forwards.

Estimates come exclusively from :class:`~repro.stats.GraphStatistics`
(label counts, edge-triple fan-outs, property value counts) — the model
never touches raw graph storage, so planning works the same against a
deserialized statistics snapshot.

:func:`choose_plan` enumerates candidate vertex orders (exhaustively
over connected-prefix permutations for small patterns, heuristically
beyond :data:`ORDER_ENUM_LIMIT` variables), prices each one with and
without the §5 common-neighbor operator, and returns a
:class:`PlanChoice` carrying the winner plus the best rejected
alternatives — which ``ExecutionPlan.describe`` (EXPLAIN) renders.
"""

from repro.pgql.ast import Binary, IdCall, Literal, PropRef
from repro.pgql.expressions import referenced_vars, split_conjuncts
from repro.plan.logical import (
    CartesianRootMatch,
    CommonNeighborMatch,
    EdgeCheck,
    NeighborMatch,
    RootVertexMatch,
    _delay_common_neighbors,
    _normalized_edges,
    build_logical_plan,
)
from repro.plan.scheduling import _pattern_adjacency, selectivity_order

#: Relative price of shipping one context versus one local micro-op.
#: Remote messages dominate the engine's latency (paper §3.2 dedicates
#: the flow-control machinery to them), so they weigh heavier than work.
MESSAGE_WEIGHT = 2.0

#: Payload discount for the candidate-id lists CN_COLLECT forwards:
#: shipping n packed vertex ids in one message costs far less than n
#: full contexts.  This is precisely why the common-neighbor operator
#: wins on high-fan-out intersections.
CN_PAYLOAD_FRACTION = 0.25

#: Patterns with at most this many vertex variables get exhaustive
#: connected-prefix enumeration; larger ones fall back to heuristics.
ORDER_ENUM_LIMIT = 6

#: Rejected candidates kept on the PlanChoice for EXPLAIN output.
MAX_ALTERNATIVES = 3

#: Selectivity assumed for inequality/range conjuncts the statistics
#: cannot price (crude but effective: a range filter halves the rows).
RANGE_FALLBACK = 0.5


class CostEstimate:
    """Priced outcome of one candidate plan."""

    __slots__ = ("work", "messages", "rows", "stage_rows")

    def __init__(self, work=0.0, messages=0.0, rows=0.0, stage_rows=()):
        self.work = work
        self.messages = messages
        #: Estimated final result cardinality.
        self.rows = rows
        #: ``[(operator repr, estimated rows after it), ...]``.
        self.stage_rows = list(stage_rows)

    @property
    def cost(self):
        return self.work + MESSAGE_WEIGHT * self.messages

    def to_dict(self):
        return {
            "work": self.work,
            "messages": self.messages,
            "rows": self.rows,
            "cost": self.cost,
        }

    def __repr__(self):
        return "CostEstimate(work=%.1f, messages=%.1f, rows=%.2f)" % (
            self.work, self.messages, self.rows,
        )


class PlanCandidate:
    """One enumerated (vertex order, CN on/off) combination."""

    __slots__ = ("order", "use_common_neighbors", "estimate")

    def __init__(self, order, use_common_neighbors, estimate):
        self.order = tuple(order)
        self.use_common_neighbors = use_common_neighbors
        self.estimate = estimate

    def sort_key(self):
        # Deterministic: cost, then fewer messages, then CN off (the
        # simpler plan), then lexicographic order.
        return (
            self.estimate.cost,
            self.estimate.messages,
            self.use_common_neighbors,
            self.order,
        )

    def label(self):
        return "%s  [common-neighbors %s]" % (
            " -> ".join(self.order),
            "on" if self.use_common_neighbors else "off",
        )

    def __repr__(self):
        return "PlanCandidate(%s, cost=%.1f)" % (
            self.label(), self.estimate.cost,
        )


class PlanChoice:
    """The planner's decision record, rendered by EXPLAIN.

    ``chosen`` / ``alternatives`` are :class:`PlanCandidate` objects for
    the cost policy; the selectivity policy records order and per-var
    scores only (``chosen is None``).
    """

    def __init__(self, policy, order, use_common_neighbors, scores,
                 chosen=None, alternatives=(), candidates_considered=0,
                 forced_common_neighbors=None, feedback_ops=0):
        self.policy = policy
        self.order = tuple(order)
        self.use_common_neighbors = use_common_neighbors
        #: Per-vertex-variable selectivity scores (lower = rarer).
        self.scores = dict(scores)
        self.chosen = chosen
        self.alternatives = list(alternatives)
        self.candidates_considered = candidates_considered
        self.forced_common_neighbors = forced_common_neighbors
        #: Number of recorded-actual selectivity corrections the model
        #: applied (feedback re-planning); 0 for stats-only pricing.
        self.feedback_ops = feedback_ops

    @property
    def auto_common_neighbors(self):
        """True when the model (not a flag) turned the CN operator on."""
        return (
            self.forced_common_neighbors is None
            and self.use_common_neighbors
        )

    def describe(self):
        lines = []
        header = "planner: policy=%s" % self.policy
        if self.candidates_considered:
            header += ", candidates=%d" % self.candidates_considered
        if self.feedback_ops:
            header += ", feedback corrections=%d" % self.feedback_ops
        lines.append(header)
        cn_state = "on" if self.use_common_neighbors else "off"
        if self.forced_common_neighbors is not None:
            cn_state += " (forced)"
        elif self.use_common_neighbors:
            cn_state += " (auto)"
        lines.append(
            "  order: %s  [common-neighbors %s]"
            % (" -> ".join(self.order), cn_state)
        )
        if self.chosen is not None:
            est = self.chosen.estimate
            lines.append(
                "  est. cost=%.1f  (work=%.1f, messages=%.1f, rows~%.2f)"
                % (est.cost, est.work, est.messages, est.rows)
            )
        for alt in self.alternatives:
            ratio = ""
            if self.chosen is not None and self.chosen.estimate.cost > 0:
                ratio = "  (%.2fx chosen)" % (
                    alt.estimate.cost / self.chosen.estimate.cost
                )
            lines.append(
                "  rejected: %s  cost=%.1f%s"
                % (alt.label(), alt.estimate.cost, ratio)
            )
        if self.scores:
            rendered = "  ".join(
                "%s=%.4g" % (var, self.scores[var])
                for var in sorted(
                    self.scores, key=lambda v: (self.scores[v], v)
                )
            )
            lines.append("  scores: %s" % rendered)
        return "\n".join(lines)

    def __repr__(self):
        return "PlanChoice(policy=%s, order=%s, cn=%s)" % (
            self.policy, " -> ".join(self.order), self.use_common_neighbors,
        )


class CostModel:
    """Cardinality and cost estimation against one graph's statistics.

    *corrections* maps operator reprs to multiplicative selectivity
    correction factors derived from a recorded execution profile
    (``repro.obs.feedback.FeedbackStore.corrections``); each priced
    operator whose repr appears gets its output cardinality scaled, so
    re-pricing a previously executed plan reproduces its observed
    cardinalities while unobserved operators keep the stats-only
    estimate.
    """

    def __init__(self, graph, stats=None, corrections=None):
        self._stats = stats if stats is not None else graph.statistics()
        self._num_vertices = graph.num_vertices
        self._corrections = dict(corrections) if corrections else {}

    @property
    def stats(self):
        return self._stats

    # ------------------------------------------------------------------
    # Per-variable scores (EXPLAIN's selectivity column)
    # ------------------------------------------------------------------
    def variable_scores(self, query):
        """Estimated match fraction per vertex variable (lower = rarer).

        Labels via collected label fractions, equality conjuncts via the
        property value counts, ``id() = const`` as one vertex.
        """
        labels = _vertex_labels(query)
        conjuncts = _all_conjuncts(query)
        scores = {}
        for var in query.vertex_vars():
            score = self._stats.vertex_label_fraction(labels.get(var))
            for conjunct in conjuncts:
                if referenced_vars(conjunct) != {var}:
                    continue
                score *= self._single_var_selectivity(
                    conjunct, var, self._stats.vertex_prop_stats
                )
            scores[var] = score
        return scores

    # ------------------------------------------------------------------
    # Plan pricing
    # ------------------------------------------------------------------
    def estimate(self, query, order, use_common_neighbors=False):
        """Price the plan *order* (a vertex permutation) would produce.

        Builds the actual logical plan — the same one ``plan_query``
        would compile — and simulates cardinality/work/message flow
        through its operators.
        """
        logical = build_logical_plan(
            query,
            vertex_order=list(order),
            use_common_neighbors=use_common_neighbors,
        )
        labels = _vertex_labels(query)
        stats = self._stats
        card = 1.0
        work = 0.0
        messages = 0.0
        current = None
        stage_rows = []

        for op in logical.ops:
            if isinstance(op, RootVertexMatch):
                work += 1.0 if op.single_vertex_id is not None \
                    else float(self._num_vertices)
                card = self._num_vertices * _combine_selectivities(
                    [stats.vertex_label_fraction(op.label)]
                    + self._filter_selectivities(op)
                )
                current = op.var

            elif isinstance(op, CartesianRootMatch):
                # Cartesian restart: every live context fans out to all
                # vertices of the graph (ALL_VERTICES hop).
                fan = float(self._num_vertices)
                work += card * fan
                messages += card * fan
                card *= fan * _combine_selectivities(
                    [stats.vertex_label_fraction(op.label)]
                    + self._filter_selectivities(op)
                )
                current = op.var

            elif isinstance(op, NeighborMatch):
                if current != op.src_var:
                    # Lowering inserts an inspection hop to src first.
                    messages += card
                    work += card
                direction = "out" if op.direction.value == "out" else "in"
                src_label = labels.get(op.src_var)
                fan = stats.expected_neighbors(
                    src_label, op.edge_label, direction
                )
                expanded = card * fan
                work += card + expanded      # adjacency scan
                messages += expanded         # context per matched edge
                cond = stats.neighbor_label_fraction(
                    src_label, op.edge_label, direction, op.dst_label
                )
                card = expanded * _combine_selectivities(
                    [cond] + self._filter_selectivities(op)
                )
                current = op.dst_var

            elif isinstance(op, EdgeCheck):
                # One VERTEX hop to whichever endpoint can verify the
                # edge locally (plus an inspection if at neither).
                if current == op.dst_var:
                    target = op.src_var
                else:
                    if current != op.src_var:
                        messages += card
                        work += card
                    target = op.dst_var
                messages += card
                work += card                 # binary-search probe
                card *= stats.edge_probability(
                    labels.get(op.src_var), op.edge_label,
                    labels.get(op.dst_var),
                )
                card *= _combine_selectivities(
                    self._filter_selectivities(op)
                )
                current = target

            elif isinstance(op, CommonNeighborMatch):
                if current != op.left_var:
                    messages += card
                    work += card
                left_label = labels.get(op.left_var)
                fan = stats.expected_neighbors(
                    left_label, op.left_edge_label, "out"
                )
                # Collect: scan left's out-adjacency, then forward the
                # candidate ids in ONE message with a packed payload.
                work += card + card * fan
                messages += card * (1.0 + fan * CN_PAYLOAD_FRACTION)
                # Probe: binary-search each candidate at right's machine.
                work += card * fan
                cond = stats.neighbor_label_fraction(
                    left_label, op.left_edge_label, "out", op.dst_label
                )
                pair = stats.edge_probability(
                    labels.get(op.right_var), op.right_edge_label,
                    op.dst_label,
                )
                card *= fan * pair * _combine_selectivities(
                    [cond] + self._filter_selectivities(op)
                )
                current = op.dst_var

            if self._corrections:
                factor = self._corrections.get(repr(op))
                if factor is not None:
                    card *= factor
            stage_rows.append((repr(op), card))

        return CostEstimate(
            work=work, messages=messages, rows=card, stage_rows=stage_rows
        )

    # ------------------------------------------------------------------
    # Conjunct selectivities
    # ------------------------------------------------------------------
    def _filter_selectivities(self, op):
        """Per-conjunct selectivities of the filters attached to *op*.

        Returned as a list so callers can combine them (together with
        the op's label fraction) via :func:`_combine_selectivities`.
        """
        selectivities = []
        edge_vars = set(_op_edge_vars(op))
        for conjunct in op.filters:
            vars_used = referenced_vars(conjunct)
            if len(vars_used) == 1:
                (var,) = vars_used
                selectivities.append(self._single_var_selectivity(
                    conjunct, var,
                    self._stats.edge_prop_stats if var in edge_vars
                    else self._stats.vertex_prop_stats,
                ))
            else:
                selectivities.append(
                    self._cross_var_selectivity(conjunct)
                )
        return selectivities

    def _single_var_selectivity(self, conjunct, var, prop_stats):
        if not isinstance(conjunct, Binary):
            return 1.0
        sides = (conjunct.lhs, conjunct.rhs)
        for ref_side, const_side in (sides, sides[::-1]):
            if not isinstance(const_side, Literal):
                continue
            if conjunct.op == "=":
                if isinstance(ref_side, IdCall) and ref_side.var == var:
                    return 1.0 / max(1, self._num_vertices)
                if isinstance(ref_side, PropRef) and ref_side.var == var:
                    stats = prop_stats(ref_side.prop)
                    if stats is not None:
                        return stats.eq_selectivity(const_side.value)
            elif conjunct.op in ("<", "<=", ">", ">="):
                if isinstance(ref_side, PropRef) and ref_side.var == var:
                    stats = prop_stats(ref_side.prop)
                    if stats is not None:
                        return stats.range_selectivity(
                            conjunct.op, const_side.value
                        )
                if isinstance(ref_side, IdCall) and ref_side.var == var:
                    return RANGE_FALLBACK
        return 1.0

    def _cross_var_selectivity(self, conjunct):
        """Join-style conjuncts comparing two variables' values."""
        if not isinstance(conjunct, Binary):
            return 1.0
        if conjunct.op == "=":
            if isinstance(conjunct.lhs, PropRef) \
                    and isinstance(conjunct.rhs, PropRef):
                distinct = max(
                    self._prop_distinct(conjunct.lhs),
                    self._prop_distinct(conjunct.rhs),
                )
                return 1.0 / max(1, distinct)
            if isinstance(conjunct.lhs, IdCall) \
                    and isinstance(conjunct.rhs, IdCall):
                return 1.0 / max(1, self._num_vertices)
            return RANGE_FALLBACK
        if conjunct.op in ("<", "<=", ">", ">="):
            return RANGE_FALLBACK
        return 1.0

    def _prop_distinct(self, prop_ref):
        stats = self._stats.vertex_prop_stats(prop_ref.prop)
        if stats is None:
            stats = self._stats.edge_prop_stats(prop_ref.prop)
        if stats is None:
            return 1
        return stats.distinct


# ----------------------------------------------------------------------
# Order enumeration and the top-level chooser
# ----------------------------------------------------------------------
def candidate_orders(query, scores, limit=ORDER_ENUM_LIMIT):
    """Candidate vertex orders for *query*, deterministically listed.

    Patterns with at most *limit* vertex variables get every
    connected-prefix permutation — each next vertex must be adjacent to
    the prefix whenever any adjacent vertex remains, which is exactly
    the set of orders that avoid needless cartesian restarts.  Larger
    patterns fall back to two heuristics: appearance order and the
    greedy selectivity order over *scores*
    (:meth:`CostModel.variable_scores`).
    """
    variables = query.vertex_vars()
    if len(variables) <= 1:
        return [tuple(variables)]
    adjacency = _pattern_adjacency(query)
    if len(variables) <= limit:
        orders = []

        def extend(prefix, remaining):
            if not remaining:
                orders.append(tuple(prefix))
                return
            connected = [
                var
                for var in remaining
                if any(peer in prefix for peer in adjacency.get(var, ()))
            ]
            pool = connected if (prefix and connected) else remaining
            for var in pool:
                extend(
                    prefix + [var], [v for v in remaining if v != var]
                )

        extend([], list(variables))
        return orders

    appearance = tuple(variables)
    greedy = tuple(selectivity_order(query, scores))
    return [appearance] if greedy == appearance else [appearance, greedy]


def choose_plan(query, graph, stats=None, force_common_neighbors=None,
                limit=ORDER_ENUM_LIMIT, feedback=None):
    """Enumerate, price, and pick the min-cost plan for *query*.

    *force_common_neighbors* mirrors the planner option's tri-state:
    ``None`` lets the model decide per candidate (the CN operator is
    auto-enabled when the priced plan using it wins), ``True``/``False``
    pins the decision and only the vertex order is optimized.

    *feedback* is an optional ``repro.obs.feedback.FeedbackStore``; when
    it holds a recorded profile for this (query, graph) fingerprint, the
    derived per-operator selectivity corrections flow into the model so
    every candidate sharing an observed operator is priced against
    measured — not just estimated — cardinalities.
    """
    corrections = feedback.corrections(query, graph) \
        if feedback is not None else None
    model = CostModel(graph, stats, corrections=corrections)
    scores = model.variable_scores(query)
    orders = candidate_orders(query, scores, limit=limit)

    if force_common_neighbors is None:
        cn_options = (False, True) if _has_cn_opportunity(query) \
            else (False,)
    else:
        cn_options = (bool(force_common_neighbors),)

    candidates = []
    for order in orders:
        for cn in cn_options:
            candidates.append(
                PlanCandidate(order, cn, model.estimate(query, order, cn))
            )
    if True in cn_options:
        # Connected-prefix enumeration never emits the orders the CN
        # operator needs — both sources before the common neighbor,
        # even though the second source is disconnected from the prefix
        # (a cartesian restart the operator deliberately accepts).
        # Derive them by delaying CN candidates in each enumerated
        # order, exactly as the logical planner would.
        edges = _normalized_edges(query)
        seen_orders = {tuple(order) for order in orders}
        for order in list(orders):
            delayed = tuple(_delay_common_neighbors(list(order), edges))
            if delayed in seen_orders:
                continue
            seen_orders.add(delayed)
            candidates.append(
                PlanCandidate(
                    delayed, True, model.estimate(query, delayed, True)
                )
            )
    candidates.sort(key=PlanCandidate.sort_key)
    chosen = candidates[0]
    # Rejected candidates, dropping CN-toggle duplicates the order could
    # not realize (same order, identical cost -> identical plan); a
    # toggle that actually changed the plan prices differently and stays.
    alternatives = []
    seen = {(chosen.order, chosen.estimate.cost)}
    for candidate in candidates[1:]:
        key = (candidate.order, candidate.estimate.cost)
        if key in seen:
            continue
        seen.add(key)
        alternatives.append(candidate)
        if len(alternatives) == MAX_ALTERNATIVES:
            break

    return PlanChoice(
        policy="cost",
        order=chosen.order,
        use_common_neighbors=chosen.use_common_neighbors,
        scores=scores,
        chosen=chosen,
        alternatives=alternatives,
        candidates_considered=len(candidates),
        forced_common_neighbors=force_common_neighbors,
        feedback_ops=len(corrections) if corrections else 0,
    )


def _has_cn_opportunity(query):
    """True when some vertex is the destination of >= 2 pattern edges
    from distinct sources — the shape CommonNeighborMatch covers."""
    from repro.graph.types import Direction

    sources = {}
    for path in query.paths:
        for index, edge in enumerate(path.edges):
            left = path.vertices[index].var
            right = path.vertices[index + 1].var
            if edge.direction is Direction.OUT:
                src, dst = left, right
            else:
                src, dst = right, left
            if src != dst:
                sources.setdefault(dst, set()).add(src)
    return any(len(srcs) >= 2 for srcs in sources.values())


def _combine_selectivities(selectivities):
    """Combine predicate selectivities with exponential backoff.

    The plain independence product severely underestimates when the
    predicates correlate — typical here, because property statistics span
    the whole (multi-label) vertex population, so a label filter and a
    property filter largely select the same rows.  The standard
    compromise: apply the most selective predicate fully, dampen each
    subsequent one by a square root (s0 * s1^1/2 * s2^1/4 * ...).
    """
    result = 1.0
    exponent = 1.0
    for selectivity in sorted(selectivities):
        result *= selectivity ** exponent
        exponent /= 2.0
    return result


# ----------------------------------------------------------------------
# Query-shape helpers
# ----------------------------------------------------------------------
def _vertex_labels(query):
    labels = {}
    for path in query.paths:
        for vertex in path.vertices:
            if vertex.label is not None:
                labels[vertex.var] = vertex.label
    return labels


def _all_conjuncts(query):
    conjuncts = []
    for path in query.paths:
        for vertex in path.vertices:
            if vertex.filter is not None:
                conjuncts.extend(split_conjuncts(vertex.filter))
    for constraint in query.constraints:
        conjuncts.extend(split_conjuncts(constraint))
    return conjuncts


def _op_edge_vars(op):
    if isinstance(op, (NeighborMatch, EdgeCheck)):
        return (op.edge_var,)
    if isinstance(op, CommonNeighborMatch):
        return (op.left_edge_var, op.right_edge_var)
    return ()
