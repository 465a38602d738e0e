"""Query scheduling: selectivity-based vertex matching order.

The paper's §5 names this as future work, using the example::

    SELECT person, band WHERE
      (person)-[:likes]->(song)-[:from]->(band),
      person.gender = "female", song.style = "rock",
      band.name = "Uknown1"

where starting from ``band`` (probably one vertex) is far cheaper than
starting from ``person``.  This module implements that idea with the
statistics the property tables already maintain: equality conjuncts are
estimated via per-column value frequencies, labels via label frequency,
and ``id() = const`` pins selectivity to one vertex.  The most selective
vertex becomes the root; the rest are appended greedily, always
preferring vertices connected to the already-ordered set (to avoid
cartesian restarts).
"""

from repro.pgql.ast import Binary, IdCall, Literal, PropRef
from repro.pgql.expressions import referenced_vars, split_conjuncts


def estimate_selectivities(query, graph):
    """Estimated match fraction per vertex variable (lower = rarer)."""
    conjuncts = []
    for path in query.paths:
        for vertex in path.vertices:
            if vertex.filter is not None:
                conjuncts.extend(split_conjuncts(vertex.filter))
    for constraint in query.constraints:
        conjuncts.extend(split_conjuncts(constraint))

    labels = {}
    for path in query.paths:
        for vertex in path.vertices:
            if vertex.label is not None:
                labels[vertex.var] = vertex.label

    scores = {}
    for var in query.vertex_vars():
        score = 1.0
        label = labels.get(var)
        if label is not None:
            label_id = graph.labels.lookup(label)
            if label_id is None:
                score = 0.0
            else:
                score *= graph.vertex_label_fraction(label_id)
        for conjunct in conjuncts:
            if referenced_vars(conjunct) != {var}:
                continue
            score *= _conjunct_selectivity(conjunct, var, graph)
        scores[var] = score
    return scores


def _conjunct_selectivity(conjunct, var, graph):
    """Selectivity of a single-variable conjunct (1.0 when unknown)."""
    if not isinstance(conjunct, Binary):
        return 1.0
    sides = (conjunct.lhs, conjunct.rhs)
    for ref_side, const_side in (sides, sides[::-1]):
        if not isinstance(const_side, Literal):
            continue
        if conjunct.op == "=":
            if isinstance(ref_side, IdCall) and ref_side.var == var:
                return 1.0 / max(1, graph.num_vertices)
            if isinstance(ref_side, PropRef) and ref_side.var == var:
                if graph.has_vertex_prop(ref_side.prop):
                    column = graph.vertex_properties.column(ref_side.prop)
                    return column.selectivity(const_side.value)
        elif conjunct.op in ("<", "<=", ">", ">="):
            # Crude but effective: a range filter halves the candidates.
            if isinstance(ref_side, (PropRef, IdCall)) and \
                    getattr(ref_side, "var", None) == var:
                return 0.5
    return 1.0


def selectivity_order(query, graph, scores=None):
    """A vertex matching order that starts from the most selective vertex.

    Greedy: root = argmin score; then repeatedly append the lowest-score
    vertex adjacent (via any pattern edge) to the ordered prefix, falling
    back to the global minimum if the pattern is disconnected.  *scores*
    (per-variable, lower = rarer) default to the property-table
    estimates of :func:`estimate_selectivities`.
    """
    if scores is None:
        scores = estimate_selectivities(query, graph)
    adjacency = _pattern_adjacency(query)
    remaining = list(query.vertex_vars())
    order = []
    while remaining:
        if order:
            connected = [
                var
                for var in remaining
                if any(peer in order for peer in adjacency.get(var, ()))
            ]
            pool = connected or remaining
        else:
            pool = remaining
        best = min(pool, key=lambda var: (scores[var], remaining.index(var)))
        order.append(best)
        remaining.remove(best)
    return order


def _pattern_adjacency(query):
    adjacency = {}
    for path in query.paths:
        for index in range(len(path.edges)):
            left = path.vertices[index].var
            right = path.vertices[index + 1].var
            adjacency.setdefault(left, set()).add(right)
            adjacency.setdefault(right, set()).add(left)
    return adjacency
