"""Query scheduling: selectivity-based vertex matching order.

The paper's §5 names this as future work, using the example::

    SELECT person, band WHERE
      (person)-[:likes]->(song)-[:from]->(band),
      person.gender = "female", song.style = "rock",
      band.name = "Uknown1"

where starting from ``band`` (probably one vertex) is far cheaper than
starting from ``person``.  This module implements that idea over the
per-variable scores of ``repro.plan.cost.CostModel.variable_scores``
(label fractions, equality conjuncts via the collected value counts,
``id() = const`` pinned to one vertex).  The most selective vertex
becomes the root; the rest are appended greedily, always preferring
vertices connected to the already-ordered set (to avoid cartesian
restarts).
"""


def selectivity_order(query, scores):
    """A vertex matching order that starts from the most selective vertex.

    Greedy: root = argmin score; then repeatedly append the lowest-score
    vertex adjacent (via any pattern edge) to the ordered prefix, falling
    back to the global minimum if the pattern is disconnected.  *scores*
    are per-variable match fractions (lower = rarer), i.e.
    ``CostModel.variable_scores``.
    """
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
