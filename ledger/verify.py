"""Output verification and the exact-count invariants.

Simulated quantities are the correctness oracle: a change that only
speeds the simulator up must leave every one of them identical.
"""

from repro.baselines import SharedMemoryEngine

from ledger.workloads import rows_digest


class ExactMismatch(Exception):
    """A deterministic count differed between two passes."""


def reference_digests(setup):
    """Row digest of every distinct query of *setup*, computed by the
    shared-memory reference engine on the undistributed graph."""
    engines = {}
    digests = {}
    for text, graph in setup.graph_of.items():
        engine = engines.get(id(graph))
        if engine is None:
            engine = engines[id(graph)] = SharedMemoryEngine(graph)
        digests[text] = rows_digest(engine.query(text, setup.options).rows)
    return digests


def count_failures(records, reference):
    """``(attempted, failed)`` over every query of *records*: a query
    fails when it raised, aborted, or its digest is not the reference's.
    """
    attempted = failed = 0
    for record in records:
        for text, digest in record.outcomes:
            attempted += 1
            if digest is None or digest != reference[text]:
                failed += 1
    return attempted, failed


def assert_identical(labelled_records):
    """Every ``(label, record)`` must agree with the first on its exact
    counts, its latency intervals and its per-query digests."""
    (first_label, first), rest = labelled_records[0], labelled_records[1:]
    for label, record in rest:
        for key in sorted(set(first.exact) | set(record.exact)):
            mine, theirs = first.exact.get(key), record.exact.get(key)
            if mine != theirs:
                raise ExactMismatch(
                    "%s: %r in pass %r but %r in pass %r"
                    % (key, mine, first_label, theirs, label)
                )
        if first.outcomes != record.outcomes:
            raise ExactMismatch(
                "row digests differ between pass %r and pass %r"
                % (first_label, label)
            )
        if first.intervals != record.intervals:
            raise ExactMismatch(
                "latency intervals differ between pass %r and pass %r"
                % (first_label, label)
            )
