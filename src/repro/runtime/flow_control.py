"""Strict, precise flow control (paper §3.3).

Each sending machine keeps, per (stage *n*, destination machine *m*), a
counter of unacknowledged bulk messages in flight and a window limit
``b[n][m]``.  A message may be sent only while the counter is below the
limit; acknowledgments decrement it.  With ``M`` machines, ``N`` stages,
window ``b`` and bulk size ``B``, any machine therefore stores at most
``N * (M-1) * b * B`` unprocessed remote contexts — the deterministic
memory bound the paper claims.

The *dynamic memory management* refinements are implemented here too:

1. when the termination protocol reports stage *n* globally complete,
   its windows are redistributed among the later stages;
2. a sender exhausting its window for (n, m) may request spare capacity
   from a peer's window for the same (n, m); the peer donates half of
   its unused slots.  The total inbound allowance of machine *m* for
   stage *n* is preserved, so the receiver-side memory bound still holds.
"""

from repro.errors import FlowControlError


class FlowControl:
    """Sender-side window accounting for one machine."""

    def __init__(self, num_stages, num_machines, machine_id, window,
                 dynamic=True):
        self._num_stages = num_stages
        self._num_machines = num_machines
        self._machine_id = machine_id
        self._dynamic = dynamic
        #: limit[n][m] — max in-flight bulk messages for stage n to machine m.
        self._limit = [
            [window] * num_machines for _ in range(num_stages)
        ]
        #: inflight[n][m] — currently unacknowledged bulk messages.
        self._inflight = [
            [0] * num_machines for _ in range(num_stages)
        ]
        #: reserved[n][m] — window slots pre-reserved by an in-progress
        #: bulk kernel (runtime.kernels).  Reservations are transient:
        #: the kernel releases them before returning, so between worker
        #: slices this is all zeros and ``can_send`` sees the window
        #: alone.  Invariant: inflight + reserved <= limit.
        self._reserved = [
            [0] * num_machines for _ in range(num_stages)
        ]
        #: Stages already redistributed (guards double redistribution).
        self._redistributed = [False] * num_stages
        #: Outstanding quota request per (stage, dest) to avoid spamming.
        self._quota_pending = set()

    # ------------------------------------------------------------------
    # Window operations
    # ------------------------------------------------------------------
    def can_send(self, stage, dest):
        return (
            self._inflight[stage][dest] + self._reserved[stage][dest]
            < self._limit[stage][dest]
        )

    def can_flush(self, stage, dest):
        """A flush may proceed: on a held reservation or a free slot.

        Identical to :meth:`can_send` whenever no reservation is held,
        i.e. everywhere outside an in-progress bulk kernel.
        """
        reserved = self._reserved[stage][dest]
        return reserved > 0 or (
            self._inflight[stage][dest] + reserved < self._limit[stage][dest]
        )

    def on_send(self, stage, dest):
        reserved = self._reserved[stage]
        if reserved[dest] > 0:
            # Consume a batch reservation: admission was decided when
            # the kernel reserved, no re-check needed.
            reserved[dest] -= 1
            self._inflight[stage][dest] += 1
            return
        if not self.can_send(stage, dest):
            raise FlowControlError(
                "send without window: stage=%d dest=%d" % (stage, dest)
            )
        self._inflight[stage][dest] += 1

    # ------------------------------------------------------------------
    # Batch admission (runtime.kernels)
    # ------------------------------------------------------------------
    def reserve(self, stage, dest, n):
        """Reserve up to *n* window slots for a bulk sender.

        Returns the granted count (0..n); the grant can never push
        ``inflight + reserved`` past the (stage, dest) limit, even while
        quota borrowing is raising or lowering that limit.
        """
        if n <= 0:
            return 0
        spare = (
            self._limit[stage][dest] - self._inflight[stage][dest]
            - self._reserved[stage][dest]
        )
        if spare <= 0:
            return 0
        take = n if n < spare else spare
        self._reserved[stage][dest] += take
        return take

    def release(self, stage, dest):
        """Return every reservation for (stage, dest) to the window."""
        self._reserved[stage][dest] = 0

    def reserved(self, stage, dest):
        return self._reserved[stage][dest]

    def on_ack_from(self, stage, src, count):
        self._inflight[stage][src] -= count
        if self._inflight[stage][src] < 0:
            raise FlowControlError(
                "negative in-flight count: stage=%d machine=%d"
                % (stage, src)
            )

    def inflight_total(self):
        return sum(sum(row) for row in self._inflight)

    def occupancy(self):
        """Nonzero in-flight counts as ``(stage, dest) -> count``.

        Diagnostic snapshot for abort reports and the chaos CLI: which
        windows were still awaiting acknowledgments when a run stopped.
        """
        return {
            (stage, dest): inflight
            for stage, row in enumerate(self._inflight)
            for dest, inflight in enumerate(row)
            if inflight
        }

    def occupancy_count(self):
        """Number of (stage, dest) windows with traffic in flight.

        Cheaper than ``len(occupancy())`` — sampled every tick by the
        recorded time series.
        """
        return sum(
            1 for row in self._inflight for inflight in row if inflight
        )

    def limit(self, stage, dest):
        return self._limit[stage][dest]

    def inflight(self, stage, dest):
        return self._inflight[stage][dest]

    # ------------------------------------------------------------------
    # Dynamic refinement 1: redistribute completed stages' windows
    # ------------------------------------------------------------------
    def redistribute_completed_stage(self, stage):
        """Move stage *stage*'s window capacity to the later stages.

        Called when the termination protocol learns that *stage* is
        complete on every machine — no more messages for ``stage + 1``
        will be produced by it, but the capacity can still serve stages
        ``stage + 2 .. N``; it is split evenly among them.
        """
        if not self._dynamic or self._redistributed[stage]:
            return
        self._redistributed[stage] = True
        later = range(stage + 1, self._num_stages)
        if not later:
            return
        count = len(later)
        for dest in range(self._num_machines):
            capacity = self._limit[stage][dest]
            self._limit[stage][dest] = 0
            share, remainder = divmod(capacity, count)
            for offset, target in enumerate(later):
                bonus = 1 if offset < remainder else 0
                self._limit[target][dest] += share + bonus

    # ------------------------------------------------------------------
    # Dynamic refinement 2: capacity borrowing between machines
    # ------------------------------------------------------------------
    def wants_quota(self, stage, dest):
        """Should we ask a peer for capacity for (stage, dest)?"""
        if not self._dynamic:
            return False
        if (stage, dest) in self._quota_pending:
            return False
        return not self.can_send(stage, dest)

    def note_quota_requested(self, stage, dest):
        self._quota_pending.add((stage, dest))

    def on_quota_grant(self, stage, dest, amount):
        self._quota_pending.discard((stage, dest))
        self._limit[stage][dest] += amount

    def donate_quota(self, stage, dest):
        """Give away half of the unused window for (stage, dest).

        Returns the donated amount (possibly 0).  Keeps at least one slot
        so this machine can still make progress on that channel.
        """
        if not self._dynamic:
            return 0
        spare = (
            self._limit[stage][dest] - self._inflight[stage][dest]
            - self._reserved[stage][dest]
        )
        donation = max(0, min(spare // 2, self._limit[stage][dest] - 1))
        if donation > 0:
            self._limit[stage][dest] -= donation
        return donation
