"""Machine-level fault scripting: stalls and crashes.

The :class:`ChaosController` is owned by the simulator and consulted
once per tick.  It walks the fault plan's scripted stall/crash schedule,
keeps the set of currently-frozen machines, and emits the corresponding
trace events.  A *stall* freezes a machine's workers for a tick range —
its NIC keeps receiving, so inboxes fill and peers' flow-control
windows saturate until it resumes.  A *crash* is permanent and makes
the running query unrecoverable; the simulator turns it into a
structured :class:`~repro.errors.QueryAborted`.
"""

from repro.errors import ClusterConfigError
from repro.obs.events import MachineCrashed, MachineResumed, MachineStalled


class ChaosController:
    """Applies a fault plan's scripted machine events tick by tick."""

    def __init__(self, plan, num_machines, recording=None):
        config = plan.config
        for machine, _start, _duration in config.stalls:
            if machine >= num_machines:
                raise ClusterConfigError(
                    "stall targets machine %d of %d" % (machine, num_machines)
                )
        for machine, _tick in config.crashes:
            if machine >= num_machines:
                raise ClusterConfigError(
                    "crash targets machine %d of %d" % (machine, num_machines)
                )
        self._recording = recording
        #: Pending scripted events, soonest last (popped from the end).
        self._pending_stalls = sorted(
            ((start, machine, duration)
             for machine, start, duration in config.stalls),
            reverse=True,
        )
        self._pending_crashes = sorted(
            ((tick, machine) for machine, tick in config.crashes),
            reverse=True,
        )
        #: machine -> first tick it runs again, while stalled.
        self._stall_until = {}
        self.stalls_applied = 0

    def begin_tick(self, now):
        """Apply events scheduled at or before *now*.

        Returns the id of a machine that crashed this tick, or ``None``.
        The caller aborts the query on a crash, so at most one crash is
        ever reported.
        """
        while self._pending_stalls and self._pending_stalls[-1][0] <= now:
            start, machine, duration = self._pending_stalls.pop()
            until = max(now, start) + duration
            previous = self._stall_until.get(machine, 0)
            self._stall_until[machine] = max(previous, until)
            self.stalls_applied += 1
            if self._recording is not None:
                self._recording.emit(MachineStalled(
                    now, machine, self._stall_until[machine]
                ))
        expired = [
            machine for machine, until in self._stall_until.items()
            if until <= now
        ]
        for machine in expired:
            del self._stall_until[machine]
            if self._recording is not None:
                self._recording.emit(MachineResumed(now, machine))
        if self._pending_crashes and self._pending_crashes[-1][0] <= now:
            _tick, machine = self._pending_crashes.pop()
            if self._recording is not None:
                self._recording.emit(MachineCrashed(now, machine))
            return machine
        return None

    def is_stalled(self, machine, now):
        until = self._stall_until.get(machine)
        return until is not None and now < until

    def next_event_tick(self, now):
        """Earliest scripted transition after *now*, or ``None``.

        The simulator folds this into its fast-forward target so an
        otherwise idle cluster still wakes up to resume a stalled
        machine or apply a scheduled crash.
        """
        candidates = []
        if self._pending_stalls:
            candidates.append(self._pending_stalls[-1][0])
        if self._pending_crashes:
            candidates.append(self._pending_crashes[-1][0])
        candidates.extend(self._stall_until.values())
        future = [tick for tick in candidates if tick > now]
        return min(future) if future else None
