"""Deterministic, seed-driven fault plans.

A :class:`ChaosConfig` declares *what* can go wrong — message drop /
duplication / reordering rates, scripted machine stalls, and hard
crashes.  A :class:`FaultPlan` is the seeded *realization* of such a
config for one run: every decision (drop this message? how many ticks
of delay?) is drawn from one ``random.Random(seed)`` stream, so a given
``(config, seed)`` pair injects exactly the same faults every time —
chaos runs are replayable bug reports, not flaky ones.

Named profiles (:data:`PROFILES`) give the CLI and CI one-word handles
for common fault mixes.
"""

import random
from dataclasses import dataclass, field

from repro.errors import ClusterConfigError

#: Max extra delay ticks for reordered messages and duplicate copies.
MAX_DELAY = 12


@dataclass
class ChaosConfig:
    """Declarative fault model for one simulated run.

    Rates are per network message (work and control traffic alike).
    ``stalls`` and ``crashes`` are scripted: a stall freezes a machine's
    workers for a tick range (its NIC keeps receiving, so delivery
    buffers fill up — a GC pause / scheduler hiccup); a crash kills the
    machine for good, which is unrecoverable for a running query.
    """

    #: Seed for the fault plan's RNG stream; ``None`` falls back to the
    #: cluster-wide ``ClusterConfig.seed`` so one knob replays a run.
    seed: int = None
    #: Probability a message silently vanishes.
    drop_rate: float = 0.0
    #: Probability a delivered message arrives a second time.
    duplicate_rate: float = 0.0
    #: Probability a message is delayed past later traffic (reordering).
    reorder_rate: float = 0.0
    #: Scripted compute stalls: tuple of ``(machine, start_tick, duration)``.
    stalls: tuple = field(default_factory=tuple)
    #: Scripted hard crashes: tuple of ``(machine, tick)``.
    crashes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        self.stalls = tuple(tuple(spec) for spec in self.stalls)
        self.crashes = tuple(tuple(spec) for spec in self.crashes)
        self.validate()

    def validate(self):
        for name in ("drop_rate", "duplicate_rate", "reorder_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ClusterConfigError("%s must be in [0, 1)" % name)
        for machine, start, duration in self.stalls:
            if start < 0 or duration < 1 or machine < 0:
                raise ClusterConfigError(
                    "bad stall spec (machine=%r, start=%r, duration=%r)"
                    % (machine, start, duration)
                )
        for machine, tick in self.crashes:
            if tick < 0 or machine < 0:
                raise ClusterConfigError(
                    "bad crash spec (machine=%r, tick=%r)" % (machine, tick)
                )
        return self

    @property
    def has_message_faults(self):
        """True when delivery can be imperfect (needs the reliability
        layer to keep the termination protocol sound)."""
        return bool(self.drop_rate or self.duplicate_rate
                    or self.reorder_rate)

    def replace(self, **changes):
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)


#: Named fault mixes for the CLI (``repro query --chaos``) and CI.
PROFILES = {
    "drop": dict(drop_rate=0.05),
    "dup": dict(duplicate_rate=0.05),
    "reorder": dict(reorder_rate=0.15),
    "drop-dup": dict(drop_rate=0.05, duplicate_rate=0.02),
    "soak": dict(drop_rate=0.05, duplicate_rate=0.02, reorder_rate=0.10),
}


def profile(name, seed=None, **overrides):
    """The named fault profile as a :class:`ChaosConfig`."""
    try:
        base = dict(PROFILES[name])
    except KeyError:
        raise ClusterConfigError(
            "unknown chaos profile %r (have: %s)"
            % (name, ", ".join(sorted(PROFILES)))
        )
    base.update(overrides)
    return ChaosConfig(seed=seed, **base)


class FaultPlan:
    """Seeded realization of a :class:`ChaosConfig` for one run.

    All randomness lives here; the network and controller only apply
    the plan's decisions.  Decisions are drawn in simulation order,
    which is itself deterministic, so the whole injection schedule is a
    pure function of ``(config, seed)``.
    """

    def __init__(self, config, default_seed=0):
        self.config = config
        self.seed = config.seed if config.seed is not None else default_seed
        self._rng = random.Random(self.seed)

    def message_fate(self, now, src, dst):
        """Decide the fate of one message: ``(drop, duplicate, delay,
        dup_delay)``.

        A dropped message is never also duplicated (the fault models a
        lost frame); duplicate copies and reordered originals get an
        independent delay draw each.
        """
        config = self.config
        rng = self._rng
        drop = bool(config.drop_rate) and rng.random() < config.drop_rate
        duplicate = (
            not drop
            and bool(config.duplicate_rate)
            and rng.random() < config.duplicate_rate
        )
        delay = 0
        if config.reorder_rate and rng.random() < config.reorder_rate:
            delay = rng.randint(1, MAX_DELAY)
        dup_delay = rng.randint(1, MAX_DELAY) if duplicate else 0
        return drop, duplicate, delay, dup_delay
