"""Order statistics the ledger reports, and the guards on them."""

import itertools
import statistics

#: A percentile is only *supported* by a sample with at least this many
#: observations beyond it (choosing-metrics guide, section 1).
MIN_BEYOND = 10


def samples_beyond(count, p):
    """Observations of a *count*-sized sample ranked above its nearest-
    rank percentile *p* (``repro.service.traffic.percentile``)."""
    return count - max(1, -(-count * p // 100))  # ceil without floats


def supported(count, p):
    """Whether *count* samples leave MIN_BEYOND observations beyond *p*."""
    return samples_beyond(count, p) >= MIN_BEYOND


def spread(values):
    """Interquartile distance as a share of the median (None below 2)."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    if middle == 0:
        return None
    return (quartiles[2] - quartiles[0]) / middle


def floor_durations(passes):
    """Per-slot minimum over identical passes.

    Every pass executes the same deterministic operation sequence, so
    slot *i* costs the same in each; host noise on this class of box only
    ever adds time (see README, "Why the floor").  The element-wise
    minimum is therefore the quietest observation of each operation.
    """
    lengths = {len(durations) for durations in passes}
    if len(lengths) != 1:
        raise ValueError("passes differ in slot count: %s" % sorted(lengths))
    return [min(slot) for slot in zip(*passes)]


def interval_sums(durations, intervals):
    """Total duration of each half-open slot interval ``(first, last)``."""
    prefix = [0.0] + list(itertools.accumulate(durations))
    return [prefix[last] - prefix[first] for first, last in intervals]
