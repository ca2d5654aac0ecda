"""Host-speed probe: a fixed, bcode-independent piece of Python work.

Shared 2-vCPU hosts flip between a fast and a slow state within
milliseconds, and the slow state makes this program's steps up to 1.9x
slower.  A pure arithmetic loop slows by less than the program does; this
probe does what the verifiers and the decoder tables do (column-set
enumeration, int ORs, dict inserts).  The benchmark runs it between
measured steps and reports each time scaled to a host on which the probe
takes ``REFERENCE_MS`` (its time in the fast state).

Standard library only, so the set-up probe can use it before it imports
numpy.
"""

import bisect
from itertools import combinations
from time import perf_counter

REFERENCE_MS = 0.6
DECODES_PER_PROBE = 10
# Probes after a step: one per this many seconds of the step, 1 to 20.
PROBE_EVERY_S = 0.025
MAX_PROBES = 20

_MASKS = [((i * 2654435761) >> 7) & 0xFFFFFF for i in range(24)]


def probe_ms() -> float:
    """Time, in ms, of one fixed enumeration of 2,324 column sets (about 1 ms)."""
    start = perf_counter()
    seen: dict[int, tuple[int, ...]] = {}
    for size in (1, 2, 3):
        for cols in combinations(range(24), size):
            acc = 0
            for j in cols:
                acc |= _MASKS[j]
            seen.setdefault(acc, cols)
    return (perf_counter() - start) * 1e3


def probes_after(seconds: float) -> int:
    """How many probes to take after a step of ``seconds``."""
    return min(max(round(seconds / PROBE_EVERY_S), 1), MAX_PROBES)


def speed_factor(before_ms: float, after_ms: float) -> float:
    """Scale factor from this host's speed around a step to the reference."""
    return REFERENCE_MS / ((before_ms + after_ms) / 2)


class SpeedTrace:
    """Probe times taken through a run, by ``perf_counter`` timestamp."""

    def __init__(self, probes: list[tuple[float, float]]) -> None:
        probes = sorted(probes)
        self._times = [t for t, _ in probes]
        self._values = [v for _, v in probes]

    def factor(self, start: float, end: float) -> float:
        """Reference-host factor for work that ran from ``start`` to ``end``.

        Uses the probes within one duration of the work on either side, and
        at least the last probe before it and the first one after it: the
        host flips state within milliseconds, so a short step is best
        predicted by its nearest probes and a long one by a longer window.
        """
        span = end - start
        lo = min(bisect.bisect_left(self._times, start - span), bisect.bisect_left(self._times, start) - 1)
        hi = max(bisect.bisect_right(self._times, end + span), bisect.bisect_right(self._times, end) + 1)
        window = self._values[max(lo, 0):hi]
        return REFERENCE_MS * len(window) / sum(window)
