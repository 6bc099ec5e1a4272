"""Host-speed calibration.

The shared host runs the same Python code at speeds up to 1.8x apart.  It
switches between a fast and a slow state every few seconds, often within
one unit of work.  A run therefore times a short pure-Python kernel every
tenth of a second or so of timed work (before each sweep batch and after
its scheduler, or every few oracle batches), and reports its times scaled
to a host on which that kernel takes ``REFERENCE_S``:

    scaled time = raw time * REFERENCE_S / mean(the two kernel samples around it)

Time spent in the kernel is not part of any timed figure.  The kernel does
the kind of work the library does (bitset BFS over Python ints, tuple and
list churn) but is not library code, so no change to the program under test
can change it.  Raw times are reported alongside.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Seconds the kernel takes on the host the benchmark was defined on
# (Intel Xeon, Python 3.11, fast state).
REFERENCE_S = 0.0120


def kernel(rounds: int = 150) -> int:
    """Breadth-first search over int bitmasks, with tuple churn."""
    state = 12345
    adj = []
    for _ in range(48):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        adj.append(state & ((1 << 48) - 1))
    total = 0
    for _ in range(rounds):
        for src in range(0, 48, 4):
            seen = frontier = 1 << src
            while frontier:
                nxt = 0
                m = frontier
                while m:
                    low = m & -m
                    nxt |= adj[low.bit_length() - 1]
                    m ^= low
                frontier = nxt & ~seen
                seen |= nxt
            total += bin(seen).count("1")
        t = tuple(adj)
        adj = list(t[1:] + t[:1])
    return total


class HostSpeed:
    """Kernel samples taken between stretches of timed work.

    Sample ``i`` runs from ``starts[i]`` to ``ends[i]``.  Segment ``i`` is
    the gap between samples ``i`` and ``i + 1``; work in it is scaled by the
    mean of those two samples.  Work is recorded either as a wall-clock
    interval, which may span several segments (``record_interval``), or as
    seconds done in the segment after the latest sample (``record``).  A
    run must end with a sample, so that every segment is closed.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples: list[float] = []
        self._stretches: list[tuple[int, float, list]] = []
        self._intervals: list[tuple[float, float, list]] = []

    def sample(self, min_gap: float = 0.0) -> float:
        """Time the kernel and return its seconds; with ``min_gap``, only
        if at least that long has passed since the latest sample (0.0
        otherwise)."""
        t0 = perf_counter()
        if self.ends and t0 - self.ends[-1] < min_gap:
            return 0.0
        kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.samples.append(t1 - t0)
        return t1 - t0

    def record(self, seconds: float, batch_ms=()) -> None:
        """Timed work done since the latest sample."""
        self._stretches.append((len(self.samples) - 1, seconds, list(batch_ms)))

    def record_interval(self, t0: float, t1: float, batches=()) -> None:
        """Work from ``t0`` to ``t1`` (kernel samples inside it are not
        counted), holding the batches ``(start, end)``."""
        self._intervals.append((t0, t1, list(batches)))

    def _slowdown(self, j: int) -> float:
        return (self.samples[j] + self.samples[j + 1]) / (2 * REFERENCE_S)

    def _scale(self, t0: float, t1: float) -> float:
        total = 0.0
        for j in range(len(self.samples) - 1):
            overlap = min(t1, self.starts[j + 1]) - max(t0, self.ends[j])
            if overlap > 0:
                total += overlap / self._slowdown(j)
        return total

    def scaled(self) -> tuple[float, list[float]]:
        """Total seconds and batch milliseconds on the reference host."""
        total, batches = 0.0, []
        for j, seconds, batch_ms in self._stretches:
            slowdown = self._slowdown(j)
            total += seconds / slowdown
            batches += [b / slowdown for b in batch_ms]
        for t0, t1, spans in self._intervals:
            total += self._scale(t0, t1)
            batches += [1000.0 * self._scale(b0, b1) for b0, b1 in spans]
        return total, batches

    @property
    def slowdown(self) -> float:
        """Mean kernel time over the reference."""
        return statistics.fmean(self.samples) / REFERENCE_S
