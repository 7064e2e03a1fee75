"""Host-speed reference: a fixed pure-Python kernel timed between rows.

On a shared host the speed of a core drifts with other tenants' load: the
same pass can take 2.2 s or 4.2 s a minute apart, and CPU time tracks wall
time, so neither clock holds still. The drift moves the kernel and the
program alike. ``SpeedProbe`` times the kernel every ``CADENCE_S`` seconds
between rows, and ``scale`` turns a measured interval into seconds at the
nominal speed: the interval times ``NOMINAL_S`` over the median kernel time
near that interval. The kernel imports nothing from the program, so only a
change to the program moves a normalised time.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: a typical duration of one kernel call on the host the benchmark was tuned
#: on (2-core Intel Xeon KVM guest, Python 3.11.7); normalised times read as
#: wall seconds on that host at its usual speed
NOMINAL_S = 0.003
#: a sample is taken before a row when the last one is older than this
CADENCE_S = 0.05
#: samples within this many seconds of an interval set its local speed
WINDOW_S = 0.25
#: the local speed uses at least this many samples (the nearest ones)
MIN_SAMPLES = 3

_N = 48


def reference_kernel() -> int:
    """Fixed interpreter work like the program's: build a sparse graph from
    an LCG as adjacency sets, run a BFS from every vertex, fill a bitmask
    table. About 3 ms."""
    adj = [set() for _ in range(_N)]
    x = 12345
    for i in range(_N):
        for j in range(i + 1, _N):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if x % 7 == 0:
                adj[i].add(j)
                adj[j].add(i)
    acc = 0
    for _ in range(2):
        for s in range(_N):
            seen = {s}
            frontier = [s]
            depth = 0
            while frontier:
                nxt = []
                for u in frontier:
                    for v in adj[u]:
                        if v not in seen:
                            seen.add(v)
                            nxt.append(v)
                frontier = nxt
                depth += 1
            acc += depth
        table = {}
        for m in range(1, 1 << 10):
            table[m] = table.get(m ^ (m & -m), 0) + m.bit_count()
        acc += table[(1 << 10) - 1]
    return acc


class SpeedProbe:
    """Kernel samples with the time each was taken (perf_counter seconds)."""

    def __init__(self) -> None:
        self.mid: list[float] = []
        self.dur: list[float] = []
        self._last = float("-inf")

    def clear(self) -> None:
        self.mid.clear()
        self.dur.clear()

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.mid.append((t0 + t1) / 2)
        self.dur.append(t1 - t0)
        self._last = t1
        return t1 - t0

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= CADENCE_S:
            self.sample()

    def local(self, start: float, end: float) -> float:
        """Median kernel time over the samples within WINDOW_S of
        [start, end], or over the MIN_SAMPLES nearest when fewer are."""
        lo = bisect.bisect_left(self.mid, start - WINDOW_S)
        hi = bisect.bisect_right(self.mid, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            centre = (start + end) / 2
            nearest = sorted(range(len(self.mid)), key=lambda i: abs(self.mid[i] - centre))
            return statistics.median(self.dur[i] for i in nearest[:MIN_SAMPLES])
        return statistics.median(self.dur[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """(end - start) in seconds at the nominal speed."""
        return (end - start) * NOMINAL_S / self.local(start, end)
