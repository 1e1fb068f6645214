"""The host's speed, sampled alongside the workload, and times scaled by it.

A benchmark VM shares its cores with other tenants.  On a 2-vCPU Xeon VM
the same navstack work ran up to 1.5x slower for stretches of seconds to
minutes, so raw times from one 30-second run told as much about the host as
about navstack, and ten runs of the same code spread by a quarter.

The two vCPUs also changed speed independently of each other, so the run
is pinned to one core (see run.py).  A ``Speedometer`` times a fixed
reference kernel every ``SAMPLE_EVERY_S`` during the timed work: Python
bookkeeping and small numpy operations, which navstack's control ticks are
made of.  It contains no navstack code, so a change to navstack cannot
change it.  Each measured stretch is scaled by ``REF_S`` over the kernel's
time around it, interpolated linearly between samples: a scaled time reads
as seconds on a core where the kernel takes ``REF_S``, about the fast state
of that VM.  Over 120 s of alternating chunks on a pinned core, 8-chunk
medians of a fusion rollout spread 32 % raw and 4.4 % scaled, and the
slope of log chunk time on log kernel time was 0.89-0.92 for fusion,
static and explore chunks.  A kernel of pure Python work alone tracked
worse (6-7 %).  The time spent sampling is left out of every stretch.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_S = 0.8e-3          # kernel seconds that a scaled time refers to
SAMPLE_EVERY_S = 0.1    # sampling interval during timed work
SAMPLE_REPS = 3         # kernel runs per sample; the fastest one counts

_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((4, 64, 64)) / 8.0     # four 64-wide layers, as in fusion
_XY = _RNG.standard_normal((512, 2))             # points, as in a raycast


def reference_kernel() -> float:
    """Fixed work in navstack's proportions: interpreter bookkeeping (integer
    arithmetic, dict stores), then small numpy operations (a stacked
    64-wide layer, distances to 512 points, a sort)."""
    s = 0
    d = {}
    for i in range(3000):
        s += i * i % 7
        d[i & 15] = s
    h = np.ones(64)
    acc = 0.0
    for _ in range(20):
        h = np.tanh(np.tensordot(_W, h, axes=([2], [0])).sum(axis=0) * 0.25)
        dist = np.hypot(_XY[:, 0] - h[0], _XY[:, 1] - h[1])
        acc += float(np.min(dist)) + float(np.sort(dist)[5])
    return acc


class Speedometer:
    """Kernel samples over one stretch of timed work."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.factors: list[float] = []

    def sample(self) -> float:
        """Time the kernel; return the time the sample ended."""
        t0 = perf_counter()
        best = float("inf")
        for _ in range(SAMPLE_REPS):
            t = perf_counter()
            reference_kernel()
            best = min(best, perf_counter() - t)
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.factors.append(REF_S / best)
        return t1

    def due(self, t: float) -> bool:
        return not self.ends or t - self.ends[-1] >= SAMPLE_EVERY_S

    def factor_at(self, t):
        """Scale factor at time(s) ``t``, linear between sample midpoints."""
        mids = (np.array(self.starts) + np.array(self.ends)) / 2
        return np.interp(t, mids, self.factors)

    def _stretches(self, t0: float, t1: float) -> np.ndarray:
        """(start, end) of the parts of [t0, t1] outside any sample."""
        edges = [t0]
        for s, e in zip(self.starts, self.ends):
            if t0 < s and e < t1:
                edges += [s, e]
        edges.append(t1)
        return np.array(edges).reshape(-1, 2)

    def raw(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1], less the sampling."""
        st = self._stretches(t0, t1)
        return float(np.sum(st[:, 1] - st[:, 0]))

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1], less the sampling, scaled.  Exact for the
        linear factor, since no stretch spans a sample midpoint."""
        st = self._stretches(t0, t1)
        return float(np.sum((st[:, 1] - st[:, 0]) * self.factor_at(st.mean(axis=1))))
