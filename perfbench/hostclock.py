"""Host speed, measured with a fixed kernel between the timed solves.

On a shared machine the same solve runs up to 40% slower for seconds to
minutes at a time. A run of 25 s holds several such phases, and runs with
different seeds fall in different ones, so raw wall times differ from run to
run by the phase, not by the code. The kernel below does the same kind of
work as a solve (small dense eigendecompositions, matrix products,
elementwise numpy and a little Python) but uses nothing from the library, so
a change to the library cannot change it. It runs about once a second
between cases. A wall interval is converted to *reference-host seconds* by
the factor ``REFERENCE_S`` over the median kernel time of the ``NEAREST``
samples nearest to the interval's midpoint, so each solve is scaled by the
host speed of its own phase.

Interleaved over 150 s on the 2-core development machine, 7 s blocks of a
fixed ring solve had means from 0.27 s to 0.45 s (coefficient of variation
0.14), while solve over kernel time stayed within 18.8 to 21.4 (0.035).
WORKLOADS.md has the ten-seed spreads of raw and scaled times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel seconds on a host of reference speed: its median on the
# development machine. It fixes only the unit of the scaled times.
REFERENCE_S = 0.0175
# Seconds between kernel samples during a timed loop.
INTERVAL_S = 1.0
# The samples nearest to a moment give the host speed at that moment: about
# 5 s of samples between solves, and 8-10 s between the desk sweeps, which
# are sampled only after each sweep. See "How to scale" in WORKLOADS.md.
NEAREST = 5


class HostClock:
    """Kernel samples, as (start, end) wall times, at most every ``INTERVAL_S``."""

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self._a = m @ m.conj().T
        self._b = rng.standard_normal((16, 96)) + 0j
        self.samples = []

    def _kernel(self):
        acc = 0.0
        for _ in range(200):
            lam, u = np.linalg.eigh(self._a)
            p = u.conj().T @ self._b
            acc += float(np.sum(np.abs(p) ** 2 / (lam[:, None] + 1.0) ** 2))
            for _ in range(20):
                acc = 0.5 * acc + 1.0
        return acc

    def sample(self):
        start = time.perf_counter()
        self._kernel()
        self.samples.append((start, time.perf_counter()))

    def maybe_sample(self):
        if (not self.samples
                or time.perf_counter() - self.samples[-1][1] >= INTERVAL_S):
            self.sample()

    def kernel_s(self):
        """Kernel seconds of every sample."""
        return [end - start for start, end in self.samples]

    def factor_at(self, t):
        """Reference kernel time over the median kernel time near moment ``t``."""
        near = sorted(self.samples, key=lambda s: abs((s[0] + s[1]) / 2 - t))
        return REFERENCE_S / statistics.median(
            end - start for start, end in near[:NEAREST])

    def reference_s(self, start, end):
        """Reference-host seconds of the wall interval from ``start`` to ``end``."""
        return (end - start) * self.factor_at((start + end) / 2)

    def gaps(self):
        """The wall intervals between consecutive samples."""
        return [(prev_end, next_start) for (_, prev_end), (next_start, _)
                in zip(self.samples, self.samples[1:])]
