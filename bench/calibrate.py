"""Host-speed probe for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by tens of percent over
seconds to minutes, because other tenants load the same cores and the shared
cache.  A probe times a fixed piece of work of the kind that dominates a
workload: ``probe_interpreted`` many NumPy calls on short arrays between
interpreted statements (Green evaluation, quadrature), ``MemoryProbe``
complex matrix-vector products over a matrix of the 3D system's size (the
dense SVD).  ``SpeedLog`` runs one of them from a ``SIGALRM``
handler every ``every`` seconds while a run measures, so probes fall inside
long library calls too (a handler runs at the next bytecode boundary, so not inside one
long C call such as an SVD).  Its ``clock`` excludes the time spent in
probes, so timed calls do not pay for them.  The speed factor of a piece of
work is the probe's reference time over the mean of the probes taken during
it; scaling a time by it states the time at the reference speed.  Nothing
here imports frachelm, so a change to the library cannot move the probe.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

_Y = np.linspace(0.1, 3.0, 30)


def probe_interpreted():
    """Seconds taken by small-array NumPy work (about 8 ms on a 2-core VM)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        z = _Y * (1.0 + i * 1e-4)
        w = np.where(z < 1.5, np.cos(z) * np.exp(-z), np.sqrt(z) * np.sin(z))
        acc += float(w.sum()) + math.sin(i)
    dt = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("probe work lost its value")
    return dt


class MemoryProbe:
    """Times four complex matrix-vector products with an n x n matrix, 48 MB
    at n = 1728 (about 13 ms on a 2-core VM)."""

    def __init__(self, n=1728):
        rng = np.random.default_rng(0)
        self.m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        self.x = rng.standard_normal(n) + 0j

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(4):
            y = self.m @ self.x
        dt = time.perf_counter() - t0
        if not np.isfinite(y[0]):
            raise ArithmeticError("probe work lost its value")
        return dt


# kind: (factory of the probe callable, nominal probe time in seconds, the
# scale of scaled times)
PROBES = {"interpreted": (lambda: probe_interpreted, 0.008), "memory": (MemoryProbe, 0.013)}
HISTORY = 8        # fewest probes (2 s at the default period) behind a factor


class SpeedLog:
    """Probe times taken on a timer while ``running``; ``clock`` skips them."""

    def __init__(self, kind="interpreted", every=0.25):
        make_probe, self.reference_s = PROBES[kind]
        self.probe = make_probe()
        self.every = every
        self.samples: list[float] = []
        self.paused = 0.0          # wall seconds spent inside probes
        self._busy = False

    def clock(self):
        """Wall clock in seconds, less the time spent in probes."""
        return time.perf_counter() - self.paused

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.samples.append(self.probe())
        finally:
            self.paused += time.perf_counter() - t0
            self._busy = False

    @contextmanager
    def running(self):
        """Probe every `every` seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self):
        """Index to pass to ``factor`` for the probes taken after this point."""
        return len(self.samples)

    def factor(self, since):
        """Reference time over the mean of the probes taken since `since`, or
        of the HISTORY latest ones when fewer were taken since.  A long call
        so rests on its own probes, while a short call, or a long C call with
        no probe inside, rests on several recent ones, not on one noisy one;
        1 without probes."""
        window = self.samples[max(0, min(since, len(self.samples) - HISTORY)):]
        return self.reference_s / statistics.fmean(window) if window else 1.0
