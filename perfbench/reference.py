"""A fixed reference kernel that measures the host's speed during the jobs.

The benchmark runs on a few cores of a shared host, whose caches, memory
bandwidth and clock the host's other work also uses: the same batch can take
0.6x to 1.4x its usual time, in phases from a few seconds to longer than a
whole run. The worker therefore samples this kernel, which does not use
matweight, while the jobs of the timed phase run: a timer signal interrupts
the jobs every INTERVAL seconds and runs one repetition, whose time the
worker takes off the interrupted job's. Each batch's job time is reported in
units of the mean repetition sampled during it (`wall_ref`). A slowdown of
the whole host stretches both and cancels; a change to matweight moves only
the jobs.

One repetition mixes the two kinds of work the workloads do: a 2-D complex
FFT pair on a 240x240 grid (cache and memory bound, like the 2-D norm grids)
and a loop of small-array numpy calls (dispatch bound, like mesh building and
the MVEE iterations). The 2-D part writes into preallocated arrays, so the
kernel's speed does not depend on the state of the workload's heap, and its
sizes differ from the workloads' grids, so it shares no FFT plan with them.
"""

import contextlib
import signal
import time

import numpy as np

INTERVAL = 0.04


class Reference:
    """Kernel repetitions sampled by a timer, accumulated between take() calls."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x2 = rng.standard_normal((240, 240)) + 0j
        self.f2 = np.empty_like(self.x2)
        self.g2 = np.empty_like(self.x2)
        self.r2 = np.empty(self.x2.shape)
        self.x1 = rng.standard_normal(960)
        self.a = rng.standard_normal((2, 2))
        self.pts = rng.standard_normal((64, 2))
        self.seconds = 0.0
        self.reps = 0

    def rep(self):
        np.fft.fft2(self.x2, out=self.f2)
        np.multiply(self.f2, 0.5, out=self.f2)
        np.fft.ifft2(self.f2, out=self.g2)
        np.abs(self.g2, out=self.r2)
        np.power(self.r2, 1.5, out=self.r2)
        s = float(self.r2.sum())
        for _ in range(20):
            y1 = np.fft.ifft(np.fft.fft(self.x1)).real
            m = self.a @ self.a.T + np.eye(2)
            q = np.einsum("ij,jk,ik->i", self.pts, np.linalg.inv(m), self.pts)
            s += float(np.max(np.abs(y1))) + float(q.max())
            for k in range(10):
                s += k * 0.5
        return s

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.rep()
        self.seconds += time.perf_counter() - t0
        self.reps += 1

    @contextlib.contextmanager
    def sampling(self):
        """Run one repetition every INTERVAL seconds of wall time."""
        for _ in range(20):  # warm-up: FFT plans, first-call set-up
            self.rep()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def take(self):
        """Mean seconds per repetition since the last take(); resets the count."""
        if not self.reps:  # a batch shorter than INTERVAL
            self._tick(None, None)
        per_rep = self.seconds / self.reps
        self.seconds, self.reps = 0.0, 0
        return per_rep
