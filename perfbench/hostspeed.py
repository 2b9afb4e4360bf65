"""Host-speed calibration of the timed passes.

The benchmark runs on a few cores of a shared host whose speed changes by
tens of percent from second to second and from minute to minute (the
same code runs in a fast and a slow mode about 2x apart, likely a busy
sibling hyperthread), so wall time alone measures the host as much as the
program.  While a pass runs, :class:`Sampler` interrupts it every
``PERIOD_S`` seconds of wall time (``SIGALRM``, handled in the main thread
between bytecodes) and times a fixed calibration slice of three parts:
small-array NumPy calls, a resolvent-style dense solve (SVD, least
squares, projection) on complex graph bases of dimension 4, 8 and 16, and
sparse 5-point Laplacian products -- the kinds of work the workloads do,
and none of it relsemi code, so no change to the program changes it.
Each part runs twice and only the second, warm run is timed, so the
program's cache footprint does not leak into it.

Time spent in the handler is taken out of the item and pass clocks
(:func:`paused_s`).  The pass's speed factor is ``REF_SLICE_S`` over the
slice time, the sum of the parts' mean times (the slowest ``TRIM`` share
of each, runs hit by an interrupt, left out).  A time at reference speed
is a measured time times that factor: the time the pass would take on a
host that runs the slice in ``REF_SLICE_S`` seconds.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.sparse as sp

PERIOD_S = 0.03
TRIM = 0.02
#: Close to the slice's time on an otherwise idle Intel Xeon vCPU, one BLAS thread.
REF_SLICE_S = 8.0e-4

clock = time.perf_counter
_paused = 0.0          # seconds spent in the handler since import


def paused_s() -> float:
    """Total time spent in calibration so far (constant without a sampler)."""
    return _paused


def _laplacian(m):
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    return (sp.kron(line, eye) + sp.kron(eye, line)).tocsr()


class Sampler:
    """Context manager: one timed calibration slice every ``PERIOD_S``."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.bases = [np.linalg.qr(rng.standard_normal((2 * d, d))
                                   + 1j * rng.standard_normal((2 * d, d)))[0]
                      for d in (4, 8, 16)]
        self.lap = _laplacian(64)
        self.vec = rng.standard_normal(64 * 64)
        self.parts = (self._numpy, self._dense, self._sparse)
        self.times = [[] for _ in self.parts]
        self._busy = False
        self._old = None

    def _numpy(self):
        """Small-array NumPy calls, where the dense workloads spend much time."""
        a = self.bases[1]
        acc = 0.0
        for _ in range(10):
            b = a.conj().T @ a
            acc += np.abs(b).max() + np.linalg.norm(a, axis=0)[0]
            acc += np.concatenate([a, a]).shape[0] + (np.eye(8) + b.real)[0, 0]
        return acc

    def _dense(self):
        """A resolvent-style solve on graph bases: SVD, least squares, projection."""
        acc = 0.0
        for basis in self.bases:
            d = basis.shape[1]
            u, v = basis[:d], basis[d:]
            m = 0.7 * u - v
            acc += np.linalg.svd(m, compute_uv=False)[0]
            coef = np.linalg.lstsq(m, np.eye(d, dtype=m.dtype), rcond=None)[0]
            r = u @ coef
            stacked = np.vstack([r, 0.7 * r - np.eye(d)])
            proj = basis @ (basis.conj().T @ stacked)
            acc += np.linalg.norm(stacked - proj, axis=0).max()
        return acc

    def _sparse(self):
        """Sparse 5-point Laplacian products, as in the grid workloads."""
        v = self.vec
        for _ in range(4):
            v = self.lap @ v
            v = v / np.abs(v).max()
        return v[0]

    def _tick(self, signum, frame):
        global _paused
        if self._busy:
            return
        self._busy = True
        t0 = clock()
        for part, times in zip(self.parts, self.times):
            part()
            t1 = clock()
            part()
            times.append(clock() - t1)
        self._busy = False
        _paused += clock() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def factor(self) -> float:
        """``REF_SLICE_S`` over the slice time: the sum of the parts' trimmed means."""
        if not self.times[0]:
            self._tick(None, None)
        slice_s = 0.0
        for times in self.times:
            times = np.sort(times)
            slice_s += times[:max(1, int(len(times) * (1.0 - TRIM)))].mean()
        return REF_SLICE_S / float(slice_s)
