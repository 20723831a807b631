"""Machine-speed calibration: a fixed kernel timed between jobs.

The CPU a run gets is shared with other tenants, and its speed drifts by
tens of percent over tens of seconds.  Timing a fixed kernel that does
not use rivercomp right before and after every job, and scaling the
job's times by REFERENCE_S / (kernel time), reports them in seconds of a
machine running at the reference speed.  Measured on a 2-core cloud VM:
one sweep job's raw time drifted from 0.70 s to 1.06 s within a minute,
while its time over the kernel's stayed within 4% outside the moments
when the speed changed.

The kernel mixes the kinds of work the jobs do: sparse LU solves of a
2-D Kronecker-sum matrix, banded tridiagonal solves, and short NumPy
vector updates driven by a Python loop.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

# Kernel time on the reference machine: a typical kernel time on a 2-core
# x86-64 cloud VM (Python 3.11, NumPy 2.4, SciPy 1.17, OpenBLAS 0.3.31),
# where it ranged from 0.0095 s to 0.0165 s.  Only a constant scale: it
# turns kernel units back into seconds of that machine.
REFERENCE_S = 0.012
# Fewest kernel runs in one calibration point.
MIN_RUNS = 3


class Calibrator:
    def __init__(self) -> None:
        n = 48
        lap = sparse.diags(
            [np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="csr"
        )
        eye = sparse.identity(n, format="csr")
        matrix = sparse.identity(n * n) - 0.1 * (sparse.kron(eye, lap) + sparse.kron(lap, eye))
        self._lu = spla.splu(matrix.tocsc())
        self._rhs = np.linspace(1.0, 2.0, n * n)
        m = 256
        self._band = np.vstack([np.full(m, -0.1), np.full(m, 1.2), np.full(m, -0.1)])
        self._vec = np.linspace(0.0, 1.0, m)

    def _kernel(self) -> None:
        for _ in range(20):
            self._lu.solve(self._rhs)
        w = self._vec
        for _ in range(150):
            w = scipy.linalg.solve_banded((1, 1), self._band, w + 0.01 * w * (1.0 - w))
            w = np.maximum(w, 0.0)

    def point(self, window: float) -> float:
        """Mean seconds per kernel run over at least ``window`` seconds from now."""
        start = time.perf_counter()
        runs = 0
        now = start
        while runs < MIN_RUNS or now - start < window:
            self._kernel()
            runs += 1
            now = time.perf_counter()
        return (now - start) / runs

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor turning seconds measured between two points into reference seconds."""
        return REFERENCE_S / (0.5 * (before + after))
