"""A fixed kernel, independent of femfct, that measures the host's current speed.

On a shared host the same work can run about 1.3x slower for seconds to
minutes at a time (for instance while another tenant runs on the sibling
hyperthread), in CPU time as well as in wall time.  The benchmark times
this kernel around every repetition and scales its timings to a reference
host speed, so that such swings do not read as changes of the program.  The kernel
mixes the kinds of work femfct does: scatter-adds, small dense
contractions, sparse products and triangular solves, sorting and Python
loops.  It must not call femfct, or a faster femfct would also speed up
the yardstick.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

# median kernel time on an uncontended 2-vCPU Xeon host; the scaled timings
# read as seconds on such a host
REFERENCE_S = 0.010
REPEATS = 15


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        n, m = 4225, 8192
        self.n = n
        self.index = rng.integers(0, n, 9 * m)
        self.values = rng.random(self.index.size)
        self.a = rng.random((m, 3, 3))
        self.b = rng.random((m, 3, 3))
        self.keys = (rng.integers(0, n, 30000), rng.integers(0, n, 30000))
        # 5-point Laplacian on a 65 x 65 grid plus identity: FEM-like sparsity
        side = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(65, 65))
        grid = sparse.identity(65)
        self.matrix = (sparse.kron(grid, side) + sparse.kron(side, grid) + sparse.identity(n)).tocsr()
        self.lu = splu(self.matrix.tocsc())
        self.x = rng.random(n)

    def kernel(self):
        out = np.zeros(self.n)
        np.add.at(out, self.index, self.values)
        np.einsum("mij,mjk->mik", self.a, self.b)
        for _ in range(5):
            self.matrix @ self.x
        self.lu.solve(self.x)
        np.lexsort(self.keys)
        [(i, i + 1, i + 2) for i in range(8192)]

    def measure(self) -> float:
        """Median seconds of REPEATS kernel runs."""
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            self.kernel()
            times.append(perf_counter() - start)
        return statistics.median(times)
