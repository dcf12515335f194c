"""Sparse linear solves by direct LU factorization."""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu


class SolverError(RuntimeError):
    """Linear solve failed; carries the residual achieved, if any."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class Factorization:
    """Reusable sparse LU factorization (immutable after construction)."""

    def __init__(self, matrix):
        self._shape = matrix.shape
        try:
            self._lu = splu(sparse.csc_matrix(matrix))
        except RuntimeError as exc:
            raise SolverError(f"LU factorization failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(rhs, dtype=float))


def solve(matrix, rhs) -> np.ndarray:
    """Solve matrix @ u = rhs by sparse LU (backward stable); raises
    SolverError on a failed factorization or a non-finite solution."""
    rhs = np.asarray(rhs, dtype=float)
    mat = sparse.csr_matrix(matrix)
    u = Factorization(mat).solve(rhs)
    if not np.all(np.isfinite(u)):
        res = np.linalg.norm(mat @ u - rhs)
        raise SolverError("direct solve produced non-finite values (singular matrix?)", res)
    return u
