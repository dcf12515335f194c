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
    """Reusable sparse LU factorization (immutable after construction).

    ``order`` is an earlier factorization's ``order``: the CSC structure
    ``(indptr, indices)`` it factored and ``cols = argsort(perm_c)``, the
    column permutation COLAMD chose for it.  A matrix of that structure
    is factored as ``A[:, cols]`` in natural order, skipping COLAMD, with
    the row pivots, fill and solves of a fresh factorization; any other
    matrix is ordered afresh.
    """

    def __init__(self, matrix, order=None):
        csc = sparse.csc_matrix(matrix)
        indptr, indices = csc.indptr, csc.indices
        reuse = (
            order is not None
            and np.array_equal(indptr, order[0])
            and np.array_equal(indices, order[1])
        )
        self._cols = None
        if reuse:
            self._cols = order[2]
            # rebinding frees the unpermuted values before SuperLU runs
            csc = csc[:, self._cols]
        try:
            self._lu = splu(csc, permc_spec="NATURAL" if reuse else "COLAMD")
        except RuntimeError as exc:
            raise SolverError(f"LU factorization failed: {exc}") from exc
        cols = self._cols if reuse else np.argsort(self._lu.perm_c)
        self.order = (indptr, indices, cols)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self._lu.solve(np.asarray(rhs, dtype=float))
        if self._cols is None:
            return y
        # y solves A[:, cols] y = rhs
        x = np.empty_like(y)
        x[self._cols] = y
        return x


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
