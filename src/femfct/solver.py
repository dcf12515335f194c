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


def _downwind_order(csc):
    """A topological order of the graph with an edge j -> i for every
    stored nonzero a_ij, i != j, or None if that graph has a cycle.

    Kahn's peeling by level sets: each level holds the nodes whose
    upwind nodes all lie in earlier levels (within a level, in label
    order).  In this order the matrix is lower triangular.
    """
    n = csc.shape[0]
    # the entries of column j are the edges out of j
    tail = np.repeat(np.arange(n), np.diff(csc.indptr))
    edge = (csc.indices != tail) & (csc.data != 0.0)
    head = csc.indices[edge]
    start = np.concatenate(([0], np.cumsum(np.bincount(tail[edge], minlength=n))))
    waiting = np.bincount(head, minlength=n)
    levels = [np.flatnonzero(waiting == 0)]
    while levels[-1].size:
        level = levels[-1]
        count = start[level + 1] - start[level]
        out = np.repeat(start[level] - (np.cumsum(count) - count), count) + np.arange(count.sum())
        heads, drops = np.unique(head[out], return_counts=True)
        waiting[heads] -= drops
        levels.append(heads[waiting[heads] == 0])
    order = np.concatenate(levels)
    return order if order.size == n else None


class Factorization:
    """Reusable sparse LU factorization (immutable after construction).

    The columns are put in downwind order when the matrix's graph (an
    edge j -> i for every stored nonzero a_ij, i != j) is acyclic, as for
    the upwinded systems M_L + tau*Abar: ``A[:, cols]`` is then
    triangular up to its row order and factors in natural order, without
    fill while the pivots stay on the diagonal.  A matrix with a cycle
    takes COLAMD's column order.

    ``order`` is an earlier factorization's ``order``: the CSC structure
    ``(indptr, indices)`` it factored, the column order ``cols`` it used
    (``argsort(perm_c)`` for COLAMD) and whether ``cols`` is a downwind
    order.  A matrix of that structure is factored as ``A[:, cols]`` in
    natural order, with the row pivots, fill and solves of a fresh
    factorization; any other matrix is ordered afresh.
    """

    def __init__(self, matrix, order=None):
        csc = sparse.csc_matrix(matrix)
        indptr, indices = csc.indptr, csc.indices
        if (
            order is not None
            and np.array_equal(indptr, order[0])
            and np.array_equal(indices, order[1])
        ):
            cols, downwind = order[2], order[3]
        else:
            cols = _downwind_order(csc)
            downwind = cols is not None
        if cols is not None:
            # rebinding frees the unpermuted values before SuperLU runs
            csc = csc[:, cols]
        try:
            self._lu = splu(
                csc,
                permc_spec="COLAMD" if cols is None else "NATURAL",
                # one-column panels halve the time of the fill-free
                # triangular LU and give the same factors; they would
                # change the rounding of an LU in a reused COLAMD order
                panel_size=1 if downwind else None,
            )
        except RuntimeError as exc:
            raise SolverError(f"LU factorization failed: {exc}") from exc
        self._cols = cols
        self.order = (
            indptr, indices, np.argsort(self._lu.perm_c) if cols is None else cols, downwind
        )

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
