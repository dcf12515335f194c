"""Sparse linear solves by direct LU factorization."""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu


class SolverError(RuntimeError):
    """Linear solve failed; carries the residual achieved, if any."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _downwind_order(csc):
    """A topological order of the graph with an edge j -> i for every
    stored nonzero a_ij, i != j, or None if that graph has a cycle.

    The graph is acyclic exactly when each of its strongly connected
    components is one node, and scipy numbers the components sinks
    first, so decreasing labels are a topological order.  In this order
    the matrix is lower triangular.  scipy does not document its label
    order, so every edge is checked to run to a lower label (a failed
    check gives None: COLAMD, only slower).
    """
    n = csc.shape[0]
    # read as CSR, a copy of the CSC arrays is A^T, whose row j lists the
    # heads of j's edges; apply_dirichlet keeps stored zeros, which scipy
    # would count as edges, and a self-loop merges no components
    graph = sparse.csr_matrix((csc.data, csc.indices, csc.indptr), shape=(n, n), copy=True)
    graph.eliminate_zeros()
    count, labels = connected_components(graph, directed=True, connection="strong")
    # the label of each edge's tail, which must not be below its head's
    tail = np.repeat(labels, np.diff(graph.indptr))
    if count < n or np.any(tail < labels[graph.indices]):
        return None
    order = np.empty(n, dtype=np.intp)
    order[n - 1 - labels] = np.arange(n)
    return order


class Factorization:
    """Reusable sparse LU factorization (immutable after construction).

    The columns are put in downwind order when the matrix's graph (an
    edge j -> i for every stored nonzero a_ij, i != j) is acyclic, as for
    the upwinded systems M_L + tau*Abar: ``A[:, cols]`` is then
    triangular up to its row order and factors in natural order, without
    fill while the pivots stay on the diagonal.  A matrix with a cycle
    takes COLAMD's column order.

    ``order`` is an earlier factorization's ``order``: the CSC structure
    ``(indptr, indices)`` of the ``A[:, cols]`` it factored and its
    downwind order ``cols``, or None after COLAMD.  A matrix whose
    columns in that order have that structure is factored in that order,
    and hands the same ``order`` on; any other matrix is ordered afresh.
    A CSC matrix on the order's own arrays (its ``indptr`` is the
    order's) is taken to be ``A[:, cols]`` already and factored as it is.
    """

    def __init__(self, matrix, order=None):
        csc = matrix
        if order is None or getattr(matrix, "indptr", None) is not order[0]:
            csc = sparse.csc_matrix(matrix)
            permuted = None if order is None else csc[:, order[2]]
            if permuted is None or not (
                np.array_equal(permuted.indptr, order[0])
                and np.array_equal(permuted.indices, order[1])
            ):
                order = permuted = None
                cols = _downwind_order(csc)
                if cols is not None:
                    permuted = csc[:, cols]
                    order = (permuted.indptr, permuted.indices, cols)
            if permuted is not None:
                # rebinding frees the unpermuted values before SuperLU runs
                csc = permuted
        cols = None if order is None else order[2]
        try:
            self._lu = splu(
                csc,
                permc_spec="COLAMD" if cols is None else "NATURAL",
                # one-column panels halve the time of the fill-free
                # triangular LU and give the same factors
                panel_size=None if cols is None else 1,
            )
        except RuntimeError as exc:
            raise SolverError(f"LU factorization failed: {exc}") from exc
        self._cols = cols
        self.order = order

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self._lu.solve(np.asarray(rhs, dtype=float))
        if self._cols is None:
            return y
        # y solves A[:, cols] y = rhs
        x = np.empty_like(y)
        x[self._cols] = y
        return x
