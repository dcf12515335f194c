"""Helpers shared by the test modules."""

import numpy as np
from scipy import sparse


def on_order(matrix, order):
    """``matrix[:, cols]`` as a CSC matrix on the arrays of ``order``, an
    earlier Factorization's ``(indptr, indices, cols)``: the input of a
    factorization in that order."""
    permuted = sparse.csc_matrix(matrix)[:, order[2]]
    return sparse.csc_matrix((permuted.data, order[1], order[0]), shape=permuted.shape)


def max_opposite_angle_sum(mesh) -> float:
    """Largest sum of the two angles opposite to an interior edge.

    A triangulation is Delaunay iff this never exceeds pi; values above
    pi/2 already break the angle condition for an M-matrix Laplacian.
    """
    p = mesh.nodes[mesh.triangles]
    # edge q = (vertex q, vertex q+1) is opposite vertex q+2
    opposite = np.roll(p, -2, axis=1)
    vi, vj = p - opposite, np.roll(p, -1, axis=1) - opposite
    norms = np.linalg.norm(vi, axis=2) * np.linalg.norm(vj, axis=2)
    angle = np.arccos(np.clip(np.sum(vi * vj, axis=2) / norms, -1, 1))
    edge, n_edges = mesh.edges.of_triangle.ravel(), mesh.edges.i.size
    sums = np.bincount(edge, angle.ravel(), n_edges)
    interior = np.bincount(edge, minlength=n_edges) == 2
    return float(sums[interior].max(initial=0.0))
