"""P1 finite element assembly on triangular meshes.

Under the 3-point edge-midpoint rule (exact to degree 2) every term but
convection is a sum over the edges ij (diffusion too, as sum_j grad phi_j
= 0): M, K and R have the pair entries m_ij, k_ij (``mesh.edge_mass``,
``edge_laplacian``) and c(x_ij) m_ij, x_ij the edge midpoint, and the row
sums of those on the diagonal (K's negated); the load is f_i =
sum_j 2 m_ij f(x_ij).  Convection, not symmetric, sums each triangle's
entries (i, j) and (j, i) of its edges per edge and its diagonal entries
per node.  All matrices are data arrays on the mesh's one sparsity
pattern (``mesh.pattern``) and share its structure arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse

from .mesh import bin_sums


def _zero(t, x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass
class ProblemSpec:
    """Data of the evolutionary convection-diffusion-reaction problem.

    Coefficient callables take (t, x, y) with array-valued x, y and must
    broadcast; ``b`` returns the velocity pair (bx, by).  ``c0`` is the
    positive lower bound of c - div(b)/2.
    """

    eps: float
    b: Callable
    c: Callable
    f: Callable
    u0: Callable
    c0: float
    t_end: float
    tau: float
    g: Callable = field(default=_zero)
    constant_coefficients: bool = True

    def __post_init__(self):
        for name in ("eps", "tau", "c0", "t_end"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:  # written so that NaN fails it
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _node_sums(mesh, values) -> np.ndarray:
    """(n,) sums of the per-edge ``values`` over the edges at each node."""
    i, j, n = mesh.edges.i, mesh.edges.j, mesh.n_nodes
    return bin_sums(i, values, n) + bin_sums(j, values, n)


def _on_pattern(mesh, upper, lower, diag) -> sparse.csr_matrix:
    """The matrix on the mesh pattern with the per-edge ``upper`` and
    ``lower`` at (i, j) and (j, i) of each edge i < j and ``diag`` at (i, i)."""
    pattern = mesh.pattern
    data = np.empty(pattern.indices.size)
    data[pattern.upper], data[pattern.lower], data[pattern.diag] = upper, lower, diag
    return pattern.matrix(data)


def _per_edge(value, edges) -> np.ndarray:
    """A coefficient's value at the edge midpoints as an (E,) array."""
    return np.broadcast_to(np.asarray(value, dtype=float), edges.x.shape)


def assemble_mass(mesh) -> sparse.csr_matrix:
    """Consistent P1 mass matrix (exact for P1)."""
    m = mesh.edge_mass
    return _on_pattern(mesh, m, m, _node_sums(mesh, m))


def assemble_laplacian(mesh) -> sparse.csr_matrix:
    """P1 stiffness matrix of -lap(u), the Gram matrix of the gradients."""
    k = mesh.edge_laplacian
    return _on_pattern(mesh, k, k, _node_sums(mesh, -k))


def assemble_stiffness(mesh, spec: ProblemSpec, t: float) -> sparse.csr_matrix:
    """Stiffness matrix of diffusion, convection, and reaction at time t."""
    geo, edges, tri = mesh.geometry, mesh.edges, mesh.triangles
    bx, by = (_per_edge(v, edges)[edges.of_triangle] for v in spec.b(t, edges.x, edges.y))
    # (b . grad phi_j, phi_i) per triangle with the 3-point rule, whose
    # point q is the midpoint of edge q = (vertex q, vertex q+1): phi_i is
    # 1/2 at the points i-1 and i of vertex i and 0 at the third, so with
    # B_i = b_{i-1} + b_i, the velocity summed over the points of vertex i,
    # entry (i, j) of the element matrix is |T| (B_i . grad phi_j) / 6; the
    # 1/6 comes after the dot product, so that for a constant b (B_i = 2b
    # exactly) each entry rounds as the sum of the two points' terms
    nxt, prv = [1, 2, 0], [2, 0, 1]
    bx, by = bx + bx[:, prv], by + by[:, prv]
    gx, gy = geo.grads[..., 0], geo.grads[..., 1]
    # the entries (q, q+1) and (q+1, q) of edge q and (q, q) of vertex q
    forward, backward, own = bx * gx[:, nxt], bx[:, nxt] * gx, bx * gx
    for entries, y_part in ((forward, by * gy[:, nxt]), (backward, by[:, nxt] * gy), (own, by * gy)):
        entries += y_part
        entries *= 1.0 / 6.0
    own *= geo.areas[:, None]
    # summed per edge and per node in triangle order, (q, q+1) being the
    # upper entry where t_q < t_{q+1}, plus eps K + R
    up = mesh.upper_first
    cm = _per_edge(spec.c(t, edges.x, edges.y), edges) * mesh.edge_mass
    eps_k = spec.eps * mesh.edge_laplacian
    pair = eps_k + cm
    upper = mesh.edge_sum(np.where(up, forward, backward)) + pair
    lower = mesh.edge_sum(np.where(up, backward, forward)) + pair
    diag = bin_sums(tri.ravel(), own.ravel(), mesh.n_nodes) + _node_sums(mesh, cm - eps_k)
    return _on_pattern(mesh, upper, lower, diag)


def assemble_load(mesh, spec: ProblemSpec, t: float) -> np.ndarray:
    """Load vector f_i = (f(t, .), phi_i) with the 3-point rule, f being
    evaluated once per edge."""
    edges = mesh.edges
    return _node_sums(mesh, 2.0 * mesh.edge_mass * _per_edge(spec.f(t, edges.x, edges.y), edges))


def apply_dirichlet(matrix, mesh) -> sparse.csr_matrix:
    """The matrix's CSR form (the matrix itself if CSR) with its boundary
    rows made identity rows in place; interior rows and the stored entries
    are untouched; only the boundary rows are read."""
    mat = matrix.tocsr()
    rows = mesh.boundary_nodes
    start, count = mat.indptr[rows], mat.indptr[rows + 1] - mat.indptr[rows]
    # entry k of the boundary rows' concatenation sits at k plus its row's
    # start less the boundary rows' entries before that row
    entries = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
    mat.data[entries] = 0.0
    mat.data[entries[mat.indices[entries] == np.repeat(rows, count)]] = 1.0
    return mat
