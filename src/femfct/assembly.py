"""P1 finite element assembly on triangular meshes.

Assembles the consistent mass matrix, the convection-diffusion-reaction
stiffness matrix, and the load vector.  Variable coefficients are
integrated with a 3-point edge-midpoint quadrature rule (exact to degree
2), its sums written out per element without einsum; all matrices are
data arrays on the mesh's one sparsity pattern (``mesh.pattern``) and
share its structure arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse

# 3-point edge-midpoint rule, exact for polynomials of degree 2; point q
# is the midpoint of edge q = (vertex q, vertex q+1), so the rule's points
# are the mesh's edge midpoints (mesh.edges.x, .y), shared by the two
# triangles of an interior edge.  The weights are equal and phi_i is 1/2
# at the two points _POINTS_OF_VERTEX[i] (the midpoints of the edges
# meeting vertex i, the nonzero entries of column i of QUAD2_BARY) and 0
# at the third, so the load and stiffness kernels write the rule's sums
# out over those points instead of contracting with einsum.
QUAD2_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
QUAD2_W = np.array([1.0, 1.0, 1.0]) / 3.0
_POINTS_OF_VERTEX = ((0, 2), (0, 1), (1, 2))


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
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.c0 <= 0:
            raise ValueError("c0 must be positive")


def _to_csr(mesh, local):
    """Sum (m, 3, 3) element matrices into a CSR matrix on the mesh pattern;
    duplicate entries are summed in element order."""
    pattern = mesh.pattern
    data = np.bincount(pattern.of_element.ravel(), local.ravel(), pattern.indices.size)
    return pattern.matrix(data)


def assemble_mass(mesh) -> sparse.csr_matrix:
    """Consistent P1 mass matrix (exact element integration)."""
    area = mesh.geometry.areas
    ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = area[:, None, None] * ref[None, :, :]
    return _to_csr(mesh, local)


def assemble_laplacian(mesh) -> sparse.csr_matrix:
    """P1 stiffness matrix of -lap(u), the Gram matrix of the gradients."""
    geo = mesh.geometry
    return _to_csr(mesh, geo.areas[:, None, None] * geo.gram)


def assemble_stiffness(mesh, spec: ProblemSpec, t: float) -> sparse.csr_matrix:
    """Stiffness matrix of diffusion, convection, and reaction at time t."""
    geo, edges = mesh.geometry, mesh.edges
    area, grads = geo.areas, geo.grads
    bx, by = spec.b(t, edges.x, edges.y)
    cval = spec.c(t, edges.x, edges.y)
    # the coefficients at each triangle's quadrature points, (m, 3)
    bx, by, cval = (
        np.broadcast_to(np.asarray(v, dtype=float), edges.x.shape)[edges.of_triangle]
        for v in (bx, by, cval)
    )

    local = spec.eps * geo.gram * area[:, None, None]
    # (b . grad phi_j) phi_i and c phi_i phi_j with the 3-point rule: the
    # sums over q without their zero terms, scaled by the area and added
    # to local a row or an entry at a time, so that s is the one (m, 3, 3)
    # temporary.  They round as the einsums "q,qi,mqj->mij" and
    # "q,mq,qi,qj->mij" they replace, sign bits included.
    # s = w (b . grad phi_j) / 2 at point q, (m, q, j)
    s = bx[..., None] * grads[:, None, :, 0]
    s += by[..., None] * grads[:, None, :, 1]
    s *= QUAD2_W[0] * 0.5
    for i, (qa, qb) in enumerate(_POINTS_OF_VERTEX):
        row = s[:, qa] + s[:, qb]
        row *= area[:, None]
        local[:, i] += row
    # r = ((w c) / 2) / 2 at point q, (m, q), in the gathered c's buffer
    r = cval
    r *= QUAD2_W[0]
    r *= 0.5
    r *= 0.5
    for i, (qa, qb) in enumerate(_POINTS_OF_VERTEX):
        local[:, i, i] += area * (r[:, qa] + r[:, qb])
    # phi_i phi_j, i != j, is nonzero only at the midpoint q of edge (i, j)
    for q in range(3):
        rq = area * r[:, q]
        local[:, q, (q + 1) % 3] += rq
        local[:, (q + 1) % 3, q] += rq
    return _to_csr(mesh, local)


def assemble_load(mesh, spec: ProblemSpec, t: float) -> np.ndarray:
    """Load vector f_i = (f(t, .), phi_i) with the 3-point rule, f being
    evaluated once per edge."""
    edges = mesh.edges
    fval = np.broadcast_to(np.asarray(spec.f(t, edges.x, edges.y), dtype=float), edges.x.shape)
    # h_q = w f(x_q) / 2 per triangle, (m, 3).  These roundings are those
    # of the sum over q of w_q f_q phi_i(q), written without a matmul,
    # whose BLAS kernel may fuse multiply-adds.
    h = ((fval * QUAD2_W[0]) * 0.5)[edges.of_triangle]
    local = np.empty_like(h)
    for i, (qa, qb) in enumerate(_POINTS_OF_VERTEX):
        np.add(h[:, qa], h[:, qb], out=local[:, i])
    local *= mesh.geometry.areas[:, None]
    return np.bincount(mesh.triangles.ravel(), local.ravel(), mesh.n_nodes)


def apply_dirichlet(matrix, mesh) -> sparse.csr_matrix:
    """A copy of the matrix whose boundary rows are identity rows; interior
    rows and the stored entries are untouched."""
    mat = matrix.tocsr().copy()
    mask = mesh.boundary_mask
    row_of_entry = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    mat.data[mask[row_of_entry]] = 0.0
    diag_pos = np.flatnonzero(mat.indices == row_of_entry)
    drow = row_of_entry[diag_pos]
    mat.data[diag_pos[mask[drow]]] = 1.0
    return mat
