"""P1 finite element assembly on triangular meshes.

Assembles the consistent mass matrix, the convection-diffusion-reaction
stiffness matrix, and the load vector.  Variable coefficients are
integrated with a 3-point edge-midpoint quadrature rule (exact to degree
2); all matrices share the node-connectivity sparsity pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse

# 3-point edge-midpoint rule, exact for polynomials of degree 2; its
# points are the mesh's Geometry.midpoints.
QUAD2_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
QUAD2_W = np.array([1.0, 1.0, 1.0]) / 3.0


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
    """Sum (m, 3, 3) element matrices into a CSR matrix with sorted indices."""
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.n_nodes
    mat = sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    mat.sort_indices()
    return mat


def assemble_mass(mesh) -> sparse.csr_matrix:
    """Consistent P1 mass matrix (exact element integration)."""
    area = mesh.geometry.areas
    ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = area[:, None, None] * ref[None, :, :]
    return _to_csr(mesh, local)


def assemble_laplacian(mesh) -> sparse.csr_matrix:
    """P1 stiffness matrix of -lap(u), the Gram matrix of the gradients."""
    geo = mesh.geometry
    local = geo.areas[:, None, None] * np.einsum("mid,mjd->mij", geo.grads, geo.grads)
    return _to_csr(mesh, local)


def assemble_stiffness(mesh, spec: ProblemSpec, t: float) -> sparse.csr_matrix:
    """Stiffness matrix of diffusion, convection, and reaction at time t."""
    geo = mesh.geometry
    area, grads = geo.areas, geo.grads
    x, y = geo.midpoints[..., 0], geo.midpoints[..., 1]  # (m, 3)
    bx, by = spec.b(t, x, y)
    cval = spec.c(t, x, y)
    bx, by, cval = (np.broadcast_to(np.asarray(v, dtype=float), x.shape) for v in (bx, by, cval))

    local = spec.eps * np.einsum("mid,mjd->mij", grads, grads) * area[:, None, None]
    # (b . grad phi_j) phi_i and c phi_i phi_j with the 3-point rule;
    # phi_i at quadrature point q equals the barycentric coordinate
    bgrad = bx[..., None] * grads[:, None, :, 0] + by[..., None] * grads[:, None, :, 1]
    phi = QUAD2_BARY  # (q, i)
    local += area[:, None, None] * np.einsum("q,qi,mqj->mij", QUAD2_W, phi, bgrad)
    local += area[:, None, None] * np.einsum("q,mq,qi,qj->mij", QUAD2_W, cval, phi, phi)
    return _to_csr(mesh, local)


def assemble_load(mesh, spec: ProblemSpec, t: float) -> np.ndarray:
    """Load vector f_i = (f(t, .), phi_i) with the 3-point rule."""
    geo = mesh.geometry
    x, y = geo.midpoints[..., 0], geo.midpoints[..., 1]
    fval = np.broadcast_to(np.asarray(spec.f(t, x, y), dtype=float), x.shape)
    local = geo.areas[:, None] * np.einsum("q,mq,qi->mi", QUAD2_W, fval, QUAD2_BARY)
    return np.bincount(mesh.triangles.ravel(), local.ravel(), mesh.n_nodes)


def apply_dirichlet(matrix, rhs, mesh, spec: ProblemSpec, t: float):
    """Replace boundary rows by identity rows with rhs g(t, node).

    Returns a new (matrix, rhs) pair; interior rows are untouched.
    """
    mat = matrix.tocsr().copy()
    rhs = np.array(rhs, dtype=float, copy=True)
    mask = mesh.boundary_mask
    row_of_entry = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    mat.data[mask[row_of_entry]] = 0.0
    diag_pos = np.flatnonzero(mat.indices == row_of_entry)
    drow = row_of_entry[diag_pos]
    mat.data[diag_pos[mask[drow]]] = 1.0
    bn = mesh.boundary_nodes
    rhs[bn] = spec.g(t, mesh.nodes[bn, 0], mesh.nodes[bn, 1])
    return mat, rhs
