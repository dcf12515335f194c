"""Algebraic flux-correction machinery.

Artificial diffusion, mass lumping, raw and linearized antidiffusive
fluxes, prelimiting, the Zalesak limiter, the assembled correction vector,
and the M-matrix diagnostic for the low-order system matrix.

Flux and limiter matrices are stored once per unordered node pair
(i < j); the mirrored entries f_ji = -f_ij and alpha_ji = alpha_ij are
implicit, so antisymmetry and limiter symmetry hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class FluxMatrix:
    """Antisymmetric pairwise fluxes on the off-diagonal sparsity pattern."""

    n: int
    i: np.ndarray  # (npairs,), i < j
    j: np.ndarray
    values: np.ndarray  # f_ij; f_ji = -f_ij

    def row_sums(self) -> np.ndarray:
        """r_i = sum_j f_ij."""
        return np.bincount(self.i, self.values, self.n) - np.bincount(
            self.j, self.values, self.n
        )

    def abs_sum(self) -> float:
        """Sum of |f_ij| over unordered pairs."""
        return float(np.abs(self.values).sum())

    def to_csr(self) -> sparse.csr_matrix:
        rows = np.concatenate([self.i, self.j])
        cols = np.concatenate([self.j, self.i])
        vals = np.concatenate([self.values, -self.values])
        return sparse.coo_matrix((vals, (rows, cols)), shape=(self.n, self.n)).tocsr()


@dataclass(frozen=True)
class LimiterMatrix:
    """Symmetric limiter weights alpha_ij in [0, 1] on the flux pattern."""

    n: int
    i: np.ndarray
    j: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.size and (self.values.min() < 0.0 or self.values.max() > 1.0):
            raise ValueError("limiter values outside [0, 1]")


def _upper_pairs(mat: sparse.csr_matrix):
    """Pairs i < j of the strictly upper entries of a CSR matrix, in
    lexicographic order, and the positions of those entries in ``mat.data``.

    Sorts the matrix's column indices in place if they are not sorted.
    """
    mat.sort_indices()
    row = np.repeat(np.arange(mat.shape[0], dtype=mat.indices.dtype), np.diff(mat.indptr))
    pos = np.flatnonzero(mat.indices > row)
    return row[pos], mat.indices[pos], pos


@dataclass(frozen=True)
class PairGraph:
    """Unordered node pairs i < j of a symmetric sparsity pattern.

    Fluxes and limiter values live on these pairs; ``pos`` locates entry
    (i, j) in the data array of every CSR matrix with the pattern the
    graph was read from (sorted indices).  The arrays are read-only, and
    every FluxMatrix and LimiterMatrix built on the graph shares them.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    pos: np.ndarray

    @classmethod
    def of(cls, mat: sparse.csr_matrix) -> PairGraph:
        i, j, pos = _upper_pairs(mat)
        for a in (i, j, pos):
            a.setflags(write=False)
        return cls(mat.shape[0], i, j, pos)

    def gather(self, mat: sparse.csr_matrix) -> np.ndarray:
        """Entries mat[i, j] of a CSR matrix with the graph's pattern."""
        return mat.data[self.pos]


def artificial_diffusion(a_mat: sparse.spmatrix) -> sparse.csr_matrix:
    """Artificial diffusion D with d_ij = -max{a_ij, 0, a_ji} (i != j) and
    zero row sums.  D is symmetric with nonnegative diagonal."""
    a = a_mat.tocsr()
    a.sort_indices()
    at = a.T.tocsr()
    at.sort_indices()
    if np.array_equal(a.indptr, at.indptr) and np.array_equal(a.indices, at.indices):
        data = -np.maximum(np.maximum(a.data, at.data), 0.0)
        d = sparse.csr_matrix(
            (data, a.indices.copy(), a.indptr.copy()), shape=a.shape
        )
    else:
        # structurally nonsymmetric input: work on the union pattern
        d = -a.maximum(at).maximum(sparse.csr_matrix(a.shape)).tocsr()
    d.setdiag(0.0)
    d.setdiag(-np.asarray(d.sum(axis=1)).ravel())
    return d


def lump(mass: sparse.spmatrix) -> np.ndarray:
    """Row sums m_i of the consistent mass matrix, all positive."""
    m = np.asarray(mass.sum(axis=1)).ravel()
    if np.any(m <= 0.0):
        bad = int(np.flatnonzero(m <= 0.0)[0])
        raise ValueError(f"nonpositive lumped mass at node {bad} (inverted element?)")
    return m


def predictor_half_step(m_lumped, abar, u_prev, f_prev, tau, dirichlet=None, g_values=None):
    """Forward-Euler half step: u_prev - tau/2 * M_L^-1 (Abar u_prev - f_prev).

    If ``dirichlet`` node indices are given, those entries are overwritten
    with ``g_values``.
    """
    ubar = u_prev - 0.5 * tau * (abar @ u_prev - f_prev) / m_lumped
    if dirichlet is not None:
        ubar[dirichlet] = 0.0 if g_values is None else g_values
    return ubar


def raw_fluxes(pairs: PairGraph, m_ij, d_ij, u_new, u_prev, tau) -> FluxMatrix:
    """Fluxes of the nonlinear scheme:
    f_ij = m_ij [(du_i - du_j)] + tau d_ij (u_j^n - u_i^n), du = u^n - u^{n-1},
    with the mass and diffusion entries ``m_ij``, ``d_ij`` given per pair.
    """
    i, j = pairs.i, pairs.j
    du = u_new - u_prev
    vals = m_ij * (du[i] - du[j]) + tau * d_ij * (u_new[j] - u_new[i])
    return FluxMatrix(pairs.n, i, j, vals)


def linear_fluxes(
    pairs: PairGraph, m_ij, d_ij, m_lumped, abar, u_prev, f_prev, tau, dirichlet=None, g_rate=None
) -> FluxMatrix:
    """Fluxes of the linear scheme built from the explicit rate
    nu = M_L^-1 (f^{n-1} - Abar u^{n-1}):
    f_ij = tau m_ij (nu_i - nu_j) + tau d_ij [u_j - u_i + tau (nu_j - nu_i)].

    The residual is meaningless on constrained rows, so when a
    ``dirichlet`` index array is given, nu there is replaced by the rate
    of the boundary data (``g_rate``, zero by default); otherwise the
    spurious values would pollute the fluxes of boundary-adjacent pairs.
    """
    i, j = pairs.i, pairs.j
    nu = (f_prev - abar @ u_prev) / m_lumped
    if dirichlet is not None:
        nu[dirichlet] = 0.0 if g_rate is None else g_rate
    dnu = nu[i] - nu[j]
    vals = tau * m_ij * dnu + tau * d_ij * (u_prev[j] - u_prev[i] - tau * dnu)
    return FluxMatrix(pairs.n, i, j, vals)


def prelimit(flux: FluxMatrix, ubar: np.ndarray) -> FluxMatrix:
    """Zero every flux with f_ij (ubar_i - ubar_j) < 0 (both orientations)."""
    vals = flux.values.copy()
    vals[vals * (ubar[flux.i] - ubar[flux.j]) < 0.0] = 0.0
    return FluxMatrix(flux.n, flux.i, flux.j, vals)


def zalesak(
    flux: FluxMatrix, ubar: np.ndarray, m_lumped: np.ndarray, dirichlet=None
) -> LimiterMatrix:
    """Zalesak limiter.

    Sums P_i^+- of the positive/negative fluxes, admissible increments
    Q_i^+- from the predictor differences over the sparsity neighbors,
    ratios R_i^+- = min{1, m_i Q_i^+- / P_i^+-} (set to 1 where P is
    zero), and alpha_ij = min{R_i^+, R_j^-} for f_ij > 0 else
    min{R_i^-, R_j^+}.

    R_i^+- is set to 1 at the nodes flagged in ``dirichlet``: their
    equations are replaced by the boundary condition anyway, and letting
    them throttle the antidiffusion of interior neighbours destroys the
    convergence order near the boundary.
    """
    n, i, j, f = flux.n, flux.i, flux.j, flux.values
    fpos = np.maximum(f, 0.0)
    fneg = np.minimum(f, 0.0)
    p_plus = np.bincount(i, fpos, n) - np.bincount(j, fneg, n)
    p_minus = np.bincount(i, fneg, n) - np.bincount(j, fpos, n)

    du = ubar[j] - ubar[i]
    q_plus = np.zeros(n)
    np.maximum.at(q_plus, i, du)
    np.maximum.at(q_plus, j, -du)
    q_minus = np.zeros(n)
    np.minimum.at(q_minus, i, du)
    np.minimum.at(q_minus, j, -du)

    r_plus = np.where(
        p_plus > 0.0, np.minimum(1.0, m_lumped * q_plus / np.where(p_plus > 0.0, p_plus, 1.0)), 1.0
    )
    r_minus = np.where(
        p_minus < 0.0, np.minimum(1.0, m_lumped * q_minus / np.where(p_minus < 0.0, p_minus, 1.0)), 1.0
    )
    if dirichlet is not None:
        r_plus[dirichlet] = 1.0
        r_minus[dirichlet] = 1.0
    alpha = np.where(f > 0.0, np.minimum(r_plus[i], r_minus[j]), np.minimum(r_minus[i], r_plus[j]))
    return LimiterMatrix(n, i, j, alpha)


def correction_vector(alpha: LimiterMatrix, flux: FluxMatrix) -> np.ndarray:
    """Limited correction f*_i = sum_j alpha_ij f_ij; sums to zero."""
    w = alpha.values * flux.values
    return np.bincount(flux.i, w, flux.n) - np.bincount(flux.j, w, flux.n)


@dataclass(frozen=True)
class MMatrixReport:
    """Outcome of the M-matrix diagnostic for M_L + tau * Abar."""

    ok: bool
    nonpositive_diagonal: np.ndarray
    positive_offdiagonal: list
    nondominant_rows: np.ndarray
    n_strict_rows: int


def m_matrix_check(m_lumped, abar, tau, rel_tol: float = 1e-13) -> MMatrixReport:
    """Check that M_L + tau * Abar has positive diagonal, nonpositive
    off-diagonal entries, and weak diagonal dominance with at least one
    strictly dominant row."""
    system = sparse.diags(m_lumped) + tau * abar.tocsr()
    system = system.tocsr()
    scale = np.abs(system.data).max() if system.nnz else 1.0
    tol = rel_tol * scale

    diag = system.diagonal()
    bad_diag = np.flatnonzero(diag <= 0.0)

    coo = system.tocoo()
    off = coo.row != coo.col
    bad_off = [
        (int(r), int(c), float(v))
        for r, c, v in zip(coo.row[off], coo.col[off], coo.data[off])
        if v > tol
    ]

    row_margin = np.asarray(system.sum(axis=1)).ravel()
    bad_rows = np.flatnonzero(row_margin < -tol)
    n_strict = int(np.count_nonzero(row_margin > tol))

    ok = bad_diag.size == 0 and not bad_off and bad_rows.size == 0 and n_strict >= 1
    return MMatrixReport(ok, bad_diag, bad_off, bad_rows, n_strict)
