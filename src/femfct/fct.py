"""Algebraic flux-correction machinery.

Artificial diffusion, mass lumping, raw and linearized antidiffusive
fluxes, prelimiting, the Zalesak limiter, the assembled correction vector,
and the M-matrix diagnostic for the low-order system matrix.

Fluxes, plain (npairs,) arrays, are stored once per node pair i < j of a
mesh's ``PairGraph``, and limiter values once per pair a limiter lists
(one value for the others); f_ji = -f_ij and alpha_ji = alpha_ij are
implicit, so antisymmetry and limiter symmetry hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .mesh import PairGraph, Pattern, bin_sums


@dataclass(frozen=True)
class LimiterMatrix:
    """Symmetric limiter weights alpha_ij in [0, 1] on the pairs ``ids`` of
    a mesh's ``PairGraph`` (unique, sorted), their ends i < j in ``i`` and
    ``j``; alpha_ij = ``rest`` (1 for Zalesak's) on every other pair."""

    i: np.ndarray
    j: np.ndarray
    values: np.ndarray
    ids: np.ndarray
    rest: float = 1.0

    def __post_init__(self):
        # written so that NaN fails it too
        values = self.values
        if not (0.0 <= self.rest <= 1.0 and (not values.size or values.min() >= 0.0 and values.max() <= 1.0)):
            raise ValueError("limiter values outside [0, 1]")

    def expanded(self, npairs: int) -> np.ndarray:
        """alpha on every one of the ``npairs`` pairs, ``rest`` off the list."""
        alpha = np.full(npairs, self.rest)
        alpha[self.ids] = self.values
        return alpha


def _upper_pairs(mat: sparse.csr_matrix):
    """Pairs i < j of a CSR matrix's strictly upper entries, in lexicographic
    order, and their positions in ``mat.data``; sorts its indices in place."""
    mat.sort_indices()
    row = np.repeat(np.arange(mat.shape[0], dtype=mat.indices.dtype), np.diff(mat.indptr))
    pos = np.flatnonzero(mat.indices > row)
    return row[pos], mat.indices[pos], pos


def artificial_diffusion(a_mat: sparse.csr_matrix, pattern: Pattern) -> sparse.csr_matrix:
    """Artificial diffusion D with d_ij = -max{a_ij, a_ji, 0} (i != j) and
    zero row sums, on the mesh pattern of ``a_mat``.  D is symmetric with
    nonnegative diagonal."""
    same = np.array_equal(a_mat.indptr, pattern.indptr)
    if not (same and np.array_equal(a_mat.indices, pattern.indices)):
        raise ValueError("the matrix is not on the mesh pattern")
    a_up, a_low = a_mat.data[pattern.upper], a_mat.data[pattern.lower]
    data = np.zeros(a_mat.data.shape)
    # one value per pair for both mirror entries, so D is symmetric exactly
    data[pattern.upper] = data[pattern.lower] = -np.maximum(np.maximum(a_up, a_low), 0.0)
    # the diagonal: minus the off-diagonal row sums, summed in CSR order
    # (every row stores its diagonal, so no row is empty)
    data[pattern.diag] = -np.add.reduceat(data, pattern.indptr[:-1])
    return pattern.matrix(data)


def lump(mass: sparse.spmatrix) -> np.ndarray:
    """Row sums m_i of the consistent mass matrix, all positive."""
    m = np.asarray(mass.sum(axis=1)).ravel()
    if np.any(m <= 0.0):
        bad = int(np.flatnonzero(m <= 0.0)[0])
        raise ValueError(f"nonpositive lumped mass at node {bad} (inverted element?)")
    return m


def predictor_half_step(m_lumped, r, u_prev, tau, dirichlet, g_values):
    """Forward-Euler half step: u_prev - tau/2 * M_L^-1 r, r being the
    residual Abar u_prev - f_prev, its entries at the ``dirichlet`` node
    indices overwritten with ``g_values``."""
    ubar = u_prev - 0.5 * tau * r / m_lumped
    ubar[dirichlet] = g_values
    return ubar


def raw_fluxes(pairs: PairGraph, m_ij, d_ij, u_new, u_prev, tau) -> np.ndarray:
    """Fluxes of the nonlinear scheme on the pairs:
    f_ij = m_ij [(du_i - du_j)] + tau d_ij (u_j^n - u_i^n), du = u^n - u^{n-1},
    with the mass and diffusion entries ``m_ij``, ``d_ij`` given per pair.
    """
    i, j = pairs.i, pairs.j
    # in place, each element rounded as in the formula above
    du = u_new - u_prev
    flux, tmp = du[i], du[j]
    flux -= tmp
    flux *= m_ij
    diff = u_new[j]
    diff -= u_new[i]
    diff *= np.multiply(d_ij, tau, out=tmp)
    flux += diff
    return flux


def linear_fluxes(
    pairs: PairGraph, m_ij, d_ij, m_lumped, r, u_prev, tau, dirichlet, g_rate
) -> np.ndarray:
    """Fluxes of the linear scheme on the pairs, built from the explicit rate
    nu = -M_L^-1 r, r being the residual Abar u^{n-1} - f^{n-1}:
    f_ij = tau m_ij (nu_i - nu_j) + tau d_ij [u_j - u_i + tau (nu_j - nu_i)].

    The residual is meaningless on constrained rows, so at the
    ``dirichlet`` node indices nu is replaced by the rate of the boundary
    data, ``g_rate``; otherwise the spurious values would pollute the
    fluxes of boundary-adjacent pairs.
    """
    i, j = pairs.i, pairs.j
    # in place, each element rounded as in the formula above
    nu = np.negative(r)
    nu /= m_lumped
    nu[dirichlet] = g_rate
    dnu = nu[i]
    dnu -= nu[j]
    flux = np.multiply(m_ij, tau)
    flux *= dnu
    dnu *= tau
    diff = u_prev[j]
    diff -= u_prev[i]
    diff -= dnu
    diff *= np.multiply(d_ij, tau, out=dnu)
    flux += diff
    return flux


def prelimit(f: np.ndarray, dubar: np.ndarray) -> np.ndarray:
    """The fluxes ``f``, in place, with every f_ij (ubar_i - ubar_j) < 0 set
    to zero (both orientations), ``dubar`` holding ubar_i - ubar_j per
    pair: fixed by the predictor, so gathered once per step for all of its
    iterations."""
    f[f * dubar < 0.0] = 0.0
    return f


def zalesak_bounds(pairs: PairGraph, ubar: np.ndarray, m_lumped: np.ndarray):
    """Bounds Q_i^+- = m_i max/min{0, ubar_j - ubar_i} over the neighbours j
    of i on the pairs, fixed by the predictor, so computed once per step for
    all of its Zalesak limiter calls.  They are the max/min of ubar over the
    closed neighbourhoods ``pairs.neighbours`` minus ubar_i (the same values:
    x - ubar_i rounds monotonically in x); zero bounds are +0.0."""
    near = ubar[pairs.neighbours]
    return m_lumped * (near.max(axis=0) - ubar), m_lumped * (near.min(axis=0) - ubar)


def zalesak(pairs: PairGraph, f: np.ndarray, bounds, dirichlet):
    """Zalesak limiter of the fluxes ``f`` on the pairs, and the fluxes'
    unlimited node sums sum_j f_ij = P_i^+ + P_i^-, from which
    ``correction_vector`` completes the correction.

    Sums P_i^+- of the positive/negative fluxes, the bounds Q_i^+- of
    ``zalesak_bounds``, ratios R_i^+- = min{1, Q_i^+- / P_i^+-} (set to 1
    where P is zero), and alpha_ij = min{R_i^+, R_j^-} for f_ij > 0 else
    min{R_i^-, R_j^+}.  The limiter lists the pairs it evaluates, those
    touching a node whose R^+ or R^- is not 1; alpha is 1 on the others.

    R_i^+- is set to 1 at the ``dirichlet`` node indices: their
    equations are replaced by the boundary condition anyway, and letting
    them throttle the antidiffusion of interior neighbours destroys the
    convergence order near the boundary.
    """
    n, i, j = pairs.n, pairs.i, pairs.j
    q_plus, q_minus = bounds
    fpos = np.maximum(f, 0.0)
    fneg = np.minimum(f, 0.0)
    p_plus = bin_sums(i, fpos, n) - bin_sums(j, fneg, n)
    p_minus = bin_sums(i, fneg, n) - bin_sums(j, fpos, n)
    sums = p_plus + p_minus

    r_plus, r_minus = np.ones(n), np.ones(n)
    np.divide(q_plus, p_plus, out=r_plus, where=p_plus > 0.0)
    np.divide(q_minus, p_minus, out=r_minus, where=p_minus < 0.0)
    np.minimum(r_plus, 1.0, out=r_plus)
    np.minimum(r_minus, 1.0, out=r_minus)
    r_plus[dirichlet] = r_minus[dirichlet] = 1.0
    # min{1, 1} = 1: alpha differs from 1 only on the pairs touching a node
    # whose R^+ or R^- does (NaN included), 54 of 12416 at FK level 5 in
    # step 20 of the space study; the limiter lists those alone, read from
    # those nodes' columns of the pair table, sorted, and a pair between
    # two of them once (np.unique took 25 us to the 10 us of this)
    k = pairs.incident[:, np.flatnonzero((r_plus != 1.0) | (r_minus != 1.0))]
    k = np.sort(k[k >= 0])
    k = np.concatenate((k[:1], k[1:][k[1:] != k[:-1]]))
    ik, jk = i[k], j[k]
    alpha = np.where(
        f[k] > 0.0, np.minimum(r_plus[ik], r_minus[jk]), np.minimum(r_minus[ik], r_plus[jk])
    )
    return LimiterMatrix(ik, jk, alpha, k), sums


def correction_vector(pairs: PairGraph, alpha: LimiterMatrix, f: np.ndarray, sums=None) -> np.ndarray:
    """Limited correction f*_i = sum_j alpha_ij f_ij of the fluxes ``f`` on
    the pairs, to rounding: rest times the unlimited sums sum_j f_ij
    (``zalesak``'s, or summed here) plus the sums of (alpha_ij - rest) f_ij
    over the listed pairs whose alpha is not alpha's ``rest``."""
    if sums is None:
        sums = bin_sums(pairs.i, f, pairs.n) - bin_sums(pairs.j, f, pairs.n)
    # about 60 pairs for a Zalesak limiter, none for a fixed one
    patch = alpha.values != alpha.rest
    w = alpha.values[patch] - alpha.rest
    w *= f[alpha.ids[patch]]
    fstar = bin_sums(alpha.i[patch], w, pairs.n)
    fstar -= bin_sums(alpha.j[patch], w, pairs.n)
    if alpha.rest != 1.0:
        # not rest * sums: rest = 0 gives +0.0 (or NaN), as the sums of
        # (0 - 1) f_ij over every pair did
        sums = sums - (1.0 - alpha.rest) * sums
    fstar += sums
    return fstar


@dataclass(frozen=True)
class MMatrixReport:
    """Outcome of the M-matrix diagnostic for M_L + tau * Abar."""

    ok: bool
    nonpositive_diagonal: np.ndarray
    positive_offdiagonal: list
    nondominant_rows: np.ndarray
    n_strict_rows: int


# entries within this fraction of the largest |entry| count as zero
_M_MATRIX_REL_TOL = 1e-13


def m_matrix_check(m_lumped, abar, tau) -> MMatrixReport:
    """Check that M_L + tau * Abar has positive diagonal, nonpositive
    off-diagonal entries, and weak diagonal dominance with at least one
    strictly dominant row."""
    system = sparse.diags(m_lumped) + tau * abar.tocsr()
    system = system.tocsr()
    scale = np.abs(system.data).max() if system.nnz else 1.0
    tol = _M_MATRIX_REL_TOL * scale

    diag = system.diagonal()
    bad_diag = np.flatnonzero(diag <= 0.0)

    row = np.repeat(np.arange(system.shape[0]), np.diff(system.indptr))
    bad = (row != system.indices) & (system.data > tol)
    bad_off = list(zip(row[bad].tolist(), system.indices[bad].tolist(), system.data[bad].tolist()))

    row_margin = np.asarray(system.sum(axis=1)).ravel()
    bad_rows = np.flatnonzero(row_margin < -tol)
    n_strict = int(np.count_nonzero(row_margin > tol))

    ok = bad_diag.size == 0 and not bad_off and bad_rows.size == 0 and n_strict >= 1
    return MMatrixReport(ok, bad_diag, bad_off, bad_rows, n_strict)
