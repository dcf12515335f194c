"""Backward-Euler time stepping for the four schemes.

Schemes: Galerkin (high order), low order (lumped mass plus artificial
diffusion), linear FEM-FCT (explicitly linearized fluxes, one solve per
step), and nonlinear FEM-FCT (fixed-point iteration over the limited
fluxes).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .assembly import apply_dirichlet, assemble_load, assemble_mass, assemble_stiffness
from .fct import (
    FluxMatrix,
    LimiterMatrix,
    PairGraph,
    artificial_diffusion,
    correction_vector,
    linear_fluxes,
    lump,
    predictor_half_step,
    prelimit,
    raw_fluxes,
    zalesak,
)
from .solver import Factorization

GALERKIN = "galerkin"
LOW_ORDER = "low_order"
LINEAR_FCT = "linear_fct"
NONLINEAR_FCT = "nonlinear_fct"
_KINDS = (GALERKIN, LOW_ORDER, LINEAR_FCT, NONLINEAR_FCT)
_FCT_KINDS = (LINEAR_FCT, NONLINEAR_FCT)


@dataclass(frozen=True)
class ZalesakLimiter:
    """Solution-dependent Zalesak limiter on every pair."""


@dataclass(frozen=True)
class ConstantLimiter:
    """Fixed limiter value on interior pairs.

    With ``zalesak_boundary`` (the default), pairs touching a boundary
    node keep their Zalesak values; with it disabled the value applies to
    every pair, which makes the FCT schemes linear.
    """

    value: float
    zalesak_boundary: bool = True

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("constant limiter value must lie in [0, 1]")


@dataclass(frozen=True)
class SchemeKind:
    kind: str
    limiter: ZalesakLimiter | ConstantLimiter = field(default_factory=ZalesakLimiter)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")


@dataclass
class FixedPointOptions:
    tol: float = 1e-9
    max_iter: int = 100


@dataclass
class StepRecord:
    t: float
    u: np.ndarray
    alpha: LimiterMatrix | None = None
    fp_iters: int = 0
    residual: float = 0.0
    correction_sum: float = 0.0
    flux_abs_sum: float = 0.0


class StepFailure(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class TimeStepper:
    """Time loop driver; assembles operators and advances one scheme.

    For constant-coefficient problems the operators and the LU
    factorizations of the system matrices are built once and reused for
    every step (and every fixed-point iteration).  The node pairs of the
    mass matrix's pattern (``pairs``) are read once; every flux and
    limiter of the run lives on them.
    """

    def __init__(self, mesh, spec, scheme: SchemeKind, fp_opts: FixedPointOptions | None = None):
        self.mesh = mesh
        self.spec = spec
        self.scheme = scheme
        self.fp_opts = fp_opts or FixedPointOptions()
        self.mass = assemble_mass(mesh)
        self.m_lumped = lump(self.mass)
        self.pairs = PairGraph.of(self.mass)
        self._m_ij = self.pairs.gather(self.mass)
        bmask = mesh.boundary_mask
        self._interior_pairs = ~(bmask[self.pairs.i] | bmask[self.pairs.j])
        self._bnodes = mesh.boundary_nodes
        self._ops_cache: dict = {}
        self._factor_cache: dict = {}
        self._load_memo = (None, None)
        self._check_predictor = scheme.kind in _FCT_KINDS
        self.fixed_alpha = self._fixed_limiter()

    # -- operators ---------------------------------------------------

    def operators(self, t):
        """(A, D, Abar=A+D, d_ij) at time t, d_ij being D's entries on the
        pairs; cached for constant coefficients."""
        key = None if self.spec.constant_coefficients else t
        if key not in self._ops_cache:
            a = assemble_stiffness(self.mesh, self.spec, t)
            d = artificial_diffusion(a)
            abar = (a + d).tocsr()
            if self._check_predictor:
                self._check_predictor_bound(abar)
            if len(self._ops_cache) > 2:  # keep t and t - tau for one step
                self._ops_cache.clear()
            self._ops_cache[key] = (a, d, abar, self.pairs.gather(d))
        return self._ops_cache[key]

    def _check_predictor_bound(self, abar):
        """Warn once if tau exceeds min_i 2 m_i / abar_ii over the interior
        nodes, the bound under which the explicit predictor of the FCT
        schemes keeps nonnegative coefficients."""
        interior = ~self.mesh.boundary_mask
        diag, m = abar.diagonal()[interior], self.m_lumped[interior]
        bound = (2.0 * m[diag > 0.0] / diag[diag > 0.0]).min(initial=np.inf)
        tau = self.spec.tau
        if tau > bound:
            self._check_predictor = False
            warnings.warn(
                f"tau={tau:g} exceeds the explicit predictor's positivity bound "
                f"min_i 2 m_i / abar_ii = {bound:g}"
            )

    def _factorized(self, t, which, alpha_const=None):
        """LU of the Dirichlet-constrained system matrix for a step at t."""
        key = (
            None if self.spec.constant_coefficients else t,
            which,
            alpha_const,
        )
        cache = self._factor_cache
        if key not in cache:
            if len(cache) > 4:
                cache.clear()
            a, d, abar, _ = self.operators(t)
            tau = self.spec.tau
            ml = sparse.diags(self.m_lumped)
            if which == "high":
                system = self.mass + tau * a
            elif which == "low":
                system = ml + tau * abar
            else:  # fully constant limiter: exact linear constant-alpha system
                v = alpha_const
                system = (1.0 - v) * ml + v * self.mass + tau * a + (1.0 - v) * tau * d
            system, _ = apply_dirichlet(system, np.zeros(self.mesh.n_nodes), self.mesh, self.spec, t)
            cache[key] = Factorization(system)
        return cache[key]

    def _g_values(self, t):
        bn = self._bnodes
        return np.broadcast_to(
            np.asarray(self.spec.g(t, self.mesh.nodes[bn, 0], self.mesh.nodes[bn, 1]), dtype=float),
            bn.shape,
        )

    def _constrained_rhs(self, rhs, g):
        rhs = rhs.copy()
        rhs[self._bnodes] = g
        return rhs

    def _load(self, t):
        """f(t), assembled once for the last t asked for."""
        if self._load_memo[0] != t:
            self._load_memo = (t, assemble_load(self.mesh, self.spec, t))
        return self._load_memo[1]

    # -- limiting ----------------------------------------------------

    def _fixed_limiter(self) -> LimiterMatrix | None:
        """The read-only limiter of a scheme whose alpha does not depend on
        the solution: 1 for Galerkin, 0 for low order, v for a constant
        limiter on every pair; None otherwise."""
        lim = self.scheme.limiter
        if self.scheme.kind == GALERKIN:
            value = 1.0
        elif self.scheme.kind == LOW_ORDER:
            value = 0.0
        elif isinstance(lim, ConstantLimiter) and not lim.zalesak_boundary:
            value = lim.value
        else:
            return None
        values = np.full(self.pairs.i.shape, value)
        values.setflags(write=False)
        return LimiterMatrix(self.pairs.n, self.pairs.i, self.pairs.j, values)

    def _apply_limiter(self, flux: FluxMatrix, ubar) -> LimiterMatrix:
        if self.fixed_alpha is not None:
            return self.fixed_alpha
        alpha = zalesak(flux, ubar, self.m_lumped, dirichlet=self._bnodes)
        if isinstance(self.scheme.limiter, ConstantLimiter):
            values = alpha.values.copy()
            values[self._interior_pairs] = self.scheme.limiter.value
            alpha = LimiterMatrix(alpha.n, alpha.i, alpha.j, values)
        return alpha

    # -- single steps ------------------------------------------------

    def step_galerkin(self, t, u_prev) -> StepRecord:
        rhs = self.spec.tau * self._load(t) + self.mass @ u_prev
        u = self._factorized(t, "high").solve(self._constrained_rhs(rhs, self._g_values(t)))
        return StepRecord(t, u, alpha=self.fixed_alpha)

    def step_low_order(self, t, u_prev) -> StepRecord:
        rhs = self.spec.tau * self._load(t) + self.m_lumped * u_prev
        u = self._factorized(t, "low").solve(self._constrained_rhs(rhs, self._g_values(t)))
        return StepRecord(t, u, alpha=self.fixed_alpha)

    def step_linear_fct(self, t, u_prev, f_prev) -> StepRecord:
        tau = self.spec.tau
        t_prev = t - tau
        _, _, abar_prev, d_ij = self.operators(t_prev)
        g = self._g_values(t)
        ubar = predictor_half_step(self.m_lumped, abar_prev, u_prev, f_prev, tau, self._bnodes, g)
        g_rate = (g - self._g_values(t_prev)) / tau
        flux = linear_fluxes(
            self.pairs, self._m_ij, d_ij, self.m_lumped, abar_prev, u_prev, f_prev, tau,
            dirichlet=self._bnodes, g_rate=g_rate,
        )
        alpha = self._apply_limiter(flux, ubar)
        fstar = correction_vector(alpha, flux)
        rhs = tau * self._load(t) + self.m_lumped * u_prev + fstar
        u = self._factorized(t, "low").solve(self._constrained_rhs(rhs, g))
        return StepRecord(
            t, u, alpha=alpha, correction_sum=float(fstar.sum()), flux_abs_sum=flux.abs_sum()
        )

    def step_nonlinear_fct(self, t, u_prev, f_prev) -> StepRecord:
        tau = self.spec.tau
        _, _, abar, d_ij = self.operators(t)
        _, _, abar_prev, _ = self.operators(t - tau)
        fvec = self._load(t)
        g = self._g_values(t)
        ubar = predictor_half_step(self.m_lumped, abar_prev, u_prev, f_prev, tau, self._bnodes, g)

        alpha = self.fixed_alpha
        if alpha is not None:
            # with a fully constant limiter the scheme is linear; solve it
            # exactly instead of iterating
            v = self.scheme.limiter.value
            rhs = tau * fvec + (1.0 - v) * self.m_lumped * u_prev + v * (self.mass @ u_prev)
            u = self._factorized(t, "const", v).solve(self._constrained_rhs(rhs, g))
            flux = prelimit(raw_fluxes(self.pairs, self._m_ij, d_ij, u, u_prev, tau), ubar)
            fstar = correction_vector(alpha, flux)
            return StepRecord(
                t, u, alpha=alpha, correction_sum=float(fstar.sum()), flux_abs_sum=flux.abs_sum()
            )

        def limited_correction(u_cur):
            flux = prelimit(raw_fluxes(self.pairs, self._m_ij, d_ij, u_cur, u_prev, tau), ubar)
            alpha = self._apply_limiter(flux, ubar)
            return flux, alpha, correction_vector(alpha, flux)

        factor = self._factorized(t, "low")
        base_rhs = tau * fvec + self.m_lumped * u_prev

        flux, alpha, fstar = limited_correction(u_prev)
        residual = np.inf
        for it in range(1, self.fp_opts.max_iter + 1):
            u = factor.solve(self._constrained_rhs(base_rhs + fstar, g))
            flux, alpha, fstar = limited_correction(u)
            res_vec = self.m_lumped * u + tau * (abar @ u) - base_rhs - fstar
            res_vec[self._bnodes] = u[self._bnodes] - g
            residual = float(np.linalg.norm(res_vec))
            if residual < self.fp_opts.tol:
                return StepRecord(
                    t,
                    u,
                    alpha=alpha,
                    fp_iters=it,
                    residual=residual,
                    correction_sum=float(fstar.sum()),
                    flux_abs_sum=flux.abs_sum(),
                )
        raise StepFailure(
            f"fixed point did not reach {self.fp_opts.tol:g} within "
            f"{self.fp_opts.max_iter} iterations (residual {residual:g})",
            residual,
        )

    # -- time loop ---------------------------------------------------

    def initial_record(self) -> StepRecord:
        u0 = np.asarray(
            self.spec.u0(self.mesh.nodes[:, 0], self.mesh.nodes[:, 1]), dtype=float
        ).copy()
        u0[self._bnodes] = self._g_values(0.0)
        return StepRecord(0.0, u0)

    def run(self, n_steps: int) -> list[StepRecord]:
        """Advance n_steps of length tau from the nodal interpolant of u0."""
        tau = self.spec.tau
        if n_steps * tau > self.spec.t_end + 1e-12:
            raise ValueError("n_steps * tau exceeds the end time")
        step = getattr(self, "step_" + self.scheme.kind)
        # the FCT steps also take f at the previous time: f(0) first, then
        # the load each step assembled for itself
        fct = self.scheme.kind in _FCT_KINDS
        records = [self.initial_record()]
        t_prev = 0.0
        for n in range(1, n_steps + 1):
            t = n * tau
            u = records[-1].u
            try:
                rec = step(t, u, self._load(t_prev)) if fct else step(t, u)
            except StepFailure as exc:
                raise StepFailure(f"step {n} (t={t:g}) failed: {exc}", exc.residual) from exc
            records.append(rec)
            t_prev = t
        return records
