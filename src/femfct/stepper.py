"""Backward-Euler time stepping for the four schemes.

Schemes: Galerkin (high order), low order (lumped mass plus artificial
diffusion), linear FEM-FCT (explicitly linearized fluxes, one solve per
step), and nonlinear FEM-FCT (fixed-point iteration over the limited
fluxes).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .assembly import apply_dirichlet, assemble_load, assemble_mass, assemble_stiffness
from .fct import (
    FluxMatrix,
    LimiterMatrix,
    artificial_diffusion,
    correction_vector,
    linear_fluxes,
    lump,
    predictor_half_step,
    prelimit,
    raw_fluxes,
    zalesak,
    zalesak_bounds,
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


@dataclass
class TimeLevel:
    """The data of one time level t of a run, each part computed when a
    step first asks for it and then kept: the load f(t), the boundary
    values g(t) and the operators (A, D, Abar, d_ij) at t, which for
    constant coefficients are the stepper's own."""

    stepper: TimeStepper
    t: float

    @cached_property
    def f(self) -> np.ndarray:
        return assemble_load(self.stepper.mesh, self.stepper.spec, self.t)

    @cached_property
    def g(self) -> np.ndarray:
        s, bn = self.stepper, self.stepper._bnodes
        g = s.spec.g(self.t, s.mesh.nodes[bn, 0], s.mesh.nodes[bn, 1])
        return np.broadcast_to(np.asarray(g, dtype=float), bn.shape)

    @cached_property
    def ops(self):
        return self.stepper.operators(self.t)


class TimeStepper:
    """Time loop driver; assembles operators and advances one scheme.

    ``run`` builds each time level t = n tau once (a ``TimeLevel``) and
    hands it to the next step as that step's previous level, so every
    load, boundary value and operator of the run is computed once.  For
    constant coefficients the operators and the LU of the scheme's system
    matrix are built once per stepper and reused for every step (and
    every fixed-point iteration); for variable coefficients each level
    builds its operators and each step one LU, which reuses the column
    order of the step before unless Abar's structure (its exact zeros)
    changed.  Every flux and limiter of the run lives on the mesh's pair
    graph (``pairs``, its edges), and the pair entries m_ij, d_ij are read
    from the matrices' data arrays at the pattern's upper positions.
    """

    def __init__(self, mesh, spec, scheme: SchemeKind, fp_opts: FixedPointOptions | None = None):
        self.mesh = mesh
        self.spec = spec
        self.scheme = scheme
        self.fp_opts = fp_opts or FixedPointOptions()
        self.mass = assemble_mass(mesh)
        self.m_lumped = lump(self.mass)
        self.pairs = mesh.pairs
        self._m_ij = self.mass.data[mesh.pattern.upper]
        bmask = mesh.boundary_mask
        self._interior_pairs = ~(bmask[self.pairs.i] | bmask[self.pairs.j])
        self._bnodes = mesh.boundary_nodes
        self._check_predictor = scheme.kind in _FCT_KINDS
        self.fixed_alpha = self._fixed_limiter()
        # the column order of the last LU, handed to the next one; only the
        # structure and permutation arrays, never the factors
        self._lu_order = None

    # -- operators ---------------------------------------------------

    def operators(self, t):
        """(A, D, Abar=A+D, d_ij) at time t, d_ij being D's entries on the
        pairs: built once per stepper for constant coefficients, else
        built afresh."""
        if self.spec.constant_coefficients:
            return self._constant_operators
        return self._build_operators(t)

    @cached_property
    def _constant_operators(self):
        return self._build_operators(0.0)

    def _build_operators(self, t):
        a = assemble_stiffness(self.mesh, self.spec, t)
        d = artificial_diffusion(a, self.mesh.pattern)
        # Abar stays scipy's sum, which drops the entries where upwinding
        # cancels a_ij exactly (43% of them at FK L5): the LU of that
        # smaller pattern factors three to four times faster, and solves
        # twice as fast, as on the full mesh pattern
        abar = (a + d).tocsr()
        if self._check_predictor:
            self._check_predictor_bound(abar)
        return a, d, abar, d.data[self.mesh.pattern.upper]

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

    def _factorization(self, level: TimeLevel) -> Factorization:
        """LU of the scheme's Dirichlet-constrained system matrix at the
        level's t; one per stepper for constant coefficients."""
        if self.spec.constant_coefficients:
            return self._constant_factorization
        return self._factorize(level)

    @cached_property
    def _constant_factorization(self) -> Factorization:
        return self._factorize(TimeLevel(self, 0.0))

    def _factorize(self, level: TimeLevel) -> Factorization:
        a, d, abar, _ = level.ops
        tau = self.spec.tau
        ml = sparse.diags(self.m_lumped)
        if self.scheme.kind == GALERKIN:
            system = self.mass + tau * a
        elif self.scheme.kind == NONLINEAR_FCT and self.fixed_alpha is not None:
            # fully constant limiter: exact linear constant-alpha system
            v = self.scheme.limiter.value
            system = (1.0 - v) * ml + v * self.mass + tau * a + (1.0 - v) * tau * d
        else:
            system = ml + tau * abar
        # scipy's sums and apply_dirichlet keep the pattern that dropped
        # the exact zeros of Abar, which the LU's fill depends on
        system = apply_dirichlet(system, self.mesh)
        factor = Factorization(system, order=self._lu_order)
        self._lu_order = factor.order
        return factor

    def _constrained_rhs(self, rhs, g):
        rhs = rhs.copy()
        rhs[self._bnodes] = g
        return rhs

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

    def _limit(self, flux: FluxMatrix, bounds) -> LimiterMatrix:
        """Zalesak limiter of the flux, with a constant limiter's value on
        the interior pairs."""
        alpha = zalesak(flux, bounds, self._bnodes)
        if isinstance(self.scheme.limiter, ConstantLimiter):
            values = alpha.values.copy()
            values[self._interior_pairs] = self.scheme.limiter.value
            alpha = LimiterMatrix(alpha.n, alpha.i, alpha.j, values)
        return alpha

    # -- single steps ------------------------------------------------

    def step_galerkin(self, level: TimeLevel, u_prev) -> StepRecord:
        rhs = self.spec.tau * level.f + self.mass @ u_prev
        u = self._factorization(level).solve(self._constrained_rhs(rhs, level.g))
        return StepRecord(level.t, u, alpha=self.fixed_alpha)

    def step_low_order(self, level: TimeLevel, u_prev) -> StepRecord:
        rhs = self.spec.tau * level.f + self.m_lumped * u_prev
        u = self._factorization(level).solve(self._constrained_rhs(rhs, level.g))
        return StepRecord(level.t, u, alpha=self.fixed_alpha)

    def step_linear_fct(self, level: TimeLevel, u_prev, prev: TimeLevel) -> StepRecord:
        tau = self.spec.tau
        _, _, abar_prev, d_ij = prev.ops
        g = level.g
        ubar = predictor_half_step(self.m_lumped, abar_prev, u_prev, prev.f, tau, self._bnodes, g)
        flux = linear_fluxes(
            self.pairs, self._m_ij, d_ij, self.m_lumped, abar_prev, u_prev, prev.f, tau,
            self._bnodes, (g - prev.g) / tau,
        )
        alpha = self.fixed_alpha
        if alpha is None:
            alpha = self._limit(flux, zalesak_bounds(self.pairs, ubar, self.m_lumped))
        fstar = correction_vector(alpha, flux)
        rhs = tau * level.f + self.m_lumped * u_prev + fstar
        u = self._factorization(level).solve(self._constrained_rhs(rhs, g))
        return StepRecord(
            level.t, u, alpha=alpha, correction_sum=float(fstar.sum()), flux_abs_sum=flux.abs_sum()
        )

    def step_nonlinear_fct(self, level: TimeLevel, u_prev, prev: TimeLevel) -> StepRecord:
        tau = self.spec.tau
        t, g, fvec = level.t, level.g, level.f
        _, _, abar, d_ij = level.ops
        ubar = predictor_half_step(self.m_lumped, prev.ops[2], u_prev, prev.f, tau, self._bnodes, g)
        factor = self._factorization(level)

        alpha = self.fixed_alpha
        if alpha is not None:
            # with a fully constant limiter the scheme is linear; solve it
            # exactly instead of iterating
            v = self.scheme.limiter.value
            rhs = tau * fvec + (1.0 - v) * self.m_lumped * u_prev + v * (self.mass @ u_prev)
            u = factor.solve(self._constrained_rhs(rhs, g))
            flux = prelimit(raw_fluxes(self.pairs, self._m_ij, d_ij, u, u_prev, tau), ubar)
            fstar = correction_vector(alpha, flux)
            return StepRecord(
                t, u, alpha=alpha, correction_sum=float(fstar.sum()), flux_abs_sum=flux.abs_sum()
            )

        bounds = zalesak_bounds(self.pairs, ubar, self.m_lumped)

        def limited_correction(u_cur):
            flux = prelimit(raw_fluxes(self.pairs, self._m_ij, d_ij, u_cur, u_prev, tau), ubar)
            alpha = self._limit(flux, bounds)
            return flux, alpha, correction_vector(alpha, flux)

        base_rhs = tau * fvec + self.m_lumped * u_prev

        flux, alpha, fstar = limited_correction(u_prev)
        residual = np.inf
        for it in range(1, self.fp_opts.max_iter + 1):
            u = factor.solve(self._constrained_rhs(base_rhs + fstar, g))
            flux, alpha, fstar = limited_correction(u)
            res_vec = self.m_lumped * u + tau * (abar @ u) - base_rhs - fstar
            res_vec[self._bnodes] = u[self._bnodes] - g
            # einsum, not BLAS: the same sum whatever BLAS's thread count
            residual = math.sqrt(float(np.einsum("i,i->", res_vec, res_vec)))
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

    def run(self, n_steps: int) -> list[StepRecord]:
        """Advance n_steps of length tau from the nodal interpolant of u0."""
        tau = self.spec.tau
        if n_steps * tau > self.spec.t_end + 1e-12:
            raise ValueError("n_steps * tau exceeds the end time")
        step = getattr(self, "step_" + self.scheme.kind)
        # the FCT steps also take the previous level: its load, boundary
        # values and operators
        fct = self.scheme.kind in _FCT_KINDS
        prev = TimeLevel(self, 0.0)
        # the nodal interpolant of u0 with the boundary values g(0)
        u0 = np.array(self.spec.u0(self.mesh.nodes[:, 0], self.mesh.nodes[:, 1]), dtype=float)
        u0[self._bnodes] = prev.g
        records = [StepRecord(0.0, u0)]
        for n in range(1, n_steps + 1):
            level = TimeLevel(self, n * tau)
            u = records[-1].u
            try:
                rec = step(level, u, prev) if fct else step(level, u)
            except StepFailure as exc:
                raise StepFailure(f"step {n} (t={level.t:g}) failed: {exc}", exc.residual) from exc
            records.append(rec)
            prev = level
        return records
