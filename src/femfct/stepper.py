"""Backward-Euler time stepping for the four schemes.

Schemes: Galerkin (high order), low order (lumped mass plus artificial
diffusion), linear FEM-FCT (explicitly linearized fluxes, one solve per
step), and nonlinear FEM-FCT (Anderson-accelerated fixed-point iteration
over the limited fluxes, from the start extrapolated from the last two
solutions).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy import sparse

from .assembly import (
    apply_dirichlet,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
)
from .fct import (
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
from .solver import Factorization, SolverError

# the number of past iterates Anderson acceleration mixes in the nonlinear
# FCT step
ANDERSON_DEPTH = 3
# its fixed point stops at the first residual below FP_TOL and fails after
# FP_MAX_ITER iterations; the step reads both when it runs
FP_TOL = 1e-9
FP_MAX_ITER = 100

GALERKIN = "galerkin"
LOW_ORDER = "low_order"
LINEAR_FCT = "linear_fct"
NONLINEAR_FCT = "nonlinear_fct"
_KINDS = (GALERKIN, LOW_ORDER, LINEAR_FCT, NONLINEAR_FCT)


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
class StepRecord:
    t: float
    u: np.ndarray
    alpha: LimiterMatrix | None = None
    fp_iters: int = 0
    residual: float = 0.0
    correction_sum: float = 0.0
    flux_abs_sum: float = 0.0


def _fct_record(t, u, alpha, fstar, flux, **fixed_point) -> StepRecord:
    """The record of a step that applied the correction ``fstar`` of the
    pair fluxes ``flux`` limited by ``alpha``."""
    return StepRecord(
        t, u, alpha=alpha, correction_sum=float(fstar.sum()),
        flux_abs_sum=float(np.abs(flux).sum()), **fixed_point,
    )


class StepFailure(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass
class TimeLevel:
    """The data of one time level t of a run, each part computed when a
    step first asks for it and then kept: the load f(t), the boundary
    values g(t) and the operators at t, which for constant coefficients
    are the stepper's own."""

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
        if self.stepper.spec.constant_coefficients:
            return self.stepper._constant_operators
        return self.stepper._build_operators(self.t)


class TimeStepper:
    """Time loop driver; assembles operators and advances one scheme.

    Every scheme solves S_v = (1-v) M_L + v M + tau Abar_v with
    Abar_v = A + (1-v) D, the FCT system with the fixed limiter v on every
    pair: Galerkin (v = 1), low order (v = 0) and ``nonlinear_fct`` with
    ``ConstantLimiter(v, zalesak_boundary=False)`` share one step, and
    every other scheme solves M_L + tau Abar (v = 0).  A level's operators
    are (Abar_v, d_ij), d_ij being D's entries on the pairs.

    ``steps`` builds each time level t = n tau once (a ``TimeLevel``) and
    hands it to the next step as its previous level, so every load,
    boundary value and operator of the run is computed once; each step
    also gets u^{n-1} and u^{n-2} (None at the first step), which only the
    nonlinear fixed point reads, for its start.  The one LU
    is refactored only when a level's operators are not those it was
    built from (once per stepper for constant coefficients, once per step
    otherwise); the upwinded systems factor in downwind order, which the
    next LU reuses unless the structure (the exact zeros of Abar) changed
    (see ``Factorization``).  A build whose exact zeros of Abar on the
    mesh pattern are the last build's makes Abar on the last one's
    structure arrays, and the LU at it gathers its system's values from
    the pattern straight into the LU order's column-permuted arrays,
    through a position map built the first time a structure is seen
    again; every other build and system takes scipy's sums and
    ``apply_dirichlet``, which give bitwise the same matrices.  Every
    flux and limiter lives on the
    mesh's pair graph (``pairs``), with the mesh's m_ij (``edge_mass``)
    and the d_ij read from D's data array at the pattern's upper positions;
    a Zalesak limiter lists only the pairs it evaluates (alpha = 1 off
    them), ``ConstantLimiter(v)`` the pairs touching the boundary (v off
    them), a fixed limiter v none.
    """

    def __init__(self, mesh, spec, scheme: SchemeKind):
        self.mesh = mesh
        self.spec = spec
        self.scheme = scheme
        self.mass = assemble_mass(mesh)
        self.m_lumped = lump(self.mass)
        self.pairs = mesh.pairs
        self._m_ij = mesh.edge_mass
        self._bnodes = mesh.boundary_nodes
        # the value of a limiter that does not depend on the solution: 1 for
        # Galerkin, 0 for low order, v for a constant limiter on every pair
        value, lim = {GALERKIN: 1.0, LOW_ORDER: 0.0}.get(scheme.kind), scheme.limiter
        if value is None and isinstance(lim, ConstantLimiter) and not lim.zalesak_boundary:
            value = lim.value
        self.fixed_alpha = None
        if value is not None:
            # it lists no pair: one limiter, shared by every record
            none = np.empty(0, dtype=np.intp)
            self.fixed_alpha = LimiterMatrix(none, none, np.empty(0), none, float(value))
        # only a Zalesak limiter needs the explicit predictor
        self._check_predictor = value is None
        # the v of S_v: linear_fct solves M_L + tau Abar whatever its limiter
        self._v = 0.0 if value is None or scheme.kind == LINEAR_FCT else value
        # the last LU and the operators it was built from
        self._lu = self._lu_ops = None
        # the structure of the last Abar built by scipy's sum (its exact
        # zeros on the mesh pattern, its indices and indptr), the last Abar
        # built on that structure again with its data on the pattern, and
        # the gather map of the last LU order it was factored in
        self._abar_structure = self._abar_data = self._gather = None

    # -- operators ---------------------------------------------------

    @cached_property
    def _constant_operators(self):
        return self._build_operators(0.0)

    @cached_property
    def _mass_v(self):
        # (1-v) M_L + v M, M itself for v = 1; scipy's sum drops the exact
        # zeros, so v = 0 gives M_L's pattern
        if self._v == 1.0:
            return self.mass
        return (1.0 - self._v) * sparse.diags(self.m_lumped) + self._v * self.mass

    def _build_operators(self, t):
        pattern = self.mesh.pattern
        a = assemble_stiffness(self.mesh, self.spec, t)
        d = artificial_diffusion(a, pattern)
        d_ij = d.data[pattern.upper]
        # (1-v) D in place: a scaled copy per build made varcoef_fk5's peak
        # RSS about 4 MB higher and unsteady from run to run
        d.data *= 1.0 - self._v
        # Abar on the mesh pattern, entry by entry scipy's sum a + d, whose
        # exact zeros are the entries that sum drops: where upwinding
        # cancels a_ij exactly (43% of them at FK L5), an edge with a_ij or
        # a_ji >= 0 keeps only one of the two, which makes the graphs of
        # convection-dominated systems acyclic and their LUs triangular in
        # downwind order
        data = a.data + d.data
        keep = data != 0.0
        if self._check_predictor:
            self._check_predictor_bound(data[pattern.diag])
        last = self._abar_structure
        if last is not None and np.array_equal(keep, last[0]):
            # the structure of the last Abar: its dropped arrays take the
            # kept data, which the LU's system is then gathered from
            abar = sparse.csr_matrix((data[keep], last[1], last[2]), shape=a.shape)
            self._abar_data = abar, data
        else:
            abar = (a + d).tocsr()
            self._abar_structure = keep, abar.indices, abar.indptr
            self._abar_data = None
        return abar, d_ij

    def _check_predictor_bound(self, diag):
        """Warn once if tau exceeds min_i 2 m_i / abar_ii over the interior
        nodes i with abar_ii > 0, ``diag`` holding Abar's diagonal: under
        that bound the explicit predictor of the FCT schemes keeps
        nonnegative coefficients, and that is all the bound says.  The
        unlimited linear scheme's own step limit is 1.0-1.41 times smaller
        and is not checked: between the two, ``linear_fct`` amplifies
        rounding without a warning."""
        interior = ~self.mesh.boundary_mask
        diag, m = diag[interior], self.m_lumped[interior]
        bound = (2.0 * m[diag > 0.0] / diag[diag > 0.0]).min(initial=np.inf)
        tau = self.spec.tau
        if tau > bound:
            self._check_predictor = False
            warnings.warn(
                f"tau={tau:g} exceeds the explicit predictor's positivity bound "
                f"min_i 2 m_i / abar_ii = {bound:g}"
            )

    def _factorization(self, level: TimeLevel) -> Factorization:
        """LU of the Dirichlet-constrained S_v at the level's operators,
        refactored only when they are not those of the last LU."""
        ops = level.ops
        if ops is not self._lu_ops:
            order = None if self._lu is None else self._lu.order
            # the last LU goes first: two are never held at once
            self._lu = None
            system = self._gathered_system(ops[0], order)
            if system is None:
                # scipy's sums and apply_dirichlet keep the pattern that
                # dropped the exact zeros of Abar, which the LU's fill
                # depends on
                system = self._mass_v + self.spec.tau * ops[0]
                system = apply_dirichlet(system, self.mesh)
            self._lu, self._lu_ops = Factorization(system, order=order), ops
        return self._lu

    @cached_property
    def _mass_v_data(self):
        # (1-v) M_L + v M on the mesh pattern, entry by entry the values of
        # _mass_v, which stores no entry where this is 0
        data = self._v * self.mass.data
        data[self.mesh.pattern.diag] += (1.0 - self._v) * self.m_lumped
        return data

    def _gathered_system(self, abar, order):
        """The constrained S_v at ``abar`` as a CSC matrix on the column-
        permuted arrays of the downwind ``order``, its values gathered from
        the mesh pattern: bitwise the matrix that scipy's sums,
        apply_dirichlet and the LU's column slice give.  None, for those
        sums, unless ``abar`` was built on a structure seen again and the
        system stores exactly the entries of ``order``'s structure."""
        if order is None or self._abar_data is None or self._abar_data[0] is not abar:
            return None
        if self._gather is None or self._gather[0] is not order:
            # built the first time a structure is seen again
            self._gather = order, *self._gather_map(order)
        _, stored, pos, boundary = self._gather
        system = self._mass_v_data + self.spec.tau * self._abar_data[1]
        if not np.array_equal(system != 0.0, stored):
            return None
        # identity rows on the boundary, as apply_dirichlet makes them
        system[boundary] = 0.0
        system[self.mesh.pattern.diag[self._bnodes]] = 1.0
        n = self.mesh.n_nodes
        return sparse.csc_matrix((system[pos], order[1], order[0]), shape=(n, n))

    def _gather_map(self, order):
        """(stored, pos, boundary) on the mesh pattern: the entries the
        system factored in ``order`` stores, the pattern position of each
        entry of its column-permuted CSC arrays, and the positions of the
        boundary rows' entries."""
        pattern, n = self.mesh.pattern, self.mesh.n_nodes
        size = pattern.indices.size
        # pattern position + 1 in the order's columns, on the system's
        # structure, which the pattern holds
        ids = pattern.matrix(np.arange(1.0, size + 1.0)).tocsc()[:, order[2]]
        on_system = sparse.csc_matrix((np.ones(order[1].size), order[1], order[0]), shape=(n, n))
        pos = ids.multiply(on_system).data.astype(np.intp) - 1
        stored = np.zeros(size, dtype=bool)
        stored[pos] = True
        in_boundary_row = np.repeat(self.mesh.boundary_mask, np.diff(pattern.indptr))
        return stored, pos, np.flatnonzero(in_boundary_row)

    def _constrained_rhs(self, rhs, g):
        # in place: every caller hands over a fresh array it keeps no use for
        rhs[self._bnodes] = g
        return rhs

    # -- limiting ----------------------------------------------------

    @cached_property
    def _boundary_limiter(self) -> LimiterMatrix:
        # ConstantLimiter(v)'s pairs, those touching a boundary node, with
        # their ends, shared by all of its limiters; v on the others
        bmask, i, j = self.mesh.boundary_mask, self.pairs.i, self.pairs.j
        ids = np.flatnonzero(bmask[i] | bmask[j])
        return LimiterMatrix(i[ids], j[ids], np.ones(ids.size), ids, float(self.scheme.limiter.value))

    def _limit(self, flux, bounds):
        """Zalesak limiter of the fluxes, listing the pairs it evaluates; a
        constant limiter's lists the pairs touching the boundary with their
        Zalesak values (1 where zalesak lists none), its value on every
        other pair; with zalesak's unlimited node sums of the fluxes."""
        alpha, sums = zalesak(self.pairs, flux, bounds, self._bnodes)
        if isinstance(self.scheme.limiter, ConstantLimiter):
            listed = self._boundary_limiter
            values = np.ones(listed.ids.size)
            _, k, at = np.intersect1d(alpha.ids, listed.ids, assume_unique=True, return_indices=True)
            values[at] = alpha.values[k]
            alpha = replace(listed, values=values)
        return alpha, sums

    # -- single steps ------------------------------------------------

    def step_fixed_limiter(self, level: TimeLevel, u_prev, prev: TimeLevel, u_prev2=None) -> StepRecord:
        """The FCT step with the fixed limiter v on every pair, solved
        exactly: S_v u = tau f + ((1-v) M_L + v M) u_prev.  Its record
        gives the raw fluxes of u and their correction with v, the flux
        the step applied."""
        tau = self.spec.tau
        rhs = tau * level.f + self._mass_v @ u_prev
        u = self._factorization(level).solve(self._constrained_rhs(rhs, level.g))
        flux = raw_fluxes(self.pairs, self._m_ij, level.ops[1], u, u_prev, tau)
        fstar = correction_vector(self.pairs, self.fixed_alpha, flux)
        return _fct_record(level.t, u, self.fixed_alpha, fstar, flux)

    step_galerkin = step_low_order = step_fixed_limiter

    def step_linear_fct(self, level: TimeLevel, u_prev, prev: TimeLevel, u_prev2=None) -> StepRecord:
        tau, g = self.spec.tau, level.g
        abar_prev, d_ij = prev.ops
        r = abar_prev @ u_prev - prev.f
        flux = linear_fluxes(
            self.pairs, self._m_ij, d_ij, self.m_lumped, r, u_prev, tau, self._bnodes,
            (g - prev.g) / tau,
        )
        alpha, sums = self.fixed_alpha, None
        if alpha is None:
            ubar = predictor_half_step(self.m_lumped, r, u_prev, tau, self._bnodes, g)
            alpha, sums = self._limit(flux, zalesak_bounds(self.pairs, ubar, self.m_lumped))
        fstar = correction_vector(self.pairs, alpha, flux, sums)
        rhs = tau * level.f + self.m_lumped * u_prev + fstar
        u = self._factorization(level).solve(self._constrained_rhs(rhs, g))
        return _fct_record(level.t, u, alpha, fstar, flux)

    def step_nonlinear_fct(self, level: TimeLevel, u_prev, prev: TimeLevel, u_prev2=None) -> StepRecord:
        """The nonlinear FCT step: Anderson-accelerated fixed-point iteration
        on G(x) = S^{-1}(tau f + M_L u_prev + f*(x)), f*(x) the limited
        correction of the raw fluxes of x, from the extrapolated start
        2 u_prev - u_prev2 (u_prev at the first step), whose Dirichlet rows
        take g(t).  Each iteration solves once for G(x_k); type II Anderson
        (Walker & Ni 2011) then mixes G over the last ``ANDERSON_DEPTH``
        differences, x_{k+1} = G(x_k) - dG gamma with gamma minimising
        |f_k - dF gamma|, f_k = G(x_k) - x_k.  The step accepts the first
        iterate x_k, k >= 1, whose residual of the equation is below
        ``FP_TOL``, with its own limiter, correction and fluxes, and raises
        StepFailure after ``FP_MAX_ITER`` iterations."""
        if self.fixed_alpha is not None:
            # a fixed limiter makes the scheme linear: solve it exactly
            return self.step_fixed_limiter(level, u_prev, prev)
        tau = self.spec.tau
        t, g, fvec = level.t, level.g, level.f
        abar, d_ij = level.ops
        r = prev.ops[0] @ u_prev - prev.f
        ubar = predictor_half_step(self.m_lumped, r, u_prev, tau, self._bnodes, g)
        factor = self._factorization(level)
        bounds = zalesak_bounds(self.pairs, ubar, self.m_lumped)
        dubar = ubar[self.pairs.i] - ubar[self.pairs.j]

        def limited_correction(u_cur):
            flux = prelimit(raw_fluxes(self.pairs, self._m_ij, d_ij, u_cur, u_prev, tau), dubar)
            alpha, sums = self._limit(flux, bounds)
            return flux, alpha, correction_vector(self.pairs, alpha, flux, sums)

        base_rhs = tau * fvec + self.m_lumped * u_prev

        u = u_prev
        if u_prev2 is not None:
            u = 2.0 * u_prev - u_prev2
            u[self._bnodes] = g
        # the last ANDERSON_DEPTH differences of f_k = G(x_k) - x_k and of
        # G(x_k), a ring buffer
        d_f, d_g = np.empty((2, ANDERSON_DEPTH, u.size))
        flux, alpha, fstar = limited_correction(u)
        residual = np.inf
        for it in range(1, FP_MAX_ITER + 1):
            g_u = factor.solve(self._constrained_rhs(base_rhs + fstar, g))
            f_u = g_u - u
            u = g_u
            if it > 1:
                row, m = (it - 2) % ANDERSON_DEPTH, min(it - 1, ANDERSON_DEPTH)
                np.subtract(f_u, f_last, out=d_f[row])
                np.subtract(g_u, g_last, out=d_g[row])
                # einsum, not BLAS: the same sums whatever BLAS's thread
                # count
                gram = np.einsum("ki,li->kl", d_f[:m], d_f[:m])
                # a non-finite G(x_k) shows in the Gram matrix, on which
                # lstsq would raise LinAlgError
                if not np.isfinite(gram).all():
                    raise StepFailure(f"non-finite iterate in fixed-point iteration {it}", residual)
                rhs = np.einsum("ki,i->k", d_f[:m], f_u)
                gamma = np.linalg.lstsq(gram, rhs, rcond=None)[0]
                u = g_u - np.einsum("k,ki->i", gamma, d_g[:m])
            f_last, g_last = f_u, g_u
            flux, alpha, fstar = limited_correction(u)
            res_vec = self.m_lumped * u + tau * (abar @ u) - base_rhs - fstar
            res_vec[self._bnodes] = u[self._bnodes] - g
            # einsum, not BLAS: the same sum whatever BLAS's thread count
            residual = math.sqrt(float(np.einsum("i,i->", res_vec, res_vec)))
            if residual < FP_TOL:
                return _fct_record(t, u, alpha, fstar, flux, fp_iters=it, residual=residual)
            if not math.isfinite(residual):
                raise StepFailure(f"non-finite residual in fixed-point iteration {it}", residual)
        raise StepFailure(
            f"fixed point did not reach FP_TOL={FP_TOL:g} within "
            f"FP_MAX_ITER={FP_MAX_ITER} iterations (residual {residual:g})",
            residual,
        )

    # -- time loop ---------------------------------------------------

    def steps(self, n_steps: int):
        """Advance n_steps of length tau from the nodal interpolant of u0:
        an iterator of (level, record), level t = 0 and the initial record
        first, that keeps only u^{n-1}, u^{n-2} and the previous level.

        Every step is called as step(level, u^{n-1}, previous level,
        u^{n-2}), u^{n-2} None at the first step; only
        ``step_nonlinear_fct`` reads u^{n-2}, the others accept it so that
        every scheme is called alike.  A step's StepFailure or SolverError
        is raised again, same type, as "step n (t=...) failed: ..."."""
        # raised by this call, not by the first step
        if n_steps * self.spec.tau > self.spec.t_end + 1e-12:
            raise ValueError("n_steps * tau exceeds the end time")
        return self._steps(n_steps, getattr(self, "step_" + self.scheme.kind))

    def _steps(self, n_steps, step):
        prev = TimeLevel(self, 0.0)
        # the nodal interpolant of u0 with the boundary values g(0)
        u = np.array(self.spec.u0(self.mesh.nodes[:, 0], self.mesh.nodes[:, 1]), dtype=float)
        u[self._bnodes] = prev.g
        yield prev, StepRecord(0.0, u)
        u_prev2 = None
        for n in range(1, n_steps + 1):
            level = TimeLevel(self, n * self.spec.tau)
            try:
                rec = step(level, u, prev, u_prev2)
                if not np.isfinite(rec.u).all():
                    raise StepFailure("non-finite solution", rec.residual)
            except (StepFailure, SolverError) as exc:
                raise type(exc)(f"step {n} (t={level.t:g}) failed: {exc}", exc.residual) from exc
            u_prev2, u, prev = u, rec.u, level
            yield level, rec

    def run(self, n_steps: int) -> list[StepRecord]:
        """The records of ``steps(n_steps)``, the initial record first."""
        return [rec for _, rec in self.steps(n_steps)]
