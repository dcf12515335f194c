import numpy as np
import pytest

from femfct import (
    ConstantLimiter,
    FixedPointOptions,
    ProblemSpec,
    SchemeKind,
    TimeStepper,
    ZalesakLimiter,
    build_friedrichs_keller,
    space_study_problem,
)


def constant_data_spec(c=0.0, f_val=0.0, g_val=0.0, u0_val=0.0, tau=1e-3):
    return ProblemSpec(
        eps=1e-8,
        b=lambda t, x, y: (np.full_like(x, 2.0, dtype=float),
                           np.full_like(x, 3.0, dtype=float)),
        c=lambda t, x, y: np.full_like(x, c, dtype=float),
        f=lambda t, x, y: np.full_like(x, f_val, dtype=float),
        u0=lambda x, y: np.full_like(x, u0_val, dtype=float),
        g=lambda t, x, y: np.full_like(x, g_val, dtype=float),
        c0=1.0,
        t_end=1.0,
        tau=tau,
    )


@pytest.fixture(scope="module")
def study():
    spec, exact = space_study_problem()
    return spec, exact


class TestGalerkin:
    def test_zero_data_stays_zero(self, fk1):
        spec = constant_data_spec()
        recs = TimeStepper(fk1, spec, SchemeKind("galerkin")).run(5)
        for rec in recs:
            np.testing.assert_array_equal(rec.u, 0.0)

    def test_ten_step_smoke(self, fk1, study):
        spec, _ = study
        recs = TimeStepper(fk1, spec, SchemeKind("galerkin")).run(10)
        assert len(recs) == 11
        assert all(np.all(np.isfinite(r.u)) for r in recs)


class TestLowOrder:
    def test_constant_preserved(self, fk1):
        # c=0, f=0, matching boundary data: constants are exact states
        spec = constant_data_spec(u0_val=2.0, g_val=2.0)
        recs = TimeStepper(fk1, spec, SchemeKind("low_order")).run(5)
        for rec in recs:
            np.testing.assert_allclose(rec.u, 2.0, rtol=1e-12)

    def test_positivity(self, fk2):
        # nonnegative data in, nonnegative iterate out (M-matrix)
        rng = np.random.default_rng(0)
        spec, _ = space_study_problem()
        stepper = TimeStepper(fk2, spec, SchemeKind("low_order"))
        for _ in range(50):
            u_prev = rng.random(fk2.n_nodes)
            rec = stepper.step_low_order(t=spec.tau, u_prev=u_prev)
            assert rec.u.min() >= -1e-13

    def test_zero_in_zero_out(self, fk1):
        spec = constant_data_spec()
        rec = TimeStepper(fk1, spec, SchemeKind("low_order")).step_low_order(
            t=spec.tau, u_prev=np.zeros(fk1.n_nodes)
        )
        np.testing.assert_array_equal(rec.u, 0.0)


class TestSchemeEquivalence:
    """Constant-limiter FCT must reproduce the two bracketing schemes."""

    def run_pair(self, mesh, spec, scheme_a, scheme_b, n_steps=10):
        recs_a = TimeStepper(mesh, spec, scheme_a).run(n_steps)
        recs_b = TimeStepper(mesh, spec, scheme_b).run(n_steps)
        return recs_a, recs_b

    def test_nonlinear_alpha_one_is_galerkin(self, fk2, study):
        spec, _ = study
        fct = SchemeKind(
            "nonlinear_fct", ConstantLimiter(1.0, zalesak_boundary=False)
        )
        recs_a, recs_b = self.run_pair(fk2, spec, fct, SchemeKind("galerkin"))
        for ra, rb in zip(recs_a[1:], recs_b[1:]):
            scale = max(np.abs(rb.u).max(), 1e-30)
            assert np.abs(ra.u - rb.u).max() <= 1e-10 * scale

    def test_nonlinear_alpha_zero_is_low_order(self, fk2, study):
        spec, _ = study
        fct = SchemeKind(
            "nonlinear_fct", ConstantLimiter(0.0, zalesak_boundary=False)
        )
        recs_a, recs_b = self.run_pair(fk2, spec, fct, SchemeKind("low_order"))
        for ra, rb in zip(recs_a[1:], recs_b[1:]):
            scale = max(np.abs(rb.u).max(), 1e-30)
            assert np.abs(ra.u - rb.u).max() <= 1e-10 * scale

    def test_linear_alpha_zero_is_low_order(self, fk2, study):
        spec, _ = study
        fct = SchemeKind("linear_fct", ConstantLimiter(0.0, zalesak_boundary=False))
        recs_a, recs_b = self.run_pair(fk2, spec, fct, SchemeKind("low_order"))
        for ra, rb in zip(recs_a[1:], recs_b[1:]):
            scale = max(np.abs(rb.u).max(), 1e-30)
            assert np.abs(ra.u - rb.u).max() <= 1e-10 * scale


class TestLinearFct:
    def test_smoke_and_conservation(self, fk2, study):
        spec, _ = study
        recs = TimeStepper(fk2, spec, SchemeKind("linear_fct")).run(10)
        for rec in recs[1:]:
            assert np.all(np.isfinite(rec.u))
            assert abs(rec.correction_sum) <= 1e-12 * max(rec.flux_abs_sum, 1.0)

    def test_solution_within_data_envelope(self, fk2, study):
        spec, _ = study
        recs = TimeStepper(fk2, spec, SchemeKind("linear_fct")).run(10)
        # the manufactured solution satisfies |u(t)| <= 1.21 t; the FCT
        # iterates must stay on that scale without spurious oscillations
        for rec in recs[1:]:
            assert np.abs(rec.u).max() <= 3.0 * 1.21 * rec.t


class TestNonlinearFct:
    def test_converges_within_cap(self, fk2, study):
        spec, _ = study
        recs = TimeStepper(fk2, spec, SchemeKind("nonlinear_fct")).run(10)
        for rec in recs[1:]:
            assert rec.residual < 1e-9
            assert rec.fp_iters <= 50

    def test_conservation(self, fk2, study):
        spec, _ = study
        recs = TimeStepper(fk2, spec, SchemeKind("nonlinear_fct")).run(10)
        for rec in recs[1:]:
            assert abs(rec.correction_sum) <= 1e-12 * max(rec.flux_abs_sum, 1.0)

    def test_iteration_cap_raises(self, fk2, study):
        from femfct import StepFailure

        spec, _ = study
        stepper = TimeStepper(
            fk2, spec, SchemeKind("nonlinear_fct"),
            fp_opts=FixedPointOptions(tol=1e-9, max_iter=1),
        )
        with pytest.raises(StepFailure):
            stepper.run(1)


class TestRun:
    def test_zero_steps(self, fk1, study):
        spec, _ = study
        recs = TimeStepper(fk1, spec, SchemeKind("galerkin")).run(0)
        assert len(recs) == 1
        assert recs[0].t == 0.0

    def test_too_many_steps_rejected(self, fk1, study):
        spec, _ = study
        with pytest.raises(ValueError):
            TimeStepper(fk1, spec, SchemeKind("galerkin")).run(1001)

    def test_steady_state_preserved(self, fk1):
        # u* solving the stationary problem is a fixed point of the step
        spec = constant_data_spec(c=1.0, f_val=1.0, g_val=1.0, u0_val=1.0)
        # with c=1, f=1, g=1 the constant 1 is the exact steady state
        recs = TimeStepper(fk1, spec, SchemeKind("galerkin")).run(20)
        for rec in recs:
            np.testing.assert_allclose(rec.u, 1.0, rtol=1e-10)


class TestLimiters:
    def test_zalesak_alpha_bounds(self, fk2, study):
        spec, _ = study
        recs = TimeStepper(
            fk2, spec, SchemeKind("nonlinear_fct", ZalesakLimiter())
        ).run(5)
        for rec in recs[1:]:
            assert rec.alpha.values.min() >= 0.0
            assert rec.alpha.values.max() <= 1.0

    def test_constant_interior_value(self, fk2, study):
        spec, _ = study
        recs = TimeStepper(
            fk2, spec, SchemeKind("linear_fct", ConstantLimiter(0.5))
        ).run(3)
        interior = ~(
            fk2.boundary_mask[recs[1].alpha.i] | fk2.boundary_mask[recs[1].alpha.j]
        )
        np.testing.assert_array_equal(recs[1].alpha.values[interior], 0.5)
        # the first step's linear fluxes depend on u0 only, so pairs at the
        # boundary keep exactly the Zalesak run's values
        zal = TimeStepper(fk2, spec, SchemeKind("linear_fct")).run(1)
        np.testing.assert_array_equal(
            recs[1].alpha.values[~interior], zal[1].alpha.values[~interior]
        )
        assert np.any(zal[1].alpha.values[~interior] != 0.5)


class TestSharedPairs:
    @pytest.mark.parametrize("kind", ["linear_fct", "nonlinear_fct"])
    def test_records_share_the_pair_graph(self, fk2, study, kind):
        spec, _ = study
        stepper = TimeStepper(fk2, spec, SchemeKind(kind))
        recs = stepper.run(5)
        for rec in recs[1:]:
            assert rec.alpha.i is stepper.pairs.i
            assert rec.alpha.j is stepper.pairs.j


class TestVariableCoefficientPath:
    @pytest.mark.parametrize("kind", ["galerkin", "low_order", "linear_fct", "nonlinear_fct"])
    def test_matches_constant_path_bitwise(self, fk2, kind):
        # time-independent data through the per-step rebuild of the
        # operators, the d_ij gather and the factorizations
        runs = []
        for constant in (True, False):
            spec, _ = space_study_problem()
            spec.constant_coefficients = constant
            runs.append(TimeStepper(fk2, spec, SchemeKind(kind)).run(20))
        for ra, rb in zip(*runs):
            np.testing.assert_array_equal(ra.u, rb.u)
