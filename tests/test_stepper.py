import warnings
import weakref

import numpy as np
import pytest

import femfct.solver
import femfct.stepper
from femfct import (
    Factorization,
    ConstantLimiter,
    FixedPointOptions,
    ProblemSpec,
    SchemeKind,
    TimeLevel,
    TimeStepper,
    ZalesakLimiter,
    build_friedrichs_keller,
    build_shifted_grid,
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
        level, prev = TimeLevel(stepper, spec.tau), TimeLevel(stepper, 0.0)
        for _ in range(50):
            u_prev = rng.random(fk2.n_nodes)
            rec = stepper.step_low_order(level, u_prev, prev)
            assert rec.u.min() >= -1e-13

    def test_zero_in_zero_out(self, fk1):
        spec = constant_data_spec()
        stepper = TimeStepper(fk1, spec, SchemeKind("low_order"))
        rec = stepper.step_low_order(
            TimeLevel(stepper, spec.tau), np.zeros(fk1.n_nodes), TimeLevel(stepper, 0.0)
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
    @pytest.mark.parametrize(
        "scheme",
        [
            *(pytest.param(SchemeKind(kind), id=kind)
              for kind in ("galerkin", "low_order", "linear_fct", "nonlinear_fct")),
            # the exact constant-alpha system of nonlinear_fct
            pytest.param(
                SchemeKind("nonlinear_fct", ConstantLimiter(0.3, zalesak_boundary=False)),
                id="nonlinear_fct-constant0.3",
            ),
            pytest.param(SchemeKind("linear_fct", ConstantLimiter(0.5)), id="linear_fct-constant0.5"),
        ],
    )
    def test_matches_constant_path_bitwise(self, fk2, scheme):
        # time-independent data through the per-level rebuild of the
        # operators and the d_ij gather, and the per-step factorizations
        runs = []
        for constant in (True, False):
            spec, _ = space_study_problem()
            spec.constant_coefficients = constant
            runs.append(TimeStepper(fk2, spec, scheme).run(20))
        for ra, rb in zip(*runs):
            np.testing.assert_array_equal(ra.u, rb.u)

    @pytest.mark.parametrize("kind", ["low_order", "linear_fct", "nonlinear_fct"])
    def test_structure_changes_order_columns_afresh(self, monkeypatch, kind):
        # b = (2 cos 40t, 3 sin 40t) moves the exact zeros of Abar: each
        # system whose CSC structure differs from the step before's has its
        # columns ordered afresh, every other one takes the previous column
        # order; every u is that of a run ordering afresh on every step
        spec, _ = space_study_problem()
        spec.constant_coefficients = False
        spec.b = lambda t, x, y: (np.full_like(x, 2.0 * np.cos(40.0 * t), dtype=float),
                                  np.full_like(x, 3.0 * np.sin(40.0 * t), dtype=float))
        mesh = build_friedrichs_keller(3)
        structures, fresh_orders = [], []
        downwind_order = femfct.solver._downwind_order

        def recording_factorization(matrix, **kwargs):
            csc = matrix.tocsc()
            structures.append((csc.indptr.tobytes(), csc.indices.tobytes()))
            fresh_orders.append(False)
            return Factorization(matrix, **kwargs)

        def recording_order(csc):
            fresh_orders[-1] = True
            return downwind_order(csc)

        with monkeypatch.context() as patch:
            patch.setattr(femfct.stepper, "Factorization", recording_factorization)
            patch.setattr(femfct.solver, "_downwind_order", recording_order)
            reused = TimeStepper(mesh, spec, SchemeKind(kind)).run(30)
        changed = [k == 0 or structures[k] != structures[k - 1] for k in range(len(structures))]
        assert len(fresh_orders) == len(structures) == 30
        assert fresh_orders == changed
        assert 1 < fresh_orders.count(True) < 30

        monkeypatch.setattr(
            femfct.stepper, "Factorization", lambda matrix, **kwargs: Factorization(matrix)
        )
        fresh = TimeStepper(mesh, spec, SchemeKind(kind)).run(30)
        for ra, rb in zip(reused, fresh):
            assert ra.u.tobytes() == rb.u.tobytes()


    @pytest.mark.parametrize("kind", ["low_order", "linear_fct", "nonlinear_fct"])
    def test_never_holds_two_factorizations(self, fk2, monkeypatch, kind):
        # the stepper keeps its last LU, and releases it before the next
        spec, _ = space_study_problem()
        spec.constant_coefficients = False
        alive, factors = [], []

        def recording(matrix, **kwargs):
            alive.append(sum(ref() is not None for ref in factors))
            factor = Factorization(matrix, **kwargs)
            factors.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(femfct.stepper, "Factorization", recording)
        TimeStepper(fk2, spec, SchemeKind(kind)).run(5)
        assert alive == [0] * 5


class TestStepData:
    @pytest.mark.parametrize(
        "kind, calls",
        [("galerkin", 5), ("low_order", 5), ("linear_fct", 6), ("nonlinear_fct", 6)],
    )
    def test_one_load_per_step(self, fk2, study, monkeypatch, kind, calls):
        # the FCT steps reuse the load of the step before as f_prev; only
        # f(0) comes on top
        spec, _ = study
        count = []
        assemble = femfct.stepper.assemble_load

        def counting(*args):
            count.append(args[-1])
            return assemble(*args)

        monkeypatch.setattr(femfct.stepper, "assemble_load", counting)
        TimeStepper(fk2, spec, SchemeKind(kind)).run(5)
        assert len(count) == calls
        assert len(set(count)) == calls

    @pytest.mark.parametrize("constant", [True, False])
    @pytest.mark.parametrize(
        "kind, first",
        [("galerkin", 1), ("low_order", 1), ("linear_fct", 0), ("nonlinear_fct", 0)],
    )
    def test_one_operator_build_per_level(self, fk2, monkeypatch, kind, first, constant):
        # variable coefficients: each level t = k tau builds its operators
        # once (the FCT steps also use level 0's) with t exactly k tau, and
        # each step factorizes once; n * 1e-3 - 1e-3 != (n - 1) * 1e-3 for
        # n = 11, 15, 19.  Constant coefficients: one build, one LU.
        spec, _ = space_study_problem()
        spec.constant_coefficients = constant
        n = 20
        times, factorizations = [], []
        assemble = femfct.stepper.assemble_stiffness
        factorization = femfct.stepper.Factorization

        def counting_assemble(mesh, spec, t):
            times.append(t)
            return assemble(mesh, spec, t)

        def counting_factorization(matrix, **kwargs):
            factorizations.append(matrix)
            return factorization(matrix, **kwargs)

        monkeypatch.setattr(femfct.stepper, "assemble_stiffness", counting_assemble)
        monkeypatch.setattr(femfct.stepper, "Factorization", counting_factorization)
        TimeStepper(fk2, spec, SchemeKind(kind)).run(n)
        if constant:
            assert len(times) == 1
            assert len(factorizations) == 1
        else:
            assert sorted(times) == [k * spec.tau for k in range(first, n + 1)]
            assert len(factorizations) == n

    @pytest.mark.parametrize("constant", [True, False])
    @pytest.mark.parametrize("kind", ["galerkin", "low_order", "linear_fct", "nonlinear_fct"])
    def test_one_g_evaluation_per_level(self, fk2, kind, constant):
        # g(t) once for each of the n + 1 levels; the LU's Dirichlet rows
        # need no boundary values
        spec, _ = space_study_problem()
        spec.constant_coefficients = constant
        times = []
        g = spec.g

        def counting(t, x, y):
            times.append(t)
            return g(t, x, y)

        spec.g = counting
        n = 20
        TimeStepper(fk2, spec, SchemeKind(kind)).run(n)
        assert sorted(times) == [k * spec.tau for k in range(n + 1)]

    @pytest.mark.parametrize(
        "scheme, value",
        [
            (SchemeKind("galerkin"), 1.0),
            (SchemeKind("low_order"), 0.0),
            (SchemeKind("nonlinear_fct", ConstantLimiter(0.3, zalesak_boundary=False)), 0.3),
            (SchemeKind("linear_fct", ConstantLimiter(0.7, zalesak_boundary=False)), 0.7),
        ],
    )
    def test_fixed_limiter_on_every_record(self, fk2, study, scheme, value):
        spec, _ = study
        stepper = TimeStepper(fk2, spec, scheme)
        alpha = stepper.fixed_alpha
        assert alpha.i is stepper.pairs.i
        assert alpha.j is stepper.pairs.j
        np.testing.assert_array_equal(alpha.values, value)
        assert not alpha.values.flags.writeable
        for rec in stepper.run(5)[1:]:
            assert rec.alpha is alpha

    @pytest.mark.parametrize(
        "scheme",
        [SchemeKind("linear_fct"), SchemeKind("nonlinear_fct", ConstantLimiter(0.5))],
    )
    def test_solution_dependent_limiter_is_not_fixed(self, fk1, study, scheme):
        spec, _ = study
        assert TimeStepper(fk1, spec, scheme).fixed_alpha is None


def time_dependent_dirichlet_problem(tau=0.01):
    """u = (1 + t)(1 + x + 2y) with b = (2, 3), c = 1 and g = u: linear in
    space and in time, so P1 and backward Euler reproduce it exactly."""
    def lin(x, y):
        return 1.0 + x + 2.0 * y

    def u(t, x, y):
        return (1.0 + t) * lin(x, y)

    spec = ProblemSpec(
        eps=1e-8,
        b=lambda t, x, y: (np.full_like(x, 2.0, dtype=float),
                           np.full_like(x, 3.0, dtype=float)),
        c=lambda t, x, y: np.ones_like(x, dtype=float),
        f=lambda t, x, y: lin(x, y) + 8.0 * (1.0 + t) + u(t, x, y),
        u0=lambda x, y: u(0.0, x, y),
        g=u,
        c0=1.0,
        t_end=1.0,
        tau=tau,
    )
    return spec, u


class TestTimeDependentDirichlet:
    @pytest.mark.parametrize("level", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["galerkin", "low_order", "linear_fct", "nonlinear_fct"])
    def test_reproduces_linear_solution(self, kind, level):
        mesh = build_friedrichs_keller(level)
        spec, u = time_dependent_dirichlet_problem()
        for rec in TimeStepper(mesh, spec, SchemeKind(kind)).run(20):
            exact = u(rec.t, mesh.nodes[:, 0], mesh.nodes[:, 1])
            assert np.abs(rec.u - exact).max() <= 1e-12


class TestPredictorBound:
    def test_paper_step_does_not_warn(self, study):
        # min_i 2 m_i / abar_ii is 3.5e-3 on shifted level 6, the finest grid
        spec, _ = study
        stepper = TimeStepper(build_shifted_grid(6), spec, SchemeKind("linear_fct"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TimeLevel(stepper, 0.0).ops

    @pytest.mark.parametrize("constant", [True, False])
    @pytest.mark.parametrize("kind", ["linear_fct", "nonlinear_fct"])
    def test_large_step_warns_once(self, kind, constant):
        # the bound is 9.3e-3 on FK level 5; the variable-coefficient path
        # rebuilds Abar every step
        spec, _ = space_study_problem(tau=0.05)
        spec.constant_coefficients = constant
        with pytest.warns(UserWarning, match=r"^tau=0.05 exceeds") as caught:
            TimeStepper(build_friedrichs_keller(5), spec, SchemeKind(kind)).run(3)
        assert len(caught) == 1

    @pytest.mark.parametrize("kind", ["linear_fct", "nonlinear_fct"])
    def test_fixed_limiter_needs_no_predictor(self, kind):
        # with a constant limiter on every pair there is no predictor, so
        # no bound to exceed (the bound is 9.3e-3 on FK level 5)
        spec, _ = space_study_problem(tau=0.05)
        scheme = SchemeKind(kind, ConstantLimiter(0.3, zalesak_boundary=False))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TimeStepper(build_friedrichs_keller(5), spec, scheme).run(3)

    def test_bracketing_schemes_do_not_check(self, fk1):
        spec, _ = space_study_problem(tau=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TimeStepper(fk1, spec, SchemeKind("low_order")).run(1)
