import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest
from scipy import sparse

import femfct.solver
import femfct.stepper
from femfct import (
    Factorization,
    ConstantLimiter,
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

    def test_iteration_cap_raises(self, fk2, study, monkeypatch):
        from femfct import StepFailure

        spec, _ = study
        monkeypatch.setattr(femfct.stepper, "FP_MAX_ITER", 1)
        stepper = TimeStepper(fk2, spec, SchemeKind("nonlinear_fct"))
        with pytest.raises(StepFailure):
            stepper.run(1)

    def test_cap_failure_names_the_constants_read_at_call_time(self, fk2, study, monkeypatch):
        # patched after the stepper is built: the step reads both when it runs
        from femfct import StepFailure

        spec, _ = study
        stepper = TimeStepper(fk2, spec, SchemeKind("nonlinear_fct"))
        monkeypatch.setattr(femfct.stepper, "FP_TOL", 1e-300)
        monkeypatch.setattr(femfct.stepper, "FP_MAX_ITER", 3)
        with pytest.raises(StepFailure) as exc:
            stepper.run(1)
        assert str(exc.value).startswith(
            "step 1 (t=0.001) failed: fixed point did not reach FP_TOL=1e-300 "
            "within FP_MAX_ITER=3 iterations (residual "
        )
        assert 0.0 < exc.value.residual < math.inf

    @staticmethod
    def nan_on_third_call(fn):
        calls = []

        def patched(*args):
            calls.append(None)
            out = fn(*args)
            return out * math.nan if len(calls) == 3 else out

        return patched

    def test_non_finite_correction_names_the_iteration(self, fk2, study, monkeypatch):
        # the third correction is that of the second iterate, the first
        # mixed from the Anderson history: its residual stops the step
        # before the history's least-squares solve sees it
        from femfct import StepFailure

        spec, _ = study
        monkeypatch.setattr(
            femfct.stepper, "correction_vector", self.nan_on_third_call(femfct.stepper.correction_vector)
        )
        stepper = TimeStepper(fk2, spec, SchemeKind("nonlinear_fct"))
        with pytest.raises(StepFailure, match=r"^step 1 \(t=0\.001\) failed: non-finite residual "
                           r"in fixed-point iteration 2$"):
            stepper.run(1)

    def test_non_finite_solve_names_the_iteration(self, fk2, study, monkeypatch):
        # the third solve gives a non-finite G(x_2), caught before the
        # least-squares solve of the third iteration
        from femfct import StepFailure

        spec, _ = study
        monkeypatch.setattr(
            femfct.solver.Factorization, "solve", self.nan_on_third_call(femfct.solver.Factorization.solve)
        )
        stepper = TimeStepper(fk2, spec, SchemeKind("nonlinear_fct"))
        with pytest.raises(StepFailure, match=r"^step 1 \(t=0\.001\) failed: non-finite iterate "
                           r"in fixed-point iteration 3$"):
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
        # by the call, before the first step is asked for
        with pytest.raises(ValueError, match="exceeds the end time"):
            TimeStepper(fk1, spec, SchemeKind("galerkin")).steps(1001)

    def test_negative_count_rejected(self, fk1, study):
        spec, _ = study
        with pytest.raises(ValueError, match="nonnegative"):
            TimeStepper(fk1, spec, SchemeKind("galerkin")).run(-3)
        with pytest.raises(ValueError, match="nonnegative"):
            TimeStepper(fk1, spec, SchemeKind("galerkin")).steps(-1)

    def test_fractional_count_rejected_by_the_call(self, fk1, study):
        # before the first step is asked for
        spec, _ = study
        with pytest.raises(TypeError):
            TimeStepper(fk1, spec, SchemeKind("galerkin")).steps(2.5)

    def test_numpy_integer_count_accepted(self, fk1, study):
        spec, _ = study
        recs = TimeStepper(fk1, spec, SchemeKind("galerkin")).run(np.int64(2))
        assert [rec.t for rec in recs] == [0.0, spec.tau, 2 * spec.tau]

    @pytest.mark.parametrize("kind", ["galerkin", "linear_fct", "nonlinear_fct"])
    def test_steps_yields_the_records_of_run(self, fk2, study, kind):
        # (level, record), the level t = 0 and the initial record first,
        # each record bitwise run's
        spec, _ = study
        ref = TimeStepper(fk2, spec, SchemeKind(kind)).run(5)
        pairs = list(TimeStepper(fk2, spec, SchemeKind(kind)).steps(5))
        assert len(pairs) == len(ref) == 6
        for n, ((level, rec), old) in enumerate(zip(pairs, ref)):
            assert isinstance(level, TimeLevel) and level.t == rec.t == n * spec.tau
            assert rec.u.tobytes() == old.u.tobytes()
            assert (rec.fp_iters, rec.residual, rec.correction_sum) == (
                old.fp_iters, old.residual, old.correction_sum)

    def test_steps_holds_no_record(self, study):
        # 1000 steps at FK level 3: the iterator keeps u^{n-1}, u^{n-2} and
        # the previous level, no record once the next step is taken, and
        # the stepper holds none
        spec, _ = study
        stepper = TimeStepper(build_friedrichs_keller(3), spec, SchemeKind("linear_fct"))
        alive = []
        for _, rec in stepper.steps(1000):
            alive.append(weakref.ref(rec))
            assert all(ref() is None for ref in alive[:-1])
        del rec
        assert len(alive) == 1001
        assert all(ref() is None for ref in alive)
        held = list(vars(stepper).values())
        assert not any(isinstance(v, (femfct.stepper.StepRecord, list)) for v in held)

    def test_steady_state_preserved(self, fk1):
        # u* solving the stationary problem is a fixed point of the step
        spec = constant_data_spec(c=1.0, f_val=1.0, g_val=1.0, u0_val=1.0)
        # with c=1, f=1, g=1 the constant 1 is the exact steady state
        recs = TimeStepper(fk1, spec, SchemeKind("galerkin")).run(20)
        for rec in recs:
            np.testing.assert_allclose(rec.u, 1.0, rtol=1e-10)

    @pytest.mark.parametrize("kind", ["galerkin", "low_order", "linear_fct", "nonlinear_fct"])
    def test_non_finite_solution_stops_the_run(self, fk2, study, kind):
        # a load that turns NaN at t = 0.003 fails step 3, in the first
        # fixed-point iteration for the nonlinear scheme
        from femfct import StepFailure

        base, _ = study
        spec = dataclasses.replace(
            base, f=lambda t, x, y: base.f(t, x, y) * (math.nan if t > 0.0025 else 1.0)
        )
        stepper = TimeStepper(fk2, spec, SchemeKind(kind))
        with pytest.raises(StepFailure, match=r"^step 3 \(t=0\.003\) failed: non-finite") as exc:
            stepper.run(5)
        if kind == "nonlinear_fct":
            assert "iteration 1" in str(exc.value)

    def test_failed_lu_names_its_step(self, fk2, study, monkeypatch):
        # variable coefficients factor once per step; the third LU fails
        from femfct import SolverError

        spec = dataclasses.replace(study[0], constant_coefficients=False)
        builds = []

        def failing_factorization(matrix, **kwargs):
            builds.append(matrix)
            if len(builds) == 3:
                raise SolverError("LU factorization failed: singular", 0.5)
            return Factorization(matrix, **kwargs)

        monkeypatch.setattr(femfct.stepper, "Factorization", failing_factorization)
        stepper = TimeStepper(fk2, spec, SchemeKind("linear_fct"))
        with pytest.raises(
            SolverError, match=r"^step 3 \(t=0\.003\) failed: LU factorization failed: singular$"
        ) as exc:
            stepper.run(5)
        assert exc.value.residual == 0.5
        assert len(builds) == 3


class TestLimiters:
    def test_zalesak_alpha_bounds(self, fk2, study):
        spec, _ = study
        recs = TimeStepper(
            fk2, spec, SchemeKind("nonlinear_fct", ZalesakLimiter())
        ).run(5)
        for rec in recs[1:]:
            assert np.all(rec.alpha.values >= 0.0)
            assert np.all(rec.alpha.values <= 1.0)

    def test_constant_interior_value(self, fk2, study):
        spec, _ = study
        recs = TimeStepper(
            fk2, spec, SchemeKind("linear_fct", ConstantLimiter(0.5))
        ).run(3)
        pairs = fk2.pairs
        alpha = recs[1].alpha.expanded(pairs.i.size)
        interior = ~(fk2.boundary_mask[pairs.i] | fk2.boundary_mask[pairs.j])
        np.testing.assert_array_equal(alpha[interior], 0.5)
        # the first step's linear fluxes depend on u0 only, so pairs at the
        # boundary keep exactly the Zalesak run's values
        zal = TimeStepper(fk2, spec, SchemeKind("linear_fct")).run(1)[1].alpha.expanded(interior.size)
        np.testing.assert_array_equal(alpha[~interior], zal[~interior])
        assert np.any(zal[~interior] != 0.5)


class TestListedPairs:
    @pytest.mark.parametrize("kind", ["linear_fct", "nonlinear_fct"])
    def test_records_list_pairs_of_the_pair_graph(self, fk2, study, kind):
        # unique sorted ids of the stepper's pairs, with their ends
        spec, _ = study
        stepper = TimeStepper(fk2, spec, SchemeKind(kind))
        recs = stepper.run(5)
        listed = 0
        for rec in recs[1:]:
            ids = rec.alpha.ids
            assert np.all(np.diff(ids) > 0) and np.all(ids >= 0)
            np.testing.assert_array_equal(rec.alpha.i, stepper.pairs.i[ids])
            np.testing.assert_array_equal(rec.alpha.j, stepper.pairs.j[ids])
            listed = max(listed, ids.size)
        assert 0 < listed < stepper.pairs.i.size

    @pytest.mark.parametrize("kind", ["linear_fct", "nonlinear_fct"])
    def test_constant_limiter_lists_the_boundary_pairs(self, fk2, study, kind):
        # exactly the pairs touching a boundary node, sorted, their ids and
        # ends shared by every record, each with its own values; v off them
        spec, _ = study
        stepper = TimeStepper(fk2, spec, SchemeKind(kind, ConstantLimiter(0.5)))
        pairs, bmask = stepper.pairs, fk2.boundary_mask
        boundary = np.flatnonzero(bmask[pairs.i] | bmask[pairs.j])
        recs = stepper.run(3)[1:]
        first = recs[0].alpha
        np.testing.assert_array_equal(first.ids, boundary)
        np.testing.assert_array_equal(first.i, pairs.i[boundary])
        np.testing.assert_array_equal(first.j, pairs.j[boundary])
        assert boundary.size < pairs.i.size
        for rec in recs:
            assert rec.alpha.rest == 0.5
            assert rec.alpha.ids is first.ids
            assert rec.alpha.i is first.i and rec.alpha.j is first.j
            assert rec.alpha.values.shape == boundary.shape

    def test_zalesak_records_take_a_fraction_of_their_solutions(self, study):
        # 100 steps at FK level 4: the limiters' arrays, ids included, take
        # under a quarter of the bytes of the records' u (about 18%); a
        # limiter storing alpha on every pair took 285%
        spec, _ = study
        mesh = build_friedrichs_keller(4)
        records = TimeStepper(mesh, spec, SchemeKind("linear_fct")).run(100)
        arrays = {}
        for rec in records[1:]:
            a = rec.alpha
            arrays.update((id(x), x.nbytes) for x in (a.i, a.j, a.values, a.ids))
        u_bytes = sum(rec.u.nbytes for rec in records[1:])
        assert sum(arrays.values()) < 0.25 * u_bytes


def unpermuted(matrix, order=None):
    """The system handed to Factorization with ``order`` as CSC, in its own
    column order: a matrix on the order's column-permuted arrays comes as
    A[:, cols]."""
    csc = sparse.csc_matrix(matrix)
    if order is not None and matrix.indptr is order[0]:
        csc = csc[:, np.argsort(order[2])]
    return csc


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
            csc = unpermuted(matrix, **kwargs)
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
            femfct.stepper, "Factorization",
            lambda matrix, **kwargs: Factorization(unpermuted(matrix, **kwargs)),
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
        # lists no pair, has its value for all of them, and is one object
        # on every record
        spec, _ = study
        stepper = TimeStepper(fk2, spec, scheme)
        alpha = stepper.fixed_alpha
        for part in (alpha.i, alpha.j, alpha.values, alpha.ids):
            assert part.size == 0
        assert alpha.rest == value and type(alpha.rest) is float
        full = alpha.expanded(stepper.pairs.i.size)
        assert full.tobytes() == np.full(stepper.pairs.i.size, float(value)).tobytes()
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


class TestLinearStepLimit:
    @pytest.mark.parametrize(
        "build, limit",
        [(build_friedrichs_keller, 1.0 / 38.0), (build_shifted_grid, 1.0 / 48.3)],
        ids=["fk3", "shifted3"],
    )
    def test_unlimited_linear_scheme_is_stable_below_its_limit(self, build, limit):
        # the space problem's operator with f = 0 and g = 0 from a random
        # u0, 400 steps on level 3: the unlimited linear FCT scheme decays
        # at 0.95 of its step limit tau* and grows at 1.05 tau* (an
        # eigenvalue of its step map crosses -1); under Zalesak it decays
        # at both
        mesh = build(3)

        def random_u0(x, y):
            return np.random.default_rng(0).standard_normal(np.shape(x))

        unlimited = SchemeKind("linear_fct", ConstantLimiter(1.0, zalesak_boundary=False))
        for factor, grows in ((0.95, False), (1.05, True)):
            tau = factor * limit
            spec, _ = space_study_problem()
            spec = dataclasses.replace(
                spec, f=lambda t, x, y: np.zeros_like(x), u0=random_u0, tau=tau, t_end=400 * tau
            )
            for scheme in (unlimited, SchemeKind("linear_fct")):
                recs = TimeStepper(mesh, spec, scheme).run(400)
                ratio = np.abs(recs[-1].u).max() / np.abs(recs[0].u).max()
                if grows and scheme is unlimited:
                    assert ratio > 1e10
                else:
                    assert ratio < 1e-10


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
