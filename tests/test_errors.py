import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femfct import (
    ErrorWorkspace,
    ExactSolution,
    LimiterMatrix,
    PairGraph,
    build_friedrichs_keller,
    dh_seminorm,
    eoc,
    load_mesh,
    time_integrate,
)


# the one pair (0, 1)
PAIR = PairGraph(2, np.array([0]), np.array([1]))


def interpolate(mesh, func):
    return func(mesh.nodes[:, 0], mesh.nodes[:, 1])


def steady(profile, gradient):
    """The exact solution u = S with the given profile and gradient."""
    return ExactSolution(lambda t: 1.0, profile, gradient)


def dense_l2_oracle(mesh, u_h, func, n_sub=200):
    """L2 error by midpoint sampling on a fine sub-triangulation."""
    total = 0.0
    for tri, area in zip(mesh.triangles, mesh.areas()):
        p = mesh.nodes[tri]
        vals = u_h[tri]
        k = np.arange(n_sub)
        # barycentric midpoints of the n_sub^2 congruent subtriangles
        pts = []
        for a in range(n_sub):
            for b in range(n_sub - a):
                pts.append(((a + 1.0 / 3.0), (b + 1.0 / 3.0)))
                if a + b < n_sub - 1:
                    pts.append(((a + 2.0 / 3.0), (b + 2.0 / 3.0)))
        lam = np.array(pts) / n_sub
        l1, l2 = lam[:, 0], lam[:, 1]
        l0 = 1.0 - l1 - l2
        x = l0 * p[0, 0] + l1 * p[1, 0] + l2 * p[2, 0]
        y = l0 * p[0, 1] + l1 * p[1, 1] + l2 * p[2, 1]
        uh = l0 * vals[0] + l1 * vals[1] + l2 * vals[2]
        diff = func(x, y) - uh
        total += area / len(pts) * np.sum(diff * diff)
    return math.sqrt(total)


class TestL2Error:
    def test_linear_exact(self, fk1):
        u_h = interpolate(fk1, lambda x, y: 2.0 * x - y + 0.5)
        exact = steady(lambda x, y: 2.0 * x - y + 0.5, lambda x, y: (2.0, -1.0))
        err = ErrorWorkspace(fk1).l2_error(u_h, exact, t=0.0)
        assert err < 1e-14

    def test_constant_one(self, fk1):
        exact = steady(lambda x, y: np.ones_like(x), lambda x, y: (0.0, 0.0))
        err = ErrorWorkspace(fk1).l2_error(np.zeros(fk1.n_nodes), exact, t=0.0)
        assert err == pytest.approx(1.0, abs=1e-14)

    def test_quadratic_matches_dense_oracle(self, tmp_path):
        path = tmp_path / "ref.msh"
        path.write_text("3 1\n0 0\n1 0\n0 1\n0 1 2\n")
        mesh = load_mesh(path)
        u_h = interpolate(mesh, lambda x, y: x**2)
        exact = steady(lambda x, y: x**2, lambda x, y: (2.0 * x, 0.0))
        err = ErrorWorkspace(mesh).l2_error(u_h, exact, t=0.0)
        oracle = dense_l2_oracle(mesh, u_h, lambda x, y: x**2)
        assert err == pytest.approx(oracle, abs=1e-6)


class TestH1Error:
    def test_linear_exact(self, fk1):
        u_h = interpolate(fk1, lambda x, y: 3.0 * x + y)
        exact = steady(lambda x, y: 3.0 * x + y, lambda x, y: (np.full_like(x, 3.0), np.ones_like(x)))
        err = ErrorWorkspace(fk1).h1_error(u_h, exact, t=0.0)
        assert err < 1e-13

    def test_zero_field_unit_gradient(self, fk1):
        exact = steady(lambda x, y: x, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
        err = ErrorWorkspace(fk1).h1_error(np.zeros(fk1.n_nodes), exact, t=0.0)
        assert err == pytest.approx(1.0, abs=1e-14)

    def test_constant_gradient_components(self, fk1):
        # an exact gradient may return plain numbers
        ws = ErrorWorkspace(fk1)
        err = ws.h1_error(np.zeros(fk1.n_nodes), steady(lambda x, y: x, lambda x, y: (1.0, 0.0)), t=0.0)
        assert err == pytest.approx(1.0, abs=1e-14)
        u_h = interpolate(fk1, lambda x, y: 3.0 * x + y)
        exact = steady(lambda x, y: 3.0 * x + y, lambda x, y: (3.0, 1.0))
        assert ws.h1_error(u_h, exact, t=0.0) < 1e-13

    def test_quadratic_oracle(self, fk2):
        # grad(x^2) = (2x, 0); P1 gradient is piecewise constant; the
        # elementwise error integral can be computed exactly by hand:
        # on each element, e_x = 2x - (x_l + x_r) with zero mean, and
        # int (2x - 2xbar)^2 over a cell pair of width h is h^4/3 per cell
        u_h = interpolate(fk2, lambda x, y: x**2)
        exact = steady(lambda x, y: x**2, lambda x, y: (2.0 * x, np.zeros_like(x)))
        err = ErrorWorkspace(fk2).h1_error(u_h, exact, t=0.0)
        h = fk2.h
        exact = math.sqrt(h * h / 3.0)
        assert err == pytest.approx(exact, rel=1e-12)


class TestDhSeminorm:
    def toy(self, alpha_value):
        alpha = LimiterMatrix(np.array([0]), np.array([1]), np.array([alpha_value]), np.array([0]))
        return alpha, np.array([-1.0])

    def test_zero_error(self):
        alpha, d_ij = self.toy(0.0)
        assert dh_seminorm(PAIR, alpha, d_ij, np.zeros(2)) == 0.0

    def test_alpha_one_vanishes(self):
        alpha, d_ij = self.toy(1.0)
        assert dh_seminorm(PAIR, alpha, d_ij, np.array([0.0, 1.0])) == 0.0

    def test_unlisted_pair_vanishes(self):
        # alpha = 1 on a pair the limiter does not list
        none = np.empty(0, dtype=np.intp)
        alpha = LimiterMatrix(none, none, np.empty(0), none)
        assert dh_seminorm(PAIR, alpha, np.array([-1.0]), np.array([0.0, 1.0])) == 0.0

    def test_two_node_value(self):
        # sum over unordered pairs of (1 - alpha)|d_ij| (e_j - e_i)^2
        alpha, d_ij = self.toy(0.0)
        assert dh_seminorm(PAIR, alpha, d_ij, np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_one_value_per_pair_required(self):
        alpha, _ = self.toy(0.0)
        with pytest.raises(ValueError, match="shape"):
            dh_seminorm(PAIR, alpha, np.array([-1.0, -1.0]), np.zeros(2))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_nodal_edge_equivalence_random(self, seed):
        # the ordered nodal double sum sum_{i,j}(1-a_ij) d_ij (e_j-e_i) e_i
        # equals the edge form computed by dh_seminorm
        rng = np.random.default_rng(seed)
        n = 7
        i, j = np.triu_indices(n, k=1)
        d_off = -rng.random(i.size)
        dense = np.zeros((n, n))
        dense[i, j] = d_off
        dense[j, i] = d_off
        np.fill_diagonal(dense, -dense.sum(axis=1))
        a_vals = rng.random(i.size)
        alpha = LimiterMatrix(i, j, a_vals, np.arange(i.size))
        e = rng.standard_normal(n)
        a_full = np.zeros((n, n))
        a_full[i, j] = a_vals
        a_full[j, i] = a_vals
        nodal = sum(
            (1.0 - a_full[p, q]) * dense[p, q] * (e[q] - e[p]) * e[p]
            for p in range(n)
            for q in range(n)
            if p != q
        )
        edge = dh_seminorm(PairGraph(n, i, j), alpha, d_off, e)
        assert edge**2 == pytest.approx(nodal, rel=1e-10, abs=1e-12)


class TestFctNorm:
    def test_zero_error(self, fk1):
        alpha = LimiterMatrix(PAIR.i, PAIR.j, np.ones(1), np.array([0]))
        e = np.zeros(fk1.n_nodes)
        dh = dh_seminorm(PAIR, alpha, np.array([-1.0]), e)
        assert ErrorWorkspace(fk1).fct_nodal(e, dh, eps=1.0, c0=1.0) == 0.0

    def test_alpha_one_reduces_to_energy_norm(self, fk1):
        rng = np.random.default_rng(1)
        e = rng.standard_normal(fk1.n_nodes)
        i, j = np.triu_indices(fk1.n_nodes, k=1)
        # alpha = 1 on an arbitrary pattern: d_h term drops out
        pairs = PairGraph(fk1.n_nodes, i[:3], j[:3])
        alpha = LimiterMatrix(pairs.i, pairs.j, np.ones(3), np.arange(3))
        ws = ErrorWorkspace(fk1)
        full = ws.fct_nodal(e, dh_seminorm(pairs, alpha, np.full(3, -1.0), e), eps=2.0, c0=3.0)
        expected = math.sqrt(2.0 * ws.h1_nodal(e) ** 2 + 3.0 * ws.l2_nodal(e) ** 2)
        assert full == pytest.approx(expected, rel=1e-13)

    def test_decomposition_identity_random(self):
        # ||e||_fct^2 = eps |e|_1^2 + c0 ||e||_0^2 + d_h(e, e)
        mesh = build_friedrichs_keller(1)
        ws = ErrorWorkspace(mesh)
        rng = np.random.default_rng(42)
        i, j = np.triu_indices(mesh.n_nodes, k=1)
        keep = rng.random(i.size) < 0.1
        pairs = PairGraph(mesh.n_nodes, i[keep], j[keep])
        for _ in range(100):
            e = rng.standard_normal(mesh.n_nodes)
            a_vals = rng.random(pairs.i.size)
            alpha = LimiterMatrix(pairs.i, pairs.j, a_vals, np.arange(pairs.i.size))
            d_off = -rng.random(pairs.i.size)
            eps, c0 = rng.random() + 0.1, rng.random() + 0.1
            total = ws.fct_nodal(e, dh_seminorm(pairs, alpha, d_off, e), eps=eps, c0=c0) ** 2
            parts = (
                eps * ws.h1_nodal(e) ** 2
                + c0 * ws.l2_nodal(e) ** 2
                + dh_seminorm(pairs, alpha, d_off, e) ** 2
            )
            assert abs(total - parts) <= 1e-12 * max(total, 1.0)


class TestTimeIntegrate:
    def test_constant_series(self):
        assert time_integrate(np.full(10, 3.0), tau=0.1) == pytest.approx(3.0)

    def test_single_step(self):
        assert time_integrate([4.0], tau=0.25) == pytest.approx(4.0 * 0.5)

    def test_three_four_five(self):
        assert time_integrate([3.0, 4.0], tau=1.0) == pytest.approx(5.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty norm series"):
            time_integrate([], tau=0.1)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scaling_homogeneity(self, scale):
        vals = np.array([1.0, 2.0, 0.5])
        assert time_integrate(scale * vals, tau=0.1) == pytest.approx(
            scale * time_integrate(vals, tau=0.1), rel=1e-12
        )


class TestEoc:
    def test_halving(self):
        assert eoc([0.1, 0.025], [0.5, 0.25]) == [pytest.approx(2.0)]

    def test_stagnation(self):
        assert eoc([0.1, 0.1], [0.5, 0.25]) == [pytest.approx(0.0)]

    def test_reference_convergence_column(self):
        errors = [0.0288, 0.00777, 0.00153, 0.000479, 0.000116]
        hs = [2.0 ** (-k) for k in range(2, 7)]
        rates = eoc(errors, hs)
        np.testing.assert_allclose(rates, [1.890, 2.342, 1.676, 2.046], atol=5e-3)

    def test_nonpositive_error_gives_none(self):
        assert eoc([0.1, 0.0], [0.5, 0.25]) == [None]

    @pytest.mark.parametrize(
        "errors, hs", [([0.1], [0.5]), ([0.1, 0.05], [0.5])], ids=["too-short", "mismatched"]
    )
    def test_bad_lengths_rejected(self, errors, hs):
        with pytest.raises(ValueError, match="need matching sequences of length >= 2"):
            eoc(errors, hs)
