import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from femfct import (
    LimiterMatrix,
    artificial_diffusion,
    assemble_mass,
    assemble_stiffness,
    correction_vector,
    linear_fluxes,
    lump,
    PairGraph,
    TriMesh,
    m_matrix_check,
    predictor_half_step,
    prelimit,
    raw_fluxes,
    zalesak,
    zalesak_bounds,
)


# the Dirichlet node indices of a test without boundary conditions
NO_DIRICHLET = np.empty(0, dtype=np.intp)


# the one pair (0, 1) of two nodes
PAIR = PairGraph(2, np.array([0]), np.array([1]))


def two_node_matrices(m12=0.1, d12=-0.2):
    """Pair graph of two nodes and the pair entries m_12, d_12."""
    return PAIR, np.array([m12]), np.array([d12])


# one triangle: its pattern holds every entry of a 3x3 matrix
TRIANGLE = TriMesh(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]), np.ones(3, bool), 0, 1.0
)


def on_triangle(dense):
    """The 3x3 matrix ``dense`` on the triangle's pattern, zeros stored."""
    pattern = TRIANGLE.pattern
    row = np.repeat(np.arange(3), np.diff(pattern.indptr))
    return pattern.matrix(np.asarray(dense, dtype=float)[row, pattern.indices])


class TestArtificialDiffusion:
    def test_small_example(self):
        a = on_triangle([[2.0, -3.0, 0.0], [1.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        d = artificial_diffusion(a, TRIANGLE.pattern).toarray()
        np.testing.assert_allclose(d, [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])

    def test_nonpositive_offdiagonals_give_zero(self):
        a = on_triangle([[2.0, -3.0, -1.0], [-1.0, 4.0, -2.0], [-1.0, 0.0, 1.0]])
        assert abs(artificial_diffusion(a, TRIANGLE.pattern)).max() == 0.0

    def test_one_sided_positive_entry(self):
        # a_ij > 0 with a_ji = 0 stored on the pattern
        a = on_triangle([[5.0, 2.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 5.0]])
        d = artificial_diffusion(a, TRIANGLE.pattern).toarray()
        np.testing.assert_allclose(d, [[2.0, -2.0, 0.0], [-2.0, 2.0, 0.0], [0.0, 0.0, 0.0]])

    def test_matrix_off_the_pattern_rejected(self):
        a = sparse.csr_matrix(np.array([[5.0, 2.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 5.0]]))
        with pytest.raises(ValueError, match="pattern"):
            artificial_diffusion(a, TRIANGLE.pattern)

    def test_benchmark_operator_properties(self, fk2, benchmark_spec):
        a = assemble_stiffness(fk2, benchmark_spec, t=0.0)
        d = artificial_diffusion(a, fk2.pattern)
        np.testing.assert_allclose(
            np.asarray(d.sum(axis=1)).ravel(), 0.0, atol=1e-15
        )
        assert abs(d - d.T).max() < 1e-15
        abar = (a + d).toarray()
        off = abar - np.diag(np.diag(abar))
        assert off.max() <= 1e-14

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_symmetry_and_zero_row_sums_random(self, fk0, seed):
        rng = np.random.default_rng(seed)
        # arbitrary values, some of them zero, on the level-0 mesh pattern
        pattern = fk0.pattern
        data = rng.standard_normal(pattern.indices.size)
        data[rng.random(data.size) < 0.4] = 0.0
        d = artificial_diffusion(pattern.matrix(data), pattern)
        assert abs(d - d.T).max() < 1e-12
        np.testing.assert_allclose(np.asarray(d.sum(axis=1)).ravel(), 0.0, atol=1e-12)
        offdiag = d - sparse.diags(d.diagonal())
        assert offdiag.toarray().max() <= 0.0


class TestLump:
    def test_single_triangle(self, tmp_path):
        path = tmp_path / "ref.msh"
        path.write_text("3 1\n0 0\n1 0\n0 1\n0 1 2\n")
        from femfct import load_mesh

        mesh = load_mesh(path)
        np.testing.assert_allclose(lump(assemble_mass(mesh)), 1.0 / 6.0)

    def test_total_mass(self, fk1):
        assert lump(assemble_mass(fk1)).sum() == pytest.approx(1.0, abs=1e-14)

    def test_interior_node_patch_third(self, fk0):
        m = lump(assemble_mass(fk0))
        center = int(np.argmin(np.linalg.norm(fk0.nodes - 0.5, axis=1)))
        # the level-0 center node touches 6 triangles of area 1/8
        assert m[center] == pytest.approx(6.0 / 8.0 / 3.0, abs=1e-15)


class TestPredictor:
    def test_zero_residual_is_identity(self):
        abar = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        u = np.array([3.0, 4.0])
        f = abar @ u
        np.testing.assert_array_equal(
            predictor_half_step(np.array([1.0, 1.0]), abar @ u - f, u, 0.5, NO_DIRICHLET, 0.0), u
        )

    def test_hand_example(self):
        abar, u = sparse.identity(2, format="csr"), np.array([2.0, 0.0])
        ubar = predictor_half_step(np.array([2.0, 2.0]), abar @ u, u, 1.0, NO_DIRICHLET, 0.0)
        np.testing.assert_allclose(ubar, [1.5, 0.0])

    def test_dirichlet_overwrite(self):
        abar = sparse.identity(3, format="csr")
        ubar = predictor_half_step(
            np.ones(3), abar @ np.ones(3), np.ones(3), tau=1.0,
            dirichlet=np.array([0, 2]), g_values=np.array([7.0, 8.0]),
        )
        np.testing.assert_allclose(ubar, [7.0, 0.5, 8.0])


class TestRawFluxes:
    def test_constant_field_zero(self):
        pairs, m_ij, d_ij = two_node_matrices()
        u = np.array([3.0, 3.0])
        flux = raw_fluxes(pairs, m_ij, d_ij, u, u, tau=0.5)
        np.testing.assert_array_equal(flux, 0.0)

    def test_stationary_gives_pure_diffusive_flux(self):
        pairs, m_ij, d_ij = two_node_matrices()
        u = np.array([1.0, 0.0])
        flux = raw_fluxes(pairs, m_ij, d_ij, u, u, tau=0.5)
        # f_12 = tau * d_12 * (u_2 - u_1)
        assert flux[0] == pytest.approx(0.5 * (-0.2) * (-1.0))

    def test_hand_example(self):
        pairs, m_ij, d_ij = two_node_matrices(m12=0.1, d12=-0.2)
        flux = raw_fluxes(pairs, m_ij, d_ij, np.array([1.0, 0.0]), np.zeros(2), tau=0.5)
        assert flux[0] == pytest.approx(0.2)

    def test_antisymmetric_csr(self):
        pairs, m_ij, d_ij = two_node_matrices()
        flux = raw_fluxes(pairs, m_ij, d_ij, np.array([1.0, 0.0]), np.zeros(2), tau=0.5)
        f = np.zeros((pairs.n, pairs.n))
        f[pairs.i, pairs.j] = flux
        f[pairs.j, pairs.i] = -flux
        np.testing.assert_allclose(f, -f.T)


class TestLinearFluxes:
    def setup_system(self):
        pairs, m_ij, d_ij = two_node_matrices(m12=0.1, d12=-0.2)
        abar = sparse.csr_matrix(np.array([[0.2, -0.2], [-0.2, 0.2]]))
        return pairs, m_ij, d_ij, abar

    def test_steady_state_collapses(self):
        pairs, m_ij, d_ij, abar = self.setup_system()
        u = np.array([1.0, 2.0])
        f = abar @ u
        flux = linear_fluxes(pairs, m_ij, d_ij, np.ones(2), abar @ u - f, u, 0.5, NO_DIRICHLET, 0.0)
        assert flux[0] == pytest.approx(0.5 * (-0.2) * (2.0 - 1.0))

    def test_constant_steady_is_zero(self):
        pairs, m_ij, d_ij, abar = self.setup_system()
        u = np.array([2.0, 2.0])
        flux = linear_fluxes(
            pairs, m_ij, d_ij, np.ones(2), abar @ u - abar @ u, u, 0.5, NO_DIRICHLET, 0.0
        )
        np.testing.assert_allclose(flux, 0.0, atol=1e-16)

    def test_hand_example(self):
        pairs, m_ij, d_ij, abar = self.setup_system()
        u = np.array([1.0, 0.0])
        flux = linear_fluxes(pairs, m_ij, d_ij, np.ones(2), abar @ u, u, 0.5, NO_DIRICHLET, 0.0)
        assert flux[0] == pytest.approx(0.06)

    def test_dirichlet_rate_overwrite(self):
        pairs, m_ij, d_ij, abar = self.setup_system()
        u, f = np.array([1.0, 0.0]), np.zeros(2)
        flux = linear_fluxes(
            pairs, m_ij, d_ij, np.ones(2), abar @ u - f, u, tau=0.5,
            dirichlet=np.array([0, 1]), g_rate=np.array([-0.2, 0.2]),
        )
        # the supplied rates equal the unconstrained ones, so no change
        assert flux[0] == pytest.approx(0.06)
        flux0 = linear_fluxes(
            pairs, m_ij, d_ij, np.ones(2), abar @ u - f, u, tau=0.5,
            dirichlet=np.array([0, 1]), g_rate=0.0,
        )
        # zero rate kills the mass part and the nu correction
        assert flux0[0] == pytest.approx(0.5 * (-0.2) * (-1.0))


class TestPrelimit:
    def flux(self, value):
        return np.array([value])

    # dubar holds ubar_i - ubar_j of the one pair (0, 1)
    def test_diffusive_flux_cancelled(self):
        out = prelimit(self.flux(1.0), np.array([-1.0]))
        assert out[0] == 0.0

    def test_antidiffusive_flux_kept(self):
        out = prelimit(self.flux(1.0), np.array([1.0]))
        assert out[0] == 1.0

    def test_zero_flux_unchanged(self):
        out = prelimit(self.flux(0.0), np.array([-1.0]))
        assert out[0] == 0.0


class TestZalesak:
    def flux(self, value):
        return np.array([value])

    def limiter(self, flux, ubar, m_lumped, dirichlet=NO_DIRICHLET, pairs=PAIR):
        return zalesak(pairs, flux, zalesak_bounds(pairs, ubar, m_lumped), dirichlet)

    def limit(self, flux, ubar, m_lumped, dirichlet=NO_DIRICHLET, pairs=PAIR):
        """alpha on every pair."""
        return self.limiter(flux, ubar, m_lumped, dirichlet, pairs).expanded(pairs.i.size)

    def test_zero_fluxes_give_alpha_one(self):
        alpha = self.limit(self.flux(0.0), np.array([0.0, 1.0]), np.ones(2))
        np.testing.assert_array_equal(alpha, 1.0)

    def test_unconstrained_pair(self):
        alpha = self.limit(self.flux(0.5), np.array([0.0, 1.0]), np.ones(2))
        assert alpha[0] == pytest.approx(1.0)

    def test_constrained_pair(self):
        alpha = self.limit(self.flux(0.5), np.array([0.0, 0.2]), np.ones(2))
        assert alpha[0] == pytest.approx(0.4)

    def test_lists_only_the_pairs_at_limiting_nodes(self):
        # no node limits: nothing listed, alpha = 1 on the pair
        free = self.limiter(self.flux(0.5), np.array([0.0, 1.0]), np.ones(2))
        assert free.ids.size == free.i.size == free.j.size == free.values.size == 0
        held = self.limiter(self.flux(0.5), np.array([0.0, 0.2]), np.ones(2))
        np.testing.assert_array_equal(held.ids, [0])
        assert (held.i[0], held.j[0]) == (0, 1)

    def test_dirichlet_nodes_do_not_limit(self):
        ubar = np.array([0.0, 0.2])
        alpha = self.limit(self.flux(0.5), ubar, np.ones(2), dirichlet=np.array([1]))
        # node 1 no longer throttles; node 0's own ratio is R_0^+ = 0.4
        assert alpha[0] == pytest.approx(0.4)
        alpha = self.limit(
            self.flux(0.5), ubar, np.ones(2), dirichlet=np.array([0, 1])
        )
        assert alpha[0] == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_alpha_in_unit_interval_random(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        i, j = np.triu_indices(n, k=1)
        flux = rng.standard_normal(i.size)
        ubar = rng.standard_normal(n)
        m = rng.random(n) + 0.1
        alpha = self.limit(flux, ubar, m, pairs=PairGraph(n, i, j))
        assert np.all(alpha >= 0.0)
        assert np.all(alpha <= 1.0)


class TestCorrectionVector:
    def pair_flux(self):
        return np.array([0.2])

    @staticmethod
    def on_pair(value):
        return LimiterMatrix(np.array([0]), np.array([1]), np.array([value]), np.array([0]))

    def test_alpha_zero(self):
        np.testing.assert_array_equal(correction_vector(PAIR, self.on_pair(0.0), self.pair_flux()), 0.0)

    def test_alpha_one_gives_row_sums(self):
        np.testing.assert_allclose(
            correction_vector(PAIR, self.on_pair(1.0), self.pair_flux()), [0.2, -0.2]
        )

    def test_half_alpha(self):
        np.testing.assert_allclose(
            correction_vector(PAIR, self.on_pair(0.5), self.pair_flux()), [0.1, -0.1]
        )

    def test_unlisted_pair_has_alpha_one(self):
        none = np.empty(0, dtype=np.intp)
        alpha = LimiterMatrix(none, none, np.empty(0), none)
        np.testing.assert_allclose(correction_vector(PAIR, alpha, self.pair_flux()), [0.2, -0.2])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_conservation_random(self, seed):
        rng = np.random.default_rng(seed)
        n = 10
        i, j = np.triu_indices(n, k=1)
        flux = rng.standard_normal(i.size)
        # a random half of the pairs listed
        ids = np.flatnonzero(rng.random(i.size) < 0.5)
        alpha = LimiterMatrix(i[ids], j[ids], rng.random(ids.size), ids)
        total = correction_vector(PairGraph(n, i, j), alpha, flux).sum()
        assert abs(total) <= 1e-12 * max(np.abs(flux).sum(), 1.0)


class TestLimiterMatrix:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LimiterMatrix(np.array([0]), np.array([1]), np.array([1.5]), np.array([0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="outside"):
            LimiterMatrix(np.array([0, 1]), np.array([1, 2]), np.array([0.5, np.nan]), np.array([0, 1]))

    def test_expanded_is_one_off_the_listed_pairs(self):
        alpha = LimiterMatrix(np.array([0, 2]), np.array([1, 3]), np.array([0.25, -0.0]), np.array([1, 3]))
        full = alpha.expanded(5)
        assert full.tobytes() == np.array([1.0, 0.25, 1.0, -0.0, 1.0]).tobytes()


class TestMMatrixCheck:
    def test_graph_laplacian_passes(self):
        abar = sparse.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        report = m_matrix_check(np.ones(2), abar, tau=1.0)
        assert report.ok

    def test_positive_offdiagonal_fails_with_location(self):
        abar = sparse.csr_matrix(np.array([[1.0, 0.5], [-1.0, 1.0]]))
        report = m_matrix_check(np.ones(2), abar, tau=1.0)
        assert not report.ok
        assert (0, 1) in [(r, c) for r, c, _ in report.positive_offdiagonal]

    def test_benchmark_low_order_system(self, fk2, benchmark_spec):
        a = assemble_stiffness(fk2, benchmark_spec, t=0.0)
        d = artificial_diffusion(a, fk2.pattern)
        m = lump(assemble_mass(fk2))
        report = m_matrix_check(m, a + d, tau=benchmark_spec.tau)
        assert report.ok
        assert report.n_strict_rows > 0
