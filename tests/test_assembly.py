import dataclasses

import numpy as np
import pytest
from scipy import sparse

from femfct import (
    ErrorWorkspace,
    ExactSolution,
    ProblemSpec,
    apply_dirichlet,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_friedrichs_keller,
    load_mesh,
)

# degree-5 Dunavant rule on the reference triangle: an independent oracle
# for the degree-2 integrands used by the assembly routines
ORACLE_PTS = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0],
        [0.059715871789770, 0.470142064105115],
        [0.470142064105115, 0.059715871789770],
        [0.470142064105115, 0.470142064105115],
        [0.797426985353087, 0.101286507323456],
        [0.101286507323456, 0.797426985353087],
        [0.101286507323456, 0.101286507323456],
    ]
)
ORACLE_W = np.array(
    [
        0.225,
        0.132394152788506,
        0.132394152788506,
        0.132394152788506,
        0.125939180544827,
        0.125939180544827,
        0.125939180544827,
    ]
)


def oracle_load(mesh, func):
    """Brute-force load vector via a degree-5 quadrature rule."""
    out = np.zeros(mesh.n_nodes)
    for tri, area in zip(mesh.triangles, mesh.areas()):
        p = mesh.nodes[tri]
        for (l1, l2), w in zip(ORACLE_PTS, ORACLE_W):
            lam = np.array([1.0 - l1 - l2, l1, l2])
            x, y = lam @ p
            out[tri] += w * area * func(x, y) * lam
    return out


def unit_right_triangle(tmp_path):
    path = tmp_path / "ref.msh"
    path.write_text("3 1\n0 0\n1 0\n0 1\n0 1 2\n")
    return load_mesh(path)


def make_spec(eps=1.0, b=(0.0, 0.0), c=0.0, f=lambda t, x, y: 0.0 * x):
    return ProblemSpec(
        eps=eps,
        b=lambda t, x, y: (np.full_like(x, b[0], dtype=float),
                           np.full_like(x, b[1], dtype=float)),
        c=lambda t, x, y: np.full_like(x, c, dtype=float),
        f=f,
        u0=lambda x, y: 0.0 * x,
        c0=1.0,
        t_end=1.0,
        tau=1e-3,
    )


class TestMass:
    def test_unit_right_triangle(self, tmp_path):
        mesh = unit_right_triangle(tmp_path)
        m = assemble_mass(mesh).toarray()
        expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_total_mass_is_area(self, fk1):
        assert assemble_mass(fk1).sum() == pytest.approx(1.0, abs=1e-14)

    def test_corner_row_sum_is_patch_third(self, fk0):
        m = assemble_mass(fk0)
        corner = int(np.argmin(np.linalg.norm(fk0.nodes, axis=1)))
        # corner (0,0) of the level-0 grid touches one square cell = 2
        # triangles of area 1/8 each -> patch area 1/4
        assert m[corner].sum() == pytest.approx(0.25 / 3.0, abs=1e-15)

    def test_symmetry(self, fk1):
        m = assemble_mass(fk1)
        assert abs(m - m.T).max() < 1e-15


class TestStiffness:
    def test_laplacian_element(self, tmp_path):
        mesh = unit_right_triangle(tmp_path)
        a = assemble_stiffness(mesh, make_spec(eps=1.0), t=0.0).toarray()
        expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        np.testing.assert_allclose(a, expected, atol=1e-15)

    def test_reaction_equals_mass(self, fk1):
        spec = make_spec(eps=1e-30, c=1.0)
        a = assemble_stiffness(fk1, spec, t=0.0)
        m = assemble_mass(fk1)
        assert abs((a - m)).max() < 1e-12

    def test_convection_skew_part(self, fk1):
        # for constant b with zero divergence, the convection matrix is
        # skew-symmetric up to boundary terms; check the interior block
        spec = make_spec(eps=1e-30, b=(2.0, 3.0))
        a = assemble_stiffness(fk1, spec, t=0.0).toarray()
        interior = ~fk1.boundary_mask
        block = a[np.ix_(interior, interior)]
        np.testing.assert_allclose(block, -block.T, atol=1e-14)

    def test_interior_diagonal_positive(self, fk0):
        spec = make_spec(eps=1e-8, b=(2.0, 3.0), c=1.0)
        a = assemble_stiffness(fk0, spec, t=0.0).toarray()
        for i in np.flatnonzero(~fk0.boundary_mask):
            assert a[i, i] > 0.0

    def test_oracle_variable_coefficients(self, fk1):
        # c(x, y) = x y is degree-2 against phi_i phi_j: compare the
        # matrix action on a linear field with the degree-5 oracle
        spec = ProblemSpec(
            eps=1e-30,
            b=lambda t, x, y: (0.0 * x, 0.0 * x),
            c=lambda t, x, y: x * y,
            f=lambda t, x, y: 0.0 * x,
            u0=lambda x, y: 0.0 * x,
            c0=1.0,
            t_end=1.0,
            tau=1e-3,
            constant_coefficients=False,
        )
        a = assemble_stiffness(fk1, spec, t=0.0)
        u = fk1.nodes[:, 0] + 2.0 * fk1.nodes[:, 1]
        # (A u)_i = integral of c * u * phi_i; u is linear so c*u is cubic:
        # both the 3-point degree-2 rule and the oracle are inexact, but
        # must agree to the quadrature error scale
        oracle = oracle_load(fk1, lambda x, y: x * y * (x + 2.0 * y))
        np.testing.assert_allclose(a @ u, oracle, atol=5e-4)


class TestLoad:
    def test_zero_source(self, fk1):
        spec = make_spec()
        np.testing.assert_array_equal(assemble_load(fk1, spec, t=0.0), 0.0)

    def test_unit_source_sums_to_area(self, fk1):
        spec = make_spec(f=lambda t, x, y: np.ones_like(x))
        assert assemble_load(fk1, spec, t=0.0).sum() == pytest.approx(1.0, abs=1e-14)

    def test_linear_source_matches_oracle(self, tmp_path):
        mesh = unit_right_triangle(tmp_path)
        spec = make_spec(f=lambda t, x, y: x)
        load = assemble_load(mesh, spec, t=0.0)
        oracle = oracle_load(mesh, lambda x, y: x)
        np.testing.assert_allclose(load, oracle, atol=1e-12)

    def test_quartic_source_matches_oracle(self, fk1):
        spec = make_spec(f=lambda t, x, y: x * y)
        load = assemble_load(fk1, spec, t=0.0)
        oracle = oracle_load(fk1, lambda x, y: x * y)
        # f phi is cubic; the assembly rule is degree-2, so allow the
        # O(h^4) per-element quadrature error
        np.testing.assert_allclose(load, oracle, atol=5e-5)


class TestDirichlet:
    def test_boundary_row_is_identity(self, fk1):
        a = sparse.identity(fk1.n_nodes, format="csr")
        a2 = apply_dirichlet(a, fk1)
        bn = fk1.boundary_nodes
        dense = a2.toarray()
        for i in bn:
            row = np.zeros(fk1.n_nodes)
            row[i] = 1.0
            np.testing.assert_array_equal(dense[i], row)

    def test_interior_rows_untouched(self, fk1, benchmark_spec):
        a = assemble_stiffness(fk1, benchmark_spec, t=0.0)
        a2 = apply_dirichlet(a.copy(), fk1)
        interior = ~fk1.boundary_mask
        np.testing.assert_array_equal(
            a2.toarray()[interior], a.toarray()[interior]
        )


class TestProblemSpec:
    @pytest.mark.parametrize("name", ["eps", "tau", "c0", "t_end"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
    def test_rejects_nonpositive_or_nonfinite(self, benchmark_spec, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            dataclasses.replace(benchmark_spec, **{name: value})


class TestSharedGeometry:
    def test_assemblies_read_the_cached_geometry(self):
        mesh = build_friedrichs_keller(1)
        spec = make_spec(c=1.0, f=lambda t, x, y: np.ones_like(x))
        geo = mesh.geometry
        mass = assemble_mass(mesh)
        load = assemble_load(mesh, spec, t=0.0)
        assert mesh.geometry is geo
        assert mesh.areas() is geo.areas
        u_h, x_h = np.zeros(mesh.n_nodes), mesh.nodes[:, 0].copy()
        xy = ExactSolution(lambda t: 1.0, lambda x, y: x * y, lambda x, y: (y, x))
        zero = ExactSolution(lambda t: 1.0, lambda x, y: 0.0 * x, lambda x, y: (0.0 * x, 0.0 * y))
        ws = ErrorWorkspace(mesh)
        l2 = ws.l2_error(u_h, xy, t=0.0)
        h1 = ws.h1_error(x_h, zero, t=0.0)
        with pytest.raises(ValueError):
            geo.areas[0] = 1.0  # read-only: no consumer can alter the others' data
        # doubled cached areas double what both assemblies return and the
        # squared L2 error, and doubled gradients as well quadruple the
        # squared H1 error once more, so none recomputes the geometry from
        # the coordinates; the cached edge weights derive from the
        # geometry, so they go with it
        del mesh.__dict__["edge_mass"], mesh.__dict__["edge_laplacian"]
        mesh.__dict__["geometry"] = dataclasses.replace(geo, areas=2.0 * geo.areas)
        assert abs(assemble_mass(mesh) - 2.0 * mass).max() == 0.0
        np.testing.assert_array_equal(assemble_load(mesh, spec, t=0.0), 2.0 * load)
        doubled = ErrorWorkspace(mesh).l2_error(u_h, xy, t=0.0)
        assert doubled**2 == pytest.approx(2.0 * l2**2, rel=1e-15)
        del mesh.__dict__["edge_laplacian"]
        mesh.__dict__["geometry"] = dataclasses.replace(geo, areas=2.0 * geo.areas, grads=2.0 * geo.grads)
        doubled = ErrorWorkspace(mesh).h1_error(x_h, zero, t=0.0)
        assert doubled**2 == pytest.approx(8.0 * h1**2, rel=1e-15)
