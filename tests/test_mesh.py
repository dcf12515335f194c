import math

import numpy as np
import pytest

from femfct import (
    ConstantLimiter,
    MeshError,
    PairGraph,
    SchemeKind,
    TimeStepper,
    TriMesh,
    build_friedrichs_keller,
    build_shifted_grid,
    edge_arrays,
    load_mesh,
    refine_uniform,
    space_study_problem,
)
from femfct.cli import ExperimentConfig, build_grid
from femfct.mesh import bin_sums
from helpers import max_opposite_angle_sum


def triangle_signature(mesh):
    """Connectivity signature invariant under node renumbering: the
    multiset of triangles with nodes replaced by their coordinates."""
    coords = np.round(mesh.nodes, 12)
    tris = [tuple(sorted(map(tuple, coords[t]))) for t in mesh.triangles]
    return sorted(tris)


def signed_areas(mesh):
    """Twice the signed area of each triangle, from the nodes and the
    triangles alone (not from the cached geometry)."""
    p = mesh.nodes[mesh.triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]


@pytest.mark.parametrize(
    "grid, level, seed",
    [("fk", level, None) for level in range(7)]
    + [("shifted", level, None) for level in range(7)]
    + [("unstructured", level, None) for level in range(5)]
    + [("shifted", 3, 3)],
)
def test_all_triangles_ccw(grid, level, seed):
    # the builders and refine_uniform make counterclockwise triangles by
    # construction, and nothing after them reorients a triangle
    mesh = build_grid(ExperimentConfig(grid=grid), level)
    if seed is not None:
        mesh = relabel(mesh, seed)
    assert np.all(signed_areas(mesh) > 0.0)


@pytest.mark.parametrize("build", [build_friedrichs_keller, build_shifted_grid])
def test_negative_level_rejected(build):
    with pytest.raises(ValueError, match="level must be nonnegative"):
        build(-1)


class TestFriedrichsKeller:
    def test_level0_counts(self, fk0):
        assert fk0.n_nodes == 9
        assert fk0.n_triangles == 8
        assert fk0.h == 0.5

    def test_level0_area(self, fk0):
        assert fk0.areas().sum() == pytest.approx(1.0, abs=1e-14)

    def test_level1_counts(self, fk1):
        assert fk1.n_nodes == 25
        assert fk1.n_triangles == 32

    def test_boundary_nodes_cached_and_read_only(self, fk1):
        nodes = fk1.boundary_nodes
        assert fk1.boundary_nodes is nodes
        np.testing.assert_array_equal(nodes, np.flatnonzero(fk1.boundary_mask))
        with pytest.raises(ValueError):
            nodes[0] = 1

    def test_boundary_detection(self, fk0):
        on_boundary = fk0.boundary_mask
        expected = (
            (np.abs(fk0.nodes) < 1e-12) | (np.abs(1.0 - fk0.nodes) < 1e-12)
        ).any(axis=1)
        assert np.array_equal(on_boundary, expected)
        assert on_boundary.sum() == 8


class TestShiftedGrid:
    def test_center_node_moved(self):
        mesh = build_shifted_grid(0)
        dists = np.linalg.norm(mesh.nodes - np.array([0.55, 0.5]), axis=1)
        assert dists.min() < 1e-14

    def test_boundary_nodes_unchanged(self):
        mesh = build_shifted_grid(0)
        dists = np.linalg.norm(mesh.nodes - np.array([0.0, 0.5]), axis=1)
        assert dists.min() < 1e-14

    def test_area_preserved(self):
        for level in (0, 1, 2):
            mesh = build_shifted_grid(level)
            assert mesh.areas().sum() == pytest.approx(1.0, abs=1e-13)

    def test_breaks_angle_condition_after_level0(self):
        # the diagonal flips produce edges whose opposite angles sum past
        # pi/2, breaking the M-matrix angle condition for the Laplacian
        assert max_opposite_angle_sum(build_shifted_grid(1)) > math.pi / 2.0
        assert max_opposite_angle_sum(build_shifted_grid(2)) > math.pi / 2.0

    def test_fk_is_delaunay(self, fk2):
        assert max_opposite_angle_sum(fk2) <= math.pi + 1e-12


class TestLoadMesh:
    def write(self, tmp_path, text):
        path = tmp_path / "mesh.msh"
        path.write_text(text)
        return path

    def test_single_triangle(self, tmp_path):
        mesh = load_mesh(self.write(tmp_path, "3 1\n0 0\n1 0\n0 1\n0 1 2\n"))
        assert mesh.n_nodes == 3
        assert mesh.n_triangles == 1
        assert mesh.areas().sum() == pytest.approx(0.5)
        assert mesh.h == pytest.approx(math.sqrt(2.0))

    def test_comments_ignored(self, tmp_path):
        mesh = load_mesh(
            self.write(tmp_path, "# header\n3 1\n0 0\n1 0  # a node\n0 1\n0 1 2\n")
        )
        assert mesh.n_nodes == 3

    def test_index_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "3 1\n0 0\n1 0\n0 1\n0 1 7\n")
        with pytest.raises(MeshError, match="out of range"):
            load_mesh(path)

    def test_clockwise_reoriented(self, tmp_path):
        mesh = load_mesh(self.write(tmp_path, "3 1\n0 0\n1 0\n0 1\n0 2 1\n"))
        assert signed_areas(mesh)[0] > 0

    def test_mixed_orientation_reoriented(self, tmp_path):
        # the unit square as two triangles, the first listed clockwise
        mesh = load_mesh(self.write(tmp_path, "4 2\n0 0\n1 0\n1 1\n0 1\n0 2 1\n0 2 3\n"))
        np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2], [0, 2, 3]])
        assert np.all(signed_areas(mesh) > 0.0)
        assert mesh.areas().sum() == 1.0
        assert np.all(signed_areas(refine_uniform(mesh)) > 0.0)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 1\n0 0\n1 x\n0 1\n0 1 2\n", r"mesh\.msh:3: could not convert string to float: 'x'"),
            ("3 1\n0 0\n1 0\n0 1\n", r"mesh\.msh: expected 5 data lines, got 4"),
            ("3 1\n0 0\n1 nan\n0 1\n0 1 2\n", r"mesh\.msh: non-finite node coordinate"),
        ],
        ids=["non-numeric", "data-line-count", "non-finite"],
    )
    def test_malformed_data_rejected(self, tmp_path, text, message):
        with pytest.raises(MeshError, match=message):
            load_mesh(self.write(tmp_path, text))

    def test_bad_field_count_reports_line(self, tmp_path):
        path = self.write(tmp_path, "3 1\n0 0\n1 0 9\n0 1\n0 1 2\n")
        with pytest.raises(MeshError, match=":3:"):
            load_mesh(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(MeshError, match="empty"):
            load_mesh(self.write(tmp_path, "# nothing\n"))

    def test_node_in_no_triangle(self, tmp_path):
        # node 4, on line 6, is in neither triangle
        path = self.write(tmp_path, "5 2\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n0 1 2\n0 2 3\n")
        with pytest.raises(MeshError, match=r"mesh\.msh:6: node 4 is in no triangle"):
            load_mesh(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            # triangle 0 1 2 twice, so edge 0-2 is in three triangles; the
            # repeat's first edge, 0-1, already ran the same way
            ("4 3\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n0 1 2\n", "8: edge 0-1"),
            # one triangle twice, its vertices rotated
            ("3 2\n0 0\n1 0\n0 1\n0 1 2\n1 2 0\n", "6: edge 1-2"),
            # two triangles on the same side of edge 0-1
            ("4 2\n0 0\n1 0\n0 1\n0.2 0.2\n0 1 2\n0 1 3\n", "7: edge 0-1"),
        ],
        ids=["three-triangles", "duplicate", "overlap"],
    )
    def test_edge_in_more_than_two_triangles(self, tmp_path, text, where):
        with pytest.raises(MeshError, match=rf"mesh\.msh:{where} is in more than two triangles"):
            load_mesh(self.write(tmp_path, text))

    def test_degenerate_triangle_reports_line(self, tmp_path):
        # the first triangle, on line 6, has three collinear nodes
        path = self.write(tmp_path, "4 2\n0 0\n1 0\n2 0\n0 1\n0 1 2\n0 2 3\n")
        with pytest.raises(MeshError, match=r"mesh\.msh:6: triangle 0 is degenerate \(zero area\)"):
            load_mesh(path)

    @pytest.mark.parametrize(
        "text", ["0 0\n", "3 0\n0 0\n1 0\n0 1\n"], ids=["no-nodes", "no-triangles"]
    )
    def test_header_without_triangles(self, tmp_path, text):
        with pytest.raises(MeshError, match=r"mesh\.msh:1: a mesh needs"):
            load_mesh(self.write(tmp_path, text))


class TestRefine:
    def test_reference_triangle(self, tmp_path):
        path = tmp_path / "ref.msh"
        path.write_text("3 1\n0 0\n1 0\n0 1\n0 1 2\n")
        fine = refine_uniform(load_mesh(path))
        assert fine.n_nodes == 6
        assert fine.n_triangles == 4
        assert fine.level == 1

    def test_matches_next_fk_level(self, fk0, fk1):
        # same triangulation up to node renumbering
        assert triangle_signature(refine_uniform(fk0)) == triangle_signature(fk1)

    def test_area_conserved_per_parent(self, fk1):
        fine = refine_uniform(fk1)
        parent = fk1.areas()
        child = fine.areas().reshape(-1, 4).sum(axis=1)
        np.testing.assert_allclose(child, parent, rtol=1e-13)

    def test_h_halved(self, fk1):
        assert refine_uniform(fk1).h == pytest.approx(fk1.h / 2.0)

    def test_boundary_children_on_boundary(self, fk1):
        fine = refine_uniform(fk1)
        b = fine.nodes[fine.boundary_mask]
        on = (np.abs(b) < 1e-12) | (np.abs(1.0 - b) < 1e-12)
        assert np.all(on.any(axis=1))


class TestEdges:
    def test_single_triangle(self, tmp_path):
        path = tmp_path / "ref.msh"
        path.write_text("3 1\n0 0\n1 0\n0 1\n0 1 2\n")
        assert edge_arrays(load_mesh(path))[0].size == 3

    def test_fk0_count(self, fk0):
        # Euler: V - E + F = 2 with the outer face -> E = 9 + 9 - 2 = 16
        assert edge_arrays(fk0)[0].size == 16


class TestBinSums:
    @pytest.mark.parametrize("index", ["edge_i", "edge_j", "edge_of_triangle", "triangles", "empty"])
    def test_bitwise_bincount(self, index):
        # both add in input order from 0.0: the same sums, signed zeros and
        # empty bins included, on the mesh's read-only index arrays
        mesh = build_shifted_grid(2)
        idx, n = {
            "edge_i": (mesh.edges.i, mesh.n_nodes),
            "edge_j": (mesh.edges.j, mesh.n_nodes),
            "edge_of_triangle": (mesh.edges.of_triangle.ravel(), mesh.edges.i.size),
            "triangles": (mesh.triangles.ravel(), mesh.n_nodes + 3),
            "empty": (np.empty(0, dtype=np.intp), 5),
        }[index]
        rng = np.random.default_rng(3)
        values = rng.standard_normal(idx.size) * 10.0 ** rng.integers(-8, 9, idx.size)
        values[::7] = -0.0
        assert bin_sums(idx, values, n).tobytes() == np.bincount(idx, values, n).tobytes()


def relabel(mesh, seed):
    """The same mesh with its nodes renumbered by a seeded permutation."""
    new_of_old = np.random.default_rng(seed).permutation(mesh.n_nodes)
    old_of_new = np.argsort(new_of_old)
    return TriMesh(
        mesh.nodes[old_of_new], new_of_old[mesh.triangles], mesh.boundary_mask[old_of_new],
        mesh.level, mesh.h,
    )


class TestNeighbours:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("grid, level", [("fk", 3), ("shifted", 3), ("unstructured", 1)])
    def test_columns_are_closed_neighbourhoods(self, grid, level, seed):
        pairs = relabel(build_grid(ExperimentConfig(grid=grid), level), seed).pairs
        closed = [{node} for node in range(pairs.n)]
        for a, b in zip(pairs.i.tolist(), pairs.j.tolist()):
            closed[a].add(b)
            closed[b].add(a)
        degree = np.bincount(np.concatenate((pairs.i, pairs.j)), minlength=pairs.n)
        table = pairs.neighbours
        assert pairs.neighbours is table
        assert table.shape == (degree.max() + 1, pairs.n)
        assert [set(column) for column in table.T.tolist()] == closed
        # every neighbour once, the rest of the column padded with the node
        np.testing.assert_array_equal((table != np.arange(pairs.n)).sum(axis=0), degree)
        with pytest.raises(ValueError):
            table[0, 0] = 0

    def test_one_pair(self):
        np.testing.assert_array_equal(PairGraph(2, [0], [1]).neighbours, [[1, 0], [0, 1]])

    def test_no_pairs(self):
        none = np.empty(0, dtype=np.intp)
        np.testing.assert_array_equal(PairGraph(4, none, none).neighbours, [np.arange(4)])


class TestIncident:
    @pytest.mark.parametrize("seed", [0, 3, 5])
    @pytest.mark.parametrize("grid, level", [("fk", 3), ("shifted", 3), ("unstructured", 1)])
    def test_columns_list_the_pairs_at_each_node(self, grid, level, seed):
        pairs = relabel(build_grid(ExperimentConfig(grid=grid), level), seed).pairs
        at = [set() for _ in range(pairs.n)]
        for p, (a, b) in enumerate(zip(pairs.i.tolist(), pairs.j.tolist())):
            at[a].add(p)
            at[b].add(p)
        degree = np.bincount(np.concatenate((pairs.i, pairs.j)), minlength=pairs.n)
        table = pairs.incident
        assert pairs.incident is table
        assert table.shape == (degree.max(), pairs.n)
        assert table.dtype == np.int32
        assert [set(column) - {-1} for column in table.T.tolist()] == at
        # every pair at the node once, the rest of the column -1
        np.testing.assert_array_equal((table >= 0).sum(axis=0), degree)
        assert np.all(table[np.arange(table.shape[0])[:, None] >= degree] == -1)
        # the pair in row r joins the node to its neighbour in row r
        rows, nodes = np.nonzero(table >= 0)
        ids, other = table[rows, nodes], pairs.neighbours[rows, nodes]
        np.testing.assert_array_equal(np.minimum(nodes, other), pairs.i[ids])
        np.testing.assert_array_equal(np.maximum(nodes, other), pairs.j[ids])
        with pytest.raises(ValueError):
            table[0, 0] = 0

    def test_one_pair(self):
        np.testing.assert_array_equal(PairGraph(2, [0], [1]).incident, [[0, 0]])

    def test_no_pairs(self):
        none = np.empty(0, dtype=np.intp)
        assert PairGraph(4, none, none).incident.shape == (0, 4)

    @pytest.mark.parametrize(
        "scheme",
        [SchemeKind("galerkin"), SchemeKind("linear_fct"), SchemeKind("nonlinear_fct"),
         SchemeKind("linear_fct", ConstantLimiter(0.5))],
        ids=["galerkin", "linear_fct", "nonlinear_fct", "constant"],
    )
    def test_built_on_first_use_not_in_set_up(self, scheme):
        # per-mesh tables are built by the first limiter call, not by the
        # stepper's set-up
        mesh = build_friedrichs_keller(2)
        spec, _ = space_study_problem(tau=1e-3, t_end=1e-2)
        stepper = TimeStepper(mesh, spec, scheme)
        assert "_by_node" not in mesh.pairs.__dict__
        stepper.run(1)
        assert ("_by_node" in mesh.pairs.__dict__) == (scheme.kind != "galerkin")
