import math

import numpy as np
import pytest

from femfct import (
    MeshError,
    build_friedrichs_keller,
    build_shifted_grid,
    edge_arrays,
    load_mesh,
    max_opposite_angle_sum,
    refine_uniform,
)


def triangle_signature(mesh):
    """Connectivity signature invariant under node renumbering: the
    multiset of triangles with nodes replaced by their coordinates."""
    coords = np.round(mesh.nodes, 12)
    tris = [tuple(sorted(map(tuple, coords[t]))) for t in mesh.triangles]
    return sorted(tris)


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

    def test_all_triangles_ccw(self, fk1):
        p = fk1.nodes[fk1.triangles]
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        assert np.all(cross > 0)

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
        p = mesh.nodes[mesh.triangles[0]]
        e1, e2 = p[1] - p[0], p[2] - p[0]
        assert e1[0] * e2[1] - e1[1] * e2[0] > 0

    def test_bad_field_count_reports_line(self, tmp_path):
        path = self.write(tmp_path, "3 1\n0 0\n1 0 9\n0 1\n0 1 2\n")
        with pytest.raises(MeshError, match=":3:"):
            load_mesh(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(MeshError, match="empty"):
            load_mesh(self.write(tmp_path, "# nothing\n"))

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
