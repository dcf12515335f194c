"""Triangulations of the unit square and their connectivity.

Three grid families are supported: the structured Friedrichs-Keller grid,
an unstructured grid loaded from a plain-text file, and a shifted grid in
which the diagonal direction alternates between cell rows and the interior
nodes are moved to the right by a tenth of the horizontal mesh width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

BOUNDARY_TOL = 1e-12


class MeshError(ValueError):
    """Raised for malformed mesh files or invalid mesh data."""


@dataclass(frozen=True)
class Edge:
    """Undirected edge with endpoints i < j, length and unit tangent."""

    i: int
    j: int
    h_e: float
    tangent: tuple[float, float]


@dataclass(frozen=True)
class Geometry:
    """Per-triangle data shared by assembly and the error norms.

    areas : (m,) element areas
    grads : (m, 3, 2) constant gradients of the three P1 basis functions
    midpoints : (m, 3, 2) midpoints of the edges (0,1), (1,2), (2,0), the
        points of the 3-point quadrature rule
    """

    areas: np.ndarray
    grads: np.ndarray
    midpoints: np.ndarray


@dataclass(frozen=True)
class TriMesh:
    """Immutable triangular mesh of the unit square.

    nodes : (n, 2) array of coordinates
    triangles : (m, 3) int array, counterclockwise orientation
    boundary_mask : (n,) bool array, True for nodes on the boundary
    level : refinement level
    h : characteristic mesh width (for the structured families this is the
        lattice spacing 2**-(level+1); for loaded meshes the largest
        element diameter)
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_mask: np.ndarray
    level: int
    h: float

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def boundary_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_mask)

    @cached_property
    def geometry(self) -> Geometry:
        """Element geometry, computed on first use; its arrays are read-only."""
        p = self.nodes[self.triangles]  # (m, 3, 2)
        v1 = p[:, 1] - p[:, 0]
        v2 = p[:, 2] - p[:, 0]
        area = 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
        grads = np.empty((p.shape[0], 3, 2))
        for a in range(3):
            j, k = (a + 1) % 3, (a + 2) % 3
            grads[:, a, 0] = p[:, j, 1] - p[:, k, 1]
            grads[:, a, 1] = p[:, k, 0] - p[:, j, 0]
        grads /= (2.0 * area)[:, None, None]
        midpoints = 0.5 * (p + np.roll(p, -1, axis=1))
        for a in (area, grads, midpoints):
            a.setflags(write=False)
        return Geometry(area, grads, midpoints)

    def areas(self) -> np.ndarray:
        return self.geometry.areas


def _boundary_mask(nodes: np.ndarray) -> np.ndarray:
    x, y = nodes[:, 0], nodes[:, 1]
    return (
        (np.abs(x) < BOUNDARY_TOL)
        | (np.abs(1.0 - x) < BOUNDARY_TOL)
        | (np.abs(y) < BOUNDARY_TOL)
        | (np.abs(1.0 - y) < BOUNDARY_TOL)
    )


def _orient_ccw(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Flip triangles with negative signed area; reject degenerate ones."""
    p = nodes[triangles]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    area2 = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
    if np.any(area2 == 0.0):
        bad = int(np.flatnonzero(area2 == 0.0)[0])
        raise MeshError(f"triangle {bad} is degenerate (zero area)")
    triangles = triangles.copy()
    flip = area2 < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return triangles


def _make_mesh(nodes, triangles, level, h) -> TriMesh:
    nodes = np.ascontiguousarray(nodes, dtype=float)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    if triangles.min() < 0 or triangles.max() >= nodes.shape[0]:
        raise MeshError("triangle node index out of range")
    triangles = _orient_ccw(nodes, triangles)
    return TriMesh(nodes, triangles, _boundary_mask(nodes), level, h)


def build_friedrichs_keller(level: int) -> TriMesh:
    """Structured grid of the unit square with uniform diagonal direction.

    Level 0 is the 3x3 lattice (9 nodes, 8 triangles); each level halves
    the lattice spacing 2**-(level+1).
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    n = 2 ** (level + 1)
    spacing = 1.0 / n
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    def idx(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            # diagonal from lower-left to upper-right in every cell
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return _make_mesh(nodes, np.array(tris), level, spacing)


def build_shifted_grid(level: int) -> TriMesh:
    """Friedrichs-Keller lattice with flipped diagonals in even cell rows
    and interior nodes shifted right by a tenth of the mesh width."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    n = 2 ** (level + 1)
    spacing = 1.0 / n
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    def idx(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            if j % 2 == 0:
                # even cell rows (counted from the bottom): flipped diagonal
                tris.append((v00, v10, v01))
                tris.append((v10, v11, v01))
            else:
                tris.append((v00, v10, v11))
                tris.append((v00, v11, v01))
    interior = ~_boundary_mask(nodes)
    nodes[interior, 0] += spacing / 10.0
    return _make_mesh(nodes, np.array(tris), level, spacing)


def load_mesh(path) -> TriMesh:
    """Read a mesh from a plain-text file.

    Format: first non-comment line ``N_nodes N_triangles``, then the node
    coordinates ``x y`` and the 0-based triangle indices ``i j k``.  Lines
    starting with ``#`` are comments.  Clockwise triangles are reoriented.
    """
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                rows.append((lineno, text))
    if not rows:
        raise MeshError(f"{path}: empty mesh file")

    def parse(row, count, conv, what):
        lineno, text = row
        parts = text.split()
        if len(parts) != count:
            raise MeshError(f"{path}:{lineno}: expected {count} {what} fields")
        try:
            return [conv(p) for p in parts]
        except ValueError as exc:
            raise MeshError(f"{path}:{lineno}: {exc}") from exc

    n_nodes, n_tris = parse(rows[0], 2, int, "header")
    if len(rows) != 1 + n_nodes + n_tris:
        raise MeshError(
            f"{path}: expected {1 + n_nodes + n_tris} data lines, got {len(rows)}"
        )
    nodes = np.array([parse(r, 2, float, "coordinate") for r in rows[1 : 1 + n_nodes]])
    tris = np.array([parse(r, 3, int, "index") for r in rows[1 + n_nodes :]])
    if not np.all(np.isfinite(nodes)):
        raise MeshError(f"{path}: non-finite node coordinate")
    if tris.size and (tris.min() < 0 or tris.max() >= n_nodes):
        lineno = rows[1 + n_nodes + int(np.argmax(np.any((tris < 0) | (tris >= n_nodes), axis=1)))][0]
        raise MeshError(f"{path}:{lineno}: triangle node index out of range")
    p = nodes[tris]
    diam = 0.0
    for a, b in ((0, 1), (1, 2), (2, 0)):
        diam = max(diam, float(np.max(np.linalg.norm(p[:, a] - p[:, b], axis=1))))
    return _make_mesh(nodes, tris, 0, diam)


def refine_uniform(mesh: TriMesh) -> TriMesh:
    """Red refinement: split every triangle into 4 via edge midpoints."""
    nodes = [tuple(p) for p in mesh.nodes]
    midpoint = {}

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            midpoint[key] = len(nodes)
            pa, pb = mesh.nodes[a], mesh.nodes[b]
            nodes.append(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0))
        return midpoint[key]

    tris = []
    for i, j, k in mesh.triangles:
        mij, mjk, mik = mid(i, j), mid(j, k), mid(i, k)
        tris.extend([(i, mij, mik), (j, mjk, mij), (k, mik, mjk), (mij, mjk, mik)])
    return _make_mesh(np.array(nodes), np.array(tris), mesh.level + 1, mesh.h / 2.0)


def edges(mesh: TriMesh) -> list[Edge]:
    """All undirected edges of the triangulation, each exactly once."""
    i, j, pairs = edge_arrays(mesh)
    d = mesh.nodes[j] - mesh.nodes[i]
    lengths = np.hypot(d[:, 0], d[:, 1])
    t = d / lengths[:, None]
    return [
        Edge(int(a), int(b), float(le), (float(tx), float(ty)))
        for a, b, le, tx, ty in zip(i, j, lengths, t[:, 0], t[:, 1])
    ]


def edge_arrays(mesh: TriMesh):
    """Unique edge endpoint arrays (i < j) plus the raw sorted pair list."""
    t = mesh.triangles
    pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [0, 2]]])
    pairs = np.sort(pairs, axis=1)
    unique = np.unique(pairs, axis=0)
    return unique[:, 0], unique[:, 1], pairs


def max_opposite_angle_sum(mesh: TriMesh) -> float:
    """Largest sum of the two angles opposite to an interior edge.

    A triangulation is Delaunay iff this never exceeds pi; values above
    pi/2 already break the angle condition for an M-matrix Laplacian.
    """
    opposite: dict[tuple[int, int], list[float]] = {}
    for tri in mesh.triangles:
        for a in range(3):
            i, j, k = tri[a], tri[(a + 1) % 3], tri[(a + 2) % 3]
            key = (int(i), int(j)) if i < j else (int(j), int(i))
            vi = mesh.nodes[i] - mesh.nodes[k]
            vj = mesh.nodes[j] - mesh.nodes[k]
            cosang = np.dot(vi, vj) / (np.linalg.norm(vi) * np.linalg.norm(vj))
            opposite.setdefault(key, []).append(float(np.arccos(np.clip(cosang, -1, 1))))
    sums = [sum(v) for v in opposite.values() if len(v) == 2]
    return max(sums) if sums else 0.0
