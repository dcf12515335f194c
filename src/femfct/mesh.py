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
from scipy import sparse

BOUNDARY_TOL = 1e-12


class MeshError(ValueError):
    """Raised for malformed mesh files or invalid mesh data."""


@dataclass(frozen=True)
class Geometry:
    """Per-triangle data shared by assembly and the error norms.

    areas : (m,) element areas
    grads : (m, 3, 2) constant gradients of the three P1 basis functions
    """

    areas: np.ndarray
    grads: np.ndarray


@dataclass(frozen=True)
class Edges:
    """The edges of a mesh, numbered once; every array is read-only.

    i, j : (E,) endpoints, i < j, in lexicographic order (the order of the
        node pairs of the mass matrix's pattern)
    x, y : (E,) edge midpoints, the points of the 3-point quadrature rule
    of_triangle : (m, 3) id of edge q = (local vertex q, local vertex q+1)
        of each triangle
    """

    i: np.ndarray
    j: np.ndarray
    x: np.ndarray
    y: np.ndarray
    of_triangle: np.ndarray


@dataclass(frozen=True)
class PairGraph:
    """The edges i < j of a mesh as the node pairs of the fluxes, (npairs,)
    arrays in this order; a LimiterMatrix lists pairs by their ids here."""

    n: int
    i: np.ndarray
    j: np.ndarray

    @property
    def neighbours(self) -> np.ndarray:
        """(k, n) closed neighbourhoods, built on first use; read-only.
        Column i lists the neighbours of node i on the pairs, padded with
        i itself up to k = the largest degree + 1 rows."""
        return self._by_node[0]

    @property
    def incident(self) -> np.ndarray:
        """(k, n) int32 pair ids at each node, built on first use; read-only.
        Column i lists the pairs with an end at node i, padded with -1 up to
        k = the largest degree rows; the pair in row r joins i to
        ``neighbours[r, i]``."""
        return self._by_node[1]

    @cached_property
    def _by_node(self):
        # both tables from one stable sort of the pair ends by node
        src = np.concatenate((self.i, self.j))
        order = np.argsort(src, kind="stable")
        degree = np.bincount(src, minlength=self.n)
        src = src[order]
        rank = np.arange(src.size) - (np.cumsum(degree) - degree)[src]
        k = degree.max(initial=0)
        near = np.tile(np.arange(self.n), (k + 1, 1))
        near[rank, src] = np.concatenate((self.j, self.i))[order]
        incident = np.full((k, self.n), -1, dtype=np.int32)
        incident[rank, src] = np.tile(np.arange(len(self.i)), 2)[order]
        return _read_only(near), _read_only(incident)


@dataclass(frozen=True)
class Pattern:
    """The sparsity pattern of a mesh's P1 matrices (the diagonal and both
    entries of every edge) with sorted column indices; read-only arrays.

    indptr, indices : int32 CSR structure, shared by every matrix on it
    diag : (n,) position of entry (i, i) in a matrix's data array
    upper, lower : (E,) positions of (i, j) and of (j, i) for edge (i, j)
    """

    indptr: np.ndarray
    indices: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    def matrix(self, data: np.ndarray) -> sparse.csr_matrix:
        """The CSR matrix with ``data`` on this pattern's structure arrays."""
        n = self.diag.size
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=(n, n))


@dataclass(frozen=True)
class TriMesh:
    """Immutable triangular mesh of the unit square.

    nodes : (n, 2) array of coordinates
    triangles : (m, 3) int array, counterclockwise orientation: the builders
        and refine_uniform make them so, and load_mesh reorients the
        triangles it reads; TriMesh(...) itself checks and reorients nothing
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

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        """Indices of the boundary nodes, computed on first use; read-only."""
        return _read_only(np.flatnonzero(self.boundary_mask))

    @cached_property
    def geometry(self) -> Geometry:
        """Element geometry, computed on first use; its arrays are read-only."""
        # each vertex's x and y as (3, m) rows, gathered from the coordinate columns
        t = self.triangles.T
        x, y = self.nodes[:, 0][t], self.nodes[:, 1][t]
        area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))
        # grad phi_a = (y_{a+1} - y_{a+2}, x_{a+2} - x_{a+1}) / 2|T|, formed
        # as (2, 3, m) rows and copied to (m, 3, 2)
        g = np.empty((2, 3, t.shape[1]))
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            np.subtract(y[b], y[c], out=g[0, a])
            np.subtract(x[c], x[b], out=g[1, a])
        g /= 2.0 * area
        grads = g.transpose(2, 1, 0).copy()
        for a in (area, grads):
            a.setflags(write=False)
        return Geometry(area, grads)

    @cached_property
    def edges(self) -> Edges:
        """Edge numbering, computed on first use; its arrays are read-only."""
        t = self.triangles
        a, b = t.ravel(), t[:, [1, 2, 0]].ravel()  # edge q = (vertex q, vertex q+1)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        # one stable sort of the 3m keys groups the copies of each edge
        key = lo * self.n_nodes + hi
        order = np.argsort(key, kind="stable")
        key = key[order]
        start = np.concatenate(([True], key[1:] != key[:-1]))
        # the edge ids, summed as int64 (a cumsum of the bools casts each one)
        ids = start.astype(np.int64)
        np.cumsum(ids, out=ids)
        ids -= 1
        of_triangle = np.empty(key.size, dtype=np.int64)
        of_triangle[order] = ids
        first = order.compress(start)
        i, j = lo[first], hi[first]
        xs, ys = self.nodes.T.copy()  # the coordinate columns
        x, y = 0.5 * (xs[i] + xs[j]), 0.5 * (ys[i] + ys[j])
        of_triangle = of_triangle.reshape(t.shape)
        for arr in (i, j, x, y, of_triangle):
            arr.setflags(write=False)
        return Edges(i, j, x, y, of_triangle)

    def edge_sum(self, values) -> np.ndarray:
        """(E,) sums of |T| values over each edge's triangles T, from (m, 3)
        values, values[m, q] on edge q of triangle m; summed in triangle order."""
        edges, weighted = self.edges, self.geometry.areas[:, None] * values
        return _read_only(bin_sums(edges.of_triangle.ravel(), weighted.ravel(), edges.i.size))

    @cached_property
    def edge_mass(self) -> np.ndarray:
        """(E,) m_ij = sum_T |T| / 12 over the triangles T of edge ij, M's pair entries."""
        return self.edge_sum(np.full((self.n_triangles, 3), 1.0 / 12.0))

    @cached_property
    def edge_laplacian(self) -> np.ndarray:
        """(E,) k_ij = sum_T |T| grad phi_i . grad phi_j, the Laplacian's pair entries."""
        g = self.geometry.grads
        # edge q of a triangle joins its vertices q and q+1
        return self.edge_sum(np.einsum("mqd,mqd->mq", g, np.roll(g, -1, axis=1)))

    @cached_property
    def upper_first(self) -> np.ndarray:
        """(m, 3) t_q < t_{q+1} (q + 1 taken mod 3): whether the entry
        (t_q, t_{q+1}) of each triangle's edge q is its edge's upper one;
        computed on first use; read-only."""
        tri = self.triangles
        return _read_only(tri < tri[:, [1, 2, 0]])

    @cached_property
    def pairs(self) -> PairGraph:
        """The edges as the pair graph of the FCT kernels."""
        return PairGraph(self.n_nodes, self.edges.i, self.edges.j)

    @cached_property
    def pattern(self) -> Pattern:
        """Sparsity pattern of the P1 matrices, built from the edges on
        first use; its arrays are read-only."""
        n, i, j = self.n_nodes, self.edges.i, self.edges.j
        n_upper, n_lower = np.bincount(i, minlength=n), np.bincount(j, minlength=n)
        # row r: its lower entries (r, i < r), the diagonal, then its upper
        # entries (r, j > r)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(n_lower + 1 + n_upper, out=indptr[1:])
        diag = indptr[:-1] + n_lower
        # the edges are sorted by (i, j), so row i's upper entries are its
        # edges in order; the transpose of their CSR (a counting sort by
        # column, stable in row order) lists row j's lower entries in order
        rank = np.arange(i.size)
        first_upper = np.cumsum(n_upper) - n_upper
        upper = diag[i] + 1 + rank - first_upper[i]
        upper_t = sparse.csr_matrix((rank, j, np.append(first_upper, i.size)), shape=(n, n)).tocsc()
        by_j = upper_t.data
        lower = np.empty_like(upper)
        lower[by_j] = indptr[j[by_j]] + rank - upper_t.indptr[j[by_j]]
        indices = np.empty(indptr[-1], dtype=np.int32)
        indices[diag], indices[upper], indices[lower] = np.arange(n), j, i
        for arr in (indptr, indices, diag, upper, lower):
            arr.setflags(write=False)
        return Pattern(indptr, indices, diag, upper, lower)

    def areas(self) -> np.ndarray:
        return self.geometry.areas


def bin_sums(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n,) sums of ``values`` per entry of ``index``: np.bincount(index,
    values, n) bitwise (both add in input order from 0.0), without its copy
    of a read-only index such as the mesh's."""
    out = np.zeros(n)
    np.add.at(out, index, values)
    return out


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _boundary_mask(nodes: np.ndarray) -> np.ndarray:
    x, y = nodes[:, 0], nodes[:, 1]
    return (
        (np.abs(x) < BOUNDARY_TOL)
        | (np.abs(1.0 - x) < BOUNDARY_TOL)
        | (np.abs(y) < BOUNDARY_TOL)
        | (np.abs(1.0 - y) < BOUNDARY_TOL)
    )


def _make_mesh(nodes, triangles, level, h) -> TriMesh:
    nodes = np.ascontiguousarray(nodes, dtype=float)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    return TriMesh(nodes, triangles, _boundary_mask(nodes), level, h)


def _lattice(level: int, flip_even_rows: bool):
    """Nodes, triangles and spacing of the lattice of 2**(level+1) cells per
    side, two triangles per cell, cells numbered row by row from the
    bottom.  Every cell's diagonal runs from lower left to upper right,
    except in the even cell rows when ``flip_even_rows`` is set."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    n = 2 ** (level + 1)
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    lattice = np.arange(n)
    v00 = lattice[:, None] * (n + 1) + lattice  # (row, col): the cell's lower left node
    # per cell row, the corners' offsets from v00: v10 = 1, v01 = n + 1, v11 = n + 2
    corners = np.tile([0, 1, n + 2, 0, n + 2, n + 1], (n, 1))
    if flip_even_rows:
        corners[::2] = [0, 1, n + 1, 1, n + 2, n + 1]
    tris = v00[:, :, None] + corners[:, None]
    return nodes, tris.reshape(-1, 3), 1.0 / n


def build_friedrichs_keller(level: int) -> TriMesh:
    """Structured grid of the unit square with uniform diagonal direction.

    Level 0 is the 3x3 lattice (9 nodes, 8 triangles); each level halves
    the lattice spacing 2**-(level+1).
    """
    nodes, tris, spacing = _lattice(level, flip_even_rows=False)
    return _make_mesh(nodes, tris, level, spacing)


def build_shifted_grid(level: int) -> TriMesh:
    """Friedrichs-Keller lattice with flipped diagonals in even cell rows
    (counted from the bottom) and interior nodes shifted right by a tenth
    of the mesh width."""
    nodes, tris, spacing = _lattice(level, flip_even_rows=True)
    nodes[~_boundary_mask(nodes), 0] += spacing / 10.0
    return _make_mesh(nodes, tris, level, spacing)


def load_mesh(path) -> TriMesh:
    """Read a mesh from a plain-text file.

    Format: first non-comment line ``N_nodes N_triangles``, then the node
    coordinates ``x y`` and the 0-based triangle indices ``i j k``.  Lines
    starting with ``#`` are comments.  Clockwise triangles are reoriented
    (vertices 1 and 2 swapped) with the signed areas of the zero-area check.
    Every node must be in a triangle, and every edge in one triangle or in
    two on either side of it.
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
    if n_nodes < 3 or n_tris < 1:
        raise MeshError(
            f"{path}:{rows[0][0]}: a mesh needs 3 nodes and 1 triangle, "
            f"the header gives {n_nodes} and {n_tris}"
        )
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
    unused = np.flatnonzero(np.bincount(tris.ravel(), minlength=n_nodes) == 0)
    if unused.size:
        raise MeshError(f"{path}:{rows[1 + unused[0]][0]}: node {unused[0]} is in no triangle")
    p = nodes[tris]
    v1, v2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area2 = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
    flat = np.flatnonzero(area2 == 0.0)
    if flat.size:
        k = int(flat[0])
        raise MeshError(f"{path}:{rows[1 + n_nodes + k][0]}: triangle {k} is degenerate (zero area)")
    diam = float(np.max(np.linalg.norm(p - np.roll(p, -1, axis=1), axis=2)))
    # the only reorientation: the builders make counterclockwise triangles
    cw = area2 < 0.0
    tris[cw] = tris[cw][:, [0, 2, 1]]
    # counterclockwise triangles that neither overlap nor share an edge
    # three ways run through each edge at most once in each direction
    a, b = tris.ravel(), np.roll(tris, -1, axis=1).ravel()
    repeated = np.ones(a.size, dtype=bool)
    repeated[np.unique(a * n_nodes + b, return_index=True)[1]] = False
    if repeated.any():
        k = int(np.argmax(repeated))
        raise MeshError(
            f"{path}:{rows[1 + n_nodes + k // 3][0]}: edge {a[k]}-{b[k]} is in more than "
            "two triangles, or in two on the same side of it"
        )
    return _make_mesh(nodes, tris, 0, diam)


def refine_uniform(mesh: TriMesh) -> TriMesh:
    """Red refinement: split every triangle into 4 via edge midpoints.

    The midpoint of edge e is the new node n + e."""
    edges = mesh.edges
    nodes = np.concatenate([mesh.nodes, np.column_stack([edges.x, edges.y])])
    # e0 = edge (i, j), e1 = edge (j, k), e2 = edge (k, i) of triangle (i, j, k)
    i, j, k = mesh.triangles.T
    e0, e1, e2 = (mesh.n_nodes + edges.of_triangle).T
    tris = np.stack([i, e0, e2, j, e1, e0, k, e2, e1, e0, e1, e2], axis=1)
    return _make_mesh(nodes, tris.reshape(-1, 3), mesh.level + 1, mesh.h / 2.0)


def edge_arrays(mesh: TriMesh):
    """Endpoint arrays (i, j) of the mesh's edges, i < j, in lexicographic
    order."""
    return mesh.edges.i, mesh.edges.j

