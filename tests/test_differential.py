"""Differential tests: the shared per-mesh geometry, edge numbering,
sparsity pattern and pair graph, and the Zalesak bounds computed once per
step, against the per-call reconstructions they replaced.

The references below are the former implementations, written inline:
element geometry recomputed from the node coordinates, COO assembly
(scipy's COO->CSR conversion for the matrices, ``np.add.at`` for the
load), coefficients and load evaluated at each triangle's own edge
midpoints (three points per triangle) and summed with ``einsum``, the
mass, Laplacian, reaction and load from those element matrices and
vectors, which the per-edge m_ij and k_ij of the edge form replace, the
edge list read with ``np.unique``, the pair list read with
``sparse.triu`` plus ``lexsort``, the artificial diffusion built through
a transpose and ``setdiag``, the red refinement numbering its midpoints
through a dict, the M-matrix check reading the entries through COO, the
Delaunay angle sums collected per edge in a dict, the lattice grids
built cell by cell, the Zalesak limiter recomputing its bounds from
``ubar`` on every call, the bounds scattered over the pairs by four
``ufunc.at`` calls, which one gather through the pair graph's neighbour
table replaces, COLAMD's column order for the upwinded systems
that now factor in downwind order, SuperLU's default panel size for the
triangular LU, the L2 and H1 error norms as whole-mesh einsums of the
exact solution's callbacks, which the interpolation split's per-mesh
constants replace, the manufactured problem's closed forms, the three
system matrices of Galerkin, low order and the constant-limiter
nonlinear scheme, which the one fixed-limiter system S_v replaces, the
Zalesak limiter computing alpha on every pair, prelimiting that gathers
ubar_i - ubar_j on every call, the manufactured source evaluating its
closed form on every call, ``apply_dirichlet`` scanning every row of
every system it constrains, the convection's (m, 3, 3) element matrices
scattered through per-element positions in the pattern, which its
per-edge and per-node sums replace, the convection's entries summed over
the two quadrature points of each vertex, s[q, j] + s[q-1, j], which the
velocity summed over those points first, B_q = b_q + b_{q-1}, replaces,
the nonlinear FCT step's plain fixed-point iteration from u^{n-1},
which Anderson acceleration from an extrapolated start replaces, the
Zalesak limiter selecting its pairs by ``limits[i] | limits[j]`` over
every pair, which the limiting nodes' columns of the pair table replace,
the flux kernels making a fresh array per operation, the d_h
seminorm summed over every pair instead of the pairs with alpha != 1, and
the Zalesak limiter storing alpha on every pair, with the correction and
the d_h seminorm read from it, which a limiter listing only the pairs it
evaluates replaces, and the correction summed over every pair, which the
limiter's unlimited sums patched on the listed pairs replace (checked
against the formula sum_j alpha_ij f_ij to a rounding bound), a fixed
limiter listing every pair, which one listing no pair and holding its
value for all of them replaces, and Abar
and the constrained system from scipy's sums, ``apply_dirichlet`` and a
CSC conversion and column slice on every variable-coefficient step, which
a gather from the mesh pattern into the LU order's arrays replaces while
the exact zeros of a + d stay.  Every
mesh is also tried with its nodes randomly relabelled, which leaves the
CSR column order unsorted before assembly.  The element geometry from the
(m, 3, 2) gather of the node rows and the edge midpoints from the rows of
the (n, 2) node array, which gathers from the coordinate columns replace,
must give the same bytes, sign bits included, on every lattice level to 6
and the packaged mesh refined up to 4 times.
"""

import collections
import functools
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu, spsolve

import femfct.problems
import femfct.solver
import femfct.stepper

from femfct import (
    ConstantLimiter,
    ExactSolution,
    Factorization,
    LimiterMatrix,
    ProblemSpec,
    SchemeKind,
    TimeLevel,
    TimeStepper,
    TriMesh,
    apply_dirichlet,
    artificial_diffusion,
    assemble_laplacian,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_friedrichs_keller,
    build_shifted_grid,
    correction_vector,
    dh_seminorm,
    edge_arrays,
    linear_fluxes,
    lump,
    m_matrix_check,
    max_opposite_angle_sum,
    prelimit,
    raw_fluxes,
    refine_uniform,
    space_study_problem,
    time_study_problem,
    zalesak,
    zalesak_bounds,
)
from femfct.cli import ExperimentConfig, build_grid, run_single
from femfct.errors import QUAD4_BARY, QUAD4_W, ErrorWorkspace
from femfct.mesh import _make_mesh, bin_sums

QUAD2_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
QUAD2_W = np.array([1.0, 1.0, 1.0]) / 3.0


def relabel(mesh, seed):
    """The same mesh with its nodes renumbered by a seeded permutation."""
    if seed == 0:
        return mesh
    new_of_old = np.random.default_rng(seed).permutation(mesh.n_nodes)
    old_of_new = np.argsort(new_of_old)
    return TriMesh(
        np.ascontiguousarray(mesh.nodes[old_of_new]),
        np.ascontiguousarray(new_of_old[mesh.triangles]),
        mesh.boundary_mask[old_of_new],
        mesh.level,
        mesh.h,
    )


@pytest.fixture(
    scope="module",
    params=[("fk", 3, 0), ("fk", 3, 5), ("shifted", 3, 0), ("shifted", 3, 5),
            ("unstructured", 1, 0), ("unstructured", 1, 5)],
    ids=lambda p: f"{p[0]}{p[1]}-seed{p[2]}",
)
def mesh(request):
    grid, level, seed = request.param
    return relabel(build_grid(ExperimentConfig(grid=grid), level), seed)


@pytest.fixture
def spec():
    """Variable coefficients, so every quadrature point matters."""
    return ProblemSpec(
        eps=1e-3,
        b=lambda t, x, y: (2.0 + np.sin(x + t), 3.0 * y * y),
        c=lambda t, x, y: 1.0 + x * y,
        f=lambda t, x, y: np.exp(x - y) * (1.0 + t),
        u0=lambda x, y: x * y,
        c0=1.0,
        t_end=1.0,
        tau=1e-3,
        constant_coefficients=False,
    )


def old_geometry(mesh):
    p = mesh.nodes[mesh.triangles]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    area = 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
    grads = np.empty((p.shape[0], 3, 2))
    for a in range(3):
        j, k = (a + 1) % 3, (a + 2) % 3
        grads[:, a, 0] = p[:, j, 1] - p[:, k, 1]
        grads[:, a, 1] = p[:, k, 0] - p[:, j, 0]
    grads /= (2.0 * area)[:, None, None]
    return area, grads, np.einsum("qa,mad->mqd", QUAD2_BARY, p)


def old_to_csr(mesh, local):
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.n_nodes
    return sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def old_sorted_csr(mesh, local):
    mat = old_to_csr(mesh, local)
    mat.sort_indices()
    return mat


def old_artificial_diffusion(a_mat):
    a = a_mat.tocsr()
    a.sort_indices()
    at = a.T.tocsr()
    at.sort_indices()
    if np.array_equal(a.indptr, at.indptr) and np.array_equal(a.indices, at.indices):
        data = -np.maximum(np.maximum(a.data, at.data), 0.0)
        d = sparse.csr_matrix((data, a.indices.copy(), a.indptr.copy()), shape=a.shape)
    else:
        d = -a.maximum(at).maximum(sparse.csr_matrix(a.shape)).tocsr()
    d.setdiag(0.0)
    d.setdiag(-np.asarray(d.sum(axis=1)).ravel())
    return d


def old_max_opposite_angle_sum(mesh):
    opposite = {}
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


def old_upper_pairs(mat):
    up = sparse.triu(mat, k=1).tocoo()
    order = np.lexsort((up.col, up.row))
    return up.row[order], up.col[order], up.data[order]


def assert_close(new, ref, rtol=1e-15):
    new = new.toarray() if sparse.issparse(new) else new
    ref = ref.toarray() if sparse.issparse(ref) else ref
    assert np.abs(new - ref).max() <= rtol * np.abs(ref).max()


def old_midpoints(mesh):
    """(m, 3, 2) midpoints of each triangle's edges (0,1), (1,2), (2,0)."""
    p = mesh.nodes[mesh.triangles]
    return 0.5 * (p + np.roll(p, -1, axis=1))


def old_local_stiffness(mesh, spec, t):
    """(m, 3, 3) element stiffness matrices, the coefficients evaluated at
    each triangle's own edge midpoints."""
    area, grads, _ = old_geometry(mesh)
    pts = old_midpoints(mesh)
    x, y = pts[..., 0], pts[..., 1]
    bx, by = spec.b(t, x, y)
    local = spec.eps * np.einsum("mid,mjd->mij", grads, grads) * area[:, None, None]
    bgrad = bx[..., None] * grads[:, None, :, 0] + by[..., None] * grads[:, None, :, 1]
    local += area[:, None, None] * np.einsum("q,qi,mqj->mij", QUAD2_W, QUAD2_BARY, bgrad)
    local += area[:, None, None] * np.einsum(
        "q,mq,qi,qj->mij", QUAD2_W, spec.c(t, x, y), QUAD2_BARY, QUAD2_BARY
    )
    return local


def old_mass(mesh):
    area = old_geometry(mesh)[0]
    return old_sorted_csr(mesh, area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0))


def old_laplacian(mesh):
    """The Laplacian from the element matrices |T| grad phi_i . grad phi_j
    of the einsum Gram array."""
    area, grads, _ = old_geometry(mesh)
    return old_sorted_csr(mesh, area[:, None, None] * np.einsum("mid,mjd->mij", grads, grads))


def test_geometry_matches_recomputation(mesh):
    area, grads, _ = old_geometry(mesh)
    geo, edges = mesh.geometry, mesh.edges
    np.testing.assert_array_equal(geo.areas, area)
    np.testing.assert_array_equal(geo.grads, grads)
    pts = old_midpoints(mesh)
    np.testing.assert_array_equal(edges.x[edges.of_triangle], pts[..., 0])
    np.testing.assert_array_equal(edges.y[edges.of_triangle], pts[..., 1])
    # the per-edge m_ij and k_ij: the assembled mass's own pair entries,
    # and the element-matrix mass's and Laplacian's to rounding
    upper = mesh.pattern.upper
    m_ij, k_ij = mesh.edge_mass, mesh.edge_laplacian
    assert m_ij.tobytes() == assemble_mass(mesh).data[upper].tobytes()
    assert_close(m_ij, old_upper_pairs(old_mass(mesh))[2])
    assert_close(k_ij, old_upper_pairs(old_laplacian(mesh))[2])
    for arr in (m_ij, k_ij):
        assert not arr.flags.writeable and arr.shape == edges.i.shape
    assert mesh.edge_mass is m_ij and mesh.edge_laplacian is k_ij


def test_edges_match_unique_and_pair_graph(mesh):
    edges, t = mesh.edges, mesh.triangles
    pairs = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [0, 2]]]), axis=1)
    unique = np.unique(pairs, axis=0)
    mass_i, mass_j, _ = old_upper_pairs(assemble_mass(mesh))
    for ref in (unique[:, 0], edge_arrays(mesh)[0], mass_i):
        np.testing.assert_array_equal(edges.i, ref)
    for ref in (unique[:, 1], edge_arrays(mesh)[1], mass_j):
        np.testing.assert_array_equal(edges.j, ref)
    # the mesh's one pair graph holds the edge arrays themselves
    assert mesh.pairs is mesh.pairs and mesh.pairs.n == mesh.n_nodes
    assert mesh.pairs.i is edges.i and mesh.pairs.j is edges.j
    # edge q of a triangle joins its local vertices q and q+1
    a, b = t, np.roll(t, -1, axis=1)
    np.testing.assert_array_equal(edges.i[edges.of_triangle], np.minimum(a, b))
    np.testing.assert_array_equal(edges.j[edges.of_triangle], np.maximum(a, b))
    for arr in (edges.i, edges.j, edges.x, edges.y, edges.of_triangle):
        assert not arr.flags.writeable
    assert edges.x.flags.c_contiguous and edges.y.flags.c_contiguous
    assert mesh.edges is edges


def row_gather_midpoints(mesh):
    """The edge midpoints from the rows of the (n, 2) node array."""
    nodes, i, j = mesh.nodes, mesh.edges.i, mesh.edges.j
    return 0.5 * (nodes[i, 0] + nodes[j, 0]), 0.5 * (nodes[i, 1] + nodes[j, 1])


@pytest.mark.parametrize(
    "grid, level, seed",
    [(grid, level, 0) for grid in ("fk", "shifted") for level in range(7)]
    + [("unstructured", level, 0) for level in range(5)]
    + [("shifted", 3, 3)],
    ids=lambda p: str(p),
)
def test_geometry_and_midpoints_are_the_row_gathers_bytes(grid, level, seed):
    mesh = relabel(build_grid(ExperimentConfig(grid=grid), level), seed)
    area, grads, _ = old_geometry(mesh)
    geo, edges = mesh.geometry, mesh.edges
    assert geo.areas.tobytes() == area.tobytes()
    assert geo.grads.shape == grads.shape and geo.grads.tobytes() == grads.tobytes()
    x, y = row_gather_midpoints(mesh)
    assert edges.x.tobytes() == x.tobytes() and edges.y.tobytes() == y.tobytes()
    for arr in (geo.areas, geo.grads, edges.x, edges.y):
        assert arr.flags.c_contiguous and not arr.flags.writeable


@pytest.mark.parametrize("t", [0.0, 0.25, 0.7])
def test_load_matches_per_triangle_einsum(mesh, spec, t):
    # the edge form's node sums round otherwise than the per-triangle sums
    pts = old_midpoints(mesh)
    x, y = pts[..., 0], pts[..., 1]
    local = mesh.geometry.areas[:, None] * np.einsum(
        "q,mq,qi->mi", QUAD2_W, spec.f(t, x, y), QUAD2_BARY
    )
    ref = np.bincount(mesh.triangles.ravel(), local.ravel(), mesh.n_nodes)
    assert_close(assemble_load(mesh, spec, t), ref)


@pytest.mark.parametrize("t", [0.0, 0.25, 0.7])
def test_stiffness_matches_per_triangle_evaluation(mesh, spec, t):
    # the per-triangle element matrices, scattered through COO
    ref = old_sorted_csr(mesh, old_local_stiffness(mesh, spec, t))
    new = assemble_stiffness(mesh, spec, t)
    np.testing.assert_array_equal(new.indptr, ref.indptr)
    np.testing.assert_array_equal(new.indices, ref.indices)
    assert_close(new.data, ref.data)


def old_element_positions(mesh):
    """(m, 3, 3) position of entry (a, b) of each element matrix in the
    pattern's data: the diagonal for a == b, else the edge joining local
    vertices a and b (edge q joins q and q+1)."""
    pattern, t = mesh.pattern, mesh.triangles
    edge = mesh.edges.of_triangle[:, [[0, 0, 2], [0, 1, 1], [2, 1, 2]]]
    positions = np.where(t[:, :, None] < t[:, None, :], pattern.upper[edge], pattern.lower[edge])
    positions[:, [0, 1, 2], [0, 1, 2]] = pattern.diag[t]
    return positions


def old_element_scatter_stiffness(mesh, spec, t):
    """The stiffness with convection as (m, 3, 3) element matrices
    |T| (B_a . grad phi_j) / 6 summed through the element positions in
    element order, plus eps K + R in edge form."""
    geo, edges, pattern = mesh.geometry, mesh.edges, mesh.pattern

    def per_edge(value):
        return np.broadcast_to(np.asarray(value, dtype=float), edges.x.shape)

    bx, by = (per_edge(v)[edges.of_triangle] for v in spec.b(t, edges.x, edges.y))
    # row a: B_a = b_a + b_{a-1}, the velocity summed over the two points of
    # vertex a, dotted with each grad phi_j
    bx, by = bx + bx[:, [2, 0, 1]], by + by[:, [2, 0, 1]]
    local = bx[..., None] * geo.grads[:, None, :, 0]
    local += by[..., None] * geo.grads[:, None, :, 1]
    local *= 1.0 / 6.0
    local *= geo.areas[:, None, None]
    positions = old_element_positions(mesh).ravel()
    data = np.bincount(positions, local.ravel(), pattern.indices.size)
    cm = per_edge(spec.c(t, edges.x, edges.y)) * mesh.edge_mass
    eps_k = spec.eps * mesh.edge_laplacian
    data[pattern.upper] += eps_k + cm
    data[pattern.lower] += eps_k + cm
    sums, n = cm - eps_k, mesh.n_nodes
    data[pattern.diag] += np.bincount(edges.i, sums, n) + np.bincount(edges.j, sums, n)
    return pattern.matrix(data)


@pytest.mark.parametrize("t", [0.0, 0.25, 0.7])
@pytest.mark.parametrize("problem", ["variable", "space"])
def test_stiffness_matches_element_scatter(mesh, spec, problem, t):
    # structure and data, sign bits included
    if problem == "space":
        spec, _ = space_study_problem()
    new, ref = assemble_stiffness(mesh, spec, t), old_element_scatter_stiffness(mesh, spec, t)
    for part in ("data", "indptr", "indices"):
        assert getattr(new, part).tobytes() == getattr(ref, part).tobytes()
    # the oracle's positions index the (row, col) they stand for
    pattern, tri = mesh.pattern, mesh.triangles
    row = np.repeat(np.arange(mesh.n_nodes), np.diff(pattern.indptr))
    positions, shape = old_element_positions(mesh), (mesh.n_triangles, 3, 3)
    np.testing.assert_array_equal(row[positions], np.broadcast_to(tri[:, :, None], shape))
    np.testing.assert_array_equal(pattern.indices[positions], np.broadcast_to(tri[:, None, :], shape))


def old_point_sum_stiffness(mesh, spec, t):
    """The stiffness with convection from s = (b . grad phi_j) / 6 at each
    of a triangle's three points, (m, 3, 3), its entries summed over the
    two points of each vertex, plus eps K + R in edge form."""
    geo, edges, tri, pattern = mesh.geometry, mesh.edges, mesh.triangles, mesh.pattern

    def per_edge(value):
        return np.broadcast_to(np.asarray(value, dtype=float), edges.x.shape)

    bx, by = (per_edge(v)[edges.of_triangle] for v in spec.b(t, edges.x, edges.y))
    s = bx[..., None] * geo.grads[:, None, :, 0]
    s += by[..., None] * geo.grads[:, None, :, 1]
    s *= 1.0 / 6.0
    q, nxt, prv = np.arange(3), np.array([1, 2, 0]), np.array([2, 0, 1])
    forward = s[:, q, nxt] + s[:, prv, nxt]
    backward = s[:, nxt, q] + s[:, q, q]
    own = geo.areas[:, None] * (s[:, q, q] + s[:, prv, q])
    up = tri < tri[:, nxt]
    cm = per_edge(spec.c(t, edges.x, edges.y)) * mesh.edge_mass
    eps_k = spec.eps * mesh.edge_laplacian
    data = np.empty(pattern.indices.size)
    data[pattern.upper] = mesh.edge_sum(np.where(up, forward, backward)) + (eps_k + cm)
    data[pattern.lower] = mesh.edge_sum(np.where(up, backward, forward)) + (eps_k + cm)
    sums, n = cm - eps_k, mesh.n_nodes
    node_sums = np.bincount(edges.i, sums, n) + np.bincount(edges.j, sums, n)
    data[pattern.diag] = np.bincount(tri.ravel(), own.ravel(), n) + node_sums
    return pattern.matrix(data)


def second_constant_spec():
    """A constant velocity and reaction other than the space problem's."""
    return ProblemSpec(
        eps=1e-3,
        b=lambda t, x, y: (-1.7, 0.4),
        c=lambda t, x, y: 0.5,
        f=lambda t, x, y: 1.0 + x * y,
        u0=lambda x, y: x * y,
        c0=0.5,
        t_end=1.0,
        tau=1e-3,
    )


@pytest.mark.parametrize("t", [0.0, 0.25, 0.7])
def test_stiffness_matches_point_sums(mesh, spec, t):
    # a constant velocity sums to B_q = 2b exactly, so the per-vertex sums
    # give the point sums' entries, sign bits included
    for constant in (space_study_problem()[0], second_constant_spec()):
        new, ref = assemble_stiffness(mesh, constant, t), old_point_sum_stiffness(mesh, constant, t)
        for part in ("data", "indptr", "indices"):
            assert getattr(new, part).tobytes() == getattr(ref, part).tobytes()
    # a variable one moves the entries by rounding
    new, ref = assemble_stiffness(mesh, spec, t), old_point_sum_stiffness(mesh, spec, t)
    for part in ("indptr", "indices"):
        assert getattr(new, part).tobytes() == getattr(ref, part).tobytes()
    assert np.abs(new.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


def swirl_spec():
    """A swirling, nearly pure convection: a_ij and a_ji nearly tie on
    some edges, where the two kernels' rounding can differ in sign."""
    return ProblemSpec(
        eps=1e-8,
        b=lambda t, x, y: (np.cos(3.0 * x * y + t), np.sin(2.0 * x - y)),
        c=lambda t, x, y: 0.0,
        f=lambda t, x, y: 1.0 + x * y,
        u0=lambda x, y: x * y,
        c0=1.0,
        t_end=1.0,
        tau=1e-3,
        constant_coefficients=False,
    )


def assert_same_downwind_order(new_system, ref_system):
    new, ref = (femfct.solver._downwind_order(sparse.csc_matrix(s)) for s in (new_system, ref_system))
    assert (new is None) == (ref is None)
    if new is not None:
        np.testing.assert_array_equal(new, ref)


def upwinded_system(mesh, spec, t, stiffness, monkeypatch):
    """Abar at t and the Dirichlet-constrained M_L + tau Abar that linear
    FCT factors, built by the stepper from ``stiffness``."""
    with monkeypatch.context() as patch:
        patch.setattr(femfct.stepper, "assemble_stiffness", stiffness)
        stepper = TimeStepper(mesh, spec, SchemeKind("linear_fct"))
        abar = TimeLevel(stepper, t).ops[0]
    return abar, apply_dirichlet(stepper._mass_v + spec.tau * abar, mesh)


@pytest.fixture(
    scope="module",
    params=[(grid, level, seed) for grid, level in
            [("fk", 3), ("shifted", 3), ("unstructured", 1), ("fk", 5), ("shifted", 5)]
            for seed in (0, 5)],
    ids=lambda p: f"{p[0]}{p[1]}-seed{p[2]}",
)
def upwind_mesh(request):
    """The differential meshes, and FK and shifted level 5."""
    grid, level, seed = request.param
    return relabel(build_grid(ExperimentConfig(grid=grid), level), seed)


@pytest.mark.parametrize("t", [0.0, 0.25, 0.7])
def test_per_vertex_sums_keep_the_upwind_zeros_and_downwind_order(upwind_mesh, spec, t, monkeypatch):
    # the rounding of a variable velocity leaves Abar's exact upwind zeros
    # where the point sums had them, and with them the LU's column order
    (new, new_system), (ref, ref_system) = (
        upwinded_system(upwind_mesh, spec, t, kernel, monkeypatch)
        for kernel in (assemble_stiffness, old_point_sum_stiffness)
    )
    for part in ("indptr", "indices"):
        assert getattr(new, part).tobytes() == getattr(ref, part).tobytes()
    # the fixture's diffusion and reaction leave cycles on all of these
    # meshes, so both orders are None; the swirling velocity's test
    # compares orders that exist
    assert_same_downwind_order(new_system, ref_system)


@pytest.mark.parametrize("t", [0.0, 0.25, 0.7])
def test_swirling_velocity_moves_abar_by_rounding_only(upwind_mesh, t, monkeypatch):
    # where a_ij and a_ji nearly tie, rounding can drop an upwind entry one
    # kernel kept (FK and shifted L3 at t = 0 and 0.7, shifted L5 at 0.7);
    # a dropped entry compares as zero.  The scale is Abar's largest entry,
    # about 4 max|a_ij|: a diagonal entry sums its row's d_ij, each of them
    # off by a_ij's rounding
    (new, new_system), (ref, ref_system) = (
        upwinded_system(upwind_mesh, swirl_spec(), t, kernel, monkeypatch)
        for kernel in (assemble_stiffness, old_point_sum_stiffness)
    )
    assert abs(new - ref).max() <= 1e-15 * abs(ref).max()
    # the downwind order, where the graph is acyclic (14 of these 30
    # cases), stayed the same even where a zero moved
    assert_same_downwind_order(new_system, ref_system)


def test_edge_form_identities(mesh, spec):
    mass, laplacian = assemble_mass(mesh), assemble_laplacian(mesh)
    # the load of f = 1 is the lumped mass: f_i = sum_j 2 m_ij = M_ii + sum_j m_ij
    spec.f = lambda t, x, y: 1.0
    assert_close(assemble_load(mesh, spec, 0.0), lump(mass))
    # with b = 0 and c = 1 the stiffness is M + eps K
    spec.b, spec.c = (lambda t, x, y: (0.0, 0.0)), (lambda t, x, y: 1.0)
    assert_close(assemble_stiffness(mesh, spec, 0.0), mass + spec.eps * laplacian)
    # the Laplacian's rows sum to zero, to rounding
    row_sums = np.asarray(laplacian.sum(axis=1)).ravel()
    assert np.abs(row_sums).max() <= 1e-15 * laplacian.diagonal().max()


def test_load_evaluates_f_once_per_edge(mesh, spec):
    shapes = []
    f = spec.f

    def recording(t, x, y):
        shapes.append((np.shape(x), np.shape(y)))
        return f(t, x, y)

    spec.f = recording
    for k, t in enumerate((0.0, 0.5)):
        assemble_load(mesh, spec, t)
        assert shapes == [((mesh.edges.i.size,), (mesh.edges.i.size,))] * (k + 1)


def test_assembly_matches_coo_reference(mesh, spec):
    t = 0.25
    area, grads, pts = old_geometry(mesh)
    x, y = pts[..., 0], pts[..., 1]

    ref_mass = area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)[None]
    assert_close(assemble_mass(mesh), old_to_csr(mesh, ref_mass))

    local = old_local_stiffness(mesh, spec, t)
    assert_close(assemble_stiffness(mesh, spec, t), old_to_csr(mesh, local))

    local = area[:, None] * np.einsum("q,mq,qi->mi", QUAD2_W, spec.f(t, x, y), QUAD2_BARY)
    ref_load = np.zeros(mesh.n_nodes)
    np.add.at(ref_load, mesh.triangles.ravel(), local.ravel())
    assert_close(assemble_load(mesh, spec, t), ref_load)


@pytest.fixture
def operators(mesh, spec):
    mass = assemble_mass(mesh)
    a = assemble_stiffness(mesh, spec, 0.0)
    d = artificial_diffusion(a, mesh.pattern)
    return mass, d, (a + d).tocsr()


def test_pair_graph_matches_triu_lexsort(mesh, operators):
    mass, d, _ = operators
    pairs, upper = mesh.pairs, mesh.pattern.upper
    i, j, m_ij = old_upper_pairs(mass)
    di, dj, d_ij = old_upper_pairs(d)
    for new, ref in ((pairs.i, i), (pairs.j, j), (pairs.i, di), (pairs.j, dj)):
        np.testing.assert_array_equal(new, ref)
    np.testing.assert_array_equal(mass.data[upper], m_ij)
    np.testing.assert_array_equal(d.data[upper], d_ij)


def test_flux_kernels_match_matrix_formulas(mesh, operators):
    mass, d, abar = operators
    rng = np.random.default_rng(1)
    u_new, u_prev, f_prev = (rng.standard_normal(mesh.n_nodes) for _ in range(3))
    tau, m_lumped, bnodes = 1e-3, lump(mass), mesh.boundary_nodes
    g_rate = rng.standard_normal(bnodes.size)
    i, j, m_ij = old_upper_pairs(mass)
    d_ij = old_upper_pairs(d)[2]
    pairs, upper = mesh.pairs, mesh.pattern.upper
    m_new, d_new = mass.data[upper], d.data[upper]

    du = u_new - u_prev
    ref = m_ij * (du[i] - du[j]) + tau * d_ij * (u_new[j] - u_new[i])
    flux = raw_fluxes(pairs, m_new, d_new, u_new, u_prev, tau)
    np.testing.assert_array_equal(flux, ref)

    nu = (f_prev - abar @ u_prev) / m_lumped
    nu[bnodes] = g_rate
    dnu = nu[i] - nu[j]
    ref = tau * m_ij * dnu + tau * d_ij * (u_prev[j] - u_prev[i] - tau * dnu)
    flux = linear_fluxes(
        pairs, m_new, d_new, m_lumped, abar @ u_prev - f_prev, u_prev, tau, bnodes, g_rate
    )
    np.testing.assert_array_equal(flux, ref)


def old_zalesak(pairs, f, ubar, m_lumped, dirichlet=None):
    n, i, j = pairs.n, pairs.i, pairs.j
    fpos = np.maximum(f, 0.0)
    fneg = np.minimum(f, 0.0)
    p_plus = np.bincount(i, fpos, n) - np.bincount(j, fneg, n)
    p_minus = np.bincount(i, fneg, n) - np.bincount(j, fpos, n)
    du = ubar[j] - ubar[i]
    q_plus = np.zeros(n)
    np.maximum.at(q_plus, i, du)
    np.maximum.at(q_plus, j, -du)
    q_minus = np.zeros(n)
    np.minimum.at(q_minus, i, du)
    np.minimum.at(q_minus, j, -du)
    r_plus = np.where(
        p_plus > 0.0, np.minimum(1.0, m_lumped * q_plus / np.where(p_plus > 0.0, p_plus, 1.0)), 1.0
    )
    r_minus = np.where(
        p_minus < 0.0, np.minimum(1.0, m_lumped * q_minus / np.where(p_minus < 0.0, p_minus, 1.0)), 1.0
    )
    if dirichlet is not None:
        r_plus[dirichlet] = 1.0
        r_minus[dirichlet] = 1.0
    return np.where(f > 0.0, np.minimum(r_plus[i], r_minus[j]), np.minimum(r_minus[i], r_plus[j]))


def test_hoisted_zalesak_bounds_match_per_call_formula(mesh, operators):
    # one set of bounds from ubar serves every fixed-point iterate's fluxes
    mass, d, _ = operators
    pairs, m_lumped, bnodes = mesh.pairs, lump(mass), mesh.boundary_nodes
    m_ij, d_ij = mass.data[mesh.pattern.upper], d.data[mesh.pattern.upper]
    rng = np.random.default_rng(2)
    u_prev, ubar = rng.standard_normal(mesh.n_nodes), rng.standard_normal(mesh.n_nodes)
    bounds = zalesak_bounds(pairs, ubar, m_lumped)
    for _ in range(3):
        u_new = u_prev + 0.1 * rng.standard_normal(mesh.n_nodes)
        raw = raw_fluxes(pairs, m_ij, d_ij, u_new, u_prev, 1e-3)
        flux = prelimit(raw, ubar[pairs.i] - ubar[pairs.j])
        for dirichlet in (None, bnodes):
            # the reference's None is the kernel's empty index array
            nodes = np.empty(0, dtype=np.intp) if dirichlet is None else dirichlet
            np.testing.assert_array_equal(
                zalesak(pairs, flux, bounds, nodes)[0].expanded(pairs.i.size),
                old_zalesak(pairs, flux, ubar, m_lumped, dirichlet=dirichlet),
            )


def old_ufunc_at_zalesak_bounds(pairs, ubar, m_lumped):
    """The bounds scattered over the pairs by four ufunc.at calls."""
    i, j = pairs.i, pairs.j
    du = ubar[j] - ubar[i]
    q_plus, q_minus = np.zeros(ubar.size), np.zeros(ubar.size)
    np.maximum.at(q_plus, i, du)
    np.maximum.at(q_plus, j, -du)
    np.minimum.at(q_minus, i, du)
    np.minimum.at(q_minus, j, -du)
    return m_lumped * q_plus, m_lumped * q_minus


def run_predictor(mesh, monkeypatch):
    """The stepper and the predictor ubar of the fifth linear FCT step of
    the space problem on the mesh."""
    seen = []

    def recording(pairs, ubar, m_lumped):
        seen.append(ubar)
        return zalesak_bounds(pairs, ubar, m_lumped)

    monkeypatch.setattr(femfct.stepper, "zalesak_bounds", recording)
    spec, _ = space_study_problem(tau=1e-3, t_end=1e-2)
    stepper = TimeStepper(mesh, spec, SchemeKind("linear_fct"))
    stepper.run(5)
    return stepper, seen[-1]


@pytest.mark.parametrize("kind", ["predictor", "random", "ties", "nan"])
def test_neighbour_table_bounds_match_ufunc_at(mesh, kind, monkeypatch):
    # equal values, NaN where the scatters give NaN; zero signs may differ,
    # but not where they would reach alpha or the correction
    stepper, ubar = run_predictor(mesh, monkeypatch)
    pairs, m_lumped, bnodes = mesh.pairs, stepper.m_lumped, mesh.boundary_nodes
    rng = np.random.default_rng(4)
    ubar = {
        "predictor": lambda: ubar,
        "random": lambda: rng.standard_normal(mesh.n_nodes),
        # a 0.02 grid: many equal neighbours, zeros of both signs
        "ties": lambda: np.round(0.1 * rng.standard_normal(mesh.n_nodes) * 50) / 50,
        "nan": lambda: np.where(np.arange(mesh.n_nodes) == 7, np.nan, rng.standard_normal(mesh.n_nodes)),
    }[kind]()
    bounds = zalesak_bounds(pairs, ubar, m_lumped)
    with np.errstate(invalid="ignore"):
        ref = old_ufunc_at_zalesak_bounds(pairs, ubar, m_lumped)
    flipped = []
    for q, q_ref in zip(bounds, ref):
        np.testing.assert_array_equal(q, q_ref)
        assert not np.signbit(q[q == 0.0]).any()
        flipped.extend(np.flatnonzero((q == 0.0) & np.signbit(q_ref)))
    interior_flips = np.setdiff1d(flipped, bnodes).size
    if kind == "predictor":
        # only where zalesak resets R+- to 1
        assert flipped and interior_flips == 0
    elif kind == "ties":
        assert interior_flips > 0
    if kind == "nan":
        return
    size = 0.3 * m_lumped.mean() * np.ptp(ubar)
    flux = prelimit(size * rng.standard_normal(pairs.i.size), ubar[pairs.i] - ubar[pairs.j])
    (alpha, sums), (alpha_ref, sums_ref) = (zalesak(pairs, flux, q, bnodes) for q in (bounds, ref))
    assert np.any(alpha.values < 1.0)
    assert np.array_equal(alpha.ids, alpha_ref.ids)
    assert np.array_equal(alpha.values, alpha_ref.values)
    fstar, fstar_ref = (
        correction_vector(pairs, a, flux, s) for a, s in ((alpha, sums), (alpha_ref, sums_ref))
    )
    assert fstar.tobytes() == fstar_ref.tobytes()


def old_zalesak_where(pairs, f, bounds, dirichlet):
    """The Zalesak limiter with its ratios and alpha on every pair computed
    by nested np.where."""
    n, i, j = pairs.n, pairs.i, pairs.j
    q_plus, q_minus = bounds
    fpos = np.maximum(f, 0.0)
    fneg = np.minimum(f, 0.0)
    p_plus = np.bincount(i, fpos, n) - np.bincount(j, fneg, n)
    p_minus = np.bincount(i, fneg, n) - np.bincount(j, fpos, n)
    r_plus = np.where(
        p_plus > 0.0, np.minimum(1.0, q_plus / np.where(p_plus > 0.0, p_plus, 1.0)), 1.0
    )
    r_minus = np.where(
        p_minus < 0.0, np.minimum(1.0, q_minus / np.where(p_minus < 0.0, p_minus, 1.0)), 1.0
    )
    r_plus[dirichlet] = 1.0
    r_minus[dirichlet] = 1.0
    return np.where(f > 0.0, np.minimum(r_plus[i], r_minus[j]), np.minimum(r_minus[i], r_plus[j]))


def old_prelimit(pairs, f, ubar):
    """Prelimiting that gathers ubar_i - ubar_j on every call."""
    vals = f.copy()
    vals[vals * (ubar[pairs.i] - ubar[pairs.j]) < 0.0] = 0.0
    return vals


def limiter_state(mesh, operators, state, seed):
    """Prelimited fluxes, the predictor ubar and its bounds in which no
    interior node limits (``none``), every node with a flux limits
    (``all``), or some do (``mixed``)."""
    mass, d, _ = operators
    pairs, m_lumped = mesh.pairs, lump(mass)
    m_ij, d_ij = mass.data[mesh.pattern.upper], d.data[mesh.pattern.upper]
    rng = np.random.default_rng(seed)
    u_prev, ubar = rng.standard_normal(mesh.n_nodes), rng.standard_normal(mesh.n_nodes)
    if state == "none":
        # a linear ubar has no local extremum at an interior node
        ubar = mesh.nodes @ rng.standard_normal(2)
    elif state == "all":
        # zero bounds: R^+- is 0 (or -0) wherever P^+- is not
        ubar = np.full(mesh.n_nodes, 0.5)
    # the flux's size against the spread of ubar, which sets the bounds
    size = {"none": 1e-9, "all": 1.0, "mixed": 1e-1}[state]
    u_prev = size * u_prev
    u_new = u_prev + size * rng.standard_normal(mesh.n_nodes)
    raw = raw_fluxes(pairs, m_ij, d_ij, u_new, u_prev, 1e-3)
    # prelimit works in place
    flux = prelimit(raw.copy(), ubar[pairs.i] - ubar[pairs.j])
    return raw, flux, ubar, zalesak_bounds(pairs, ubar, m_lumped)


@pytest.mark.parametrize("state", ["none", "all", "mixed"])
def test_zalesak_matches_full_where_bitwise(mesh, operators, state):
    # alpha computed only on the pairs touching a limiting node, against
    # alpha on every pair; sign bits included
    no_nodes, pairs = np.empty(0, dtype=np.intp), mesh.pairs
    for seed in range(3):
        _, flux, _, bounds = limiter_state(mesh, operators, state, seed)
        every, interior = (
            zalesak(pairs, flux, bounds, dirichlet)[0].expanded(pairs.i.size)
            for dirichlet in (no_nodes, mesh.boundary_nodes)
        )
        assert every.tobytes() == old_zalesak_where(pairs, flux, bounds, no_nodes).tobytes()
        ref = old_zalesak_where(pairs, flux, bounds, mesh.boundary_nodes)
        assert interior.tobytes() == ref.tobytes()
        if state == "none":
            # no interior node limits
            assert np.all(interior == 1.0)
        elif state == "all":
            # every node with a flux limits
            every = every[flux != 0.0]
            assert np.all(every == 0.0) and np.any(np.signbit(every))
        else:
            assert np.any(interior < 1.0) and np.any(interior == 1.0)


@pytest.mark.parametrize("state", ["none", "all", "mixed"])
def test_constant_limiter_overwrites_the_zalesak_values_bitwise(mesh, spec, operators, state):
    # ConstantLimiter(0.5): its value on the interior pairs, the Zalesak
    # values of the full np.where on the pairs touching the boundary
    stepper = TimeStepper(mesh, spec, SchemeKind("nonlinear_fct", ConstantLimiter(0.5)))
    bmask = mesh.boundary_mask
    interior = ~(bmask[mesh.pairs.i] | bmask[mesh.pairs.j])
    for seed in range(3):
        _, flux, _, bounds = limiter_state(mesh, operators, state, seed)
        ref = old_zalesak_where(mesh.pairs, flux, bounds, mesh.boundary_nodes)
        ref[interior] = 0.5
        alpha = stepper._limit(flux, bounds)[0]
        assert alpha.expanded(mesh.pairs.i.size).tobytes() == ref.tobytes()


@pytest.mark.parametrize("state", ["none", "all", "mixed"])
def test_prelimit_of_pair_differences_matches_ubar_gather_bitwise(mesh, operators, state):
    pairs = mesh.pairs
    for seed in range(3):
        raw, flux, ubar, _ = limiter_state(mesh, operators, state, seed)
        ref = old_prelimit(pairs, raw, ubar)
        assert flux.tobytes() == ref.tobytes()
        assert flux.shape == pairs.i.shape
        # some fluxes are cancelled, and some kept
        assert np.any(ref != 0.0)
        assert np.any((ref == 0.0) & (raw != 0.0)) == (state != "all")


def test_pattern_matches_coo_structure(mesh):
    pattern, edges = mesh.pattern, mesh.edges
    ref = old_sorted_csr(mesh, np.ones((mesh.n_triangles, 3, 3)))
    np.testing.assert_array_equal(pattern.indptr, ref.indptr)
    np.testing.assert_array_equal(pattern.indices, ref.indices)
    assert pattern.indptr.dtype == pattern.indices.dtype == np.int32
    row = np.repeat(np.arange(mesh.n_nodes), np.diff(pattern.indptr))
    col = pattern.indices
    # every position indexes the (row, col) it stands for
    np.testing.assert_array_equal(row[pattern.diag], np.arange(mesh.n_nodes))
    np.testing.assert_array_equal(col[pattern.diag], np.arange(mesh.n_nodes))
    np.testing.assert_array_equal(row[pattern.upper], edges.i)
    np.testing.assert_array_equal(col[pattern.upper], edges.j)
    np.testing.assert_array_equal(row[pattern.lower], edges.j)
    np.testing.assert_array_equal(col[pattern.lower], edges.i)
    for arr in (pattern.indptr, pattern.indices, pattern.diag, pattern.upper, pattern.lower):
        assert not arr.flags.writeable
    assert mesh.pattern is pattern


def test_assembled_matrices_share_the_pattern(mesh, spec):
    pattern = mesh.pattern
    stiffness = assemble_stiffness(mesh, spec, 0.5)
    for mat in (assemble_mass(mesh), assemble_laplacian(mesh), stiffness):
        assert np.shares_memory(mat.indices, pattern.indices)
        assert np.shares_memory(mat.indptr, pattern.indptr)
    d = artificial_diffusion(stiffness, pattern)
    assert np.shares_memory(d.indices, pattern.indices)


def test_artificial_diffusion_matches_transpose_formula_bitwise(mesh, spec):
    for t in (0.0, 0.7):
        a = assemble_stiffness(mesh, spec, t)
        new, ref = artificial_diffusion(a, mesh.pattern), old_artificial_diffusion(a)
        np.testing.assert_array_equal(new.indptr, ref.indptr)
        np.testing.assert_array_equal(new.indices, ref.indices)
        # sign bits included
        assert new.data.tobytes() == ref.data.tobytes()


def test_artificial_diffusion_rejects_other_patterns(mesh, spec):
    # one stored entry dropped, as scipy's sum drops exact zeros
    a = assemble_stiffness(mesh, spec, 0.0).copy()
    a.data[mesh.pattern.upper[0]] = 0.0
    a.eliminate_zeros()
    with pytest.raises(ValueError, match="pattern"):
        artificial_diffusion(a, mesh.pattern)


@pytest.mark.parametrize(
    "scheme",
    [
        SchemeKind("galerkin"),
        SchemeKind("low_order"),
        SchemeKind("linear_fct"),
        SchemeKind("nonlinear_fct"),
        SchemeKind("nonlinear_fct", ConstantLimiter(0.5, zalesak_boundary=False)),
    ],
    ids=["galerkin", "low_order", "linear_fct", "nonlinear_fct", "nonlinear_fct-constant0.5"],
)
def test_system_lu_matches_scipy_assembly(mesh, spec, scheme):
    # the constrained system matrix of the former scipy-assembled operators
    # factors with the same column order and fill as the stepper's
    mass = old_mass(mesh)
    a = old_sorted_csr(mesh, old_local_stiffness(mesh, spec, 0.0))
    d = old_artificial_diffusion(a)
    ml, tau = sparse.diags(lump(mass)), spec.tau
    if scheme.kind == "galerkin":
        system = mass + tau * a
    elif isinstance(scheme.limiter, ConstantLimiter):
        v = scheme.limiter.value
        system = (1.0 - v) * ml + v * mass + tau * a + (1.0 - v) * tau * d
    else:
        system = ml + tau * (a + d).tocsr()
    system = apply_dirichlet(system, mesh)
    ref = splu(sparse.csc_matrix(system))

    stepper = TimeStepper(mesh, spec, scheme)
    new = stepper._factorization(TimeLevel(stepper, 0.0))._lu
    np.testing.assert_array_equal(new.perm_c, ref.perm_c)
    assert new.L.nnz + new.U.nnz == ref.L.nnz + ref.U.nnz


def factored_system(stepper, monkeypatch):
    """The constrained system matrix the stepper factors at t = 0, as CSC,
    and its Factorization."""
    systems = []

    def recording(matrix, **kwargs):
        systems.append(matrix)
        return Factorization(matrix, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(femfct.stepper, "Factorization", recording)
        factor = stepper._factorization(TimeLevel(stepper, 0.0))
    return sparse.csc_matrix(systems[0]), factor


@pytest.mark.parametrize(
    "scheme",
    [
        SchemeKind("galerkin"),
        SchemeKind("low_order"),
        SchemeKind("linear_fct"),
        SchemeKind("nonlinear_fct"),
        SchemeKind("nonlinear_fct", ConstantLimiter(0.3, zalesak_boundary=False)),
    ],
    ids=["galerkin", "low_order", "linear_fct", "nonlinear_fct", "nonlinear_fct-constant0.3"],
)
def test_reused_column_order_matches_fresh_lu(mesh, scheme, monkeypatch):
    # a matrix of the structure of the paper's system, factored in the order
    # the stepper's LU hands on, pivots, fills and solves bitwise as a
    # fresh Factorization of it; the consistent mass's two-way entries
    # leave cycles, so Galerkin and the constant limiter hand on no order
    spec, _ = space_study_problem()
    system, first = factored_system(TimeStepper(mesh, spec, scheme), monkeypatch)
    upwinded = scheme.kind != "galerkin" and not isinstance(scheme.limiter, ConstantLimiter)
    assert (first.order is not None) == upwinded
    rng = np.random.default_rng(3)
    system = sparse.csc_matrix(system, copy=True)
    system.data *= 1.0 + 0.01 * rng.random(system.nnz)
    reused, fresh = Factorization(system, order=first.order), Factorization(system)
    if upwinded:
        assert reused.order[2] is first.order[2]
        assert fresh.order[2] is not first.order[2]
        np.testing.assert_array_equal(fresh.order[2], first.order[2])
    else:
        assert reused.order is None and fresh.order is None
    np.testing.assert_array_equal(reused._lu.perm_r, fresh._lu.perm_r)
    np.testing.assert_array_equal(reused._lu.perm_c, fresh._lu.perm_c)
    assert reused._lu.L.nnz + reused._lu.U.nnz == fresh._lu.L.nnz + fresh._lu.U.nnz
    for _ in range(3):
        rhs = rng.standard_normal(mesh.n_nodes)
        assert reused.solve(rhs).tobytes() == fresh.solve(rhs).tobytes()


@pytest.mark.parametrize(
    "grid, level, seed",
    [("fk", 5, 0), ("fk", 5, 3), ("shifted", 5, 0), ("unstructured", 2, 0)],
)
def test_upwinded_system_factors_without_fill(grid, level, seed, monkeypatch):
    # M_L + tau*Abar of the paper's problem has an acyclic graph; in
    # downwind order its LU stores the matrix's entries and L's unit
    # diagonal, with every pivot on the diagonal
    mesh = relabel(build_grid(ExperimentConfig(grid=grid), level), seed)
    spec, _ = space_study_problem()
    system, factor = factored_system(TimeStepper(mesh, spec, SchemeKind("linear_fct")), monkeypatch)
    lu, cols = factor._lu, factor._cols
    assert cols is not None
    assert lu.L.nnz + lu.U.nnz <= system.nnz + mesh.n_nodes
    np.testing.assert_array_equal(lu.perm_r[cols], np.arange(mesh.n_nodes))


def test_downwind_solves_match_colamd(mesh, monkeypatch):
    spec, _ = space_study_problem()
    system, factor = factored_system(TimeStepper(mesh, spec, SchemeKind("linear_fct")), monkeypatch)
    assert factor._cols is not None
    colamd = splu(system, permc_spec="COLAMD")
    rng = np.random.default_rng(3)
    for _ in range(3):
        rhs = rng.standard_normal(mesh.n_nodes)
        new, ref = factor.solve(rhs), colamd.solve(rhs)
        assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("constant", [True, False], ids=["constant", "variable"])
@pytest.mark.parametrize("kind", ["galerkin", "low_order", "linear_fct", "nonlinear_fct"])
def test_downwind_runs_match_colamd_runs(mesh, kind, constant, monkeypatch):
    # 20 steps of the paper's problem against the same run with every
    # LU in COLAMD's column order
    runs = []
    for downwind in (True, False):
        spec, _ = space_study_problem()
        spec.constant_coefficients = constant
        with monkeypatch.context() as patch:
            if not downwind:
                patch.setattr(femfct.solver, "_downwind_order", lambda csc: None)
            runs.append(TimeStepper(mesh, spec, SchemeKind(kind)).run(20))
    for new, ref in zip(*runs):
        assert np.abs(new.u - ref.u).max() <= 1e-12 * np.abs(ref.u).max()
        assert new.fp_iters == ref.fp_iters


FIXED_LIMITER_SCHEMES = {
    "galerkin": SchemeKind("galerkin"),
    "low_order": SchemeKind("low_order"),
    "constant0.3": SchemeKind("nonlinear_fct", ConstantLimiter(0.3, zalesak_boundary=False)),
}


@pytest.mark.parametrize("name", list(FIXED_LIMITER_SCHEMES))
def test_fixed_limiter_system_matches_former_formulas(mesh, spec, name, monkeypatch):
    # S_v = (1-v) M_L + v M + tau (A + (1-v) D) against the three formulas
    # it replaced: M + tau A, M_L + tau Abar and the four-term sum
    scheme = FIXED_LIMITER_SCHEMES[name]
    new, _ = factored_system(TimeStepper(mesh, spec, scheme), monkeypatch)
    mass, tau = assemble_mass(mesh), spec.tau
    ml = sparse.diags(lump(mass))
    a = assemble_stiffness(mesh, spec, 0.0)
    d = artificial_diffusion(a, mesh.pattern)
    if name == "galerkin":
        old = mass + tau * a
    elif name == "low_order":
        old = ml + tau * (a + d).tocsr()
    else:
        v = scheme.limiter.value
        old = (1.0 - v) * ml + v * mass + tau * a + (1.0 - v) * tau * d
    old = sparse.csc_matrix(apply_dirichlet(old, mesh))
    if name == "constant0.3":
        assert np.abs((new - old).toarray()).max() <= 1e-15 * np.abs(old.data).max()
        return
    # structure and data, sign bits included
    for part in ("indptr", "indices", "data"):
        assert getattr(new, part).tobytes() == getattr(old, part).tobytes()


@pytest.mark.parametrize("constant", [True, False], ids=["constant", "variable"])
@pytest.mark.parametrize("name", list(FIXED_LIMITER_SCHEMES))
def test_fixed_limiter_records_report_the_applied_raw_flux(mesh, name, constant):
    # the exact fixed-limiter step solves the FCT equation with the raw
    # fluxes of its own u: its record carries their sums, and the FCT
    # equation's interior rows hold to rounding
    spec, _ = space_study_problem()
    spec.constant_coefficients = constant
    stepper = TimeStepper(mesh, spec, FIXED_LIMITER_SCHEMES[name])
    recs = stepper.run(5)
    mass, tau = assemble_mass(mesh), spec.tau
    m_lumped, upper = lump(mass), mesh.pattern.upper
    interior = ~mesh.boundary_mask
    for prev, rec in zip(recs, recs[1:]):
        a = assemble_stiffness(mesh, spec, rec.t)
        d = artificial_diffusion(a, mesh.pattern)
        raw = raw_fluxes(mesh.pairs, mass.data[upper], d.data[upper], rec.u, prev.u, tau)
        fstar = correction_vector(mesh.pairs, stepper.fixed_alpha, raw)
        assert bits(rec.flux_abs_sum) == bits(float(np.abs(raw).sum()))
        assert bits(rec.correction_sum) == bits(float(fstar.sum()))
        tau_f = tau * assemble_load(mesh, spec, rec.t)
        res = m_lumped * rec.u + tau * ((a + d) @ rec.u) - tau_f - m_lumped * prev.u - fstar
        assert np.abs(res[interior]).max() <= 1e-13 * np.abs(tau_f).max()


def old_apply_dirichlet(matrix, mesh):
    """apply_dirichlet scanning every row for the boundary rows' entries."""
    mat = matrix.tocsr().copy()
    row_of_entry = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    rows = np.flatnonzero(mesh.boundary_mask[row_of_entry])
    mat.data[rows] = 0.0
    mat.data[rows[mat.indices[rows] == row_of_entry[rows]]] = 1.0
    return mat


def assert_dirichlet_matches_full_row_scan(matrix, mesh):
    # structure and data, sign bits included; a CSR input is constrained in
    # place and returned
    ref, copy = old_apply_dirichlet(matrix, mesh), matrix.copy()
    new = apply_dirichlet(copy, mesh)
    for part in ("indptr", "indices", "data"):
        assert getattr(new, part).tobytes() == getattr(ref, part).tobytes()
    assert new is copy
    return new


def stepper_system(mesh, spec, name):
    """A stepper of the named scheme and its unconstrained system S_v at t = 0.5."""
    stepper = TimeStepper(mesh, spec, FIXED_LIMITER_SCHEMES.get(name, SchemeKind("linear_fct")))
    return stepper, stepper._mass_v + spec.tau * TimeLevel(stepper, 0.5).ops[0]


@pytest.mark.parametrize("name", list(FIXED_LIMITER_SCHEMES) + ["linear_fct"])
def test_apply_dirichlet_matches_full_row_scan(mesh, spec, name):
    # the system, new data of its structure, and one entry fewer
    stepper, system = stepper_system(mesh, spec, name)
    scaled = system.copy()
    scaled.data *= 1.5
    dropped = system.copy()
    off = dropped.indices != np.repeat(np.arange(mesh.n_nodes), np.diff(dropped.indptr))
    dropped.data[np.flatnonzero(off)[0]] = 0.0
    dropped.eliminate_zeros()
    for matrix in (system, scaled, dropped):
        assert_dirichlet_matches_full_row_scan(matrix, mesh)
    # Galerkin's (1-v) M_L + v M is the mass matrix itself
    assert (stepper._mass_v is stepper.mass) == (name == "galerkin")


def test_apply_dirichlet_edge_cases_match_full_row_scan(mesh, spec):
    _, system = stepper_system(mesh, spec, "linear_fct")
    # a boundary row whose diagonal is not stored stays a zero row
    row = mesh.boundary_nodes[len(mesh.boundary_nodes) // 2]
    no_diag = system.copy()
    no_diag[row, row] = 0.0
    no_diag.eliminate_zeros()
    assert no_diag.nnz == system.nnz - 1
    new = assert_dirichlet_matches_full_row_scan(no_diag, mesh)
    assert not new[row].toarray().any()
    # every row's entries in reverse column order
    row_of_entry = np.repeat(np.arange(mesh.n_nodes), np.diff(system.indptr))
    reverse = np.lexsort((-np.arange(system.nnz), row_of_entry))
    unsorted = sparse.csr_matrix(
        (system.data[reverse], system.indices[reverse], system.indptr), shape=system.shape
    )
    assert not unsorted.has_sorted_indices
    assert_dirichlet_matches_full_row_scan(unsorted, mesh)


def test_max_opposite_angle_sum_matches_per_edge_loop(mesh):
    assert math.isclose(
        max_opposite_angle_sum(mesh), old_max_opposite_angle_sum(mesh), rel_tol=0, abs_tol=1e-14
    )


def old_lattice(level, shifted):
    n = 2 ** (level + 1)
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = j * (n + 1) + i, j * (n + 1) + i + 1
            v01, v11 = v00 + n + 1, v10 + n + 1
            if shifted and j % 2 == 0:
                tris += [(v00, v10, v01), (v10, v11, v01)]
            else:
                tris += [(v00, v10, v11), (v00, v11, v01)]
    if shifted:
        x, y = nodes[:, 0], nodes[:, 1]
        interior = (x > 1e-12) & (x < 1 - 1e-12) & (y > 1e-12) & (y < 1 - 1e-12)
        nodes[interior, 0] += 1.0 / n / 10.0
    return nodes, np.array(tris)


@pytest.mark.parametrize("level", range(7))
@pytest.mark.parametrize("build", [build_friedrichs_keller, build_shifted_grid])
def test_lattice_builders_match_cell_loops(build, level):
    nodes, tris = old_lattice(level, shifted=build is build_shifted_grid)
    mesh = build(level)
    assert mesh.nodes.tobytes() == nodes.tobytes()
    np.testing.assert_array_equal(mesh.triangles, tris)
    assert mesh.h == 2.0 ** -(level + 1)


def old_refine_uniform(mesh):
    """Red refinement numbering each midpoint on first appearance."""
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


@pytest.mark.parametrize("level", range(3))
@pytest.mark.parametrize("grid", ["unstructured", "fk"])
def test_refine_uniform_matches_dict_numbering_up_to_relabelling(grid, level):
    coarse = build_grid(ExperimentConfig(grid=grid), level)
    new, ref = refine_uniform(coarse), old_refine_uniform(coarse)
    n = coarse.n_nodes
    assert new.n_nodes == ref.n_nodes and new.level == ref.level and new.h == ref.h
    # the old nodes keep their numbers; each new node is one of the
    # reference's midpoints, matched by its exact coordinates
    assert new.nodes[:n].tobytes() == ref.nodes[:n].tobytes()
    ref_of = {p.tobytes(): k for k, p in enumerate(ref.nodes)}
    relabel = np.array([ref_of[p.tobytes()] for p in new.nodes])
    np.testing.assert_array_equal(relabel[:n], np.arange(n))
    assert np.array_equal(np.sort(relabel), np.arange(ref.n_nodes))
    assert ref.nodes[relabel].tobytes() == new.nodes.tobytes()
    np.testing.assert_array_equal(relabel[new.triangles], ref.triangles)
    np.testing.assert_array_equal(new.boundary_mask, ref.boundary_mask[relabel])


def old_positive_offdiagonal(m_lumped, abar, tau, rel_tol=1e-13):
    system = (sparse.diags(m_lumped) + tau * abar.tocsr()).tocsr()
    tol = rel_tol * np.abs(system.data).max()
    coo = system.tocoo()
    bad = (coo.row != coo.col) & (coo.data > tol)
    return list(zip(coo.row[bad].tolist(), coo.col[bad].tolist(), coo.data[bad].tolist()))


def test_m_matrix_check_matches_coo_reference(mesh, spec, operators):
    mass, _, abar = operators
    m_lumped, a = lump(mass), assemble_stiffness(mesh, spec, 0.0)
    # Abar passes; A alone has the positive off-diagonals of convection
    assert m_matrix_check(m_lumped, abar, tau=spec.tau).ok
    assert old_positive_offdiagonal(m_lumped, a, spec.tau)
    for mat in (abar, a):
        report = m_matrix_check(m_lumped, mat, tau=spec.tau)
        assert report.positive_offdiagonal == old_positive_offdiagonal(m_lumped, mat, spec.tau)


def test_triangular_lu_panel_size_keeps_the_factors(monkeypatch):
    # one-column panels give SuperLU's default factors, bit for bit
    spec, _ = space_study_problem()
    stepper = TimeStepper(build_friedrichs_keller(5), spec, SchemeKind("linear_fct"))
    system, factor = factored_system(stepper, monkeypatch)
    new, ref = factor._lu, splu(system[:, factor._cols], permc_spec="NATURAL")
    for name in ("L", "U"):
        a, b = getattr(new, name), getattr(ref, name)
        for part in ("data", "indices", "indptr"):
            assert getattr(a, part).tobytes() == getattr(b, part).tobytes()
    np.testing.assert_array_equal(new.perm_r, ref.perm_r)


def old_error_norms(mesh, u_h, exact, t):
    """The L2 and H1 errors as whole-mesh einsums over the (m, 6) points."""
    p = mesh.nodes[mesh.triangles]
    qx = np.einsum("qa,ma->mq", QUAD4_BARY, p[..., 0])
    qy = np.einsum("qa,ma->mq", QUAD4_BARY, p[..., 1])
    area, grads = mesh.geometry.areas, mesh.geometry.grads
    uh_q = np.einsum("qa,ma->mq", QUAD4_BARY, u_h[mesh.triangles])
    diff = exact.u(t, qx, qy) - uh_q
    l2 = math.sqrt(float(np.einsum("q,mq,m->", QUAD4_W, diff * diff, area)))
    gx, gy = exact.gradient(t, qx, qy)
    uh_g = np.einsum("ma,mad->md", u_h[mesh.triangles], grads)
    dx, dy = gx - uh_g[:, None, 0], gy - uh_g[:, None, 1]
    h1 = math.sqrt(float(np.einsum("q,mq,m->", QUAD4_W, dx * dx + dy * dy, area)))
    return l2, h1


PROBLEMS = {"space": space_study_problem, "time": time_study_problem}


@functools.lru_cache(maxsize=None)
def split_workspace(grid, level):
    """One workspace per mesh, so the second problem reuses the constants
    the first one's profile and gradient computed."""
    mesh = build_grid(ExperimentConfig(grid=grid), level)
    return mesh, ErrorWorkspace(mesh)


def l2_projection(mesh, exact, t):
    """The L2 projection of u(t): M p = (u, phi_i) by the 6-point rule."""
    p = mesh.nodes[mesh.triangles]
    qx = np.einsum("qa,ma->mq", QUAD4_BARY, p[..., 0])
    qy = np.einsum("qa,ma->mq", QUAD4_BARY, p[..., 1])
    local = np.einsum("q,qa,mq,m->ma", QUAD4_W, QUAD4_BARY, exact.u(t, qx, qy), mesh.geometry.areas)
    rhs = np.bincount(mesh.triangles.ravel(), local.ravel(), mesh.n_nodes)
    return spsolve(assemble_mass(mesh).tocsc(), rhs)


@pytest.mark.parametrize("u_h_kind", ["random", "interpolant", "projection"])
@pytest.mark.parametrize("problem", ["space", "time"])
@pytest.mark.parametrize("grid, level", [("fk", 2), ("fk", 5), ("shifted", 5), ("unstructured", 3)])
def test_split_error_norms_match_whole_mesh_einsums(grid, level, problem, u_h_kind):
    # u_h = I_h u makes the nodal error 0, and the L2 projection is the
    # smallest L2 error, where the split's terms cancel most; the time
    # study's scale is 0.0 at t = 0.75
    mesh, ws = split_workspace(grid, level)
    _, exact = PROBLEMS[problem]()
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    rng = np.random.default_rng(level)
    for t in (0.0, 0.37, 0.75, 1.0):
        u_h = {
            "random": lambda: rng.standard_normal(mesh.n_nodes),
            "interpolant": lambda: exact.u(t, x, y),
            "projection": lambda: l2_projection(mesh, exact, t),
        }[u_h_kind]()
        l2, h1 = old_error_norms(mesh, u_h, exact, t)
        assert abs(ws.l2_error(u_h, exact, t) - l2) <= 1e-13 * l2
        assert abs(ws.h1_error(u_h, exact, t) - h1) <= 1e-13 * h1
        if u_h_kind == "interpolant":
            assert not ws.nodal_error(u_h, exact, t).any()


def old_step_nonlinear_fct(stepper, level, u_prev, prev, u_prev2=None):
    """The nonlinear FCT step as plain fixed-point iteration from u_prev,
    u_{k+1} = S^{-1}(tau f + M_L u_prev + f*(u_k)), which Anderson
    acceleration from the extrapolated start replaced."""
    tau, g, bnodes = stepper.spec.tau, level.g, stepper._bnodes
    abar, d_ij = level.ops
    r = prev.ops[0] @ u_prev - prev.f
    ubar = femfct.stepper.predictor_half_step(stepper.m_lumped, r, u_prev, tau, bnodes, g)
    factor = stepper._factorization(level)
    bounds = zalesak_bounds(stepper.pairs, ubar, stepper.m_lumped)
    dubar = ubar[stepper.pairs.i] - ubar[stepper.pairs.j]

    def limited_correction(u_cur):
        flux = prelimit(raw_fluxes(stepper.pairs, stepper._m_ij, d_ij, u_cur, u_prev, tau), dubar)
        alpha, sums = stepper._limit(flux, bounds)
        return flux, alpha, correction_vector(stepper.pairs, alpha, flux, sums)

    base_rhs = tau * level.f + stepper.m_lumped * u_prev
    flux, alpha, fstar = limited_correction(u_prev)
    for it in range(1, femfct.stepper.FP_MAX_ITER + 1):
        u = factor.solve(stepper._constrained_rhs(base_rhs + fstar, g))
        flux, alpha, fstar = limited_correction(u)
        res_vec = stepper.m_lumped * u + tau * (abar @ u) - base_rhs - fstar
        res_vec[bnodes] = u[bnodes] - g
        residual = math.sqrt(float(np.einsum("i,i->", res_vec, res_vec)))
        if residual < femfct.stepper.FP_TOL:
            return femfct.stepper._fct_record(
                level.t, u, alpha, fstar, flux, fp_iters=it, residual=residual
            )
    raise AssertionError("the former fixed point did not converge")


# run_single's four integrated norms (10 steps, tau = 1e-3) as computed
# with the whole-mesh error norms and the former problem callbacks
RUN_SINGLE_NORMS = {
    ("fk", 5, "linear_fct"): {
        "dh": 2.2560283183767595e-06, "fct": 2.438047447428716e-06,
        "h1": 0.0002391690003457941, "l2": 6.139781461180113e-07,
    },
    ("unstructured", 3, "nonlinear_fct"): {
        "dh": 8.850048926312918e-06, "fct": 9.098103333558734e-06,
        "h1": 0.0003158309789192486, "l2": 1.1404902857503979e-06,
    },
    ("shifted", 4, "low_order"): {
        "dh": 0.0001870025758527974, "fct": 0.0001874901376344727,
        "h1": 0.0009827293442621966, "l2": 1.6667994999062792e-05,
    },
}


@pytest.mark.parametrize("case", list(RUN_SINGLE_NORMS), ids=lambda c: f"{c[0]}{c[1]}-{c[2]}")
def test_run_single_norms_match_former_evaluation(case, monkeypatch):
    grid, level, kind = case
    # the references were recorded with plain fixed-point iteration
    monkeypatch.setattr(TimeStepper, "step_nonlinear_fct", old_step_nonlinear_fct)
    spec, exact = space_study_problem(tau=1e-3, t_end=1e-2)
    integrated, _ = run_single(build_grid(ExperimentConfig(grid=grid), level), spec, exact, SchemeKind(kind))
    for name, ref in RUN_SINGLE_NORMS[case].items():
        assert abs(integrated[name] - ref) <= 1e-12 * ref


def old_profile(x, y):
    return x * x * (1.0 - x * x) * y * (1.0 - y) * (1.0 - 2.0 * y)


def old_profile_dx(x, y):
    return (2.0 * x - 4.0 * x**3) * y * (1.0 - y) * (1.0 - 2.0 * y)


def old_profile_dy(x, y):
    return x * x * (1.0 - x * x) * (1.0 - 6.0 * y + 6.0 * y * y)


def old_profile_lap(x, y):
    xx = (2.0 - 12.0 * x * x) * y * (1.0 - y) * (1.0 - 2.0 * y)
    yy = x * x * (1.0 - x * x) * (12.0 * y - 6.0)
    return xx + yy


@pytest.mark.parametrize(
    "problem, scale, scale_dt",
    [
        (space_study_problem, lambda t: 100.0 * t, lambda t: 100.0),
        (time_study_problem, lambda t: 1.0 + math.sin(2.0 * math.pi * t),
         lambda t: 2.0 * math.pi * math.cos(2.0 * math.pi * t)),
    ],
    ids=["space", "time"],
)
def test_problem_callbacks_match_closed_forms(problem, scale, scale_dt):
    eps = 1e-3
    spec, exact = problem(eps=eps)
    rng = np.random.default_rng(7)
    x, y = rng.random((2, 6, 500))

    def close(new, ref):
        # relative to the field's size: the closed forms cancel at the
        # zeros of S and its derivatives, so pointwise ratios are noise
        assert np.abs(new - ref).max() <= 1e-14 * np.abs(ref).max()

    for t in (0.1, 0.37, 1.0):
        s, ds = scale(t), scale_dt(t)
        close(exact.u(t, x, y), s * old_profile(x, y))
        gx, gy = exact.gradient(t, x, y)
        close(gx, s * old_profile_dx(x, y))
        close(gy, s * old_profile_dy(x, y))
        adv_reac = 2.0 * old_profile_dx(x, y) + 3.0 * old_profile_dy(x, y) + old_profile(x, y)
        close(spec.f(t, x, y), ds * old_profile(x, y) + s * (-eps * old_profile_lap(x, y) + adv_reac))
    close(spec.u0(x, y), scale(0.0) * old_profile(x, y))


def old_load(scale, scale_dt, eps):
    """The manufactured source evaluating its closed form on every call."""

    def f(t, x, y):
        xx = x * x
        px, py = xx * (1.0 - xx), y * (1.0 - y) * (1.0 - 2.0 * y)
        prof = px * py
        dx = x * (2.0 - 4.0 * xx) * py
        dy = px * (1.0 - 6.0 * y + 6.0 * y * y)
        lap = (2.0 - 12.0 * xx) * py + px * (12.0 * y - 6.0)
        return scale_dt(t) * prof + scale(t) * (-eps * lap + 2.0 * dx + 3.0 * dy + prof)

    return f


SCALES = {
    "space": (space_study_problem, lambda t: 100.0 * t, lambda t: 100.0),
    "time": (time_study_problem, lambda t: 1.0 + math.sin(2.0 * math.pi * t),
             lambda t: 2.0 * math.pi * math.cos(2.0 * math.pi * t)),
}


@pytest.mark.parametrize("problem", list(SCALES))
def test_kept_load_fields_equal_the_closed_form_bitwise(mesh, problem):
    # the time study's scale is 0.0 at t = 0.75, and 0.0 * S carries S's sign
    make, scale, scale_dt = SCALES[problem]
    eps = 1e-3
    spec, _ = make(eps=eps)
    ref = old_load(scale, scale_dt, eps)
    other = build_grid(ExperimentConfig(grid="fk"), 2).edges
    x, y = mesh.edges.x, mesh.edges.y
    for t in (0.0, 0.013, 0.37, 0.75, 1.0):
        # kept points, other read-only points, writeable points, kept again
        for px, py in ((x, y), (other.x, other.y), (x.copy(), y.copy()), (x, y)):
            assert spec.f(t, px, py).tobytes() == ref(t, px, py).tobytes()


def test_load_fields_evaluated_once_per_point_set(monkeypatch):
    # S and L S are evaluated once per read-only point set: once over a
    # 20-step run, again for another mesh's points, and at writeable
    # points on every call
    evaluated = []
    factors = femfct.problems._factors

    def spy(x, y):
        evaluated.append(x)
        return factors(x, y)

    monkeypatch.setattr(femfct.problems, "_factors", spy)
    spec, _ = space_study_problem()
    calls = collections.Counter()
    f = spec.f

    def counted(t, x, y):
        calls[id(x)] += 1
        return f(t, x, y)

    spec.f = counted
    meshes = [build_grid(ExperimentConfig(grid="fk"), 3), build_grid(ExperimentConfig(grid="shifted"), 3)]
    for k, mesh in enumerate(meshes + meshes[:1]):
        evaluated.clear()
        recs = TimeStepper(mesh, spec, SchemeKind("linear_fct")).run(20)
        # one load per level t = 0, ..., 20 tau, one field evaluation per
        # mesh; u0 evaluates S at the nodes
        assert calls[id(mesh.edges.x)] == 21 * (2 if k == 2 else 1)
        assert sum(x is mesh.edges.x for x in evaluated) == 1
        assert all(x is mesh.edges.x or x.shape == (mesh.n_nodes,) for x in evaluated)
        assert recs[-1].u.tobytes() != recs[-2].u.tobytes()
    # writeable points: evaluated at every call, never kept, so changing
    # them in place changes f
    x, y = meshes[0].edges.x.copy(), meshes[0].edges.y.copy()
    ref = old_load(lambda t: 100.0 * t, lambda t: 100.0, 1e-8)
    evaluated.clear()
    for _ in range(2):
        assert f(0.5, x, y).tobytes() == ref(0.5, x, y).tobytes()
        x *= 0.5
    assert len(evaluated) == 2
    # the kept fields of the last read-only points survived the writeable calls
    f(0.5, meshes[0].edges.x, meshes[0].edges.y)
    assert len(evaluated) == 2


def bits(value):
    return np.float64(value).tobytes()


# run_single's four integrated norms (10 steps, tau = 1e-3) as computed with
# the exact solution's callbacks at every record
RUN_SINGLE_CALLBACK_NORMS = {
    ("fk", 3, "space", "linear_fct"): {
        "dh": 6.140126114885599e-05, "fct": 6.283126423848463e-05,
        "h1": 0.0009948712713765836, "l2": 1.2604203896992641e-05,
    },
    ("fk", 3, "time", "nonlinear_fct"): {
        "dh": 4.7222311515469056e-05, "fct": 4.7635453071373266e-05,
        "h1": 0.0015970591304620293, "l2": 2.877098865767686e-05,
    },
    ("shifted", 3, "space", "linear_fct"): {
        "dh": 5.71991153803887e-05, "fct": 5.9760745066039576e-05,
        "h1": 0.0011535528089557556, "l2": 1.562110729960969e-05,
    },
    ("shifted", 3, "time", "nonlinear_fct"): {
        "dh": 4.954426194550009e-05, "fct": 5.0236853071796096e-05,
        "h1": 0.0015986020673306686, "l2": 2.8807553040340886e-05,
    },
    ("unstructured", 1, "space", "linear_fct"): {
        "dh": 0.0002075573346525016, "fct": 0.00021069720780273743,
        "h1": 0.0015987857093772103, "l2": 3.471499141972189e-05,
    },
    ("unstructured", 1, "time", "nonlinear_fct"): {
        "dh": 0.00012892717430262732, "fct": 0.00012984860230012718,
        "h1": 0.0020614325131929094, "l2": 5.828383422832718e-05,
    },
}


@pytest.mark.parametrize(
    "case", list(RUN_SINGLE_CALLBACK_NORMS), ids=lambda c: f"{c[0]}{c[1]}-{c[2]}-{c[3]}"
)
def test_run_single_norms_equal_the_callback_evaluation(case, monkeypatch):
    grid, level, problem, kind = case
    # the references were recorded with plain fixed-point iteration
    monkeypatch.setattr(TimeStepper, "step_nonlinear_fct", old_step_nonlinear_fct)
    spec, exact = PROBLEMS[problem](tau=1e-3, t_end=1e-2)
    integrated, _ = run_single(build_grid(ExperimentConfig(grid=grid), level), spec, exact, SchemeKind(kind))
    ref = RUN_SINGLE_CALLBACK_NORMS[case]
    # the edge-form assembly and the split round otherwise than the
    # element matrices and the quadrature sums of the reference
    for k in ("l2", "h1", "fct", "dh"):
        assert abs(integrated[k] - ref[k]) <= 1e-13 * ref[k]


def test_run_single_evaluates_the_profile_once_per_mesh():
    mesh = build_grid(ExperimentConfig(grid="unstructured"), 3)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapped(x, y):
            calls[name] += 1
            return fn(x, y)

        return wrapped

    counts = []
    for n_steps in (2, 5):
        spec, exact = space_study_problem(tau=1e-3, t_end=n_steps * 1e-3)
        spy = ExactSolution(
            exact.scale, counted("profile", exact.profile), counted("gradient", exact.profile_gradient)
        )
        calls.clear()
        integrated, _ = run_single(mesh, spec, spy, SchemeKind("linear_fct"))
        counts.append(dict(calls))
        reference, _ = run_single(mesh, spec, exact, SchemeKind("linear_fct"))
        assert {k: bits(v) for k, v in integrated.items()} == {k: bits(v) for k, v in reference.items()}
    # the profile at the nodes and at each of the 6 quadrature points of
    # every triangle, the gradient at those points, however many records
    # there are
    assert counts == [{"profile": 1 + 6, "gradient": 6}] * 2

    # a workspace keeps one profile and gradient: another pair replaces
    # the kept constants, and the norms are those of a fresh workspace
    u_h = np.zeros(mesh.n_nodes)
    other = ExactSolution(exact.scale, counted("other", lambda x, y: x * y), exact.profile_gradient)

    def norms(ws, e):
        return bits(ws.l2_error(u_h, e, 0.5)), bits(ws.h1_error(u_h, e, 0.5))

    expected = {"spy": norms(ErrorWorkspace(mesh), spy), "other": norms(ErrorWorkspace(mesh), other)}
    ws = ErrorWorkspace(mesh)
    calls.clear()
    for _ in range(3):
        assert norms(ws, spy) == expected["spy"]
    assert calls == {"profile": 7, "gradient": 6}
    assert norms(ws, other) == expected["other"]
    assert norms(ws, spy) == expected["spy"]
    assert calls == {"profile": 7 + 7, "gradient": 6 + 6, "other": 7}


@pytest.mark.parametrize("grid", ["fk", "shifted"])
def test_accelerated_answer_is_no_farther_from_the_fixed_point(grid, monkeypatch):
    # after 20 steps of the space problem on level 3, the accelerated u is
    # at least as close (max norm) to a tol-1e-12 plain run as plain
    # iteration at the default tol 1e-9 is
    mesh = build_grid(ExperimentConfig(grid=grid), 3)
    spec, _ = space_study_problem()

    def final_u(plain, tol):
        with monkeypatch.context() as patch:
            patch.setattr(femfct.stepper, "FP_TOL", tol)
            if plain:
                patch.setattr(TimeStepper, "step_nonlinear_fct", old_step_nonlinear_fct)
            stepper = TimeStepper(mesh, spec, SchemeKind("nonlinear_fct"))
            return stepper.run(20)[-1].u

    ref = final_u(True, 1e-12)
    accelerated = np.abs(final_u(False, 1e-9) - ref).max()
    plain = np.abs(final_u(True, 1e-9) - ref).max()
    assert accelerated <= plain


# -- the limited pairs alone: pair selection from the pair table, the d_h
# seminorm over alpha != 1, and the flux kernels in place


@pytest.fixture(
    scope="module",
    params=[("fk", 3, 0), ("fk", 3, 3), ("shifted", 3, 0), ("shifted", 3, 3),
            ("unstructured", 1, 0), ("unstructured", 1, 3)],
    ids=lambda p: f"{p[0]}{p[1]}-seed{p[2]}",
)
def pair_mesh(request):
    grid, level, seed = request.param
    return relabel(build_grid(ExperimentConfig(grid=grid), level), seed)


def old_zalesak_limits(pairs, f, bounds, dirichlet):
    """The Zalesak limiter's values, alpha evaluated on the pairs selected
    by ``limits[i] | limits[j]`` over every pair, which the columns of the
    limiting nodes in ``pairs.incident`` replace."""
    n, i, j = pairs.n, pairs.i, pairs.j
    q_plus, q_minus = bounds
    fpos = np.maximum(f, 0.0)
    fneg = np.minimum(f, 0.0)
    p_plus = np.bincount(i, fpos, n) - np.bincount(j, fneg, n)
    p_minus = np.bincount(i, fneg, n) - np.bincount(j, fpos, n)
    r_plus, r_minus = np.ones(n), np.ones(n)
    np.divide(q_plus, p_plus, out=r_plus, where=p_plus > 0.0)
    np.divide(q_minus, p_minus, out=r_minus, where=p_minus < 0.0)
    np.minimum(r_plus, 1.0, out=r_plus)
    np.minimum(r_minus, 1.0, out=r_minus)
    r_plus[dirichlet] = r_minus[dirichlet] = 1.0
    alpha = np.ones(f.shape)
    limits = (r_plus != 1.0) | (r_minus != 1.0)
    k = np.flatnonzero(limits[i] | limits[j])
    ik, jk = i[k], j[k]
    alpha[k] = np.where(
        f[k] > 0.0, np.minimum(r_plus[ik], r_minus[jk]), np.minimum(r_minus[ik], r_plus[jk])
    )
    return alpha


def old_raw_fluxes(pairs, m_ij, d_ij, u_new, u_prev, tau):
    """The raw fluxes with a fresh array per operation."""
    i, j = pairs.i, pairs.j
    du = u_new - u_prev
    return m_ij * (du[i] - du[j]) + tau * d_ij * (u_new[j] - u_new[i])


def old_linear_fluxes(pairs, m_ij, d_ij, m_lumped, r, u_prev, tau, dirichlet, g_rate):
    """The linearized fluxes with a fresh array per operation."""
    i, j = pairs.i, pairs.j
    nu = (-r) / m_lumped
    nu[dirichlet] = g_rate
    dnu = nu[i] - nu[j]
    return tau * m_ij * dnu + tau * d_ij * (u_prev[j] - u_prev[i] - tau * dnu)


def old_dh_seminorm(pairs, alpha, d_ij, e_nodes):
    """The d_h seminorm summed over every pair, ``alpha`` given on each."""
    de = e_nodes[pairs.j] - e_nodes[pairs.i]
    return math.sqrt(float(np.sum((1.0 - alpha) * np.abs(d_ij) * de * de)))


def recorded_calls(mesh, monkeypatch):
    """The arguments of the last linear_fluxes and zalesak calls of five
    linear FCT steps, and of the last raw_fluxes call of three nonlinear
    FCT steps, of the space problem on the mesh."""
    seen = {}
    for name in ("linear_fluxes", "raw_fluxes", "zalesak"):
        def recording(*args, _name=name, _fn=getattr(femfct.stepper, name)):
            seen[_name] = args
            return _fn(*args)

        monkeypatch.setattr(femfct.stepper, name, recording)
    spec, _ = space_study_problem(tau=1e-3, t_end=1e-2)
    TimeStepper(mesh, spec, SchemeKind("linear_fct")).run(5)
    TimeStepper(mesh, spec, SchemeKind("nonlinear_fct")).run(3)
    monkeypatch.undo()
    return seen


def perturbed(values, kind, rng):
    """The recorded values (``predictor``), random ones of their size, the
    same on a coarse grid with many ties and signed zeros, or random with a
    NaN at entry 7."""
    size = np.abs(values).max() + 1e-300
    if kind == "predictor":
        return values.copy()
    out = size * rng.standard_normal(values.shape)
    if kind == "ties":
        out = size * np.round(out / size * 4) / 4 * np.where(rng.random(values.shape) < 0.5, -1.0, 1.0)
    elif kind == "nan":
        out[7] = np.nan
    return out


@pytest.mark.parametrize("kind", ["predictor", "random", "ties", "nan"])
def test_flux_kernels_in_place_match_allocating_formulas_bitwise(pair_mesh, kind, monkeypatch):
    seen = recorded_calls(pair_mesh, monkeypatch)
    rng = np.random.default_rng(6)
    pairs, m_ij, d_ij, m_lumped, r, u_prev, tau, dirichlet, g_rate = seen["linear_fluxes"]
    r, u_prev = perturbed(r, kind, rng), perturbed(u_prev, kind, rng)
    args = (pairs, m_ij, d_ij, m_lumped, r, u_prev, tau, dirichlet, g_rate)
    inputs = r.tobytes(), u_prev.tobytes()
    flux = linear_fluxes(*args)
    assert flux.tobytes() == old_linear_fluxes(*args).tobytes()
    assert (r.tobytes(), u_prev.tobytes()) == inputs
    assert np.isnan(flux).any() == (kind == "nan")

    pairs, m_ij, d_ij, u_new, u_prev, tau = seen["raw_fluxes"]
    u_new, u_prev = perturbed(u_new, kind, rng), perturbed(u_prev, kind, rng)
    args = (pairs, m_ij, d_ij, u_new, u_prev, tau)
    inputs = u_new.tobytes(), u_prev.tobytes()
    flux = raw_fluxes(*args)
    assert flux.tobytes() == old_raw_fluxes(*args).tobytes()
    assert (u_new.tobytes(), u_prev.tobytes()) == inputs
    if kind == "ties":
        assert np.any(flux == 0.0)


def zalesak_inputs(seen, kind):
    """The recorded arguments of the last zalesak call, its fluxes
    ``perturbed`` and, for ``ties``, its bounds rounded to a coarse grid."""
    pairs, flux, bounds, dirichlet = seen["zalesak"]
    rng = np.random.default_rng(7)
    flux = perturbed(flux, kind, rng)
    if kind == "ties":
        # equal bounds and zero bounds of either sign
        bounds = tuple(np.round(q / np.abs(q).max() * 2) / 2 * np.abs(q).max() for q in bounds)
    elif kind == "nan":
        # a NaN flux alone leaves R at 1 (no P compares > 0); NaN bounds
        # at every tenth node give NaN ratios
        bounds = tuple(np.where(np.arange(q.size) % 10 == 0, np.nan, q) for q in bounds)
    return pairs, flux, bounds, dirichlet


@pytest.mark.parametrize("kind", ["predictor", "random", "ties", "nan"])
def test_pair_table_selection_matches_every_pair_scan_bitwise(pair_mesh, kind, monkeypatch):
    # sign bits included; with the range check off, NaN alpha on the same
    # pairs, which the check rejects in both
    pairs, flux, bounds, dirichlet = zalesak_inputs(recorded_calls(pair_mesh, monkeypatch), kind)
    ref = old_zalesak_limits(pairs, flux, bounds, dirichlet)
    if kind == "nan":
        assert np.isnan(ref).any()
        with pytest.raises(ValueError, match="outside"):
            zalesak(pairs, flux, bounds, dirichlet)
        monkeypatch.setattr(LimiterMatrix, "__post_init__", lambda self: None)
    alpha = zalesak(pairs, flux, bounds, dirichlet)[0].expanded(pairs.i.size)
    assert alpha.tobytes() == ref.tobytes()
    if kind == "nan":
        return
    assert np.any(ref < 1.0) and np.any(ref == 1.0)
    if kind == "predictor":
        # a few limited pairs, as in a real step
        assert np.count_nonzero(ref != 1.0) < 0.2 * ref.size


@pytest.mark.parametrize("scheme", ["linear_fct", "nonlinear_fct", "constant"])
def test_dh_seminorm_over_limited_pairs_matches_every_pair_sum(pair_mesh, scheme):
    schemes = {
        "linear_fct": SchemeKind("linear_fct"),
        "nonlinear_fct": SchemeKind("nonlinear_fct"),
        "constant": SchemeKind("linear_fct", ConstantLimiter(0.5)),
    }
    spec, exact = space_study_problem(tau=1e-3, t_end=1e-2)
    stepper = TimeStepper(pair_mesh, spec, schemes[scheme])
    pairs, d_ij = stepper.pairs, stepper._constant_operators[1]
    ws = ErrorWorkspace(pair_mesh)
    rng = np.random.default_rng(8)
    limited = 0
    for rec in stepper.run(10)[1:]:
        alpha = rec.alpha
        every = alpha.expanded(pairs.i.size)
        for e in (ws.nodal_error(rec.u, exact, rec.t), rng.standard_normal(pair_mesh.n_nodes)):
            dh, ref = dh_seminorm(pairs, alpha, d_ij, e), old_dh_seminorm(pairs, every, d_ij, e)
            assert_close(dh, ref)
            if scheme == "constant":
                continue
            # a node on no limited pair is not read
            on_limited = np.zeros(pair_mesh.n_nodes, dtype=bool)
            on_limited[pairs.i[every != 1.0]] = on_limited[pairs.j[every != 1.0]] = True
            e[np.flatnonzero(~on_limited)[0]] = np.nan
            assert bits(dh_seminorm(pairs, alpha, d_ij, e)) == bits(dh)
        limited = max(limited, np.count_nonzero(every != 1.0))
    assert 0 < limited < pairs.i.size


@pytest.mark.parametrize("kind", ["galerkin", "low_order", "constant"])
def test_dh_seminorm_of_fixed_limiters(pair_mesh, kind):
    # alpha = 1 everywhere: exactly zero, from no pair; a fixed limiter
    # below 1, which lists no pair: every pair, in the full sum's order
    schemes = {
        "galerkin": SchemeKind("galerkin"),
        "low_order": SchemeKind("low_order"),
        "constant": SchemeKind("linear_fct", ConstantLimiter(0.5, zalesak_boundary=False)),
    }
    spec, _ = space_study_problem(tau=1e-3, t_end=1e-2)
    stepper = TimeStepper(pair_mesh, spec, schemes[kind])
    pairs, alpha, d_ij = stepper.pairs, stepper.fixed_alpha, stepper._constant_operators[1]
    e = np.random.default_rng(9).standard_normal(pair_mesh.n_nodes)
    dh = dh_seminorm(pairs, alpha, d_ij, e)
    if kind == "galerkin":
        assert dh == 0.0 and not np.signbit(dh)
    else:
        assert dh > 0.0
        assert bits(dh) == bits(old_dh_seminorm(pairs, alpha.expanded(pairs.i.size), d_ij, e))


# -- the listed limiter: the Zalesak limiter keeps alpha on the pairs it
# evaluates alone, 1 on every other pair, against the limiter and d_h
# seminorm on every pair that it replaced; the correction, now from the
# limiter's unlimited sums, against its formula to rounding


def dense_zalesak(pairs, f, bounds, dirichlet):
    """The Zalesak limiter's alpha on every pair, and which nodes limit
    (R^+ or R^- not 1), as computed when each limiter stored every pair."""
    n, i, j = pairs.n, pairs.i, pairs.j
    q_plus, q_minus = bounds
    fpos = np.maximum(f, 0.0)
    fneg = np.minimum(f, 0.0)
    p_plus = np.bincount(i, fpos, n) - np.bincount(j, fneg, n)
    p_minus = np.bincount(i, fneg, n) - np.bincount(j, fpos, n)
    r_plus, r_minus = np.ones(n), np.ones(n)
    np.divide(q_plus, p_plus, out=r_plus, where=p_plus > 0.0)
    np.divide(q_minus, p_minus, out=r_minus, where=p_minus < 0.0)
    np.minimum(r_plus, 1.0, out=r_plus)
    np.minimum(r_minus, 1.0, out=r_minus)
    r_plus[dirichlet] = r_minus[dirichlet] = 1.0
    limits = (r_plus != 1.0) | (r_minus != 1.0)
    alpha = np.ones(f.shape)
    k = pairs.incident[:, np.flatnonzero(limits)].ravel()
    k = k[k >= 0]
    ik, jk = i[k], j[k]
    alpha[k] = np.where(
        f[k] > 0.0, np.minimum(r_plus[ik], r_minus[jk]), np.minimum(r_minus[ik], r_plus[jk])
    )
    return alpha, limits


def assert_correction_matches_formula(pairs, alpha, f, fstar):
    """f*_i = sum_j alpha_ij f_ij, ``alpha`` given on every pair, f_ji =
    -f_ij and alpha_ji = alpha_ij, within (2 deg_i + 2) eps sum_j |f_ij|
    at each node, against the terms of the dense n x n matrices summed
    exactly (math.fsum); NaN at the same nodes.  sum_i f*_i, zero in exact
    arithmetic, within the sum of those bounds plus the rounding of
    summing f*."""
    n, i, j = pairs.n, pairs.i, pairs.j
    dense_f, dense_alpha = np.zeros((n, n)), np.ones((n, n))
    dense_f[i, j], dense_f[j, i] = f, -f
    dense_alpha[i, j] = dense_alpha[j, i] = alpha
    ref = np.array([math.fsum(row) for row in dense_alpha * dense_f])
    eps = np.finfo(float).eps
    degree = np.bincount(np.concatenate((i, j)), minlength=n)
    bound = (2 * degree + 2) * eps * np.abs(dense_f).sum(axis=1)
    assert np.array_equal(np.isnan(fstar), np.isnan(ref))
    finite = ~np.isnan(ref)
    assert np.all(np.abs(fstar - ref)[finite] <= bound[finite])
    if finite.all():
        assert abs(fstar.sum()) <= bound.sum() + n * eps * np.abs(fstar).sum()


@pytest.mark.parametrize("listing", ["listed", "every", "empty", "rest"])
def test_correction_matches_formula(pair_mesh, listing):
    # a dense antisymmetric F (every pair's flux nonzero, sizes over six
    # decades) and a symmetric alpha, which lists a random third of the
    # pairs, every pair or none, with the values 0 and 1 among its own,
    # alpha = 1 on the others, or a random third with alpha = 0.3 on the
    # others; the unlimited sums computed by correction_vector or handed
    # over by zalesak
    pairs = pair_mesh.pairs
    npairs = pairs.i.size
    rng = np.random.default_rng(12)
    for _ in range(3):
        f = rng.standard_normal(npairs) * 10.0 ** rng.uniform(-3.0, 3.0, npairs)
        ids = {
            "listed": np.flatnonzero(rng.random(npairs) < 1.0 / 3.0),
            "every": np.arange(npairs),
            "empty": np.empty(0, dtype=np.intp),
            "rest": np.flatnonzero(rng.random(npairs) < 1.0 / 3.0),
        }[listing]
        values = rng.random(ids.size)
        values[rng.random(ids.size) < 0.2] = 0.0
        values[rng.random(ids.size) < 0.2] = 1.0
        rest = 0.3 if listing == "rest" else 1.0
        alpha = LimiterMatrix(pairs.i[ids], pairs.j[ids], values, ids, rest)
        bounds = zalesak_bounds(pairs, rng.standard_normal(pairs.n), np.ones(pairs.n))
        _, sums = zalesak(pairs, f, bounds, np.empty(0, dtype=np.intp))
        for given in (None, sums):
            fstar = correction_vector(pairs, alpha, f, given)
            assert_correction_matches_formula(pairs, alpha.expanded(npairs), f, fstar)
        if listing == "every":
            # a fixed limiter 0 (low order) cancels its own sums exactly
            zero = LimiterMatrix(pairs.i, pairs.j, np.zeros(npairs), ids)
            assert correction_vector(pairs, zero, f).tobytes() == np.zeros(pairs.n).tobytes()


def old_correction_vector(pairs, alpha, f):
    """The correction with alpha = 1 off the listed pairs: the unlimited
    sums plus the sums of (alpha_ij - 1) f_ij over the listed pairs whose
    alpha is not 1, a fixed limiter v listing every pair."""
    sums = bin_sums(pairs.i, f, pairs.n) - bin_sums(pairs.j, f, pairs.n)
    patch = alpha.values != 1.0
    w = alpha.values[patch] - 1.0
    w *= f[alpha.ids[patch]]
    fstar = bin_sums(alpha.i[patch], w, pairs.n)
    fstar -= bin_sums(alpha.j[patch], w, pairs.n)
    fstar += sums
    return fstar


@pytest.mark.parametrize("rest", [0.0, 0.5, 1.0])
def test_correction_of_a_fixed_limiter_matches_every_pair_list_bitwise(pair_mesh, rest):
    # a limiter listing no pair, alpha = rest on all of them, against the
    # same value listed on every pair, both summing their own unlimited
    # sums, as a fixed limiter's step has them; sign bits included, with
    # exact zero fluxes and nodes whose fluxes are all zero: rest = 0 must
    # give +0.0 everywhere, where rest * sums gives -0.0 at every node
    # with negative sums
    pairs = pair_mesh.pairs
    npairs, none = pairs.i.size, np.empty(0, dtype=np.intp)
    fixed = LimiterMatrix(none, none, np.empty(0), none, rest)
    listed = LimiterMatrix(pairs.i, pairs.j, np.full(npairs, rest), np.arange(npairs))
    rng = np.random.default_rng(13)
    for _ in range(3):
        f = rng.standard_normal(npairs) * 10.0 ** rng.uniform(-3.0, 3.0, npairs)
        f[rng.random(npairs) < 0.3] = 0.0
        f[np.isin(pairs.i, rng.integers(pairs.n, size=5))] = 0.0
        new = correction_vector(pairs, fixed, f)
        assert new.tobytes() == old_correction_vector(pairs, listed, f).tobytes()
        if rest == 0.0:
            assert new.tobytes() == np.zeros(pairs.n).tobytes()


def dense_dh_seminorm(pairs, alpha, d_ij, e_nodes):
    """The d_h seminorm over the pairs with alpha != 1, ``alpha`` given on
    every pair."""
    k = np.flatnonzero(alpha != 1.0)
    de = e_nodes[pairs.j[k]] - e_nodes[pairs.i[k]]
    return math.sqrt(float(np.sum((1.0 - alpha[k]) * np.abs(d_ij[k]) * de * de)))


@pytest.mark.parametrize("kind", ["predictor", "random", "ties", "nan"])
def test_listed_limiter_matches_every_pair_oracles_bitwise(pair_mesh, kind, monkeypatch):
    # sign bits included; NaN alpha with the range check off
    seen = recorded_calls(pair_mesh, monkeypatch)
    pairs, flux, bounds, dirichlet = zalesak_inputs(seen, kind)
    d_ij = seen["linear_fluxes"][2]
    ref, limits = dense_zalesak(pairs, flux, bounds, dirichlet)
    if kind == "nan":
        assert np.isnan(ref).any()
        monkeypatch.setattr(LimiterMatrix, "__post_init__", lambda self: None)
    alpha, sums = zalesak(pairs, flux, bounds, dirichlet)
    assert alpha.expanded(pairs.i.size).tobytes() == ref.tobytes()
    # unique and sorted, and exactly the pairs touching a limiting node
    assert np.all(np.diff(alpha.ids) > 0)
    assert np.array_equal(alpha.ids, np.flatnonzero(limits[pairs.i] | limits[pairs.j]))
    assert np.array_equal(alpha.i, pairs.i[alpha.ids])
    assert np.array_equal(alpha.j, pairs.j[alpha.ids])
    assert alpha.ids.size > 0
    if kind == "predictor":
        assert alpha.ids.size < 0.2 * pairs.i.size
    # the correction from zalesak's sums against the formula, to rounding
    assert_correction_matches_formula(pairs, ref, flux, correction_vector(pairs, alpha, flux, sums))
    for e in (np.random.default_rng(10).standard_normal(pairs.n), np.linspace(0.0, 1.0, pairs.n)):
        assert bits(dh_seminorm(pairs, alpha, d_ij, e)) == bits(dense_dh_seminorm(pairs, ref, d_ij, e))


# -- the variable-coefficient path on a cached structure: Abar and the
# system gathered from the mesh pattern while the exact zeros of a + d
# stay those of the last build, against scipy's sums on every step


class SumsEveryStep(TimeStepper):
    """A stepper that forgets Abar's structure before every build: each
    Abar is scipy's sum a + d and each system the sums, apply_dirichlet
    and the LU's column slice."""

    def _build_operators(self, t):
        self._abar_structure = None
        return super()._build_operators(t)


def rotating_spec():
    """The space problem with b = (2 cos 40t, 3 sin 40t) on the
    variable-coefficient path: the exact zeros of Abar move with t."""
    spec, _ = space_study_problem()
    spec.constant_coefficients = False
    spec.b = lambda t, x, y: (np.full_like(x, 2.0 * np.cos(40.0 * t), dtype=float),
                              np.full_like(x, 3.0 * np.sin(40.0 * t), dtype=float))
    return spec


def gathered_runs(stepper, n_steps, monkeypatch):
    """The records of ``stepper.run(n_steps)`` and, per LU, whether its
    system came on the order's column-permuted arrays."""
    gathered = []

    def recording(matrix, order=None):
        gathered.append(order is not None and matrix.indptr is order[0])
        return Factorization(matrix, order=order)

    with monkeypatch.context() as patch:
        patch.setattr(femfct.stepper, "Factorization", recording)
        records = stepper.run(n_steps)
    return records, gathered


@pytest.mark.parametrize("kind", ["low_order", "linear_fct", "nonlinear_fct"])
def test_gathered_systems_match_scipy_sums(pair_mesh, kind, monkeypatch):
    # 30 steps of the rotating velocity, whose structure changes mid-run:
    # every u bitwise that of a run summing on every step
    spec = rotating_spec()
    new, gathered = gathered_runs(TimeStepper(pair_mesh, spec, SchemeKind(kind)), 30, monkeypatch)
    ref, summed = gathered_runs(SumsEveryStep(pair_mesh, spec, SchemeKind(kind)), 30, monkeypatch)
    assert not any(summed)
    # the first LU and each one after a change of structure come from the
    # sums, the others through the map; the structure changes at 28 of the
    # 29 steps after the first on the unstructured mesh, 7 on shifted L3
    # and 3 on FK L3
    assert 1 < gathered.count(False) and 0 < gathered.count(True)
    for a, b in zip(new, ref, strict=True):
        assert a.u.tobytes() == b.u.tobytes()


@pytest.mark.parametrize("kind", ["galerkin", "low_order", "linear_fct", "nonlinear_fct"])
def test_constant_coefficients_never_build_the_map(fk2, kind, monkeypatch):
    maps = []
    gather_map = TimeStepper._gather_map
    monkeypatch.setattr(
        TimeStepper, "_gather_map", lambda self, order: maps.append(order) or gather_map(self, order)
    )
    spec, _ = space_study_problem()
    stepper = TimeStepper(fk2, spec, SchemeKind(kind))
    stepper.run(10)
    assert maps == []
    assert stepper._gather is None and stepper._abar_data is None
    # the variable-coefficient path builds one for its constant structure
    spec.constant_coefficients = False
    TimeStepper(fk2, spec, SchemeKind(kind)).run(10)
    assert len(maps) == (kind != "galerkin")


@pytest.mark.parametrize("change", ["newly_zero", "newly_nonzero"])
@pytest.mark.parametrize("kind", ["low_order", "linear_fct"])
def test_changed_zero_of_abar_takes_scipy_sums(mesh, kind, change, monkeypatch):
    # a_ii := -d_ii at an interior node makes abar_ii exactly 0: at step 5
    # only (newly zero), or at every step but 5 (newly nonzero at step 5);
    # that step and the one after build Abar and the system by scipy's
    # sums, as does the first LU, and every other LU gathers its system;
    # every u is that of a run summing on every step
    node = np.flatnonzero(~mesh.boundary_mask)[0]
    pos = mesh.pattern.diag[node]
    spec, _ = space_study_problem()
    spec.constant_coefficients = False
    at_step_5 = lambda t: abs(t - 5 * spec.tau) < 0.5 * spec.tau
    zero_at = at_step_5 if change == "newly_zero" else lambda t: not at_step_5(t)
    assemble = femfct.stepper.assemble_stiffness

    def stiffness(mesh, spec, t):
        a = assemble(mesh, spec, t)
        if zero_at(t):
            a.data[pos] = -artificial_diffusion(a, mesh.pattern).data[pos]
        return a

    monkeypatch.setattr(femfct.stepper, "assemble_stiffness", stiffness)
    runs = []
    for cls in (TimeStepper, SumsEveryStep):
        stepper = cls(mesh, spec, SchemeKind(kind))
        records, gathered = gathered_runs(stepper, 10, monkeypatch)
        level = TimeLevel(stepper, 5 * spec.tau)
        assert (level.ops[0][node, node] == 0.0) == (change == "newly_zero")
        runs.append((records, gathered))
    (new, gathered), (ref, summed) = runs
    assert gathered == [False] + [True] * 3 + [False, False] + [True] * 4
    assert not any(summed)
    for a, b in zip(new, ref, strict=True):
        assert a.u.tobytes() == b.u.tobytes()


def test_zero_of_the_system_takes_scipy_sums(fk2):
    # Abar's structure seen again, but an exact zero of the system where
    # the LU's order stores an entry: the system comes from the sums
    spec, _ = space_study_problem()
    spec.constant_coefficients = False
    stepper = TimeStepper(fk2, spec, SchemeKind("low_order"))
    stepper.run(3)
    abar, data = stepper._abar_data
    order = stepper._lu.order
    assert stepper._gathered_system(abar, order) is not None
    pos = fk2.pattern.diag[np.flatnonzero(~fk2.boundary_mask)[0]]
    stepper._mass_v_data[pos] = -(spec.tau * data[pos])
    assert stepper._gathered_system(abar, order) is None
