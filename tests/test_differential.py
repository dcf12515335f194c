"""Differential tests: the shared per-mesh geometry, edge numbering,
sparsity pattern and pair graph, and the Zalesak bounds computed once per
step, against the per-call reconstructions they replaced.

The references below are the former implementations, written inline:
element geometry recomputed from the node coordinates, COO assembly
(scipy's COO->CSR conversion for the matrices, ``np.add.at`` for the
load), coefficients and load evaluated at each triangle's own edge
midpoints (three points per triangle) and summed with ``einsum``, the
edge list read with ``np.unique``, the pair list read with
``sparse.triu`` plus ``lexsort``, the artificial diffusion built through
a transpose and ``setdiag``, the red refinement numbering its midpoints
through a dict, the M-matrix check reading the entries through COO, the
Delaunay angle sums collected per edge in a dict, the lattice grids
built cell by cell, the Zalesak limiter recomputing its bounds from
``ubar`` on every call, an LU ordering its columns afresh for every
matrix, and COLAMD's column order for the upwinded systems that now
factor in downwind order, SuperLU's default panel size for the
triangular LU, the L2 and H1 error norms as whole-mesh einsums, the
manufactured problem's closed forms, the exact solution's callbacks
evaluated at every record, which a separable solution's profile kept per
error workspace replaces, the three system matrices of Galerkin, low
order and the constant-limiter nonlinear scheme, which the one
fixed-limiter system S_v replaces, the Zalesak limiter computing alpha on
every pair, prelimiting that gathers ubar_i - ubar_j on every call, the
manufactured source evaluating its closed form on every call, and
``apply_dirichlet`` scanning every row of every system it constrains.  Every mesh is also tried with its nodes
randomly relabelled, which leaves the CSR column order unsorted before
assembly.
"""

import collections
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

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
    fct_norm,
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
from femfct.errors import BLOCK, QUAD4_BARY, QUAD4_W, ErrorWorkspace
from femfct.mesh import _make_mesh

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


def test_geometry_matches_recomputation(mesh):
    area, grads, _ = old_geometry(mesh)
    geo, edges = mesh.geometry, mesh.edges
    np.testing.assert_array_equal(geo.areas, area)
    np.testing.assert_array_equal(geo.grads, grads)
    np.testing.assert_array_equal(geo.gram, np.einsum("mid,mjd->mij", grads, grads))
    pts = old_midpoints(mesh)
    np.testing.assert_array_equal(edges.x[edges.of_triangle], pts[..., 0])
    np.testing.assert_array_equal(edges.y[edges.of_triangle], pts[..., 1])


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


@pytest.mark.parametrize("t", [0.0, 0.25, 0.7])
def test_load_matches_per_triangle_einsum_bitwise(mesh, spec, t):
    pts = old_midpoints(mesh)
    x, y = pts[..., 0], pts[..., 1]
    local = mesh.geometry.areas[:, None] * np.einsum(
        "q,mq,qi->mi", QUAD2_W, spec.f(t, x, y), QUAD2_BARY
    )
    ref = np.bincount(mesh.triangles.ravel(), local.ravel(), mesh.n_nodes)
    np.testing.assert_array_equal(assemble_load(mesh, spec, t), ref)


@pytest.mark.parametrize("t", [0.0, 0.25, 0.7])
def test_stiffness_matches_per_triangle_evaluation_bitwise(mesh, spec, t):
    # the per-triangle element matrices, scattered with the pattern
    local = old_local_stiffness(mesh, spec, t)
    pattern = mesh.pattern
    ref = np.bincount(pattern.of_element.ravel(), local.ravel(), pattern.indices.size)
    new = assemble_stiffness(mesh, spec, t)
    np.testing.assert_array_equal(new.indptr, pattern.indptr)
    np.testing.assert_array_equal(new.indices, pattern.indices)
    np.testing.assert_array_equal(new.data, ref)
    np.testing.assert_array_equal(np.signbit(new.data), np.signbit(ref))


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
                zalesak(pairs, flux, bounds, nodes).values,
                old_zalesak(pairs, flux, ubar, m_lumped, dirichlet=dirichlet),
            )


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
    flux = prelimit(raw, ubar[pairs.i] - ubar[pairs.j])
    return raw, flux, ubar, zalesak_bounds(pairs, ubar, m_lumped)


@pytest.mark.parametrize("state", ["none", "all", "mixed"])
def test_zalesak_matches_full_where_bitwise(mesh, operators, state):
    # alpha computed only on the pairs touching a limiting node, against
    # alpha on every pair; sign bits included
    no_nodes, pairs = np.empty(0, dtype=np.intp), mesh.pairs
    for seed in range(3):
        _, flux, _, bounds = limiter_state(mesh, operators, state, seed)
        every, interior = (
            zalesak(pairs, flux, bounds, dirichlet).values
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
        assert stepper._limit(flux, bounds).values.tobytes() == ref.tobytes()


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
    pattern, edges, t = mesh.pattern, mesh.edges, mesh.triangles
    ref = old_sorted_csr(mesh, np.ones((mesh.n_triangles, 3, 3)))
    np.testing.assert_array_equal(pattern.indptr, ref.indptr)
    np.testing.assert_array_equal(pattern.indices, ref.indices)
    assert pattern.indptr.dtype == pattern.indices.dtype == np.int32
    row = np.repeat(np.arange(mesh.n_nodes), np.diff(pattern.indptr))
    col = pattern.indices
    # every position indexes the (row, col) it stands for
    shape = (mesh.n_triangles, 3, 3)
    np.testing.assert_array_equal(row[pattern.of_element], np.broadcast_to(t[:, :, None], shape))
    np.testing.assert_array_equal(col[pattern.of_element], np.broadcast_to(t[:, None, :], shape))
    np.testing.assert_array_equal(row[pattern.diag], np.arange(mesh.n_nodes))
    np.testing.assert_array_equal(col[pattern.diag], np.arange(mesh.n_nodes))
    np.testing.assert_array_equal(row[pattern.upper], edges.i)
    np.testing.assert_array_equal(col[pattern.upper], edges.j)
    np.testing.assert_array_equal(row[pattern.lower], edges.j)
    np.testing.assert_array_equal(col[pattern.lower], edges.i)
    for arr in (pattern.indptr, pattern.indices, pattern.diag, pattern.upper,
                pattern.lower, pattern.of_element):
        assert not arr.flags.writeable
    # assemble's bincount index: of_element's memory, flat and writeable,
    # so that np.bincount does not copy it
    positions = pattern._positions
    assert positions.flags.writeable and positions.flags.c_contiguous
    assert positions.dtype == np.intp and np.shares_memory(positions, pattern.of_element)
    np.testing.assert_array_equal(positions, pattern.of_element.ravel())
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
def test_reused_column_order_matches_fresh_lu(mesh, spec, scheme, monkeypatch):
    # a matrix of the stepper's system's structure, factored in the column
    # order of the stepper's LU, pivots, fills and solves as a fresh
    # COLAMD factorization of it
    systems = []

    def recording(matrix, **kwargs):
        systems.append(matrix)
        return Factorization(matrix, **kwargs)

    monkeypatch.setattr(femfct.stepper, "Factorization", recording)
    stepper = TimeStepper(mesh, spec, scheme)
    first = stepper._factorization(TimeLevel(stepper, 0.0))
    rng = np.random.default_rng(3)
    system = sparse.csc_matrix(systems[0], copy=True)
    system.data *= 1.0 + 0.01 * rng.random(system.nnz)
    reused, fresh = Factorization(system, order=first.order), splu(system)
    assert reused.order[2] is first.order[2]
    np.testing.assert_array_equal(reused._lu.perm_r, fresh.perm_r)
    assert reused._lu.L.nnz + reused._lu.U.nnz == fresh.L.nnz + fresh.U.nnz
    for _ in range(3):
        rhs = rng.standard_normal(mesh.n_nodes)
        assert reused.solve(rhs).tobytes() == fresh.solve(rhs).tobytes()


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
    # LU in COLAMD's column order (reused across steps as before)
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
        fstar = correction_vector(stepper.fixed_alpha, raw)
        assert bits(rec.flux_abs_sum) == bits(float(np.abs(raw).sum()))
        assert bits(rec.correction_sum) == bits(float(fstar.sum()))
        tau_f = tau * assemble_load(mesh, spec, rec.t)
        res = m_lumped * rec.u + tau * ((a + d) @ rec.u) - tau_f - m_lumped * prev.u - fstar
        assert np.abs(res[interior]).max() <= 1e-13 * np.abs(tau_f).max()


@pytest.mark.parametrize("name", list(FIXED_LIMITER_SCHEMES) + ["linear_fct"])
def test_dirichlet_positions_follow_the_structure(mesh, spec, name):
    # the kept positions of the boundary rows serve every system of the
    # last structure constrained and are found again for another one; the
    # constrained system equals apply_dirichlet's own scan bitwise
    scheme = FIXED_LIMITER_SCHEMES.get(name, SchemeKind("linear_fct"))
    stepper = TimeStepper(mesh, spec, scheme)
    system = stepper._mass_v + spec.tau * TimeLevel(stepper, 0.5).ops[0]
    # new arrays of the same structure, and one entry fewer
    scaled = system.copy()
    scaled.data *= 1.5
    dropped = system.copy()
    off = dropped.indices != np.repeat(np.arange(mesh.n_nodes), np.diff(dropped.indptr))
    dropped.data[np.flatnonzero(off)[0]] = 0.0
    dropped.eliminate_zeros()
    kept = []
    for matrix in (system, scaled, dropped, system):
        kept.append(stepper._dirichlet_positions(matrix))
        new, ref = apply_dirichlet(matrix, mesh, kept[-1]), apply_dirichlet(matrix, mesh)
        for part in ("indptr", "indices", "data"):
            assert getattr(new, part).tobytes() == getattr(ref, part).tobytes()
    assert kept[1] is kept[0] and kept[2] is not kept[1] and kept[3] is not kept[2]
    # Galerkin's (1-v) M_L + v M is the mass matrix itself
    assert (stepper._mass_v is stepper.mass) == (name == "galerkin")


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


@pytest.mark.parametrize("level", range(5))
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
    return l2, h1, qx, qy


@pytest.mark.parametrize(
    "grid, level, n_triangles",
    # one partial block, two full blocks, a full and a ragged block
    [("fk", 2, 128), ("fk", 5, 2 * BLOCK), ("shifted", 5, 2 * BLOCK),
     ("unstructured", 3, BLOCK + 512)],
)
def test_blocked_error_norms_match_whole_mesh_einsums(grid, level, n_triangles):
    mesh = build_grid(ExperimentConfig(grid=grid), level)
    assert mesh.n_triangles == n_triangles
    _, exact = space_study_problem()
    ws = ErrorWorkspace(mesh)
    rng = np.random.default_rng(level)
    for t in (0.0, 0.37, 1.0):
        u_h = rng.standard_normal(mesh.n_nodes)
        l2, h1, qx, qy = old_error_norms(mesh, u_h, exact, t)
        assert abs(ws.l2_error(u_h, exact.u, t) - l2) <= 1e-13 * l2
        assert abs(ws.h1_error(u_h, exact.gradient, t) - h1) <= 1e-13 * h1
    # the quadrature points are the same barycentric sums
    points = [ws._points(b) for b in ws._blocks]
    assert np.concatenate([p[0] for p in points], axis=1).T.tobytes() == qx.tobytes()
    assert np.concatenate([p[1] for p in points], axis=1).T.tobytes() == qy.tobytes()


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
def test_run_single_norms_match_former_evaluation(case):
    grid, level, kind = case
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


@pytest.mark.parametrize(
    "grid, level, n_triangles",
    # the differential meshes, then one partial block, two full blocks, and
    # a full and a ragged block
    [("fk", 3, 512), ("shifted", 3, 512), ("unstructured", 1, 288), ("fk", 2, 128),
     ("fk", 5, 2 * BLOCK), ("unstructured", 3, BLOCK + 512)],
)
def test_separable_error_norms_equal_the_callbacks_bitwise(grid, level, n_triangles):
    mesh = build_grid(ExperimentConfig(grid=grid), level)
    assert mesh.n_triangles == n_triangles
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    ws = ErrorWorkspace(mesh)
    rng = np.random.default_rng(level)
    # both problems share the profile, so the second reuses the kept values;
    # the time study's scale is 0.0 at t = 0.75, and 0.0 * S carries S's sign
    for problem in (space_study_problem, time_study_problem):
        _, exact = problem()
        for t in (0.0, 0.013, 0.37, 0.75, 1.0):
            u_h = exact.u(t, x, y) + 1e-3 * rng.standard_normal(mesh.n_nodes)
            assert bits(ws.l2_error(u_h, exact, t)) == bits(ws.l2_error(u_h, exact.u, t))
            assert bits(ws.h1_error(u_h, exact, t)) == bits(ws.h1_error(u_h, exact.gradient, t))
            # the exact values themselves, sign bits included
            kept = list(ws._exact(exact, "profile", t))
            called = list(ws._exact(exact.u, "profile", t))
            assert [v.tobytes() for v in kept] == [v.tobytes() for v in called]
            kept = list(ws._exact(exact, "profile_gradient", t))
            called = list(ws._exact(exact.gradient, "profile_gradient", t))
            assert [g.tobytes() for pair in kept for g in pair] == [
                g.tobytes() for pair in called for g in pair
            ]


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
PROBLEMS = {"space": space_study_problem, "time": time_study_problem}


@pytest.mark.parametrize(
    "case", list(RUN_SINGLE_CALLBACK_NORMS), ids=lambda c: f"{c[0]}{c[1]}-{c[2]}-{c[3]}"
)
def test_run_single_norms_equal_the_callback_evaluation(case):
    grid, level, problem, kind = case
    spec, exact = PROBLEMS[problem](tau=1e-3, t_end=1e-2)
    integrated, _ = run_single(build_grid(ExperimentConfig(grid=grid), level), spec, exact, SchemeKind(kind))
    assert {k: bits(v) for k, v in integrated.items()} == {
        k: bits(v) for k, v in RUN_SINGLE_CALLBACK_NORMS[case].items()
    }


def test_run_single_evaluates_the_profile_once_per_block():
    mesh = build_grid(ExperimentConfig(grid="unstructured"), 3)  # 2 blocks
    calls = collections.Counter()

    def counted(name, fn):
        def wrapped(x, y):
            calls[name] += 1
            return fn(x, y)

        return wrapped

    for n_steps in (2, 5):
        spec, exact = space_study_problem(tau=1e-3, t_end=n_steps * 1e-3)
        spy = ExactSolution(
            exact.scale, counted("profile", exact.profile), counted("gradient", exact.profile_gradient)
        )
        calls.clear()
        integrated, _ = run_single(mesh, spec, spy, SchemeKind("linear_fct"))
        # per block once for l2_error and once for h1_error, plus the nodes
        assert calls == {"profile": 2 + 1, "gradient": 2}
        reference, _ = run_single(mesh, spec, exact, SchemeKind("linear_fct"))
        assert {k: bits(v) for k, v in integrated.items()} == {k: bits(v) for k, v in reference.items()}

    # a workspace keeps one profile: another function replaces the kept values
    ws, u_h = ErrorWorkspace(mesh), np.zeros(mesh.n_nodes)
    calls.clear()
    for _ in range(3):
        ws.l2_error(u_h, spy, 0.5)
    assert calls == {"profile": 2}
    other = ExactSolution(exact.scale, counted("other", lambda x, y: x * y), exact.profile_gradient)
    ws.l2_error(u_h, other, 0.5)
    ws.l2_error(u_h, spy, 0.5)
    assert calls == {"profile": 4, "other": 2}


@pytest.mark.parametrize("grid, level", [("fk", 3), ("shifted", 3), ("unstructured", 1)])
def test_fct_norm_equals_the_workspace_formula_bitwise(grid, level):
    # fct_norm assembles only the two norm matrices, no error workspace
    mesh = build_grid(ExperimentConfig(grid=grid), level)
    ws, rng = ErrorWorkspace(mesh), np.random.default_rng(level)
    pairs = mesh.pairs
    for _ in range(5):
        e = rng.standard_normal(mesh.n_nodes)
        alpha = LimiterMatrix(mesh.n_nodes, pairs.i, pairs.j, rng.random(pairs.i.size))
        d_ij = -rng.random(pairs.i.size)
        eps, c0 = rng.random() + 0.1, rng.random() + 0.1
        ref = ws.fct_nodal(e, dh_seminorm(alpha, d_ij, e), eps, c0)
        assert bits(fct_norm(mesh, e, alpha, d_ij, eps, c0)) == bits(ref)
