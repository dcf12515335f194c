"""Differential tests: the shared per-mesh geometry, edge numbering and
pair graph, and the Zalesak bounds computed once per step, against the
per-call reconstructions they replaced.

The references below are the former implementations, written inline:
element geometry recomputed from the node coordinates, COO assembly with
``np.add.at`` for the load, coefficients and load evaluated at each
triangle's own edge midpoints (three points per triangle) and summed with
``einsum``, the edge list read with ``np.unique``, the pair list read with
``sparse.triu`` plus ``lexsort``, and the Zalesak limiter recomputing its
bounds from ``ubar`` on every call.  Every mesh is also tried with its
nodes randomly relabelled, which leaves the CSR column order unsorted
before assembly.
"""

import numpy as np
import pytest
from scipy import sparse

from femfct import (
    PairGraph,
    edge_arrays,
    ProblemSpec,
    TriMesh,
    artificial_diffusion,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    linear_fluxes,
    lump,
    prelimit,
    raw_fluxes,
    zalesak,
    zalesak_bounds,
)
from femfct.cli import ExperimentConfig, build_grid

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
    graph = PairGraph.of(assemble_mass(mesh))
    for ref in (unique[:, 0], edge_arrays(mesh)[0], graph.i):
        np.testing.assert_array_equal(edges.i, ref)
    for ref in (unique[:, 1], edge_arrays(mesh)[1], graph.j):
        np.testing.assert_array_equal(edges.j, ref)
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
    new = assemble_stiffness(mesh, spec, t)
    ref = old_to_csr(mesh, local)
    ref.sort_indices()
    np.testing.assert_array_equal(new.indptr, ref.indptr)
    np.testing.assert_array_equal(new.indices, ref.indices)
    np.testing.assert_array_equal(new.data, ref.data)


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

    bx, by = spec.b(t, x, y)
    local = spec.eps * np.einsum("mid,mjd->mij", grads, grads) * area[:, None, None]
    bgrad = bx[..., None] * grads[:, None, :, 0] + by[..., None] * grads[:, None, :, 1]
    local += area[:, None, None] * np.einsum("q,qi,mqj->mij", QUAD2_W, QUAD2_BARY, bgrad)
    local += area[:, None, None] * np.einsum(
        "q,mq,qi,qj->mij", QUAD2_W, spec.c(t, x, y), QUAD2_BARY, QUAD2_BARY
    )
    assert_close(assemble_stiffness(mesh, spec, t), old_to_csr(mesh, local))

    local = area[:, None] * np.einsum("q,mq,qi->mi", QUAD2_W, spec.f(t, x, y), QUAD2_BARY)
    ref_load = np.zeros(mesh.n_nodes)
    np.add.at(ref_load, mesh.triangles.ravel(), local.ravel())
    assert_close(assemble_load(mesh, spec, t), ref_load)


@pytest.fixture
def operators(mesh, spec):
    mass = assemble_mass(mesh)
    a = assemble_stiffness(mesh, spec, 0.0)
    d = artificial_diffusion(a)
    return mass, d, (a + d).tocsr()


def test_pair_graph_matches_triu_lexsort(mesh, operators):
    mass, d, _ = operators
    pairs = PairGraph.of(mass)
    i, j, m_ij = old_upper_pairs(mass)
    di, dj, d_ij = old_upper_pairs(d)
    for new, ref in ((pairs.i, i), (pairs.j, j), (pairs.i, di), (pairs.j, dj)):
        assert new.dtype == ref.dtype
        np.testing.assert_array_equal(new, ref)
    np.testing.assert_array_equal(pairs.gather(mass), m_ij)
    np.testing.assert_array_equal(pairs.gather(d), d_ij)


def test_flux_kernels_match_matrix_formulas(mesh, operators):
    mass, d, abar = operators
    rng = np.random.default_rng(1)
    u_new, u_prev, f_prev = (rng.standard_normal(mesh.n_nodes) for _ in range(3))
    tau, m_lumped, bnodes = 1e-3, lump(mass), mesh.boundary_nodes
    g_rate = rng.standard_normal(bnodes.size)
    i, j, m_ij = old_upper_pairs(mass)
    d_ij = old_upper_pairs(d)[2]
    pairs = PairGraph.of(mass)
    m_new, d_new = pairs.gather(mass), pairs.gather(d)

    du = u_new - u_prev
    ref = m_ij * (du[i] - du[j]) + tau * d_ij * (u_new[j] - u_new[i])
    flux = raw_fluxes(pairs, m_new, d_new, u_new, u_prev, tau)
    np.testing.assert_array_equal(flux.values, ref)

    nu = (f_prev - abar @ u_prev) / m_lumped
    nu[bnodes] = g_rate
    dnu = nu[i] - nu[j]
    ref = tau * m_ij * dnu + tau * d_ij * (u_prev[j] - u_prev[i] - tau * dnu)
    flux = linear_fluxes(
        pairs, m_new, d_new, m_lumped, abar, u_prev, f_prev, tau,
        dirichlet=bnodes, g_rate=g_rate,
    )
    np.testing.assert_array_equal(flux.values, ref)


def old_zalesak(flux, ubar, m_lumped, dirichlet=None):
    n, i, j, f = flux.n, flux.i, flux.j, flux.values
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
    pairs, m_lumped, bnodes = PairGraph.of(mass), lump(mass), mesh.boundary_nodes
    m_ij, d_ij = pairs.gather(mass), pairs.gather(d)
    rng = np.random.default_rng(2)
    u_prev, ubar = rng.standard_normal(mesh.n_nodes), rng.standard_normal(mesh.n_nodes)
    bounds = zalesak_bounds(pairs, ubar, m_lumped)
    for _ in range(3):
        u_new = u_prev + 0.1 * rng.standard_normal(mesh.n_nodes)
        flux = prelimit(raw_fluxes(pairs, m_ij, d_ij, u_new, u_prev, 1e-3), ubar)
        for dirichlet in (None, bnodes):
            np.testing.assert_array_equal(
                zalesak(flux, bounds, dirichlet=dirichlet).values,
                old_zalesak(flux, ubar, m_lumped, dirichlet=dirichlet),
            )
