"""Differential tests: the shared per-mesh geometry and pair graph against
the per-call reconstructions they replaced.

The references below are the former implementations, written inline:
element geometry recomputed from the node coordinates, COO assembly with
``np.add.at`` for the load, and the pair list read with ``sparse.triu``
plus ``lexsort``.  Every mesh is also tried with its nodes randomly
relabelled, which leaves the CSR column order unsorted before assembly.
"""

import numpy as np
import pytest
from scipy import sparse

from femfct import (
    PairGraph,
    ProblemSpec,
    TriMesh,
    artificial_diffusion,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    linear_fluxes,
    lump,
    raw_fluxes,
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


def test_geometry_matches_recomputation(mesh):
    area, grads, pts = old_geometry(mesh)
    geo = mesh.geometry
    np.testing.assert_array_equal(geo.areas, area)
    np.testing.assert_array_equal(geo.grads, grads)
    np.testing.assert_array_equal(geo.midpoints, pts)


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
