"""Error norms against an exact solution and convergence-order utilities.

The L2 and H1 errors use the interpolation split of the error (see
``ErrorWorkspace``); the FCT norm and the d_h seminorm are evaluated on
the nodal error alone, since d_h is only defined on finite element
vectors.
"""

from __future__ import annotations

import math

import numpy as np

from .assembly import assemble_laplacian, assemble_mass
from .fct import LimiterMatrix
from .mesh import PairGraph

_A1, _A2 = 0.445948490915965, 0.091576213509771
_W1, _W2 = 0.223381589678011, 0.109951743655322
# 6-point rule, exact for polynomials of degree 4 (weights sum to 1)
QUAD4_BARY = np.array(
    [
        [1 - 2 * _A1, _A1, _A1],
        [_A1, 1 - 2 * _A1, _A1],
        [_A1, _A1, 1 - 2 * _A1],
        [1 - 2 * _A2, _A2, _A2],
        [_A2, 1 - 2 * _A2, _A2],
        [_A2, _A2, 1 - 2 * _A2],
    ]
)
QUAD4_W = np.array([_W1, _W1, _W1, _W2, _W2, _W2])


class ErrorWorkspace:
    """Per-mesh norm matrices and the constants of the interpolation split.

    For an ``ExactSolution`` u = s(t) S, the error of a P1 field u_h is
    u - u_h = s eta + xi, with eta = S - I_h S fixed per mesh and the nodal
    error xi = s I_h S - u_h (``nodal_error``).  So

        ||u - u_h||^2 = s^2 (eta, eta) + 2 s c . xi + xi . M xi,
        |u - u_h|_1^2 = s^2 (grad eta, grad eta) + 2 s g . xi + xi . K xi,

    with c_i = (eta, phi_i) and g_i = (grad eta, grad phi_i), integrated by
    the 6-point rule (degree 4).  The rule is exact for the xi terms, so
    this is that rule applied to u - u_h, rearranged.  The constants are
    computed the first time a profile and gradient are passed and kept
    until another pair replaces them.  No term cancels the error:
    ||s eta + xi|| is at least the L2 projection's error, comparable to
    ||s eta||, unlike the expansion s^2 (S, S) - 2 s (S, phi) . u_h + ...
    """

    def __init__(self, mesh):
        self._mesh = mesh
        self.mass = assemble_mass(mesh)
        self.laplacian = assemble_laplacian(mesh)
        # (profile, profile_gradient), then S at the nodes, L2 and H1 constants
        self._kept = (None, None)

    def _split(self, exact):
        key = (exact.profile, exact.profile_gradient)
        if self._kept[0] != key:
            self._kept = key, _split_constants(self._mesh, exact)
        return self._kept[1]

    def nodal_error(self, u_h, exact, t):
        """xi = scale(t) I_h S - u_h for the ExactSolution ``exact``."""
        return exact.scale(t) * self._split(exact)[0] - u_h

    def l2_error(self, u_h, u_exact, t):
        """L2 error of the P1 field u_h against the ExactSolution u_exact."""
        xi = self.nodal_error(u_h, u_exact, t)
        return _split_norm(self.mass, *self._split(u_exact)[1], u_exact.scale(t), xi)

    def h1_error(self, u_h, u_exact, t):
        """H1 seminorm error of u_h against the ExactSolution u_exact."""
        xi = self.nodal_error(u_h, u_exact, t)
        return _split_norm(self.laplacian, *self._split(u_exact)[2], u_exact.scale(t), xi)

    def l2_nodal(self, e):
        return _norm(self.mass, e)

    def h1_nodal(self, e):
        return _norm(self.laplacian, e)

    def fct_nodal(self, e, dh, eps, c0):
        """FCT norm sqrt(eps |e|_1^2 + c0 ||e||_0^2 + d_h(e, e)) of a nodal
        vector, given its d_h seminorm ``dh``."""
        return math.sqrt(eps * self.h1_nodal(e) ** 2 + c0 * self.l2_nodal(e) ** 2 + dh * dh)


def _split_constants(mesh, exact):
    """S at the nodes, ((eta, eta), c) and ((grad eta, grad eta), g).

    One quadrature point of every triangle at a time, so the temporaries
    are (m,) arrays; every sum is an einsum or a bincount.
    """
    tri, geo, n = mesh.triangles.T, mesh.geometry, mesh.n_nodes
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    nodal = np.asarray(exact.profile(x, y), dtype=float)
    grad_ih = np.einsum("am,mad->dm", nodal[tri], geo.grads)
    eta2 = grad2 = 0.0
    # per triangle, (eta, phi_a) and the integral of grad eta
    c_local, sums = np.zeros(tri.shape), np.zeros(grad_ih.shape)
    for b, w in zip(QUAD4_BARY, QUAD4_W):
        qx, qy, ih = (np.einsum("a,am->m", b, v[tri]) for v in (x, y, nodal))
        wa = w * geo.areas
        eta = exact.profile(qx, qy) - ih
        gx, gy = exact.profile_gradient(qx, qy)  # may be plain numbers
        ex, ey = gx - grad_ih[0], gy - grad_ih[1]
        eta2 += float(np.einsum("m,m,m->", wa, eta, eta))
        grad2 += float(np.einsum("m,m->", wa, ex * ex + ey * ey))
        c_local += np.einsum("a,m,m->am", b, wa, eta)
        sums[0] += wa * ex
        sums[1] += wa * ey
    c = np.bincount(tri.ravel(), c_local.ravel(), n)
    # grad phi_a is constant per triangle
    g = np.bincount(tri.ravel(), np.einsum("dm,mad->am", sums, geo.grads).ravel(), n)
    return nodal, (eta2, c), (grad2, g)


def _split_norm(matrix, eta2, c, s, xi):
    """sqrt(s^2 eta2 + 2 s c . xi + xi . (matrix xi))."""
    total = s * s * eta2 + float(np.einsum("i,i->", xi, matrix @ xi + (2.0 * s) * c))
    return math.sqrt(max(total, 0.0))


# the quadratic form e . (K e) sums with einsum, not BLAS's dot, whose
# summation order depends on its thread count
def _norm(matrix, e):
    return math.sqrt(max(float(np.einsum("i,i->", e, matrix @ e)), 0.0))


def dh_seminorm(pairs: PairGraph, alpha: LimiterMatrix, d_ij, e_nodes) -> float:
    """Square root of the stabilization form
    d_h(e, e) = sum_{i<j} (1 - alpha_ij) |d_ij| (e_j - e_i)^2, the
    diffusion entries ``d_ij`` given on the pairs.  The sum runs, in pair
    order, over the pairs with alpha_ij != 1 alone, the only ones with a
    term that is not zero: for a Zalesak limiter (rest 1) a few of the
    pairs it lists, for a fixed limiter below 1 every pair; so it is 0.0
    exactly when alpha = 1 everywhere.

    Raises ValueError unless ``d_ij`` has one value per pair.
    """
    d_ij = np.asarray(d_ij)
    if d_ij.shape != pairs.i.shape:
        raise ValueError(f"d_ij has shape {d_ij.shape}, the pairs {pairs.i.shape}")
    values, ids = alpha.values, alpha.ids
    if alpha.rest != 1.0:  # the unlisted pairs' terms too
        values, ids = alpha.expanded(d_ij.size), np.arange(d_ij.size)
    k = np.flatnonzero(values != 1.0)
    de = e_nodes[pairs.j[ids[k]]] - e_nodes[pairs.i[ids[k]]]
    return math.sqrt(float(np.sum((1.0 - values[k]) * np.abs(d_ij[ids[k]]) * de * de)))


def time_integrate(values, tau) -> float:
    """Discrete L2-in-time norm (tau * sum v_n^2)^(1/2) over steps 1..N."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty norm series")
    return math.sqrt(tau * float(np.sum(values * values)))


def eoc(errors, hs) -> list:
    """Experimental orders log(e_k / e_{k+1}) / log(h_k / h_{k+1});
    entries are None where an error is zero or negative."""
    errors, hs = list(errors), list(hs)
    if len(errors) != len(hs) or len(errors) < 2:
        raise ValueError("need matching sequences of length >= 2")
    return [
        None if a <= 0.0 or b <= 0.0 else math.log(a / b) / math.log(h / k)
        for a, b, h, k in zip(errors, errors[1:], hs, hs[1:])
    ]

