"""Error norms against an exact solution and convergence-order utilities.

Spatial L2 and H1 errors are computed against the exact solution with a
6-point quadrature rule (degree 4); the FCT norm and the d_h seminorm are
evaluated on the nodal error vector (interpolant minus discrete solution)
since d_h is only defined on finite element vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import assemble_laplacian, assemble_mass
from .fct import LimiterMatrix
from .problems import ExactSolution

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


# triangles per block of the L2 and H1 quadrature: a (6, BLOCK) array of
# doubles is about 200 KB, so one block's temporaries stay in cache
BLOCK = 4096


@dataclass(frozen=True)
class _Block:
    """Quadrature data of one block of b triangles, point-major."""

    tri: np.ndarray  # (3, b) vertex indices
    gx: np.ndarray  # (3, b) components of the P1 basis gradients
    gy: np.ndarray
    area: np.ndarray  # (b,)


def _at_points(v):
    """The (6, b) values at the quadrature points of the P1 field with
    vertex values ``v`` (3, b)."""
    b = QUAD4_BARY
    out = b[:, 0, None] * v[0]
    out += b[:, 1, None] * v[1]
    out += b[:, 2, None] * v[2]
    return out


def _vertex_sum(u, g):
    """sum_a u[a] * g[a] over the three vertices of each triangle."""
    return u[0] * g[0] + u[1] * g[1] + u[2] * g[2]


def _integrate(d):
    """The 6-point rule's weighted sums (b,) of the values ``d`` (6, b) at
    each triangle's quadrature points, per unit area."""
    return _W1 * (d[0] + d[1] + d[2]) + _W2 * (d[3] + d[4] + d[5])


class ErrorWorkspace:
    """Per-mesh cache of quadrature data and the norm matrices.

    The L2 and H1 errors loop over blocks of ``BLOCK`` triangles and add
    the block sums in block order, with no BLAS call, so the result does
    not depend on the BLAS thread count.  The exact solution is a
    callable, evaluated at each block's points on every call, or a
    separable ``ExactSolution``, whose profile (for ``l2_error``) and
    profile gradient (for ``h1_error``) are evaluated at each block's
    points the first time they are passed and kept: each later call
    only multiplies them by scale(t).  The points themselves are
    computed when a function needs them, never kept.
    """

    def __init__(self, mesh):
        geo = mesh.geometry
        self._nodes = mesh.nodes
        self._blocks = []
        for s in range(0, mesh.n_triangles, BLOCK):
            tri = np.ascontiguousarray(mesh.triangles[s : s + BLOCK].T)
            grads = geo.grads[s : s + BLOCK]
            self._blocks.append(
                _Block(
                    tri=tri,
                    gx=np.ascontiguousarray(grads[..., 0].T),
                    gy=np.ascontiguousarray(grads[..., 1].T),
                    area=geo.areas[s : s + BLOCK].copy(),
                )
            )
        self.mass = assemble_mass(mesh)
        self.laplacian = assemble_laplacian(mesh)
        # name -> (function, its values at each block's points)
        self._kept = {}

    def _points(self, blk):
        """The (6, b) coordinates (qx, qy) of a block's quadrature points."""
        return _at_points(self._nodes[blk.tri, 0]), _at_points(self._nodes[blk.tri, 1])

    def _exact(self, exact, name, t):
        """Per block, the exact values at the quadrature points at time t:
        exact(t, qx, qy) of a callable, scale(t) times the kept values of
        an ExactSolution's ``name`` (``profile`` or ``profile_gradient``)."""
        if not isinstance(exact, ExactSolution):
            return (exact(t, *self._points(blk)) for blk in self._blocks)
        fn = getattr(exact, name)
        kept = self._kept.get(name)
        if kept is None or kept[0] is not fn:
            kept = self._kept[name] = (fn, [fn(*self._points(blk)) for blk in self._blocks])
        s = exact.scale(t)
        if name == "profile":
            return (s * v for v in kept[1])
        return ((s * gx, s * gy) for gx, gy in kept[1])

    def l2_error(self, u_h, u_exact, t):
        """L2(Omega) error of the P1 field u_h against u_exact, a callable
        u_exact(t, x, y) or an ExactSolution."""
        total = 0.0
        for blk, ue in zip(self._blocks, self._exact(u_exact, "profile", t)):
            d = _at_points(u_h[blk.tri])
            np.subtract(ue, d, out=d)
            d *= d
            total += float(np.einsum("m,m->", _integrate(d), blk.area))
        return math.sqrt(total)

    def h1_error(self, u_h, u_exact_gradient, t):
        """H1 seminorm error; u_exact_gradient is a callable returning
        (du/dx, du/dy) at (t, x, y), or an ExactSolution."""
        total = 0.0
        for blk, (gx, gy) in zip(self._blocks, self._exact(u_exact_gradient, "profile_gradient", t)):
            u = u_h[blk.tri]
            # (6, b) also when a component is a constant
            shape = (QUAD4_W.size, blk.area.size)
            dx = np.subtract(gx, _vertex_sum(u, blk.gx), out=np.empty(shape))
            dy = np.subtract(gy, _vertex_sum(u, blk.gy), out=np.empty(shape))
            dx *= dx
            dy *= dy
            dx += dy
            total += float(np.einsum("m,m->", _integrate(dx), blk.area))
        return math.sqrt(total)

    def l2_nodal(self, e):
        return _norm(self.mass, e)

    def h1_nodal(self, e):
        return _norm(self.laplacian, e)

    def fct_nodal(self, e, dh, eps, c0):
        """FCT norm sqrt(eps |e|_1^2 + c0 ||e||_0^2 + d_h(e, e)) of a nodal
        vector, given its d_h seminorm ``dh``."""
        return _fct(self.h1_nodal(e), self.l2_nodal(e), dh, eps, c0)


# the quadratic form e . (K e) sums with einsum, not BLAS's dot, whose
# summation order depends on its thread count
def _norm(matrix, e):
    return math.sqrt(max(float(np.einsum("i,i->", e, matrix @ e)), 0.0))


def _fct(h1, l2, dh, eps, c0):
    return math.sqrt(eps * h1**2 + c0 * l2**2 + dh * dh)


def dh_seminorm(alpha: LimiterMatrix, d_ij, e_nodes) -> float:
    """Square root of the stabilization form
    d_h(e, e) = sum_{i<j} (1 - alpha_ij) |d_ij| (e_j - e_i)^2, the
    diffusion entries ``d_ij`` given on the limiter's pairs.

    Raises ValueError unless ``d_ij`` has one value per pair.
    """
    d_ij = np.asarray(d_ij)
    if d_ij.shape != alpha.values.shape:
        raise ValueError(f"d_ij has shape {d_ij.shape}, the limiter {alpha.values.shape}")
    de = e_nodes[alpha.j] - e_nodes[alpha.i]
    return math.sqrt(float(np.sum((1.0 - alpha.values) * np.abs(d_ij) * de * de)))


def fct_norm(mesh, e_nodes, alpha, d_ij, eps, c0) -> float:
    """FCT norm of a nodal vector (``ErrorWorkspace.fct_nodal``), with the
    d_h term weighted by the step's limiter; ``d_ij`` as for
    ``dh_seminorm``."""
    dh = dh_seminorm(alpha, d_ij, e_nodes)
    h1, l2 = _norm(assemble_laplacian(mesh), e_nodes), _norm(assemble_mass(mesh), e_nodes)
    return _fct(h1, l2, dh, eps, c0)


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
    out = []
    for k in range(len(errors) - 1):
        if errors[k] <= 0.0 or errors[k + 1] <= 0.0:
            out.append(None)
        else:
            out.append(math.log(errors[k] / errors[k + 1]) / math.log(hs[k] / hs[k + 1]))
    return out


@dataclass
class ErrorReport:
    """Per-level time-integrated errors and experimental orders."""

    levels: list[int] = field(default_factory=list)
    hs: list[float] = field(default_factory=list)
    err_l2l2: list[float] = field(default_factory=list)
    err_l2h1: list[float] = field(default_factory=list)
    err_l2fct: list[float] = field(default_factory=list)
    err_l2dh: list[float] = field(default_factory=list)
    wall_time_s: list[float] = field(default_factory=list)

    def eocs(self) -> dict[str, list]:
        cols = {
            "eoc_l2l2": self.err_l2l2,
            "eoc_l2h1": self.err_l2h1,
            "eoc_l2fct": self.err_l2fct,
            "eoc_l2dh": self.err_l2dh,
        }
        out = {}
        for name, col in cols.items():
            out[name] = [None] + (eoc(col, self.hs) if len(col) >= 2 else [])
        return out
