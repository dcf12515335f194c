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
    """Per-mesh cache of quadrature data and the norm matrices."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.area, self.grads = mesh.geometry.areas, mesh.geometry.grads
        p = mesh.nodes[mesh.triangles]
        self.qx = np.einsum("qa,ma->mq", QUAD4_BARY, p[..., 0])
        self.qy = np.einsum("qa,ma->mq", QUAD4_BARY, p[..., 1])
        self.mass = assemble_mass(mesh)
        self.laplacian = assemble_laplacian(mesh)

    def l2_error(self, u_h, u_exact, t):
        """L2(Omega) error of the P1 field u_h against u_exact(t, x, y)."""
        uh_q = np.einsum("qa,ma->mq", QUAD4_BARY, u_h[self.mesh.triangles])
        diff = np.asarray(u_exact(t, self.qx, self.qy), dtype=float) - uh_q
        return math.sqrt(float(np.einsum("q,mq,m->", QUAD4_W, diff * diff, self.area)))

    def h1_error(self, u_h, u_exact_gradient, t):
        """H1 seminorm error; u_exact_gradient(t, x, y) returns (du/dx, du/dy)."""
        gx, gy = u_exact_gradient(t, self.qx, self.qy)
        uh_g = np.einsum("ma,mad->md", u_h[self.mesh.triangles], self.grads)
        dx = np.asarray(gx, dtype=float) - uh_g[:, None, 0]
        dy = np.asarray(gy, dtype=float) - uh_g[:, None, 1]
        return math.sqrt(float(np.einsum("q,mq,m->", QUAD4_W, dx * dx + dy * dy, self.area)))

    # the quadratic forms e . (K e) sum with einsum, not BLAS's dot, whose
    # summation order depends on its thread count
    def l2_nodal(self, e):
        return math.sqrt(max(float(np.einsum("i,i->", e, self.mass @ e)), 0.0))

    def h1_nodal(self, e):
        return math.sqrt(max(float(np.einsum("i,i->", e, self.laplacian @ e)), 0.0))

    def fct_nodal(self, e, dh, eps, c0):
        """FCT norm sqrt(eps |e|_1^2 + c0 ||e||_0^2 + d_h(e, e)) of a nodal
        vector, given its d_h seminorm ``dh``."""
        return math.sqrt(eps * self.h1_nodal(e) ** 2 + c0 * self.l2_nodal(e) ** 2 + dh * dh)


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
    return ErrorWorkspace(mesh).fct_nodal(e_nodes, dh, eps, c0)


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
