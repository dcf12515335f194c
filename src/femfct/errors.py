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
from scipy import sparse

from .assembly import assemble_laplacian, assemble_mass
from .fct import LimiterMatrix, PairGraph

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

    def field_at_quad(self, u_h):
        return np.einsum("qa,ma->mq", QUAD4_BARY, u_h[self.mesh.triangles])

    def l2_error(self, u_h, u_exact, t):
        diff = np.asarray(u_exact(t, self.qx, self.qy), dtype=float) - self.field_at_quad(u_h)
        return math.sqrt(float(np.einsum("q,mq,m->", QUAD4_W, diff * diff, self.area)))

    def h1_error(self, u_h, u_exact_gradient, t):
        gx, gy = u_exact_gradient(t, self.qx, self.qy)
        uh_g = np.einsum("ma,mad->md", u_h[self.mesh.triangles], self.grads)
        dx = np.asarray(gx, dtype=float) - uh_g[:, None, 0]
        dy = np.asarray(gy, dtype=float) - uh_g[:, None, 1]
        return math.sqrt(float(np.einsum("q,mq,m->", QUAD4_W, dx * dx + dy * dy, self.area)))

    def l2_nodal(self, e):
        return math.sqrt(max(float(e @ (self.mass @ e)), 0.0))

    def h1_nodal(self, e):
        return math.sqrt(max(float(e @ (self.laplacian @ e)), 0.0))


def l2_error(mesh, u_h, u_exact, t, workspace: ErrorWorkspace | None = None) -> float:
    """L2(Omega) error of the P1 field u_h against u_exact(t, x, y)."""
    return (workspace or ErrorWorkspace(mesh)).l2_error(u_h, u_exact, t)


def h1_seminorm_error(mesh, u_h, u_exact_gradient, t, workspace=None) -> float:
    """H1 seminorm error; u_exact_gradient(t, x, y) returns (du/dx, du/dy)."""
    return (workspace or ErrorWorkspace(mesh)).h1_error(u_h, u_exact_gradient, t)


def dh_seminorm(alpha: LimiterMatrix, diffusion, e_nodes) -> float:
    """Square root of the stabilization form
    d_h(e, e) = sum_{i<j} (1 - alpha_ij) |d_ij| (e_j - e_i)^2.

    Raises ValueError unless the strictly upper entries of ``diffusion``
    sit exactly on the limiter's pairs.
    """
    diffusion = sparse.csr_matrix(diffusion)
    pairs = PairGraph.of(diffusion)
    if not (np.array_equal(pairs.i, alpha.i) and np.array_equal(pairs.j, alpha.j)):
        raise ValueError("the diffusion's upper pattern is not the limiter's pairs")
    d_ij = pairs.gather(diffusion)
    de = e_nodes[alpha.j] - e_nodes[alpha.i]
    return math.sqrt(float(np.sum((1.0 - alpha.values) * np.abs(d_ij) * de * de)))


def fct_norm(mesh, e_nodes, alpha, diffusion, eps, c0, workspace=None) -> float:
    """Energy norm sqrt(eps |e|_1^2 + c0 ||e||_0^2 + d_h(e, e)) of a nodal
    vector, with the d_h term weighted by the step's limiter."""
    ws = workspace or ErrorWorkspace(mesh)
    return math.sqrt(
        eps * ws.h1_nodal(e_nodes) ** 2
        + c0 * ws.l2_nodal(e_nodes) ** 2
        + dh_seminorm(alpha, diffusion, e_nodes) ** 2
    )


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
