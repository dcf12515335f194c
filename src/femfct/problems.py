"""Built-in manufactured problems for the convergence studies.

Both use the polynomial profile S(x, y) = x^2 (1 - x^2) y (1 - y) (1 - 2y)
on the unit square with b = (2, 3), c = 1 and homogeneous Dirichlet data;
the source term is derived analytically.  The space-study solution grows
linearly in time (100 t S), the time-study solution oscillates
((1 + sin 2 pi t) S), giving a nontrivial second time derivative.
Both exact solutions are separable ``ExactSolution``s, so the error norms
can evaluate S and grad S once per mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import ProblemSpec


def _factors(x, y):
    """x^2, x^2 (1 - x^2) and y (1 - y) (1 - 2y): S is the product of the
    last two, and its derivatives reuse all three."""
    xx = x * x
    return xx, xx * (1.0 - xx), y * (1.0 - y) * (1.0 - 2.0 * y)


def _profile(x, y):
    _, px, py = _factors(x, y)
    return px * py


def _profile_gradient(x, y):
    xx, px, py = _factors(x, y)
    return x * (2.0 - 4.0 * xx) * py, px * (1.0 - 6.0 * y + 6.0 * y * y)


@dataclass(frozen=True)
class ExactSolution:
    """Separable exact solution u = scale(t) * S(x, y), for the error norms.

    ``u`` and ``gradient`` evaluate it at (t, x, y).  The error norms
    evaluate S and grad S once per mesh instead (``errors.ErrorWorkspace``),
    so their L2 and H1 errors round differently from pointwise sums.
    """

    scale: Callable  # t -> float
    profile: Callable  # (x, y) -> S
    profile_gradient: Callable  # (x, y) -> (dS/dx, dS/dy)

    def u(self, t, x, y):
        return self.scale(t) * self.profile(x, y)

    def gradient(self, t, x, y):
        """(du/dx, du/dy) at (t, x, y)."""
        s = self.scale(t)
        gx, gy = self.profile_gradient(x, y)
        return s * gx, s * gy


def _make_problem(scale, scale_dt, eps, tau, t_end):
    """CDR problem with exact solution scale(t) * S(x, y), b=(2,3), c=1.

    Its source is f = scale'(t) S + scale(t) L S with
    L S = -eps lap S + b . grad S + c S.  The fields S and L S at the last
    read-only points f was called with (a mesh's edge midpoints, once per
    time level) are kept with the points themselves, so that their
    identity is a safe key: each later call at those points computes only
    the two products and their sum.  Writeable points are never kept.
    """
    kept = [None, None, None]  # x, y, (S, L S)

    def fields(x, y):
        xx, px, py = _factors(x, y)
        prof = px * py
        dx = x * (2.0 - 4.0 * xx) * py
        dy = px * (1.0 - 6.0 * y + 6.0 * y * y)
        lap = (2.0 - 12.0 * xx) * py + px * (12.0 * y - 6.0)
        return prof, -eps * lap + 2.0 * dx + 3.0 * dy + prof

    def f(t, x, y):
        if x is kept[0] and y is kept[1]:
            prof, lprof = kept[2]
        else:
            prof, lprof = fields(x, y)
            if all(isinstance(p, np.ndarray) and not p.flags.writeable for p in (x, y)):
                kept[:] = x, y, (prof, lprof)
        return scale_dt(t) * prof + scale(t) * lprof

    spec = ProblemSpec(
        eps=eps,
        b=lambda t, x, y: (np.full_like(np.asarray(x, dtype=float), 2.0), np.full_like(np.asarray(x, dtype=float), 3.0)),
        c=lambda t, x, y: np.ones_like(np.asarray(x, dtype=float)),
        f=f,
        u0=lambda x, y: scale(0.0) * _profile(x, y),
        c0=1.0,  # c - div(b)/2 = 1
        t_end=t_end,
        tau=tau,
    )
    return spec, ExactSolution(scale, _profile, _profile_gradient)


def space_study_problem(eps=1e-8, tau=1e-3, t_end=1.0):
    """u = 100 t S(x, y): the spatial-accuracy benchmark."""
    return _make_problem(lambda t: 100.0 * t, lambda t: 100.0, eps, tau, t_end)


def time_study_problem(eps=1e-8, tau=1e-2, t_end=1.0):
    """u = (1 + sin 2 pi t) S(x, y): dominating temporal error."""
    return _make_problem(
        lambda t: 1.0 + math.sin(2.0 * math.pi * t),
        lambda t: 2.0 * math.pi * math.cos(2.0 * math.pi * t),
        eps,
        tau,
        t_end,
    )
