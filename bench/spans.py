"""Timing hooks around femfct's public functions, installed from outside.

Nothing in ``femfct`` is edited.  The hooks replace, for the duration of
a repetition, the names that ``femfct.stepper``, ``femfct.cli`` and
``femfct.errors`` look up at call time, plus methods of the
``TimeStepper``, ``Factorization`` and ``ErrorWorkspace`` classes and the
mesh builders the benchmark calls.  Every hook target is resolved when
the benchmark starts, so a renamed or deleted function fails it loudly.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from time import perf_counter

import femfct.cli
import femfct.errors
import femfct.mesh
import femfct.stepper
from femfct.errors import ErrorWorkspace
from femfct.solver import Factorization
from femfct.stepper import TimeStepper

STEP_METHODS = ("step_galerkin", "step_low_order", "step_linear_fct", "step_nonlinear_fct")

# span name -> (owner, attribute) pairs wrapped under that name
HOOKS = {
    "mesh.build": (
        (femfct.mesh, "build_friedrichs_keller"),
        (femfct.mesh, "build_shifted_grid"),
    ),
    "stepper.init": ((TimeStepper, "__init__"),),
    "stepper.loop": ((TimeStepper, "run"),),
    "stepper.step": tuple((TimeStepper, m) for m in STEP_METHODS),
    "assembly.mass": ((femfct.stepper, "assemble_mass"),),
    "assembly.load": ((femfct.stepper, "assemble_load"),),
    "assembly.stiffness": ((femfct.stepper, "assemble_stiffness"),),
    "assembly.dirichlet": ((femfct.stepper, "apply_dirichlet"),),
    "fct.lump": ((femfct.stepper, "lump"),),
    "fct.artificial_diffusion": ((femfct.stepper, "artificial_diffusion"),),
    "fct.predictor": ((femfct.stepper, "predictor_half_step"),),
    "fct.linear_fluxes": ((femfct.stepper, "linear_fluxes"),),
    "fct.raw_fluxes": ((femfct.stepper, "raw_fluxes"),),
    "fct.prelimit": ((femfct.stepper, "prelimit"),),
    "fct.zalesak": ((femfct.stepper, "zalesak"),),
    "fct.correction_vector": ((femfct.stepper, "correction_vector"),),
    "fct.upper_pairs": ((femfct.cli, "_upper_pairs"),),
    "solver.factorize": ((Factorization, "__init__"),),
    "solver.solve": ((Factorization, "solve"),),
    "errors.workspace": ((ErrorWorkspace, "__init__"),),
    "errors.l2_error": ((ErrorWorkspace, "l2_error"),),
    "errors.h1_error": ((ErrorWorkspace, "h1_error"),),
    "errors.nodal": ((ErrorWorkspace, "l2_nodal"), (ErrorWorkspace, "h1_nodal")),
    "errors.dh_seminorm": ((femfct.errors, "dh_seminorm"),),
    "errors.time_integrate": ((femfct.errors, "time_integrate"),),
    "cli.run_single": ((femfct.cli, "run_single"),),
}

# user callbacks of the problem, wrapped on the ProblemSpec of each repetition
CALLBACKS = {"problems.f": "f", "problems.u0": "u0"}


class HookMissing(RuntimeError):
    """A function the benchmark times no longer exists or is never called."""


def check_hook_targets():
    """Raise HookMissing unless every hook target exists and is callable."""
    for name, targets in HOOKS.items():
        for owner, attr in targets:
            found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if not callable(found):
                raise HookMissing(f"{name}: {owner.__name__}.{attr} is missing")


class SetupDone(Exception):
    """Raised on the first step entry by a set-up-only repetition."""


class StepClock:
    """Times every TimeStepper.step_<scheme> call; cheap enough for untraced runs."""

    def __init__(self, stop_at_first_step=False):
        self.stop_at_first_step = stop_at_first_step
        self.first_entry = None
        self.latencies = []

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf_counter()
            if self.first_entry is None:
                self.first_entry = start
            if self.stop_at_first_step:
                raise SetupDone
            try:
                return fn(*args, **kwargs)
            finally:
                self.latencies.append(perf_counter() - start)

        return timed

    @contextlib.contextmanager
    def installed(self):
        with _patched((TimeStepper, m, self.wrap) for m in STEP_METHODS):
            yield self


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root


class Tracer:
    """Records a span (name, start, end, parent) around each hooked call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, perf_counter(), 0.0, stack[-1] if stack else -1))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = perf_counter()

        return traced

    def root(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the benchmark's own (the repetition's root)."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self):
        patches = [
            (owner, attr, functools.partial(self.wrap, name))
            for name, targets in HOOKS.items()
            for owner, attr in targets
        ]
        with _patched(patches):
            yield self

    def wrap_callbacks(self, spec):
        for name, attr in CALLBACKS.items():
            setattr(spec, attr, self.wrap(name, getattr(spec, attr)))

    # -- derived numbers ---------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its children cover.

        Children run on the same thread as their parent, one after the
        other, so the intervals they cover never overlap.
        """
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        out = {}
        for s, own in zip(self.spans, self.self_times()):
            calls, incl, excl = out.get(s.name, (0, 0.0, 0.0))
            out[s.name] = (calls + 1, incl + s.end - s.start, excl + own)
        return out

    def as_rows(self):
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]


@contextlib.contextmanager
def _patched(patches):
    """Set owner.attr = make(original) for each patch; restore on exit."""
    saved = []
    try:
        for owner, attr, make in patches:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
