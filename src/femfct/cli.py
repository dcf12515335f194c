"""Command line driver: convergence studies in space and time, CSV output.

The built-in benchmark problem has eps = 1e-8, b = (2, 3), c = 1 on the
unit square with a smooth polynomial exact solution; the time study swaps
in a sinusoidal-in-time variant so the temporal error dominates.
"""

from __future__ import annotations

import argparse
import importlib.resources
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import errors as err
from . import mesh as meshmod
from . import problems
from .fct import _upper_pairs
from .stepper import (
    GALERKIN,
    LINEAR_FCT,
    LOW_ORDER,
    NONLINEAR_FCT,
    ConstantLimiter,
    SchemeKind,
    TimeLevel,
    TimeStepper,
    ZalesakLimiter,
)

SPACE_COLUMNS = [
    "level",
    "h",
    "err_l2l2",
    "err_l2h1",
    "err_l2fct",
    "err_l2dh",
    "eoc_l2l2",
    "eoc_l2h1",
    "eoc_l2fct",
    "eoc_l2dh",
    "wall_time_s",
]
TIME_COLUMNS = ["tau", "err_l2l2", "eoc_l2l2", "wall_time_s"]

DEFAULT_TIME_TAUS = (1.0 / 20.0, 1.0 / 40.0, 1.0 / 80.0, 1.0 / 160.0)


@dataclass
class ExperimentConfig:
    grid: str = "fk"  # fk | shifted | unstructured
    mesh_file: str | None = None
    levels: tuple[int, int] = (1, 3)
    scheme: str = LINEAR_FCT
    limiter: str = "zalesak"  # zalesak | constant:<v>
    eps: float = 1e-8
    tau: float = 1e-3
    t_end: float = 1.0
    study: str = "space"
    out: str = "study.csv"
    time_level: int = 5

    def limiter_obj(self):
        if self.limiter == "zalesak":
            return ZalesakLimiter()
        if self.limiter.startswith("constant:"):
            return ConstantLimiter(float(self.limiter.split(":", 1)[1]))
        raise ValueError(f"unknown limiter {self.limiter!r}")

    def scheme_obj(self) -> SchemeKind:
        return SchemeKind(self.scheme, self.limiter_obj())


def build_grid(config: ExperimentConfig, level: int):
    if config.grid == "fk":
        return meshmod.build_friedrichs_keller(level)
    if config.grid == "shifted":
        return meshmod.build_shifted_grid(level)
    if config.grid == "unstructured":
        if config.mesh_file:
            m = meshmod.load_mesh(config.mesh_file)
        else:
            ref = importlib.resources.files("femfct.data") / "unit_square_unstructured.msh"
            with importlib.resources.as_file(ref) as path:
                m = meshmod.load_mesh(path)
        for _ in range(level):
            m = meshmod.refine_uniform(m)
        return m
    raise ValueError(f"unknown grid family {config.grid!r}")


def run_single(mesh, spec, exact, scheme):
    """Run one scheme on one mesh and time-integrate the four error norms
    against the ExactSolution ``exact``."""
    n_steps = round(spec.t_end / spec.tau)
    if not math.isclose(n_steps * spec.tau, spec.t_end):
        raise ValueError(f"t_end={spec.t_end:g} is not a whole number of steps of tau={spec.tau:g}")
    stepper = TimeStepper(mesh, spec, scheme)
    records = stepper.run(n_steps)
    ws = err.ErrorWorkspace(mesh)
    # every record's limiter lists pairs of the stepper's pair graph, which
    # must be the mass pattern's: dh_seminorm weights them with the
    # diffusion's d_ij on those pairs
    i, j, _ = _upper_pairs(stepper.mass)
    if not (np.array_equal(stepper.pairs.i, i) and np.array_equal(stepper.pairs.j, j)):
        raise ValueError("the stepper's pairs are not the mass pattern's")

    series = {"l2": [], "h1": [], "fct": [], "dh": []}
    for record in records[1:]:
        t = record.t
        d_ij = TimeLevel(stepper, t).ops[1]
        series["l2"].append(ws.l2_error(record.u, exact, t))
        series["h1"].append(ws.h1_error(record.u, exact, t))
        e_nodes = ws.nodal_error(record.u, exact, t)
        dh = err.dh_seminorm(stepper.pairs, record.alpha, d_ij, e_nodes)
        series["fct"].append(ws.fct_nodal(e_nodes, dh, spec.eps, spec.c0))
        series["dh"].append(dh)

    integrated = {k: err.time_integrate(v, spec.tau) for k, v in series.items()}
    return integrated, records


def _run_study(config: ExperimentConfig, points, problem, setup, x):
    """run_single once at each point, on the (level, mesh, tau) that
    ``setup(point)`` gives and the problem ``problem(eps=, tau=, t_end=)``
    builds; returns (rows, failures), a failure (point, repr(exc)).  A row,
    keyed by the CSV column names, holds the level, h, tau, the four
    time-integrated norms err_*, their EOCs eoc_* over the rows' column
    ``x`` (None on the first row) and the wall time."""
    scheme = config.scheme_obj()
    rows, failures = [], []
    for point in points:
        start = time.perf_counter()
        try:
            level, mesh, tau = setup(point)
            spec, exact = problem(eps=config.eps, tau=tau, t_end=config.t_end)
            integrated, _ = run_single(mesh, spec, exact, scheme)
        except Exception as exc:  # record and continue with the next point
            failures.append((point, repr(exc)))
            continue
        row = dict(level=level, h=mesh.h, tau=tau, wall_time_s=time.perf_counter() - start)
        row.update((f"err_l2{k}", v) for k, v in integrated.items())
        rows.append(row)
    for name in ("l2l2", "l2h1", "l2fct", "l2dh"):
        errs, xs = [r[f"err_{name}"] for r in rows], [r[x] for r in rows]
        for row, q in zip(rows, [None] + (err.eoc(errs, xs) if len(rows) >= 2 else [])):
            row[f"eoc_{name}"] = q
    return rows, failures


def run_space_study(config: ExperimentConfig):
    """Spatial convergence study over config.levels; returns (rows, failures)."""
    levels = range(config.levels[0], config.levels[1] + 1)

    def setup(level):
        return level, build_grid(config, level), config.tau

    return _run_study(config, levels, problems.space_study_problem, setup, "h")


def run_time_study(config: ExperimentConfig):
    """Temporal convergence study, tau halved on a fixed fine grid; returns
    (rows, failures)."""
    level = config.time_level
    try:
        mesh = build_grid(config, level)
    except Exception as exc:  # recorded like a failed tau; no tau can run
        return [], [(f"level {level}", repr(exc))]

    def setup(tau):
        return level, mesh, tau

    return _run_study(config, DEFAULT_TIME_TAUS, problems.time_study_problem, setup, "tau")


# -- CSV ---------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def write_csv(path, columns, rows):
    """The rows' values of the named columns, under a header line."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[name]) for name in columns) + "\n")


# -- argument handling --------------------------------------------------


def _convert(conv, text, what):
    """conv(text), a usage error naming the expected type if it fails."""
    try:
        return conv(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}") from None


def _level(text) -> int:
    level = _convert(int, text, "an integer")
    if level < 0:
        raise argparse.ArgumentTypeError("levels must be nonnegative")
    return level


def _positive(text) -> float:
    value = _convert(float, text, "a number")
    # written so that NaN fails it
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text} is not positive and finite")
    return value


def _parse_levels(text) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    a = _level(lo)
    b = _convert(int, hi, "an integer") if hi else a
    if b < a:
        raise argparse.ArgumentTypeError("empty level range")
    return a, b


def _check_limiter(text) -> str:
    try:
        ExperimentConfig(limiter=text).limiter_obj()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _config_flags(path, keys) -> list[str]:
    """The entries ``key = value`` of a config file as the flags
    ``--key=value`` they name (underscores become dashes); only the
    ``keys`` given are allowed."""
    flags = []
    with open(path) as fh:
        for raw in fh:
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in keys:
                raise ValueError(f"unknown config key {key!r}")
            flags.append(f"--{key.replace('_', '-')}={value.strip()}")
    return flags


def parse_args(argv=None) -> ExperimentConfig:
    parser = argparse.ArgumentParser(
        prog="femfct",
        description="FEM-FCT convergence studies for convection-diffusion-reaction",
    )
    parser.add_argument("--config", help="key=value file of flags; flags override")
    parser.add_argument("--grid", choices=["fk", "shifted", "unstructured"])
    parser.add_argument("--mesh-file")
    parser.add_argument("--levels", type=_parse_levels, help="range A..B")
    parser.add_argument(
        "--scheme", choices=[GALERKIN, LOW_ORDER, LINEAR_FCT, NONLINEAR_FCT]
    )
    parser.add_argument("--limiter", type=_check_limiter, help="zalesak or constant:<v>")
    parser.add_argument("--eps", type=_positive)
    parser.add_argument("--tau", type=_positive)
    parser.add_argument("--t-end", type=_positive, dest="t_end")
    parser.add_argument("--study", choices=["space", "time"])
    parser.add_argument("--time-level", type=_level, dest="time_level")
    parser.add_argument("--out")
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = parser.parse_args(argv)
    if ns.config:
        # the file's flags go first, so those of the command line win
        try:
            flags = _config_flags(ns.config, set(vars(ns)) - {"config"})
        except (OSError, ValueError) as exc:
            parser.error(f"argument --config: {exc}")
        ns = parser.parse_args(flags + argv)

    config = ExperimentConfig()
    # every flag but --config names an ExperimentConfig field
    for key, value in vars(ns).items():
        if key != "config" and value is not None:
            setattr(config, key, value)
    if config.mesh_file is not None:
        if config.grid != "unstructured":
            parser.error("argument --mesh-file: only the unstructured grid reads a mesh file")
        try:
            with open(config.mesh_file):
                pass
        except OSError as exc:
            parser.error(f"argument --mesh-file: {exc}")
    # the results are written after the whole study: try the path first
    existed = os.path.exists(config.out)
    try:
        with open(config.out, "a"):
            pass
    except OSError as exc:
        parser.error(f"argument --out: {exc}")
    if not existed:
        os.remove(config.out)
    return config


def main(argv=None) -> int:
    config = parse_args(argv)
    if config.study == "space":
        rows, failures = run_space_study(config)
        write_csv(config.out, SPACE_COLUMNS, rows)
        for r in rows:
            print(
                f"level {r['level']}: h={r['h']:.3g} "
                f"l2l2={r['err_l2l2']:.6g} l2h1={r['err_l2h1']:.6g} "
                f"l2fct={r['err_l2fct']:.6g} l2dh={r['err_l2dh']:.6g} "
                f"eoc_l2l2={_fmt(r['eoc_l2l2']) or '-'}"
            )
    else:
        rows, failures = run_time_study(config)
        write_csv(config.out, TIME_COLUMNS, rows)
        for r in rows:
            print(f"tau={r['tau']:.6g}: l2l2={r['err_l2l2']:.6g} eoc={_fmt(r['eoc_l2l2']) or '-'}")
    for where, message in failures:
        print(f"FAILED at {where}: {message}", file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
