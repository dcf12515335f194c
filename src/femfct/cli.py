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
from dataclasses import dataclass, field

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


def run_space_study(config: ExperimentConfig):
    """Spatial convergence study over config.levels; returns (report, failures)."""
    report = err.ErrorReport()
    failures = []
    scheme = config.scheme_obj()
    for level in range(config.levels[0], config.levels[1] + 1):
        start = time.perf_counter()
        try:
            mesh = build_grid(config, level)
            spec, exact = problems.space_study_problem(
                eps=config.eps, tau=config.tau, t_end=config.t_end
            )
            integrated, _ = run_single(mesh, spec, exact, scheme)
        except Exception as exc:  # record and continue with the next level
            failures.append((level, repr(exc)))
            continue
        report.levels.append(level)
        report.hs.append(mesh.h)
        report.err_l2l2.append(integrated["l2"])
        report.err_l2h1.append(integrated["h1"])
        report.err_l2fct.append(integrated["fct"])
        report.err_l2dh.append(integrated["dh"])
        report.wall_time_s.append(time.perf_counter() - start)
    return report, failures


def run_time_study(config: ExperimentConfig):
    """Temporal convergence study: tau halved on a fixed fine grid."""
    scheme = config.scheme_obj()
    rows = []
    failures = []
    try:
        mesh = build_grid(config, config.time_level)
    except Exception as exc:  # recorded like a failed tau; no tau can run
        return rows, [None], [(f"level {config.time_level}", repr(exc))]
    for tau in DEFAULT_TIME_TAUS:
        start = time.perf_counter()
        try:
            spec, exact = problems.time_study_problem(
                eps=config.eps, tau=tau, t_end=config.t_end
            )
            integrated, _ = run_single(mesh, spec, exact, scheme)
        except Exception as exc:
            failures.append((tau, repr(exc)))
            continue
        rows.append((tau, integrated["l2"], time.perf_counter() - start))
    taus = [r[0] for r in rows]
    errs = [r[1] for r in rows]
    eocs = [None] + (err.eoc(errs, taus) if len(errs) >= 2 else [])
    return rows, eocs, failures


# -- CSV ---------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def write_space_csv(path, report: err.ErrorReport):
    # each column's values by its name: the error columns are the report's
    # fields of the same name
    cols = dict(level=report.levels, h=report.hs, wall_time_s=report.wall_time_s, **report.eocs())
    cols.update((name, getattr(report, name)) for name in SPACE_COLUMNS if name.startswith("err_"))
    with open(path, "w") as fh:
        fh.write(",".join(SPACE_COLUMNS) + "\n")
        for row in zip(*(cols[name] for name in SPACE_COLUMNS)):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_time_csv(path, rows, eocs):
    with open(path, "w") as fh:
        fh.write(",".join(TIME_COLUMNS) + "\n")
        for (tau, e, wall), q in zip(rows, eocs):
            fh.write(",".join(_fmt(v) for v in (tau, e, q, wall)) + "\n")


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
        report, failures = run_space_study(config)
        write_space_csv(config.out, report)
        eocs = report.eocs()
        for k in range(len(report.levels)):
            print(
                f"level {report.levels[k]}: h={report.hs[k]:.3g} "
                f"l2l2={report.err_l2l2[k]:.6g} l2h1={report.err_l2h1[k]:.6g} "
                f"l2fct={report.err_l2fct[k]:.6g} l2dh={report.err_l2dh[k]:.6g} "
                f"eoc_l2l2={_fmt(eocs['eoc_l2l2'][k]) or '-'}"
            )
    else:
        rows, eocs, failures = run_time_study(config)
        write_time_csv(config.out, rows, eocs)
        for (tau, e, _), q in zip(rows, eocs):
            print(f"tau={tau:.6g}: l2l2={e:.6g} eoc={_fmt(q) or '-'}")
    for where, message in failures:
        print(f"FAILED at {where}: {message}", file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
