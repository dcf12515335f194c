"""Command line driver: convergence studies in space and time, CSV output.

The built-in benchmark problem has eps = 1e-8, b = (2, 3), c = 1 on the
unit square with a smooth polynomial exact solution; the time study swaps
in a sinusoidal-in-time variant so the temporal error dominates.
"""

from __future__ import annotations

import argparse
import importlib.resources
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
    stepper = TimeStepper(mesh, spec, scheme)
    n_steps = int(round(spec.t_end / spec.tau))
    records = stepper.run(n_steps)
    ws = err.ErrorWorkspace(mesh)
    # the stepper puts every record's limiter on the mesh's pair graph,
    # which must be the mass pattern's: dh_seminorm weights it with the
    # diffusion's d_ij on those pairs
    i, j, _ = _upper_pairs(stepper.mass)
    last = records[-1].alpha
    if last is not None and not (np.array_equal(last.i, i) and np.array_equal(last.j, j)):
        raise ValueError("the limiters are not on the mass pattern's pairs")

    series = {"l2": [], "h1": [], "fct": [], "dh": []}
    # the exact solution at the nodes is scale(t) times this
    nodal_profile = np.asarray(exact.profile(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)
    for record in records[1:]:
        t = record.t
        d_ij = TimeLevel(stepper, t).ops[1]
        series["l2"].append(ws.l2_error(record.u, exact, t))
        series["h1"].append(ws.h1_error(record.u, exact, t))
        e_nodes = exact.scale(t) * nodal_profile - record.u
        dh = err.dh_seminorm(record.alpha, d_ij, e_nodes)
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
    mesh = build_grid(config, config.time_level)
    scheme = config.scheme_obj()
    rows = []
    failures = []
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
    eocs = report.eocs()
    with open(path, "w") as fh:
        fh.write(",".join(SPACE_COLUMNS) + "\n")
        for k in range(len(report.levels)):
            row = [
                report.levels[k],
                report.hs[k],
                report.err_l2l2[k],
                report.err_l2h1[k],
                report.err_l2fct[k],
                report.err_l2dh[k],
                eocs["eoc_l2l2"][k],
                eocs["eoc_l2h1"][k],
                eocs["eoc_l2fct"][k],
                eocs["eoc_l2dh"][k],
                report.wall_time_s[k],
            ]
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_time_csv(path, rows, eocs):
    with open(path, "w") as fh:
        fh.write(",".join(TIME_COLUMNS) + "\n")
        for (tau, e, wall), q in zip(rows, eocs):
            fh.write(",".join(_fmt(v) for v in (tau, e, q, wall)) + "\n")


# -- argument handling --------------------------------------------------


def _parse_levels(text) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    a = int(lo)
    b = int(hi) if hi else a
    if a < 0:
        raise argparse.ArgumentTypeError("levels must be nonnegative")
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
                raise SystemExit(f"unknown config key {key!r}")
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
    parser.add_argument("--eps", type=float)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--t-end", type=float, dest="t_end")
    parser.add_argument("--study", choices=["space", "time"])
    parser.add_argument("--time-level", type=int, dest="time_level")
    parser.add_argument("--out")
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = parser.parse_args(argv)
    if ns.config:
        # the file's flags go first, so those of the command line win
        keys = set(vars(ns)) - {"config"}
        ns = parser.parse_args(_config_flags(ns.config, keys) + argv)

    config = ExperimentConfig()
    # every flag but --config names an ExperimentConfig field
    for key, value in vars(ns).items():
        if key != "config" and value is not None:
            setattr(config, key, value)
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
