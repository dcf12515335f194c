#!/usr/bin/env python3
"""Benchmark of femfct's four FEM-FCT workloads, driven through the public API.

Usage (from the repository root):

    python3 bench/run.py --workload linear_fk5 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

Workloads (all on ``space_study_problem`` with the Zalesak limiter):

    linear_fk5      FK level 5, linear_fct, 200 steps via TimeStepper.run
    nonlinear_fk5   FK level 5, nonlinear_fct, 100 steps via TimeStepper.run
    study_shifted6  shifted level 6, linear_fct, 100 steps via cli.run_single
    varcoef_fk5     linear_fk5's problem with constant_coefficients=False, 100 steps

Load is closed-loop: one process runs one workload repetition after the
other until ``--seconds`` are used (at least two timed repetitions).

``--trace 0`` reports the end-to-end metrics, timed with only a clock
around ``TimeStepper.step_<scheme>``:

    setup_s       median over set-up-only repetitions of the time from the
                  workload's start to the first step entry (mesh build,
                  TimeStepper construction, anything run_single does first)
    run_s         median over repetitions of first step entry to the end of
                  the workload (error norms included in study_shifted6)
    step_ms_p50   median latency of one step_<scheme> call, all repetitions
    step_ms_p90   90th percentile of the same samples
    peak_rss_mb   peak resident set size of this process after its first full
                  repetition (later ones add only allocator fragmentation,
                  which varies from run to run)

The four timings are scaled to a reference host speed: a fixed kernel
(calibration.py) is timed before and after the set-up block and every
repetition, and each sample is multiplied by REFERENCE_S over the mean of
the two measurements around it.  This removes the host's speed swings
(about 1.3x on a shared 2-vCPU host), not the program's; the unscaled
values are printed and recorded as well.

Failed steps are the result's ``failed`` out of ``attempted``; the ratio
is printed as ``failed_frac`` but is not a compared metric, since it is 0
on a correct program.

``--trace 1`` alternates traced and untraced repetitions.  A traced one
records a span around every public call into each layer (see spans.py),
derives self times from the span tree, and reports the per-layer metrics
(medians over traced repetitions; counts repeat exactly).  ``trace.overhead``
is traced run_s over untraced run_s, minus one.

Every repetition's output is checked (see workloads.check).  The last line
of standard output is the JSON result; the run record (host, commit,
problem sizes, all derived numbers and, when traced, the spans of the first
traced repetition) is written to bench/out/.  BLAS thread pools are limited
to one thread unless the environment already sets them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("linear_fk5", "nonlinear_fk5", "study_shifted6", "varcoef_fk5")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 25  # set-up-only repetitions per untraced run
# discarded first: they run lazy imports and let the allocator's heap grow to
# the workload's size, which takes a few repetitions
SETUP_WARMUP = 5
MIN_TIMED_REPS = 2

COUNT_UNITS = ("count", "bytes")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing package or hook)."""


def declared_metrics():
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json declares them."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def import_package():
    """Put the checkout's src/ first on the path and import femfct from it."""
    src = ROOT / "src"
    if not (src / "femfct" / "__init__.py").is_file():
        raise BenchError(f"no femfct package under {src}")
    sys.path.insert(0, str(src))
    import femfct

    if Path(femfct.__file__).resolve().parent != (src / "femfct").resolve():
        raise BenchError(f"femfct imported from {femfct.__file__}, not from {src}")


# -- run record ------------------------------------------------------------


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def problem_sizes(workload, seed):
    from femfct.mesh import edge_arrays
    from workloads import build_mesh

    mesh = build_mesh(workload, seed)
    return {
        "nodes": mesh.n_nodes,
        "triangles": mesh.n_triangles,
        "pairs": int(edge_arrays(mesh)[0].size),
        "steps": workload.n_steps,
    }


# -- repetitions -------------------------------------------------------------


def setup_only(workload, seed):
    """Seconds from the workload's start to its first step entry."""
    from spans import SetupDone, StepClock
    from workloads import Timeline, execute

    clock = StepClock(stop_at_first_step=True)
    timeline = Timeline()
    with clock.installed(), contextlib.suppress(SetupDone):
        execute(workload, seed, timeline=timeline)
    if clock.first_entry is None:
        raise BenchError(f"{workload.name}: no step was entered")
    return clock.first_entry - timeline.start - timeline.relabel_s


def repetition(workload, seed, tracer=None):
    """Run the workload once, timed (and traced if a tracer is given), and check it."""
    from femfct.solver import SolverError
    from femfct.stepper import StepFailure
    from spans import StepClock
    from workloads import Timeline, check, execute, record_bytes

    clock = StepClock()
    timeline = Timeline()
    rep = {"attempted": workload.n_steps}
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        stack.enter_context(clock.installed())
        try:
            if tracer is None:
                outcome = execute(workload, seed, timeline=timeline)
            else:
                outcome = tracer.root(
                    "workload", execute, workload, seed, tracer.wrap_callbacks, timeline
                )
        except (StepFailure, SolverError) as exc:
            rep.update(failed=workload.n_steps, messages=[f"{type(exc).__name__}: {exc}"])
            return rep
    failed, messages = check(workload, outcome)
    rep.update(
        failed=failed,
        messages=messages,
        run_s=timeline.end - clock.first_entry,
        latencies=clock.latencies,
        final_u=outcome.records[-1].u.copy(),
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        fp = [r.fp_iters for r in outcome.records[1:]]
        rep["counts"] = {
            "fp_total": sum(fp),
            "fp_max": max(fp),
            "record_bytes": record_bytes(outcome.records),
        }
    return rep


def timing_metrics(setup, setup_scale, reps, rep_scales):
    """End-to-end timings, each sample multiplied by the scale of its block."""
    latencies = [x * k for r, k in zip(reps, rep_scales) for x in r["latencies"]]
    return {
        "setup_s": statistics.median(setup) * setup_scale,
        "run_s": statistics.median(r["run_s"] * k for r, k in zip(reps, rep_scales)),
        "step_ms_p50": 1e3 * statistics.median(latencies),
        "step_ms_p90": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "step_samples": len(latencies),
        "setup_samples": len(setup),
    }


def layer_metrics(tracer, rep, workload):
    """Every per-span number of one traced repetition, plus the derived ratios.

    "<span>.s" is the inclusive seconds, "<span>.self_s" the same minus the
    time of child spans, "<span>.calls" the call count.
    """
    from spans import CALLBACKS, HOOKS, HookMissing

    totals = tracer.totals()
    silent = [name for name in workload.hooks if name not in totals]
    if silent:
        raise HookMissing(f"{workload.name}: hooked functions never called: {', '.join(silent)}")
    for name in [*HOOKS, *CALLBACKS]:
        totals.setdefault(name, (0, 0.0, 0.0))
    out = {}
    for name, (calls, incl, excl) in totals.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = incl
        out[f"{name}.self_s"] = excl

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    steps = workload.n_steps
    counts = rep["counts"]
    out.update({
        "solver.solves_per_factorization": calls("solver.solve") / calls("solver.factorize"),
        "stepper.fp_iters.total": counts["fp_total"],
        "stepper.fp_iters.max": counts["fp_max"],
        "stepper.fp_iters.per_step": counts["fp_total"] / steps,
        "stepper.loads_per_step": calls("assembly.load") / steps,
        "stepper.operator_builds_per_step": calls("assembly.stiffness") / steps,
        "stepper.record_bytes": counts["record_bytes"],
        "trace.run_s": rep["run_s"],
    })
    return out


def run_workload(workload, seed, seconds, trace):
    """All repetitions of one run; returns (result dict, run record)."""
    from calibration import REFERENCE_S, Calibration
    from spans import Tracer, check_hook_targets
    from workloads import final_u_differs, reference_final_u

    check_hook_targets()
    sizes = problem_sizes(workload, seed)

    start = perf_counter()
    setup, speeds, unscaled = [], [], None
    if not trace:
        # untraced timings are scaled by the host speed measured before and
        # after each block of work (see calibration.py)
        calibration = Calibration()
        speeds = [calibration.measure()]
        for k in range(SETUP_WARMUP + SETUP_REPS):
            s = setup_only(workload, seed)
            if k >= SETUP_WARMUP:
                setup.append(s)
            gc.collect()
        speeds.append(calibration.measure())
        setup_scale = REFERENCE_S / statistics.mean(speeds[-2:])

    reps, traced = [], []
    first_spans = None
    while True:
        tracer = Tracer() if trace and len(traced) <= len(reps) else None
        rep_start = perf_counter()
        rep = repetition(workload, seed, tracer)
        rep_seconds = perf_counter() - rep_start
        if tracer is not None:
            if "run_s" in rep:
                rep["layers"] = layer_metrics(tracer, rep, workload)
            if first_spans is None:
                first_spans = tracer.as_rows()
            traced.append(rep)
        else:
            reps.append(rep)
            if not trace:
                speeds.append(calibration.measure())
                rep["scale"] = REFERENCE_S / statistics.mean(speeds[-2:])
        del tracer
        gc.collect()
        done = (len(reps) >= (1 if trace else MIN_TIMED_REPS)) and (not trace or traced)
        if done and perf_counter() - start + rep_seconds > seconds:
            break

    everything = reps + traced
    if not workload.constant_coefficients:
        # after the timed repetitions, so that its memory is not in their peak
        reference_u, reference_messages = reference_final_u(workload, seed)
        for rep in everything:
            messages = reference_messages
            if not messages and "final_u" in rep:
                differs = final_u_differs(rep["final_u"], reference_u)
                messages = [differs] if differs else []
            if messages:
                rep["failed"] = workload.n_steps
                rep["messages"].extend(messages)
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    messages = [m for r in everything for m in r["messages"]]
    metrics = {}
    if trace:
        layers = [r["layers"] for r in traced if "layers" in r]
        for name in sorted({k for d in layers for k in d}):
            metrics[name] = statistics.median(d[name] for d in layers)
        plain_run = [r["run_s"] for r in reps if "run_s" in r]
        if layers and plain_run:
            metrics["trace.overhead"] = metrics["trace.run_s"] / statistics.median(plain_run) - 1.0
    else:
        ok = [r for r in reps if "run_s" in r]
        if ok:
            metrics.update(timing_metrics(setup, setup_scale, ok, [r["scale"] for r in ok]))
            unscaled = timing_metrics(setup, 1.0, ok, [1.0] * len(ok))
            # after the first full repetition: later ones only add the
            # allocator's fragmentation, which varies from run to run
            metrics["peak_rss_mb"] = ok[0]["rss_mb"]
    wanted = declared_metrics()[1 if trace else 0]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        messages.append(f"metrics not measured: {', '.join(missing)}")
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_record(),
        "commit": git_commit(),
        "sizes": sizes,
        "repetitions": {"untraced": len(reps), "traced": len(traced)},
        "run_s_each": [r.get("run_s") for r in everything],
        "rss_mb_after_each": [r.get("rss_mb") for r in everything],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "messages": messages[:50],
        "metrics": metrics,
        "unscaled": unscaled,
        "host_speed_s": speeds,
        "spans": first_spans,
    }
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": round(metrics[name]) if unit in COUNT_UNITS else metrics[name], "unit": unit}
            for name, unit in wanted.items()
            if name in metrics
        },
    }
    return result, record


# -- entry points ------------------------------------------------------------


def write_record(record):
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump(record, fh)


def print_result(result, record):
    print(f"# {record['workload']} seed={record['seed']} sizes={json.dumps(record['sizes'])} "
          f"repetitions={json.dumps(record['repetitions'])} commit={record['commit']}")
    print(f"# host {json.dumps(record['host'])}")
    for message in record["messages"][:10]:
        print(f"# CHECK FAILED: {message}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if record["unscaled"]:
        print("# not scaled to the reference host speed: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in record["unscaled"].items()))
    print(f"failed_frac = {record['failed_frac']:.6g} ({result['failed']} of {result['attempted']} steps)")
    print(json.dumps(result))


def run_all(args):
    """Each workload in a fresh process, so that each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"{name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is imported
        os.environ.setdefault(var, "1")
    # TimeStepper.run warns that tau > h^2 on every paper run; the bound is
    # known to be miscalibrated and the warning would only clutter the output
    warnings.filterwarnings("ignore", message=r"tau=.* exceeds h\^2")
    if args.seed < 0:
        raise SystemExit("--seed must be nonnegative")
    try:
        if args.workload == "all":
            return run_all(args)
        import_package()
        from spans import HookMissing
        from workloads import WORKLOADS

        try:
            result, record = run_workload(
                WORKLOADS[args.workload], args.seed, args.seconds, args.trace
            )
        except HookMissing as exc:
            raise BenchError(str(exc)) from exc
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    write_record(record)
    print_result(result, record)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
