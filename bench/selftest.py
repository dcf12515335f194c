#!/usr/bin/env python3
"""Self-test of the benchmark at toy size (level 2, five steps per workload).

Run from the repository root:  python3 bench/selftest.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is emitted for every workload, that self times in the span tree add up to
the root span, that relabelled seeds give the same outputs, that a failed
output check fails every step of its run, and that a missing or silent
hook stops the benchmark.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import run

SECONDS = 0.2


def main():
    run.import_package()
    import femfct.stepper
    from spans import HookMissing, Tracer, check_hook_targets
    from workloads import WORKLOADS, check, execute, outputs, toy

    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(run.WORKLOAD_NAMES) == list(WORKLOADS),
           "BENCHMARK.json, run.py and workloads.py name different workloads")

    for name, workload in WORKLOADS.items():
        small = toy(workload)
        for trace, table in enumerate(run.declared_metrics()):
            result, _ = run.run_workload(small, 0, SECONDS, trace)
            missing = set(table) - set(result["metrics"])
            expect(not missing, f"{name} trace={trace}: missing {sorted(missing)}")
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: not correct")

        tracer = Tracer()
        with tracer.installed():
            outcome = tracer.root("workload", execute, small, 0, tracer.wrap_callbacks)
        roots = [s for s in tracer.spans if s.parent < 0]
        own = sum(tracer.self_times())
        expect(len(roots) == 1, f"{name}: {len(roots)} root spans")
        expect(math.isclose(own, roots[0].end - roots[0].start, rel_tol=1e-9),
               f"{name}: self times sum to {own}, root lasts {roots[0].end - roots[0].start}")

        base = outputs(small, outcome)
        moved = outputs(small, execute(small, 7))
        for key, value in base.items():
            expect(math.isclose(moved[key], value, rel_tol=1e-10),
                   f"{name}: {key} is {value} on seed 0 but {moved[key]} on seed 7")

        wrong = replace(small, reference={k: 2.0 * v for k, v in base.items()}, rtol=1e-6)
        failed, _ = check(wrong, outcome)
        expect(failed == small.n_steps, f"{name}: a failed reference check failed {failed} steps")

    linear = toy(WORKLOADS["linear_fk5"])
    silent = replace(linear, hooks=linear.hooks + ("fct.raw_fluxes",))
    try:
        run.run_workload(silent, 0, SECONDS, 1)
        failures.append("a hook that is never called did not stop the benchmark")
    except HookMissing:
        pass

    original = femfct.stepper.zalesak
    del femfct.stepper.zalesak
    try:
        check_hook_targets()
        failures.append("a missing hook target was not detected")
    except HookMissing:
        pass
    finally:
        femfct.stepper.zalesak = original

    for message in failures:
        print(f"FAIL {message}")
    print(f"selftest: {len(failures)} failures over {len(WORKLOADS)} workloads")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
