"""Print one sha256 digest per run of the time stepper and of
``cli.run_single``, and per assembled matrix, to check that a refactor
leaves every output bitwise unchanged.

Each line names a case (mesh, problem, coefficient path, scheme) and the
digest of every record's t, u, alpha (expanded to every pair of the
mesh, the limiter's rest value on the pairs it does not list),
fp_iters, residual, correction_sum and flux_abs_sum, sign bits included.
The problems are the space and time studies', on both coefficient paths,
and one whose velocity and reaction vary in space and time, so that its
operators change every step.  The time problem runs at tau = 1/30,
beyond every digest mesh's linear step limit (about 1/151 at FK level
5), where rounding moves are amplified, and at tau = 1/320 ("time320"),
inside all of them, where ``--compare`` tells rounding from a real
change.  The ``run_single`` lines digest the four integrated error norms
instead, and the ``assembly`` lines the data, indptr and indices of the
mass, the Laplacian and the stiffness (of the space problem and of the
variable-coefficient one, at three times).  Run it on two source trees
and diff the outputs:

    PYTHONPATH=src python3 scripts/record_digests.py > digests.txt

When the outputs are meant to move by rounding only, save each case's
arrays on one tree and compare the other's against them; ``--compare``
prints, per case, the largest relative move of u (max |u - u_ref| over
max |u_ref|, over the records) and of alpha, of the four integrated
norms, or of a matrix's data, instead of its digest:

    PYTHONPATH=old/src python3 scripts/record_digests.py --save /tmp/ref
    PYTHONPATH=src python3 scripts/record_digests.py --compare /tmp/ref
"""

import argparse
import hashlib
import re
import struct
import warnings
from pathlib import Path

import numpy as np

from femfct import (
    ConstantLimiter,
    ProblemSpec,
    SchemeKind,
    TimeStepper,
    ZalesakLimiter,
    assemble_laplacian,
    assemble_mass,
    assemble_stiffness,
    cli,
    problems,
)
from femfct.mesh import build_friedrichs_keller, build_shifted_grid

STEPS = 30

SCHEMES = {
    "galerkin": SchemeKind("galerkin"),
    "low_order": SchemeKind("low_order"),
    "linear_fct": SchemeKind("linear_fct", ZalesakLimiter()),
    "linear_fct_c0.5": SchemeKind("linear_fct", ConstantLimiter(0.5)),
    "linear_fct_c0.5_all": SchemeKind("linear_fct", ConstantLimiter(0.5, False)),
    "nonlinear_fct": SchemeKind("nonlinear_fct", ZalesakLimiter()),
    "nonlinear_fct_c0.5": SchemeKind("nonlinear_fct", ConstantLimiter(0.5)),
    "nonlinear_fct_c0.5_all": SchemeKind("nonlinear_fct", ConstantLimiter(0.5, False)),
}


def meshes():
    yield "fk3", build_friedrichs_keller(3)
    yield "shifted3", build_shifted_grid(3)
    yield "unstructured1", cli.build_grid(cli.ExperimentConfig(grid="unstructured"), 1)
    yield "fk5", build_friedrichs_keller(5)


def floats(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def digest_records(mesh, records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(floats(rec.t, rec.residual, rec.correction_sum, rec.flux_abs_sum))
        h.update(struct.pack("<q", rec.fp_iters))
        h.update(np.ascontiguousarray(rec.u).tobytes())
        if rec.alpha is not None:
            h.update(rec.alpha.expanded(mesh.pairs.i.size).tobytes())
    return h.hexdigest()


def digest_matrix(matrix) -> str:
    h = hashlib.sha256()
    for part in (matrix.data, matrix.indptr, matrix.indices):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def variable_spec():
    """Coefficients that vary in space and time, so every quadrature point matters."""
    return ProblemSpec(
        eps=1e-3,
        b=lambda t, x, y: (2.0 + np.sin(x + t), 3.0 * y * y),
        c=lambda t, x, y: 1.0 + x * y,
        f=lambda t, x, y: np.exp(x - y) * (1.0 + t),
        u0=lambda x, y: x * y,
        c0=1.0,
        t_end=1.0,
        tau=1e-3,
        constant_coefficients=False,
    )


def record_arrays(mesh, records) -> dict:
    arrays = {"u": np.stack([rec.u for rec in records])}
    limited = [rec.alpha.expanded(mesh.pairs.i.size) for rec in records if rec.alpha is not None]
    if limited:
        arrays["alpha"] = np.stack(limited)
    return arrays


def relative_move(new, ref) -> float:
    if new.shape != ref.shape:
        return np.inf
    scale = np.abs(ref).max(initial=0.0)
    move = np.abs(new - ref).max(initial=0.0)
    return move / scale if scale > 0.0 else move


class Cases:
    """Runs each case and prints its digest, saving its arrays to
    ``save``, or prints its moves against the arrays saved in ``compare``."""

    def __init__(self, save=None, compare=None):
        self.save, self.compare = save, compare
        self.largest = {}

    def run(self, label, fn, digest, arrays):
        try:
            out = fn()
        except Exception as exc:  # a failing case digests its message
            error = repr(exc)
            print(label, error if self.compare is None else f"error {error}", flush=True)
            return
        values = {name: np.asarray(v) for name, v in arrays(out).items()}
        if self.compare is None:
            print(label, digest(out), flush=True)
            if self.save is not None:
                np.savez_compressed(self.path(self.save, label), **values)
            return
        path = self.path(self.compare, label)
        if not path.exists():
            print(label, "no saved arrays", flush=True)
            return
        with np.load(path) as ref:
            moves = {name: relative_move(v, ref[name]) if name in ref else np.inf for name, v in values.items()}
            moves.update({name: np.inf for name in ref.files if name not in values})
        for name, move in moves.items():
            self.largest[name] = max(self.largest.get(name, 0.0), move)
        print(label, " ".join(f"{name}={move:.3g}" for name, move in moves.items()), flush=True)

    @staticmethod
    def path(directory, label) -> Path:
        return Path(directory) / (re.sub(r"[^A-Za-z0-9.]+", "_", label) + ".npz")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("--save", metavar="DIR", help="also save each case's arrays to DIR")
    modes.add_argument("--compare", metavar="DIR", help="print each case's moves against DIR's arrays")
    args = parser.parse_args(argv)
    if args.save is not None:
        Path(args.save).mkdir(parents=True, exist_ok=True)
    cases = Cases(args.save, args.compare)

    def matrix(label, fn):
        cases.run(label, fn, digest_matrix, lambda mat: {"matrix": mat.data})

    def records(label, mesh, fn):
        cases.run(label, fn, lambda recs: digest_records(mesh, recs), lambda recs: record_arrays(mesh, recs))

    # tau = 1/30 exceeds the predictor's positivity bound, which the
    # stepper reports once per run
    warnings.filterwarnings("ignore", message="tau=")
    # the space problem's first steps, and the time problem at a coarse
    # tau and at one inside the linear step limits
    problem_of = {
        "space": lambda: problems.space_study_problem(tau=1e-3, t_end=STEPS * 1e-3),
        "time": lambda: problems.time_study_problem(tau=1.0 / STEPS, t_end=1.0),
        "time320": lambda: problems.time_study_problem(tau=1.0 / 320.0, t_end=1.0),
    }
    for mesh_name, mesh in meshes():
        matrix(f"assembly {mesh_name} mass", lambda: assemble_mass(mesh))
        matrix(f"assembly {mesh_name} laplacian", lambda: assemble_laplacian(mesh))
        for problem, spec in (("space", problem_of["space"]()[0]), ("variable", variable_spec())):
            for t in (0.0, 0.25, 0.7):
                label = f"assembly {mesh_name} stiffness {problem} t={t}"
                matrix(label, lambda: assemble_stiffness(mesh, spec, t))
        for problem, make in problem_of.items():
            for constant in (True, False):
                for scheme_name, scheme in SCHEMES.items():
                    spec, _ = make()
                    spec.constant_coefficients = constant
                    label = f"records {mesh_name} {problem} constant={constant} {scheme_name}"
                    records(label, mesh, lambda: TimeStepper(mesh, spec, scheme).run(STEPS))
        for scheme_name, scheme in SCHEMES.items():
            label = f"records {mesh_name} variable constant=False {scheme_name}"
            records(label, mesh, lambda: TimeStepper(mesh, variable_spec(), scheme).run(STEPS))
        for scheme_name, scheme in SCHEMES.items():
            spec, exact = problem_of["space"]()
            cases.run(
                f"run_single {mesh_name} space {scheme_name}",
                lambda: cli.run_single(mesh, spec, exact, scheme)[0],
                lambda integrated: hashlib.sha256(floats(*integrated.values())).hexdigest(),
                lambda integrated: {"norms": list(integrated.values())},
            )
    if cases.compare is not None:
        print("largest", " ".join(f"{name}={move:.3g}" for name, move in cases.largest.items()))


if __name__ == "__main__":
    main()
