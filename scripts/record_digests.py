"""Print one sha256 digest per run of the time stepper and of
``cli.run_single``, and per assembled matrix, to check that a refactor
leaves every output bitwise unchanged.

Each line names a case (mesh, problem, coefficient path, scheme) and the
digest of every record's t, u, alpha (expanded to every pair of the
mesh, 1 on the pairs the limiter does not list), fp_iters, residual,
correction_sum and flux_abs_sum, sign bits included.  The problems are
the space and time studies', on both coefficient paths, and one whose
velocity and reaction vary in space and time, so that its operators
change every step.  The ``run_single`` lines digest the four integrated
error norms instead, and the ``assembly`` lines the data, indptr and
indices of the mass, the Laplacian and the stiffness (of the space
problem and of the variable-coefficient one, at three times).  Run it on two source trees
and diff the outputs:

    PYTHONPATH=src python3 scripts/record_digests.py > digests.txt
"""

import hashlib
import struct
import warnings

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


def run(label, fn):
    try:
        out = fn()
    except Exception as exc:  # a failing case digests its message
        out = repr(exc)
    print(label, out, flush=True)


def main():
    # tau = 1/30 exceeds the predictor's positivity bound, which the
    # stepper reports once per run
    warnings.filterwarnings("ignore", message="tau=")
    # the space problem's first steps, and the time problem at a coarse tau
    problem_of = {
        "space": lambda: problems.space_study_problem(tau=1e-3, t_end=STEPS * 1e-3),
        "time": lambda: problems.time_study_problem(tau=1.0 / STEPS, t_end=1.0),
    }
    for mesh_name, mesh in meshes():
        run(f"assembly {mesh_name} mass", lambda: digest_matrix(assemble_mass(mesh)))
        run(f"assembly {mesh_name} laplacian", lambda: digest_matrix(assemble_laplacian(mesh)))
        for problem, spec in (("space", problem_of["space"]()[0]), ("variable", variable_spec())):
            for t in (0.0, 0.25, 0.7):
                label = f"assembly {mesh_name} stiffness {problem} t={t}"
                run(label, lambda: digest_matrix(assemble_stiffness(mesh, spec, t)))
        for problem, make in problem_of.items():
            for constant in (True, False):
                for scheme_name, scheme in SCHEMES.items():
                    spec, _ = make()
                    spec.constant_coefficients = constant
                    label = f"records {mesh_name} {problem} constant={constant} {scheme_name}"
                    run(label, lambda: digest_records(mesh, TimeStepper(mesh, spec, scheme).run(STEPS)))
        for scheme_name, scheme in SCHEMES.items():
            label = f"records {mesh_name} variable constant=False {scheme_name}"
            run(label, lambda: digest_records(mesh, TimeStepper(mesh, variable_spec(), scheme).run(STEPS)))
        for scheme_name, scheme in SCHEMES.items():
            spec, exact = problem_of["space"]()

            def norms():
                integrated, _ = cli.run_single(mesh, spec, exact, scheme)
                return hashlib.sha256(floats(*integrated.values())).hexdigest()

            run(f"run_single {mesh_name} space {scheme_name}", norms)


if __name__ == "__main__":
    main()
