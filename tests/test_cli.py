import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import femfct
from femfct import space_study_problem, time_study_problem
from femfct.cli import (
    SPACE_COLUMNS,
    ExperimentConfig,
    build_grid,
    main,
    parse_args,
    run_space_study,
    write_space_csv,
)
from femfct.errors import ErrorReport
from femfct.stepper import ConstantLimiter, ZalesakLimiter


class TestManufacturedSolutions:
    def test_space_solution_zero_on_midline(self):
        _, exact = space_study_problem()
        assert exact.u(1.0, 0.5, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_space_solution_point_value(self):
        _, exact = space_study_problem()
        assert exact.u(1.0, 0.5, 0.25) == pytest.approx(1.7578125)

    def test_space_solution_vanishes_on_boundary(self):
        _, exact = space_study_problem()
        s = np.linspace(0.0, 1.0, 11)
        for edge in (
            exact.u(0.7, np.zeros_like(s), s),
            exact.u(0.7, np.ones_like(s), s),
            exact.u(0.7, s, np.zeros_like(s)),
            exact.u(0.7, s, np.ones_like(s)),
        ):
            np.testing.assert_allclose(edge, 0.0, atol=1e-13)

    def test_source_consistency(self):
        # f must equal u_t - eps lap(u) + b . grad(u) + c u for the
        # manufactured u; verify with centred finite differences
        spec, exact = space_study_problem(eps=1e-2)
        rng = np.random.default_rng(5)
        x, y = rng.random(20) * 0.8 + 0.1, rng.random(20) * 0.8 + 0.1
        t, d = 0.37, 1e-5
        u_t = (exact.u(t + d, x, y) - exact.u(t - d, x, y)) / (2 * d)
        lap = (
            exact.u(t, x + d, y)
            + exact.u(t, x - d, y)
            + exact.u(t, x, y + d)
            + exact.u(t, x, y - d)
            - 4 * exact.u(t, x, y)
        ) / d**2
        gx = (exact.u(t, x + d, y) - exact.u(t, x - d, y)) / (2 * d)
        gy = (exact.u(t, x, y + d) - exact.u(t, x, y - d)) / (2 * d)
        lhs = u_t - 1e-2 * lap + 2.0 * gx + 3.0 * gy + exact.u(t, x, y)
        np.testing.assert_allclose(lhs, spec.f(t, x, y), atol=1e-4)

    def test_time_solution_is_nonlinear_in_t(self):
        _, exact = time_study_problem()
        u1 = exact.u(0.1, 0.3, 0.25)
        u2 = exact.u(0.2, 0.3, 0.25)
        u3 = exact.u(0.3, 0.3, 0.25)
        assert abs(u1 - 2 * u2 + u3) > 1e-6  # nonzero second difference


class TestConfig:
    def test_limiter_parsing(self):
        assert isinstance(ExperimentConfig(limiter="zalesak").limiter_obj(), ZalesakLimiter)
        lim = ExperimentConfig(limiter="constant:0.5").limiter_obj()
        assert isinstance(lim, ConstantLimiter)
        assert lim.value == 0.5

    def test_unknown_limiter_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(limiter="minmod").limiter_obj()

    @pytest.mark.parametrize("limiter", ["minmod", "constant:2", "constant:x"])
    def test_bad_limiter_is_a_usage_error(self, tmp_path, capsys, limiter):
        path = tmp_path / "study.cfg"
        path.write_text(f"limiter = {limiter}\n")
        for argv in (["--limiter", limiter], ["--config", str(path)]):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 2
            assert "argument --limiter" in capsys.readouterr().err

    def test_flag_parsing(self):
        cfg = parse_args(
            ["--grid", "shifted", "--levels", "2..4", "--scheme", "galerkin",
             "--tau", "0.01", "--out", "x.csv"]
        )
        assert cfg.grid == "shifted"
        assert cfg.levels == (2, 4)
        assert cfg.scheme == "galerkin"
        assert cfg.tau == 0.01
        assert cfg.out == "x.csv"

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("grid = fk\nlevels = 1..2\ntau = 0.05  # coarse\n")
        cfg = parse_args(["--config", str(path), "--tau", "0.01"])
        assert cfg.grid == "fk"
        assert cfg.levels == (1, 2)
        assert cfg.tau == 0.01

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("flux_capacitor = 1\n")
        with pytest.raises(SystemExit):
            parse_args(["--config", str(path)])

    @pytest.mark.parametrize(
        "line", ["taus = 0.1, 0.05", "levels = 3..1", "tau = abc", "grid = hexagonal"]
    )
    def test_config_values_checked_like_flags(self, tmp_path, line):
        # taus has no flag; the others fail the flag's type or choices
        path = tmp_path / "study.cfg"
        path.write_text(line + "\n")
        with pytest.raises(SystemExit):
            parse_args(["--config", str(path)])

    @pytest.mark.parametrize("levels", ["-1..0", "-1"])
    def test_negative_levels_are_a_usage_error(self, tmp_path, capsys, levels):
        path = tmp_path / "study.cfg"
        path.write_text(f"levels = {levels}\n")
        for argv in ([f"--levels={levels}"], ["--config", str(path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--grid", "unstructured", "--out", str(tmp_path / "x.csv")])
            assert exc.value.code == 2
            assert "argument --levels: levels must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestGrids:
    def test_unstructured_sample_loads(self):
        mesh = build_grid(ExperimentConfig(grid="unstructured"), level=0)
        assert mesh.n_nodes > 0
        assert mesh.areas().sum() == pytest.approx(1.0, abs=1e-12)

    def test_unstructured_refinement(self):
        coarse = build_grid(ExperimentConfig(grid="unstructured"), level=0)
        fine = build_grid(ExperimentConfig(grid="unstructured"), level=1)
        assert fine.n_triangles == 4 * coarse.n_triangles


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCsvRoundTrip:
    def report(self):
        return ErrorReport(
            levels=[1, 2],
            hs=[0.25, 0.125],
            err_l2l2=[0.1, 0.024999999999999998],
            err_l2h1=[0.4, 0.2],
            err_l2fct=[0.2, 0.1],
            err_l2dh=[0.09, 0.045],
            wall_time_s=[1.5, 3.25],
        )

    def test_exact_round_trip(self, tmp_path):
        path = tmp_path / "study.csv"
        rep = self.report()
        write_space_csv(path, rep)
        rows = read_rows(path)
        assert list(rows[0]) == SPACE_COLUMNS
        assert len(rows) == len(rep.levels)
        assert [int(r["level"]) for r in rows] == rep.levels
        assert [float(r["h"]) for r in rows] == rep.hs
        assert [float(r["err_l2l2"]) for r in rows] == rep.err_l2l2
        assert [float(r["err_l2dh"]) for r in rows] == rep.err_l2dh


class TestStudies:
    def test_space_study_smoke(self, tmp_path):
        cfg = ExperimentConfig(
            grid="fk", levels=(1, 3), scheme="linear_fct", tau=0.05, t_end=0.2,
            out=str(tmp_path / "space.csv"),
        )
        # tau = 0.05 exceeds the predictor's positivity bound on level 3 only
        with pytest.warns(UserWarning, match=r"^tau=0.05 exceeds") as caught:
            report, failures = run_space_study(cfg)
        assert len(caught) == 1
        assert failures == []
        assert report.levels == [1, 2, 3]
        # errors decrease monotonically with refinement
        assert report.err_l2l2[0] > report.err_l2l2[1] > report.err_l2l2[2]
        assert all(e > 0 for e in report.err_l2fct)

    def test_main_space(self, tmp_path, capsys):
        out = tmp_path / "space.csv"
        code = main(
            ["--grid", "fk", "--levels", "1..2", "--scheme", "galerkin",
             "--tau", "0.05", "--t-end", "0.1", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "level 2" in capsys.readouterr().out
        assert len(read_rows(out)) == 2

    def test_main_time(self, tmp_path, capsys):
        out = tmp_path / "time.csv"
        code = main(
            ["--study", "time", "--grid", "fk", "--time-level", "2",
             "--scheme", "galerkin", "--t-end", "1.0", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "tau=" in text


# 5 linear_fct steps, the four integrated norms and each step's nodal
# norms on shifted level 6 (16641 nodes, above the size from which
# OpenBLAS threads its dot product)
BLAS_THREADS_SCRIPT = """
import hashlib
from femfct import SchemeKind, build_shifted_grid, space_study_problem
from femfct.cli import run_single
from femfct.errors import ErrorWorkspace
mesh = build_shifted_grid(6)
spec, exact = space_study_problem(tau=1e-3, t_end=5e-3)
integrated, records = run_single(mesh, spec, exact, SchemeKind("linear_fct"))
print(hashlib.sha256(b"".join(r.u.tobytes() for r in records)).hexdigest())
print(sorted((k, float(v).hex()) for k, v in integrated.items()))
ws = ErrorWorkspace(mesh)
for r in records:
    e = exact.u(r.t, mesh.nodes[:, 0], mesh.nodes[:, 1]) - r.u
    print(ws.l2_nodal(e).hex(), ws.h1_nodal(e).hex())
"""


def test_results_do_not_depend_on_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = str(Path(femfct.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_SCRIPT], env=env, capture_output=True,
            text=True, check=True, timeout=300,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
