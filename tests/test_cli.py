import csv
import importlib.resources
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import femfct
import femfct.cli
from femfct import space_study_problem, time_study_problem
from femfct.cli import (
    DEFAULT_TIME_TAUS,
    SPACE_COLUMNS,
    TIME_COLUMNS,
    ExperimentConfig,
    build_grid,
    main,
    parse_args,
    run_single,
    run_space_study,
    run_time_study,
    write_csv,
)
from femfct.errors import eoc
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
             "--tau", "0.01", "--limiter", "constant:0.5", "--out", "x.csv"]
        )
        assert cfg.grid == "shifted"
        assert cfg.levels == (2, 4)
        assert cfg.scheme == "galerkin"
        assert cfg.tau == 0.01
        assert cfg.limiter == "constant:0.5"
        assert cfg.out == "x.csv"

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("# a study\n\ngrid = fk\n   \n  # levels\nlevels = 1..2\ntau = 0.05  # coarse\n")
        cfg = parse_args(["--config", str(path), "--tau", "0.01"])
        assert cfg.grid == "fk"
        assert cfg.levels == (1, 2)
        assert cfg.tau == 0.01

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "study.cfg"
        path.write_text("flux_capacitor = 1\n")
        with pytest.raises(SystemExit) as exc:
            parse_args(["--config", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: femfct")
        assert "argument --config: unknown config key 'flux_capacitor'" in err

    def test_missing_config_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nope.cfg"
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: femfct")
        assert "argument --config: [Errno 2] No such file or directory" in err
        assert str(path) in err
        assert not (tmp_path / "x.csv").exists()

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

    def test_negative_time_level_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "study.cfg"
        path.write_text("time_level = -1\n")
        for argv in (["--time-level=-1"], ["--config", str(path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--study", "time", "--out", str(tmp_path / "x.csv")])
            assert exc.value.code == 2
            assert "argument --time-level: levels must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("flag", ["--eps", "--tau", "--t-end"])
    def test_nonpositive_or_nonfinite_parameters_are_usage_errors(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([f"{flag}={value}", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert f"argument {flag}: {value} is not positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "flag, value, what",
        [("--eps", "abc", "a number"), ("--tau", "1e-3x", "a number"),
         ("--t-end", "", "a number"), ("--levels", "x", "an integer"),
         ("--levels", "1..2.5", "an integer"), ("--time-level", "x", "an integer")],
    )
    def test_non_numeric_parameters_name_the_expected_type(self, tmp_path, capsys, flag, value, what):
        with pytest.raises(SystemExit) as exc:
            main([f"{flag}={value}", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {value.rpartition('..')[2]!r} is not {what}" in err
        assert "invalid" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.fixture
    def no_study(self, monkeypatch):
        """A usage error must stop the run before either study starts."""
        def must_not_start(config):
            raise AssertionError("the study started")

        monkeypatch.setattr(femfct.cli, "run_space_study", must_not_start)
        monkeypatch.setattr(femfct.cli, "run_time_study", must_not_start)

    @pytest.mark.parametrize("study", ["space", "time"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, no_study, study):
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            with pytest.raises(SystemExit) as exc:
                main(["--study", study, "--out", str(out)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "argument --out: " in err and str(out) in err
        # trying a writable path leaves no file behind, and an existing one as it was
        out = tmp_path / "x.csv"
        assert parse_args(["--out", str(out)]).out == str(out)
        assert not out.exists()
        out.write_text("kept\n")
        parse_args(["--out", str(out)])
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("study", ["space", "time"])
    def test_mesh_file_needs_the_unstructured_grid(self, tmp_path, capsys, no_study, study):
        mesh = tmp_path / "square.msh"
        mesh.write_text("an existing file\n")
        path = tmp_path / "study.cfg"
        path.write_text(f"mesh_file = {mesh}\n")
        out = tmp_path / "x.csv"
        for argv in ([f"--mesh-file={mesh}"], ["--config", str(path)]):
            for grid in ([], ["--grid", "fk"], ["--grid", "shifted"]):
                with pytest.raises(SystemExit) as exc:
                    main(argv + grid + ["--study", study, "--out", str(out)])
                assert exc.value.code == 2
                err = capsys.readouterr().err
                assert err.startswith("usage: femfct")
                assert "argument --mesh-file: only the unstructured grid reads a mesh file" in err
        assert not out.exists()

    @pytest.mark.parametrize("study", ["space", "time"])
    def test_unreadable_mesh_file_is_a_usage_error(self, tmp_path, capsys, no_study, study):
        out = tmp_path / "x.csv"
        for mesh in (tmp_path / "missing.msh", tmp_path):
            with pytest.raises(SystemExit) as exc:
                main(["--study", study, "--grid", "unstructured", "--mesh-file", str(mesh),
                      "--out", str(out)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: femfct")
            assert "argument --mesh-file: [Errno " in err and f"'{mesh}'" in err
        assert not out.exists()


class TestGrids:
    def test_unstructured_sample_loads(self):
        mesh = build_grid(ExperimentConfig(grid="unstructured"), level=0)
        assert mesh.n_nodes > 0
        assert mesh.areas().sum() == pytest.approx(1.0, abs=1e-12)

    def test_packaged_mesh_is_the_default(self, tmp_path):
        config = parse_args(["--grid", "unstructured", "--out", str(tmp_path / "x.csv")])
        assert config.mesh_file is None
        ref = importlib.resources.files("femfct.data") / "unit_square_unstructured.msh"
        copy = tmp_path / "copy.msh"
        copy.write_bytes(ref.read_bytes())
        own = parse_args(["--grid", "unstructured", "--mesh-file", str(copy),
                          "--out", str(tmp_path / "x.csv")])
        assert own.mesh_file == str(copy)
        default, loaded = build_grid(config, 1), build_grid(own, 1)
        assert np.array_equal(default.nodes, loaded.nodes)
        assert np.array_equal(default.triangles, loaded.triangles)

    def test_unknown_grid_family_rejected(self):
        with pytest.raises(ValueError, match="unknown grid family 'hexagonal'"):
            build_grid(ExperimentConfig(grid="hexagonal"), 0)

    def test_unstructured_refinement(self):
        coarse = build_grid(ExperimentConfig(grid="unstructured"), level=0)
        fine = build_grid(ExperimentConfig(grid="unstructured"), level=1)
        assert fine.n_triangles == 4 * coarse.n_triangles


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCsvRoundTrip:
    def rows(self):
        return [
            dict(level=1, h=0.25, tau=0.05, err_l2l2=0.1, err_l2h1=0.4, err_l2fct=0.2,
                 err_l2dh=0.09, eoc_l2l2=None, eoc_l2h1=None, eoc_l2fct=None, eoc_l2dh=None,
                 wall_time_s=1.5),
            dict(level=2, h=0.125, tau=0.025, err_l2l2=0.024999999999999998, err_l2h1=0.2,
                 err_l2fct=0.1, err_l2dh=0.045, eoc_l2l2=2.0000000000000004, eoc_l2h1=1.0,
                 eoc_l2fct=1.0, eoc_l2dh=1.0, wall_time_s=3.25),
        ]

    def test_exact_round_trip(self, tmp_path):
        # each study writes its own columns of the same rows
        path = tmp_path / "study.csv"
        rows = self.rows()
        for columns in (SPACE_COLUMNS, TIME_COLUMNS):
            write_csv(path, columns, rows)
            with open(path, newline="") as fh:
                assert next(csv.reader(fh)) == columns
            back = read_rows(path)
            assert len(back) == len(rows)
            for row, text in zip(rows, back):
                for name in columns:
                    if row[name] is None:
                        assert text[name] == ""
                    elif name == "level":
                        assert text[name] == str(row[name])
                    else:
                        assert float(text[name]) == row[name]


class TestStudyRows:
    @pytest.fixture
    def fixed_norms(self, monkeypatch):
        """run_single's four norms as fixed functions of h and tau."""
        def run_single(mesh, spec, exact, scheme):
            h, tau = mesh.h, spec.tau
            norms = {"l2": 1.6 * h * h + tau, "h1": 1.6 * h + 2.0 * tau,
                     "fct": 0.8 * h + tau * tau, "dh": 0.36 * h}
            return norms, []

        monkeypatch.setattr(femfct.cli, "run_single", run_single)

    def test_space_rows_and_eoc_columns(self, fixed_norms):
        cfg = ExperimentConfig(grid="fk", levels=(1, 2), tau=1e-30)
        rows, failures = run_space_study(cfg)
        assert failures == []
        assert [r["level"] for r in rows] == [1, 2]
        assert [r["h"] for r in rows] == [0.25, 0.125]
        assert [r["tau"] for r in rows] == [1e-30, 1e-30]
        assert [r["err_l2dh"] for r in rows] == [0.09, 0.045]
        assert all(r["wall_time_s"] >= 0.0 for r in rows)
        assert [r["eoc_l2l2"] for r in rows] == [None, pytest.approx(2.0)]
        assert [r["eoc_l2h1"] for r in rows] == [None, pytest.approx(1.0)]
        assert [r["eoc_l2fct"] for r in rows] == [None, pytest.approx(1.0)]
        assert [r["eoc_l2dh"] for r in rows] == [None, pytest.approx(1.0)]

    def test_eoc_columns_skip_failed_points(self, fixed_norms, monkeypatch):
        # level 2 fails: the EOCs of level 3 are over h from level 1's
        build = femfct.cli.build_grid

        def build_grid(config, level):
            if level == 2:
                raise femfct.MeshError("no level 2")
            return build(config, level)

        monkeypatch.setattr(femfct.cli, "build_grid", build_grid)
        rows, failures = run_space_study(ExperimentConfig(grid="fk", levels=(1, 3), tau=1e-30))
        assert failures == [(2, "MeshError('no level 2')")]
        assert [r["level"] for r in rows] == [1, 3]
        assert [r["eoc_l2h1"] for r in rows] == [None, pytest.approx(1.0)]
        rows, failures = run_space_study(ExperimentConfig(grid="fk", levels=(2, 3), tau=1e-30))
        assert [r["level"] for r in rows] == [3]
        assert all(rows[0][f"eoc_{k}"] is None for k in ("l2l2", "l2h1", "l2fct", "l2dh"))

    def test_time_rows_and_eoc_columns(self, fixed_norms):
        cfg = ExperimentConfig(grid="fk", study="time", time_level=2)
        rows, failures = run_time_study(cfg)
        assert failures == []
        assert [r["tau"] for r in rows] == list(DEFAULT_TIME_TAUS)
        assert all(r["level"] == 2 and r["h"] == 0.125 for r in rows)
        errs = [r["err_l2h1"] for r in rows]
        assert [r["eoc_l2h1"] for r in rows] == [None] + eoc(errs, DEFAULT_TIME_TAUS)

    def test_time_rows_carry_all_four_norms(self):
        # linear FCT, so that the d_h seminorm is not zero
        cfg = ExperimentConfig(grid="fk", scheme="linear_fct", study="time", time_level=2)
        rows, failures = run_time_study(cfg)
        assert failures == []
        spec, exact = time_study_problem(tau=DEFAULT_TIME_TAUS[0], t_end=cfg.t_end)
        integrated, _ = run_single(build_grid(cfg, 2), spec, exact, cfg.scheme_obj())
        assert {name: rows[0][f"err_l2{name}"] for name in integrated} == integrated
        for name in ("l2l2", "l2h1", "l2fct", "l2dh"):
            errs = [r[f"err_{name}"] for r in rows]
            assert all(0.0 < e < np.inf for e in errs)
            assert [r[f"eoc_{name}"] for r in rows] == [None] + eoc(errs, DEFAULT_TIME_TAUS)


class TestStudies:
    def test_space_study_smoke(self, tmp_path):
        cfg = ExperimentConfig(
            grid="fk", levels=(1, 3), scheme="linear_fct", tau=0.05, t_end=0.2,
            out=str(tmp_path / "space.csv"),
        )
        # tau = 0.05 exceeds the predictor's positivity bound on level 3 only
        with pytest.warns(UserWarning, match=r"^tau=0.05 exceeds") as caught:
            rows, failures = run_space_study(cfg)
        assert len(caught) == 1
        assert failures == []
        assert [r["level"] for r in rows] == [1, 2, 3]
        # errors decrease monotonically with refinement
        assert rows[0]["err_l2l2"] > rows[1]["err_l2l2"] > rows[2]["err_l2l2"]
        assert all(r["err_l2fct"] > 0 for r in rows)

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

    @pytest.mark.parametrize("tau", ["0.3", "0.6"])
    def test_end_time_not_a_whole_number_of_steps(self, tmp_path, capsys, tau):
        # 1 / 0.3 and 1 / 0.6 are not whole numbers of steps
        spec, exact = space_study_problem(tau=float(tau), t_end=1.0)
        message = f"t_end=1 is not a whole number of steps of tau={tau}"
        with pytest.raises(ValueError, match=message):
            run_single(build_grid(ExperimentConfig(), 1), spec, exact, ExperimentConfig().scheme_obj())
        out = tmp_path / "space.csv"
        code = main(["--grid", "fk", "--levels", "1..1", "--tau", tau, "--t-end", "1", "--out", str(out)])
        assert code == 2
        assert f"FAILED at 1: ValueError('{message}')" in capsys.readouterr().err
        assert read_rows(out) == []

    @pytest.mark.parametrize("change", ["one pair fewer", "ends swapped"])
    def test_pairs_off_the_mass_pattern_are_rejected(self, monkeypatch, change):
        # dh_seminorm weights the limiters with d_ij on the stepper's pairs,
        # which must be the mass pattern's
        class OffPattern(femfct.TimeStepper):
            def run(self, n_steps):
                records = super().run(n_steps)
                i, j = self.pairs.i, self.pairs.j
                i, j = (i[1:], j[1:]) if change == "one pair fewer" else (j, i)
                self.pairs = femfct.PairGraph(self.pairs.n, i, j)
                return records

        monkeypatch.setattr(femfct.cli, "TimeStepper", OffPattern)
        spec, exact = space_study_problem(tau=0.05, t_end=0.1)
        with pytest.raises(ValueError, match="the stepper's pairs are not the mass pattern's"):
            run_single(build_grid(ExperimentConfig(), 1), spec, exact, ExperimentConfig().scheme_obj())

    @pytest.mark.parametrize("study", ["space", "time"])
    def test_grid_that_cannot_be_built_is_a_failure(self, tmp_path, capsys, study):
        mesh = tmp_path / "bad.msh"
        mesh.write_text("not a mesh\n")
        out = tmp_path / "x.csv"
        code = main(["--study", study, "--grid", "unstructured", "--mesh-file", str(mesh),
                     "--levels", "0..1", "--time-level", "0", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        where = ["level 0"] if study == "time" else ["0", "1"]
        assert err.splitlines() == [
            f"FAILED at {w}: MeshError('{mesh}:1: expected 2 header fields')" for w in where
        ]
        assert read_rows(out) == []

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
        with open(out, newline="") as fh:
            assert next(csv.reader(fh)) == TIME_COLUMNS
        rows = read_rows(out)
        taus = [float(r["tau"]) for r in rows]
        errs = [float(r["err_l2l2"]) for r in rows]
        assert taus == list(DEFAULT_TIME_TAUS)
        assert rows[0]["eoc_l2l2"] == ""
        assert [float(r["eoc_l2l2"]) for r in rows[1:]] == eoc(errs, taus)


# 5 steps of a scheme, the four integrated norms and each step's nodal
# norms on shifted level 6 (16641 nodes, above the size from which
# OpenBLAS threads its dot product); for nonlinear_fct also each step's
# iteration count and residual, which the Anderson history's sums decide
BLAS_THREADS_SCRIPT = """
import hashlib, sys
from femfct import SchemeKind, build_shifted_grid, space_study_problem
from femfct.cli import run_single
from femfct.errors import ErrorWorkspace
mesh = build_shifted_grid(6)
spec, exact = space_study_problem(tau=1e-3, t_end=5e-3)
integrated, records = run_single(mesh, spec, exact, SchemeKind(sys.argv[1]))
print(hashlib.sha256(b"".join(r.u.tobytes() for r in records)).hexdigest())
print([(r.fp_iters, float(r.residual).hex()) for r in records])
print(sorted((k, float(v).hex()) for k, v in integrated.items()))
ws = ErrorWorkspace(mesh)
for r in records:
    e = exact.u(r.t, mesh.nodes[:, 0], mesh.nodes[:, 1]) - r.u
    print(ws.l2_nodal(e).hex(), ws.h1_nodal(e).hex())
"""


@pytest.mark.parametrize("kind", ["linear_fct", "nonlinear_fct"])
def test_results_do_not_depend_on_blas_threads(kind):
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = str(Path(femfct.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_SCRIPT, kind], env=env, capture_output=True,
            text=True, check=True, timeout=300,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
