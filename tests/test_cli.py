import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catchup
from catchup.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVE,
    build_set,
    main,
    parse_config,
)
from catchup.geometry import Ball, Halfspace, Sublevel


def write(path, text):
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_basic(self):
        cfg = parse_config("a = 1\n# comment\n\nb.c = x, y\n")
        assert cfg == {"a": "1", "b.c": "x, y"}

    def test_rejects_bare_tokens(self):
        from catchup.cli import ConfigError
        with pytest.raises(ConfigError):
            parse_config("nonsense line\n")

    def test_rejects_a_repeated_key_naming_both_lines(self):
        from catchup.cli import ConfigError
        with pytest.raises(ConfigError, match=r"^line 3: key 'problem' repeats line 1$"):
            parse_config("problem = interior_ode\n# the disk instead\nproblem = translating_disk\n")


class TestBuildSet:
    def test_ball(self):
        s = build_set({"set.kind": "ball", "set.center": "0,0", "set.radius": "1"})
        assert isinstance(s, Ball)

    def test_halfspace(self):
        s = build_set({"set.kind": "halfspace", "set.normal": "1,0", "set.offset": "0"})
        assert isinstance(s, Halfspace)

    def test_sublevel_ball(self):
        s = build_set({"set.kind": "sublevel_ball", "set.center": "0,0", "set.radius": "1"})
        assert isinstance(s, Sublevel)

    def test_unknown_kind(self):
        from catchup.cli import ConfigError
        with pytest.raises(ConfigError):
            build_set({"set.kind": "torus"})


class TestProjectCommand:
    def test_projects_and_prints_json(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg",
                    "set.kind = ball\nset.center = 0,0\nset.radius = 1\n"
                    "point = 2,0\neps = 1e-8\n")
        code = main(["project", "--config", cfg])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"]
        assert abs(payload["point"][0] - 1.0) <= 1e-9

    def test_budget_exhausted_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg",
                    "set.kind = ball\nset.center = 0,0\nset.radius = 1\n"
                    "point = 2,0\neps = 1e-16\nmethod = fw\nmax_iter = 2\n")
        assert main(["project", "--config", cfg]) == EXIT_BUDGET

    def test_non_finite_projection_prints_nothing(self, tmp_path, capsys):
        # point - center overflows, so the closed form returns (nan, 0)
        cfg = write(tmp_path / "p.cfg", "set.kind = ball\nset.center = 1e308,0\n"
                    "set.radius = 1\npoint = -1e308,0\n")
        assert main(["project", "--config", cfg]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("projection failed: non-finite result [nan, 0.0]")

    @pytest.mark.parametrize("text, message", [
        # the first cut's column of E squares to inf, so it cannot be normalised
        ("set.center = 0,0\nset.radius = 1e150\npoint = 1.1e150,1\n",
         "projection failed: least-distance NNLS on 1 cuts: column 0 of E has norm inf\n"),
        # g(0) overflows, so the first cut's offset is -inf: a finite point, certificate inf
        ("set.center = 2e154,0\nset.radius = 1e154\npoint = 0,0\n",
         "projection failed: certificate inf at point [1e+154, 0.0]\n"),
    ], ids=["nnls", "overflowing_cut"])
    def test_failed_cutting_planes_exit_budget(self, tmp_path, capfd, text, message):
        cfg = write(tmp_path / "p.cfg", "set.kind = sublevel_ball\n" + text)
        assert main(["project", "--config", cfg]) == EXIT_BUDGET
        captured = capfd.readouterr()  # at the file descriptors, where LAPACK would write
        assert captured.out == ""
        assert captured.err == message

    def test_tiny_halfspace_normal_gives_a_finite_point(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", "set.kind = halfspace\nset.normal = 1e-160,0\n"
                    "set.offset = 1\npoint = 0,0\n")
        assert main(["project", "--config", cfg]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["point"] == pytest.approx([1e160, 0.0], rel=1e-15)

    def test_missing_point_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg",
                    "set.kind = ball\nset.center = 0,0\nset.radius = 1\n")
        assert main(["project", "--config", cfg]) == EXIT_CONFIG


class TestSolveCommand:
    def test_writes_outputs_and_passes(self, tmp_path):
        cfg = write(tmp_path / "s.cfg", "problem = dragging_interval\nn = 32\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "trajectory.csv").exists()
        assert (out / "trajectory.json").exists()
        audit = json.loads((out / "audit.json").read_text())
        assert audit["passed"]

    def test_csv_has_header_plus_nodes(self, tmp_path):
        cfg = write(tmp_path / "s.cfg", "problem = dragging_interval\nn = 32\n")
        out = tmp_path / "out"
        main(["solve", "--config", cfg, "--out", str(out)])
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert len(lines) == 34

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        cfg = write(tmp_path / "s.cfg", "problem = translating_disk\nn = 32\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", cfg, "--out", str(out_a)])
        main(["solve", "--config", cfg, "--out", str(out_b)])
        for name in ("trajectory.csv", "trajectory.json", "audit.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_unknown_problem_is_config_error(self, tmp_path):
        cfg = write(tmp_path / "s.cfg", "problem = nope\nn = 8\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_invalid_schedule_exponent_is_config_error(self, tmp_path):
        cfg = write(tmp_path / "s.cfg",
                    "problem = dragging_interval\nn = 8\nschedule.p = 2.0\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("gamma", ["0", "-1"])
    def test_nonpositive_gamma_is_config_error(self, tmp_path, capsys, gamma):
        cfg = write(tmp_path / "s.cfg", f"problem = dragging_interval\nn = 8\ngamma = {gamma}\n")
        err = assert_config_error(["solve", "--config", cfg, "--out", str(tmp_path / "o")], capsys)
        assert "gamma must be positive" in err

    def test_sublevel_disk_runs_cutting_planes_end_to_end(self, tmp_path):
        cfg = write(tmp_path / "s.cfg", "problem = sublevel_disk\nn = 32\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "trajectory.json").read_text())
        assert payload["audit"]["passed"]
        assert all(d["converged"] and d["iterations"] >= 1 for d in payload["diagnostics"])
        exact = [[k / 32 - 1.0, 0.0] for k in range(33)]
        assert max(abs(a - b) for node, ref in zip(payload["nodes"], exact)
                   for a, b in zip(node, ref)) <= 1e-12

    def test_malformed_config_file(self, tmp_path):
        cfg = write(tmp_path / "s.cfg", "just words\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_aborted_solve_writes_partial(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.cfg",
                    "problem = translating_disk\nn = 16\n"
                    "oracle.method = fw\noracle.max_iter = 1\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_SOLVE
        assert (out / "trajectory.csv").exists()
        payload = json.loads((out / "trajectory.json").read_text())
        assert payload["complete"] is False


    def test_unconverged_selection_writes_partial(self, tmp_path, monkeypatch, capsys,
                                                  drift_in_fixed_ball, selection_fails_after):
        monkeypatch.setattr("catchup.cli.make_problem", lambda problem_id: drift_in_fixed_ball)
        selection_fails_after(3)
        cfg = write(tmp_path / "s.cfg", "problem = dragging_interval\nn = 8\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_SOLVE
        assert "selection" in capsys.readouterr().err
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 4  # header plus nodes t_0 .. t_3
        payload = json.loads((out / "trajectory.json").read_text())
        assert payload["complete"] is False
        assert len(payload["diagnostics"]) == 3

    @pytest.mark.parametrize("command", ["solve", "audit"])
    def test_non_finite_step_exits_solve(self, tmp_path, monkeypatch, capsys, command,
                                         jumping_ball):
        monkeypatch.setattr("catchup.cli.make_problem", lambda problem_id: jumping_ball)
        cfg = write(tmp_path / "s.cfg", "problem = dragging_interval\nn = 1\n")
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_SOLVE
        captured = capsys.readouterr()
        assert "solve aborted: step 0" in captured.err and "not finite" in captured.err
        assert captured.out == ""
        assert not (out / "audit.json").exists()
        if command == "solve":
            payload = json.loads((out / "trajectory.json").read_text())
            assert payload["complete"] is False and payload["nodes"] == [[-1e308, 0.0]]

    def test_failed_audit_projection_exits_solve(self, tmp_path, monkeypatch, capsys):
        from catchup.solver import ProjectionFailed

        def failing_audit(traj, problem):
            raise ProjectionFailed("distance: certificate 1e+00 exceeds eps 1e-10")

        monkeypatch.setattr("catchup.cli.theorem1_audit", failing_audit)
        cfg = write(tmp_path / "s.cfg", "problem = dragging_interval\nn = 8\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_SOLVE
        assert "solve aborted" in capsys.readouterr().err


class TestAuditCommand:
    def test_prints_report(self, tmp_path, capsys):
        cfg = write(tmp_path / "a.cfg", "problem = interior_ode\nn = 64\n")
        out = tmp_path / "out"
        assert main(["audit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        assert {c["name"] for c in report["checks"]} >= {
            "a_ii_node_drift", "b_set_distance", "c_velocity_bound"}


class TestRateCommand:
    def test_runs_and_reports_slope(self, tmp_path):
        cfg = write(tmp_path / "r.cfg",
                    "problem = translating_disk\nladder = 16,32,64\n")
        out = tmp_path / "out"
        assert main(["rate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        study = json.loads((out / "rate.json").read_text())
        assert study["slope"] >= 0.25
        assert study["strictly_decreasing"]

    def test_exact_problem_exits_ok(self, tmp_path):
        cfg = write(tmp_path / "r.cfg", "problem = sublevel_disk\nladder = 16,32,64,128\n")
        out = tmp_path / "out"
        assert main(["rate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert not json.loads((out / "rate.json").read_text())["strictly_decreasing"]

    def test_rate_reruns_byte_identical(self, tmp_path):
        cfg = write(tmp_path / "r.cfg",
                    "problem = translating_disk\nladder = 16,32\n")
        a, b = tmp_path / "a", tmp_path / "b"
        main(["rate", "--config", cfg, "--out", str(a)])
        main(["rate", "--config", cfg, "--out", str(b)])
        assert (a / "rate.csv").read_bytes() == (b / "rate.csv").read_bytes()
        assert (a / "rate.json").read_bytes() == (b / "rate.json").read_bytes()

    def test_bad_ladder_is_config_error(self, tmp_path):
        cfg = write(tmp_path / "r.cfg",
                    "problem = translating_disk\nladder = 8,oops\n")
        assert main(["rate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def assert_config_error(argv, capsys):
    """Exit code 1 with a one-line message, not a traceback or argparse's exit 2."""
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    return err


class TestConfigErrors:
    def test_unknown_method_fails_before_any_step(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.cfg", "problem = interior_ode\nn = 8\noracle.method = bogus\n")
        assert_config_error(["solve", "--config", cfg, "--out", str(tmp_path / "o")], capsys)
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    @pytest.mark.parametrize("data, message", [
        (b"problem = interior_ode\nproblem = translating_disk\nn = 8\n",
         "config error: line 2: key 'problem' repeats line 1\n"),
        (b"\xff\xfeproblem = interior_ode\nn = 8\n",
         "config error: cannot read config: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["repeated_key", "not_utf8"])
    def test_config_text(self, tmp_path, capsys, data, message):
        cfg = tmp_path / "s.cfg"
        cfg.write_bytes(data)
        err = assert_config_error(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")],
                                  capsys)
        assert err.startswith(message)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["solve", "rate", "audit"])
    def test_fw_on_halfspace(self, tmp_path, capsys, command):
        size = "ladder = 4,8" if command == "rate" else "n = 8"
        cfg = write(tmp_path / "s.cfg",
                    f"problem = translating_halfspace\n{size}\noracle.method = fw\n")
        err = assert_config_error([command, "--config", cfg, "--out", str(tmp_path / "o")], capsys)
        assert "Halfspace" in err

    @pytest.mark.parametrize("command, text", [
        ("project", "set.kind = ball\nset.center = 0,0\nset.radius = 1\npoint = 2,0\nmethd = fw\n"),
        ("solve", "problem = interior_ode\nn = 8\noracle.max_iters = 5\n"),
        ("audit", "problem = interior_ode\nn = 8\noracle.methd = fw\n"),
        ("rate", "problem = translating_disk\nladder = 4,8\nreference = fine_grid\n"),
    ], ids=["project", "solve", "audit", "rate"])
    def test_unknown_key(self, tmp_path, capsys, command, text):
        cfg = write(tmp_path / "c.cfg", text)
        out = [] if command == "project" else ["--out", str(tmp_path / "o")]
        assert_config_error([command, "--config", cfg, *out], capsys)
        assert not (tmp_path / "o").exists()

    def test_fw_on_halfspace_member(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", "set.kind = halfspace\nset.normal = 1,0\n"
                    "set.offset = 0\npoint = 1,0\nmethod = fw\n")
        assert_config_error(["project", "--config", cfg], capsys)

    @pytest.mark.parametrize("text, names", [
        ("set.kind = sublevel_ball\nset.center = 0,0\nset.radius = 0\npoint = 2,0\n", ()),
        ("set.kind = sublevel_ball\nset.center = 0,0\nset.radius = -1\npoint = 2,0\n", ()),
        ("set.kind = ball\nset.center = 0,nan\nset.radius = 1\npoint = 2,0\n",
         ("set.center", "non-finite")),
        ("set.kind = box\nset.lo = 1,0\nset.hi = 0,1\npoint = 2,0\n", ()),
        ("set.kind = box\nset.lo = 0,0\nset.hi = 1\npoint = 0,0\n",
         ("box lo has dimension 2, hi has 1",)),
        ("set.kind = halfspace\nset.normal = 0,0\nset.offset = 0\npoint = 2,0\n", ()),
    ], ids=["sublevel_radius_zero", "sublevel_radius_negative", "nan_center", "box_lo_above_hi",
            "box_shapes", "zero_normal"])
    def test_project_rejects_invalid_set(self, tmp_path, capsys, text, names):
        cfg = write(tmp_path / "p.cfg", text)
        err = assert_config_error(["project", "--config", cfg], capsys)
        for name in names:
            assert name in err

    @pytest.mark.parametrize("kind, keys, stray", [
        ("ball", "set.center = 0,0\nset.radius = 1", ("set.lo = 5", "set.normal = 7,7")),
        ("box", "set.lo = 0,0\nset.hi = 1,1", ("set.radius = 1",)),
        ("halfspace", "set.normal = 1,0\nset.offset = 0", ("set.center = 0,0",)),
        ("sublevel_ball", "set.center = 0,0\nset.radius = 1", ("set.hi = 1,1", "set.offset = 0")),
    ], ids=["ball", "box", "halfspace", "sublevel_ball"])
    def test_project_rejects_set_keys_its_kind_does_not_read(self, tmp_path, capsys, kind, keys,
                                                             stray):
        cfg = write(tmp_path / "p.cfg", f"set.kind = {kind}\n{keys}\n" + "\n".join(stray)
                    + "\npoint = 2,0\n")
        err = assert_config_error(["project", "--config", cfg], capsys)
        for line in stray:
            assert repr(line.partition(" = ")[0]) in err

    @pytest.mark.parametrize("point", ["2,0,1", "2", "2,inf"])
    def test_project_rejects_point_of_other_dimension_or_non_finite(self, tmp_path, capsys, point):
        cfg = write(tmp_path / "p.cfg", "set.kind = sublevel_ball\nset.center = 0,0\n"
                    f"set.radius = 1\npoint = {point}\n")
        err = assert_config_error(["project", "--config", cfg], capsys)
        assert "dimension" in err or "non-finite" in err

    @pytest.mark.parametrize("method", ["exact", "cutting"])
    def test_project_rejects_removed_methods(self, tmp_path, capsys, method):
        cfg = write(tmp_path / "p.cfg",
                    "set.kind = ball\nset.center = 0,0\nset.radius = 1\n"
                    f"point = 2,0\nmethod = {method}\n")
        assert_config_error(["project", "--config", cfg], capsys)

    @pytest.mark.parametrize("command, flags", [
        ("project", ["--out", "OUT"]),
        ("project", ["--permissive"]),
        ("rate", ["--out", "OUT", "--permissive"]),
    ])
    def test_flags_a_command_does_not_read(self, tmp_path, capsys, command, flags):
        cfg = write(tmp_path / "c.cfg", "set.kind = ball\nset.center = 0\nset.radius = 1\n"
                    "point = 2\nproblem = dragging_interval\nladder = 4,8\n")
        flags = [str(tmp_path / "o") if f == "OUT" else f for f in flags]
        assert_config_error([command, "--config", cfg, *flags], capsys)

    @pytest.mark.parametrize("argv", [["solve", "--out", "o"], []])
    def test_usage_errors(self, capsys, argv):
        assert_config_error(argv, capsys)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "project,solve,rate,audit" in capsys.readouterr().out


class TestInProcessCalls:
    """main keeps one parser per process, so each call must still read only its own arguments."""

    @staticmethod
    def _outputs(out: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}

    def test_consecutive_calls_match_fresh_processes(self, tmp_path, capfd):
        # max_iter = 1 leaves every Frank-Wolfe step unconverged: --permissive finishes the
        # run and fails its audit, and without the flag the first step aborts the solve
        solve_cfg = write(tmp_path / "s.cfg", "problem = translating_disk\nn = 8\n"
                          "oracle.method = fw\noracle.max_iter = 1\n")
        project_cfg = write(tmp_path / "p.cfg", "set.kind = ball\nset.center = 0,0\n"
                            "set.radius = 1\npoint = 2,1.5\n")
        calls = [
            ["solve", "--permissive", "--config", solve_cfg, "--out", "OUT"],
            ["solve", "--config", solve_cfg, "--out", "OUT"],
            ["project", "--config", project_cfg],
            ["project", "--config", project_cfg, "--out", "OUT"],  # a usage error
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(catchup.__file__).resolve().parents[1])}
        for i, argv in enumerate(calls):
            fresh = [str(tmp_path / f"fresh{i}") if a == "OUT" else a for a in argv]
            proc = subprocess.run([sys.executable, "-m", "catchup.cli", *fresh], env=env,
                                  capture_output=True, text=True, timeout=120)
            here = [str(tmp_path / f"here{i}") if a == "OUT" else a for a in argv]
            capfd.readouterr()
            code = main(here)
            captured = capfd.readouterr()
            assert (code, captured.out, captured.err) == (
                proc.returncode, proc.stdout, proc.stderr.replace(f"fresh{i}", f"here{i}"))
            assert self._outputs(tmp_path / f"here{i}") == self._outputs(tmp_path / f"fresh{i}")
        assert [json.loads(self._outputs(tmp_path / f"here{i}")["trajectory.json"])["complete"]
                for i in (0, 1)] == [True, False]


class TestNonFiniteValues:
    """A value that is not finite, or an eps_n that underflows, is a config error."""

    @pytest.mark.parametrize("offset", ["nan", "inf"])
    def test_project_rejects_non_finite_offset(self, tmp_path, capsys, offset):
        cfg = write(tmp_path / "p.cfg", "set.kind = halfspace\nset.normal = 1,0\n"
                    f"set.offset = {offset}\npoint = -1,0\n")
        err = assert_config_error(["project", "--config", cfg], capsys)
        assert "offset must be finite" in err

    @pytest.mark.parametrize("kind", ["ball", "sublevel_ball"])
    def test_project_rejects_infinite_radius(self, tmp_path, capsys, kind):
        cfg = write(tmp_path / "p.cfg", f"set.kind = {kind}\nset.center = 0,0\n"
                    "set.radius = inf\npoint = 5,0\n")
        err = assert_config_error(["project", "--config", cfg], capsys)
        assert "radius must be positive and finite" in err

    def test_project_rejects_infinite_eps(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", "set.kind = ball\nset.center = 0,0\nset.radius = 1\n"
                    "point = 5,0\neps = inf\nmethod = fw\n")
        err = assert_config_error(["project", "--config", cfg], capsys)
        assert "eps must be positive and finite" in err

    @pytest.mark.parametrize("command", ["solve", "audit"])
    @pytest.mark.parametrize("line, message", [
        ("schedule.c = inf", "schedule coefficient must be positive and finite"),
        ("gamma = inf", "gamma must be positive and finite"),
        ("schedule.p = 1000", "eps must be positive"),
    ], ids=["c_inf", "gamma_inf", "p_underflow"])
    def test_solve_and_audit_reject_before_any_output(self, tmp_path, capsys, command,
                                                      line, message):
        cfg = write(tmp_path / "s.cfg", f"problem = translating_disk\nn = 64\n{line}\n")
        err = assert_config_error([command, "--config", cfg, "--out", str(tmp_path / "o")],
                                  capsys)
        assert message in err
        assert list((tmp_path / "o").iterdir()) == []

    def test_rate_rejects_infinite_coefficient(self, tmp_path, capsys):
        cfg = write(tmp_path / "r.cfg",
                    "problem = translating_disk\nladder = 16,32\nschedule.c = inf\n")
        err = assert_config_error(["rate", "--config", cfg, "--out", str(tmp_path / "o")], capsys)
        assert "schedule coefficient must be positive and finite" in err
        assert list((tmp_path / "o").iterdir()) == []
