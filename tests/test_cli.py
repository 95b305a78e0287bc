import json

import pytest

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


class TestConfigErrors:
    def test_unknown_method_fails_before_any_step(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.cfg", "problem = interior_ode\nn = 8\noracle.method = bogus\n")
        assert_config_error(["solve", "--config", cfg, "--out", str(tmp_path / "o")], capsys)
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "rate"])
    def test_fw_on_halfspace(self, tmp_path, capsys, command):
        cfg = write(tmp_path / "s.cfg", "problem = translating_halfspace\nn = 8\n"
                    "ladder = 4,8\noracle.method = fw\n")
        assert_config_error([command, "--config", cfg, "--out", str(tmp_path / "o")], capsys)

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
