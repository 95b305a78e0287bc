"""Command-line front end: project | solve | rate | audit.

Configs are flat key = value files with dotted section prefixes, e.g.

    problem = translating_disk
    n = 256
    schedule.c = 1.0
    schedule.p = 3.0
    oracle.method = fw

The method is auto or fw.  solve, rate and audit take --out; solve and
audit take --permissive.

Exit codes: 0 success, 1 config or usage error (including a method the
set cannot use), 2 projection budget exhausted, 3 solve aborted on a
failed projection step.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .geometry import Ball, Box, Halfspace, Sublevel, UnsupportedKind, ball_fn
from .harness import DEFAULT_METHOD, UnknownProblem, make_problem, rate_study
from .oracles import ProjectorConfig, approx_project
from .solver import (
    EpsSchedule,
    ProjectionFailed,
    solve,
    theorem1_audit,
    trajectory_to_csv,
    trajectory_to_json,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BUDGET = 2
EXIT_SOLVE = 3


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is a config error; exit code 2 means budget exhausted
        raise ConfigError(f"{self.prog}: {message}")


def parse_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _vec(cfg: dict, key: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in cfg[key].split(",")])
    except KeyError:
        raise ConfigError(f"missing key {key!r}")
    except ValueError:
        raise ConfigError(f"key {key!r} is not a comma-separated vector: {cfg[key]!r}")


def _num(cfg: dict, key: str, default=None, cast=float):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing key {key!r}")
        return default
    try:
        return cast(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r} is not a number: {cfg[key]!r}")


def build_set(cfg: dict):
    kind = cfg.get("set.kind")
    if kind == "ball":
        return Ball(_vec(cfg, "set.center"), _num(cfg, "set.radius"))
    if kind == "box":
        return Box(_vec(cfg, "set.lo"), _vec(cfg, "set.hi"))
    if kind == "halfspace":
        return Halfspace(_vec(cfg, "set.normal"), _num(cfg, "set.offset"))
    if kind == "sublevel_ball":
        center = _vec(cfg, "set.center")
        radius = _num(cfg, "set.radius")
        return Sublevel(fn=ball_fn(center, radius), level=0.0, slater=center)
    raise ConfigError(f"unknown set.kind {kind!r}")


def _build(kind, **options):
    """kind(**options), where a value the constructor rejects is a config error."""
    try:
        return kind(**options)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _schedule(cfg: dict) -> EpsSchedule:
    return _build(EpsSchedule, c=_num(cfg, "schedule.c", 1.0), p=_num(cfg, "schedule.p", 3.0))


def _load(path: str) -> dict[str, str]:
    try:
        return parse_config(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")


def cmd_project(args) -> int:
    cfg = _load(args.config)
    s = build_set(cfg)
    x = _vec(cfg, "point")
    pc = _build(
        ProjectorConfig,
        eps=_num(cfg, "eps", 1e-6),
        max_iter=_num(cfg, "max_iter", 10_000, cast=int),
        method=cfg.get("method", "auto"),
    )
    res = approx_project(s, x, pc)
    print(json.dumps(
        {
            "point": [float(v) for v in res.point],
            "certified_eps": res.certified_eps,
            "iterations": res.iterations,
            "converged": res.converged,
        },
        indent=2,
        sort_keys=True,
    ))
    return EXIT_OK if res.converged else EXIT_BUDGET


def _solve_from_config(cfg: dict, permissive: bool):
    try:
        problem = make_problem(cfg.get("problem", ""))
    except UnknownProblem:
        raise ConfigError(f"unknown problem {cfg.get('problem')!r}")
    if "gamma" in cfg:
        problem.gamma = _num(cfg, "gamma")
        if not problem.gamma > 0:
            raise ConfigError("gamma must be positive")
    n = _num(cfg, "n", cast=int)
    if n < 1:
        raise ConfigError("n must be >= 1")
    schedule = _schedule(cfg)
    oracle = _build(
        ProjectorConfig,
        method=cfg.get("oracle.method", DEFAULT_METHOD.get(cfg.get("problem", ""), "auto")),
        max_iter=_num(cfg, "oracle.max_iter", 10_000, cast=int),
    )
    traj = solve(problem, n, schedule=schedule, method=oracle.method,
                 max_iter=oracle.max_iter, permissive=permissive)
    return problem, traj


def cmd_solve(args) -> int:
    cfg = _load(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        problem, traj = _solve_from_config(cfg, args.permissive)
        audit = theorem1_audit(traj, problem)
    except ProjectionFailed as exc:
        if exc.partial is not None:
            (out / "trajectory.csv").write_text(trajectory_to_csv(exc.partial))
            (out / "trajectory.json").write_text(trajectory_to_json(exc.partial))
        print(f"solve aborted: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    (out / "trajectory.csv").write_text(trajectory_to_csv(traj))
    (out / "trajectory.json").write_text(trajectory_to_json(traj, audit))
    (out / "audit.json").write_text(json.dumps(audit, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if audit["passed"] else EXIT_SOLVE


def cmd_audit(args) -> int:
    cfg = _load(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        problem, traj = _solve_from_config(cfg, args.permissive)
        audit = theorem1_audit(traj, problem)
    except ProjectionFailed as exc:
        print(f"solve aborted: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    report = json.dumps(audit, indent=2, sort_keys=True) + "\n"
    (out / "audit.json").write_text(report)
    print(report, end="")
    return EXIT_OK if audit["passed"] else EXIT_SOLVE


def cmd_rate(args) -> int:
    cfg = _load(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if "ladder" not in cfg:
        raise ConfigError("missing key 'ladder'")
    try:
        ladder = [int(v) for v in cfg["ladder"].split(",")]
    except ValueError:
        raise ConfigError(f"ladder is not a comma-separated integer list: {cfg['ladder']!r}")
    schedule = _schedule(cfg)
    method = cfg.get("oracle.method", None)
    reference = cfg.get("reference", "closed_form")
    try:
        study = rate_study(cfg.get("problem", ""), ladder, schedule=schedule,
                           method=method, reference=reference)
    except UnknownProblem:
        raise ConfigError(f"unknown problem {cfg.get('problem')!r}")
    except ValueError as exc:
        raise ConfigError(str(exc))
    (out / "rate.csv").write_text(study.to_csv())
    (out / "rate.json").write_text(study.to_json())
    decreasing = all(b < a for a, b in zip(study.errors, study.errors[1:]))
    return EXIT_OK if (study.slope >= 0.25 and decreasing) else EXIT_SOLVE


def main(argv=None) -> int:
    parser = _Parser(prog="catchup")
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for scripted runs (acceptance criterion 9 passes it); "
                             "no command reads it yet")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("project", cmd_project),
        ("solve", cmd_solve),
        ("rate", cmd_rate),
        ("audit", cmd_audit),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name != "project":  # project prints its result and writes no file
            p.add_argument("--out", default=".")
        if name in ("solve", "audit"):  # the commands that stop on a failed step
            p.add_argument("--permissive", action="store_true",
                           help="downgrade failed projection certificates to warnings")
        p.set_defaults(func=fn)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, UnsupportedKind) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
