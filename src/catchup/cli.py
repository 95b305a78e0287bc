"""Command-line front end: project | solve | rate | audit.

Configs are flat key = value files with dotted section prefixes, e.g.

    problem = translating_disk
    n = 256
    schedule.c = 1.0
    schedule.p = 3.0
    oracle.method = fw

Each command reads these keys, and any other key is a config error:

    project       set.kind and the keys of that kind: set.center and
                  set.radius (ball, sublevel_ball), set.lo and set.hi
                  (box), set.normal and set.offset (halfspace); point,
                  eps, max_iter, method
    solve, audit  problem, n, gamma, schedule.c, schedule.p,
                  oracle.method, oracle.max_iter
    rate          problem, ladder, schedule.c, schedule.p, oracle.method

The method is auto or fw.  solve, rate and audit take --out; solve and
audit take --permissive.

Configs are read as UTF-8, and each key may appear once.

Exit codes: 0 success, 1 config or usage error (including an unknown key,
a repeated key, a config that is not UTF-8, a method the set cannot use, a
value its constructor rejects, such as one that is not finite, an eps_n that
underflows to 0, and a point that is not finite or of another dimension than
the set), 2 projection budget exhausted, a non-finite projection or a failed
one (project, which then prints nothing to stdout), 3 solve aborted on a
failed projection step, a non-finite one among them, or a failed audit or
rate gate.  The audit projects nothing, so it cannot fail a projection.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .geometry import (
    Ball,
    Box,
    Halfspace,
    Sublevel,
    UnsupportedKind,
    ball_fn,
)
from .harness import CATALOG, UnknownProblem, make_problem, rate_study
from .oracles import ProjectorConfig, approx_project
from .solver import (
    EpsSchedule,
    ProjectionFailed,
    audit_to_json,
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
    """The config's keys and values; a line that is not key = value, or repeats a key, raises."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        out[key] = value.strip()
    return out


def _vec(cfg: dict, key: str) -> np.ndarray:
    try:
        v = np.array([float(v) for v in cfg[key].split(",")])
    except KeyError:
        raise ConfigError(f"missing key {key!r}")
    except ValueError:
        raise ConfigError(f"key {key!r} is not a comma-separated vector: {cfg[key]!r}")
    if not np.isfinite(v).all():
        raise ConfigError(f"key {key!r} has non-finite values: {cfg[key]!r}")
    return v


def _num(cfg: dict, key: str, default=None, cast=float):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing key {key!r}")
        return default
    try:
        return cast(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r} is not a number: {cfg[key]!r}")


def _build(call, *args, **options):
    """call(*args, **options), where a value it rejects with ValueError is a config error."""
    try:
        return call(*args, **options)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _sublevel_ball(center, radius: float) -> Sublevel:
    return Sublevel(ball_fn(center, radius), level=0.0, slater=center)


# each set.kind's constructor and the keys it reads, in argument order, with their readers
_SET_KINDS = {
    "ball": (Ball, {"set.center": _vec, "set.radius": _num}),
    "box": (Box, {"set.lo": _vec, "set.hi": _vec}),
    "halfspace": (Halfspace, {"set.normal": _vec, "set.offset": _num}),
    "sublevel_ball": (_sublevel_ball, {"set.center": _vec, "set.radius": _num}),
}

_SOLVE_KEYS = frozenset({"problem", "n", "gamma", "schedule.c", "schedule.p",
                         "oracle.method", "oracle.max_iter"})
_KEYS = {
    "project": frozenset({"set.kind", "point", "eps", "max_iter", "method"}),  # + its kind's
    "solve": _SOLVE_KEYS,
    "audit": _SOLVE_KEYS,
    "rate": frozenset({"problem", "ladder", "schedule.c", "schedule.p", "oracle.method"}),
}


def _set_kind(cfg: dict):
    """cfg's set.kind entry of _SET_KINDS: its constructor and the keys it reads."""
    kind = cfg.get("set.kind")
    if kind not in _SET_KINDS:
        raise ConfigError(f"unknown set.kind {kind!r}")
    return _SET_KINDS[kind]


def build_set(cfg: dict):
    make, reads = _set_kind(cfg)
    return _build(make, *[read(cfg, key) for key, read in reads.items()])


def _schedule(cfg: dict) -> EpsSchedule:
    return _build(EpsSchedule, c=_num(cfg, "schedule.c", 1.0), p=_num(cfg, "schedule.p", 3.0))


def _load(args) -> dict[str, str]:
    """The command's config; a key the command does not read is a config error."""
    try:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    keys = _KEYS[args.command]
    if args.command == "project":
        keys = keys | _set_kind(cfg)[1].keys()
    unknown = sorted(cfg.keys() - keys)
    if unknown:
        raise ConfigError(f"{args.command} reads no key {', '.join(map(repr, unknown))}")
    return cfg


def cmd_project(args) -> int:
    cfg = _load(args)
    s = build_set(cfg)
    x = _vec(cfg, "point")
    pc = _build(
        ProjectorConfig,
        eps=_num(cfg, "eps", 1e-6),
        max_iter=_num(cfg, "max_iter", 10_000, cast=int),
        method=cfg.get("method", "auto"),
    )
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is reported below
            res = _build(approx_project, s, x, pc)  # a point of another dimension is a config error
    except ProjectionFailed as exc:
        print(f"projection failed: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    point = res.point.tolist()
    if not all(map(math.isfinite, point)):
        print(f"projection failed: non-finite result {point}, "
              f"certificate {res.certified_eps}", file=sys.stderr)
        return EXIT_BUDGET
    if not math.isfinite(res.certified_eps):
        print(f"projection failed: certificate {res.certified_eps} at point {point}",
              file=sys.stderr)
        return EXIT_BUDGET
    print(json.dumps({**vars(res), "point": point}, indent=2, sort_keys=True))
    return EXIT_OK if res.converged else EXIT_BUDGET


def _solve_from_config(cfg: dict, permissive: bool):
    try:
        problem = make_problem(cfg.get("problem", ""))
    except UnknownProblem:
        raise ConfigError(f"unknown problem {cfg.get('problem')!r}")
    if "gamma" in cfg:
        problem = _build(dataclasses.replace, problem, gamma=_num(cfg, "gamma"))
    # solve rejects n < 1, an eps_n that underflows to 0, the method and
    # max_iter before its first step, and no catalog problem raises ValueError after it
    traj = _build(solve, problem, _num(cfg, "n", cast=int), schedule=_schedule(cfg),
                  method=cfg.get("oracle.method", CATALOG[cfg["problem"]].method),
                  max_iter=_num(cfg, "oracle.max_iter", 10_000, cast=int), permissive=permissive)
    return problem, traj


def cmd_solve(args) -> int:
    cfg = _load(args)
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
    report = audit_to_json(audit)
    (out / "trajectory.csv").write_text(trajectory_to_csv(traj))
    (out / "trajectory.json").write_text(trajectory_to_json(traj, report))
    (out / "audit.json").write_text(report)
    return EXIT_OK if audit["passed"] else EXIT_SOLVE


def cmd_audit(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        problem, traj = _solve_from_config(cfg, args.permissive)
        audit = theorem1_audit(traj, problem)
    except ProjectionFailed as exc:
        print(f"solve aborted: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    report = audit_to_json(audit)
    (out / "audit.json").write_text(report)
    print(report, end="")
    return EXIT_OK if audit["passed"] else EXIT_SOLVE


def cmd_rate(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if "ladder" not in cfg:
        raise ConfigError("missing key 'ladder'")
    try:
        ladder = [int(v) for v in cfg["ladder"].split(",")]
    except ValueError:
        raise ConfigError(f"ladder is not a comma-separated integer list: {cfg['ladder']!r}")
    schedule = _schedule(cfg)
    try:
        study = rate_study(cfg.get("problem", ""), ladder, schedule=schedule,
                           method=cfg.get("oracle.method"))
    except UnknownProblem:
        raise ConfigError(f"unknown problem {cfg.get('problem')!r}")
    except ValueError as exc:
        raise ConfigError(str(exc))
    (out / "rate.csv").write_text(study.to_csv())
    (out / "rate.json").write_text(study.to_json())
    return EXIT_OK if study.passed else EXIT_SOLVE


@functools.cache
def _parser() -> _Parser:
    """The parser, built on main's first call and kept: each parse_args fills a new namespace."""
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
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, UnsupportedKind) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
