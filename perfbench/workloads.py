"""Seeded inputs, one pass and its output checks for each workload.

A pass calls the public ``catchup`` API and the in-process CLI through module
attributes (``solver.solve``, ``cli.main``, ...), so the traced run's wrappers
see the benchmark's own calls as well as the package's internal ones.

Every solve, audit, accuracy check, CLI call and batch projection is one
attempted operation; one that raises ``ProjectionFailed``, reports an
unconverged step, fails its audit, misses its analytic answer or exits
non-zero is one failed operation.  A failing pass still returns, so its time
is still reported.

A pass calls ``tick()`` between its parts (about half a second each), where
the timing worker runs its reference loop; ticks do not touch catchup.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from catchup import cli, geometry, harness, oracles, perturbation, solver

# fw_disk: the seeded direction plus fixed ones.  Frank-Wolfe's iteration
# count swings with the direction (its start atom is fixed in the plane), so
# the fixed directions keep a pass's work nearly the same for every seed while
# the seeded one still moves the counts.
FW_N = 256
FW_FIXED_DEGREES = (10.0, 61.0, 113.0, 164.0, 216.0, 267.0, 319.0)

CATALOG_N = 1024
CATALOG_IDS = ("dragging_interval", "translating_halfspace", "interior_ode", "translating_disk")

CUTTING_N = 256
BATCH_POINTS = 100
BATCH_EPS = 1e-8
BATCH_BASE_SEED = 7  # criterion 2's generator seed
BATCH_CHUNK = 20  # batch points between ticks


@dataclass
class PassOutcome:
    """What one pass did: its operation tally, worst error and outputs."""

    attempted: int = 0
    failed: int = 0
    projections: int = 0  # solver steps plus batch projections
    worst_error: float = 0.0
    failures: list[str] = field(default_factory=list)
    outputs: list[bytes] = field(default_factory=list)  # nodes, points and CLI files

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def error(self, err: float, bound: float, what: str) -> None:
        self.worst_error = max(self.worst_error, err)
        self.check(err <= bound, f"{what}: error {err:.3e} over bound {bound:.3e}")


Tick = Callable[[], None]


def no_tick() -> None:
    pass


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int, Path], dict]
    run_pass: Callable[[dict, Tick], PassOutcome]


def error_bound(mu: float, eps_n: float) -> float:
    """Criterion 5's sup-error bound for a grid of step mu and budget eps_n."""
    return 2.0 * mu + 2.0 * math.sqrt(eps_n)


def direction(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def seeded_direction(rng: np.random.Generator) -> np.ndarray:
    return direction(rng.uniform(0.0, 2.0 * math.pi))


def translating_disk(u: np.ndarray, sublevel: bool = False) -> solver.SweepingProblem:
    """Unit disk centred at t*u with x0 = -u; the exact answer is (t - 1) u."""
    if sublevel:
        def at(t):
            return geometry.Sublevel(geometry.ball_fn(t * u, 1.0), 0.0, slater=t * u)
    else:
        def at(t):
            return geometry.Ball(t * u, 1.0)
    return solver.SweepingProblem(
        geometry.MovingSet(at=at, lipschitz=1.0),
        perturbation.zero_perturbation(),
        x0=-u,
        horizon=1.0,
    )


def setvalued_drift(u: np.ndarray) -> solver.SweepingProblem:
    """Fixed Ball(0, 10) with F(t, x) = Ball((2 + t) u, 1) and x0 = 0.

    The minimal-norm element of F is (1 + t) u, linear in t, so the midpoint
    rule integrates it exactly and the state never reaches the boundary: the
    exact answer is (t + t^2 / 2) u.  F is declared time-dependent, so every
    cell runs cell_integral's quadrature loop over a non-degenerate selection.
    """
    drift = perturbation.Perturbation(
        values=lambda t, x: geometry.Ball((2.0 + t) * u, 1.0),
        h=lambda x: 2.0,  # d(0, F(t, x)) = 1 + t <= 2 on [0, 1]
        lipschitz_h=0.0,
        time_independent=False,
    )
    return solver.SweepingProblem(
        geometry.MovingSet.fixed(geometry.Ball(np.zeros(2), 10.0)),
        drift,
        x0=np.zeros(2),
        horizon=1.0,
    )


# ---------------------------------------------------------------------------
# checked steps shared by the passes


def _solve(out: PassOutcome, problem, n: int, method: str, label: str):
    try:
        traj = solver.solve(problem, n, method=method)
    except solver.ProjectionFailed as exc:
        out.check(False, f"{label}: {exc}")
        return None
    out.check(all(d.converged for d in traj.diagnostics), f"{label}: unconverged step")
    out.projections += n
    out.outputs.append(traj.nodes.tobytes())
    return traj


def _sup_error(out: PassOutcome, traj, exact, label: str) -> None:
    err = harness.sup_error(traj, exact)
    out.error(err, error_bound(traj.grid.mu, traj.eps_n), f"{label}: sup error")


def _audit(out: PassOutcome, traj, problem, label: str) -> None:
    out.check(solver.theorem1_audit(traj, problem)["passed"], f"{label}: theorem 1 audit failed")


def _solve_checked(out: PassOutcome, problem, n: int, method: str, exact, label: str, audit: bool):
    traj = _solve(out, problem, n, method, label)
    if traj is not None:
        _sup_error(out, traj, exact, label)
        if audit:
            _audit(out, traj, problem, label)


# ---------------------------------------------------------------------------
# fw_disk


def _fw_inputs(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    dirs = [seeded_direction(rng)] + [direction(math.radians(d)) for d in FW_FIXED_DEGREES]
    return {"cases": [(u, translating_disk(u)) for u in dirs]}


def _fw_pass(inputs: dict, tick: Tick = no_tick) -> PassOutcome:
    out = PassOutcome()
    for i, (u, problem) in enumerate(inputs["cases"]):
        if i:
            tick()
        _solve_checked(out, problem, FW_N, "fw", lambda t, u=u: (t - 1.0) * u,
                       f"fw_disk direction {i}", audit=i == 0)
    return out


# ---------------------------------------------------------------------------
# closed_form


def _closed_inputs(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    u = seeded_direction(rng)
    configs = {}
    for pid in CATALOG_IDS:
        cfg = workdir / f"{pid}.cfg"
        cfg.write_text(f"problem = {pid}\nn = {CATALOG_N}\noracle.method = auto\n")
        configs[pid] = (cfg, workdir / pid)
    return {"u": u, "drift": setvalued_drift(u), "configs": configs}


def _catalog_solve(out: PassOutcome, pid: str, cfg: Path, dest: Path) -> None:
    """`catchup solve` in process: solve, audit and export, then check the files."""
    label = f"catchup solve {pid}"
    code = cli.main(["solve", "--config", str(cfg), "--out", str(dest)])
    if code != cli.EXIT_OK:
        out.check(False, f"{label}: exit code {code}")
        return
    files = [(dest / name).read_bytes() for name in ("trajectory.csv", "trajectory.json", "audit.json")]
    out.outputs.extend(files)
    payload = json.loads(files[1])
    out.check(payload["audit"]["passed"] and all(d["converged"] for d in payload["diagnostics"]),
              f"{label}: audit failed or step unconverged")
    n, horizon = payload["n"], payload["horizon"]
    nodes = np.array(payload["nodes"])
    exact = np.array([harness.reference_solution(pid, k * horizon / n) for k in range(n + 1)])
    out.projections += n
    err = float(np.max(np.linalg.norm(nodes - exact, axis=1)))
    out.error(err, error_bound(payload["mu"], payload["eps_n"]), f"{label}: node error")


def _closed_pass(inputs: dict, tick: Tick = no_tick) -> PassOutcome:
    out = PassOutcome()
    for pid, (cfg, dest) in inputs["configs"].items():
        _catalog_solve(out, pid, cfg, dest)
        tick()
    u = inputs["u"]
    _solve_checked(out, inputs["drift"], CATALOG_N, "auto", lambda t: (t + 0.5 * t * t) * u,
                   "setvalued_drift", audit=True)
    return out


# ---------------------------------------------------------------------------
# sublevel_cutting


def _exterior_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Criterion 2's shape: uniform in [-4, 4]^2, norm above 1.2."""
    points = []
    while len(points) < count:
        x = rng.uniform(-4.0, 4.0, size=2)
        if np.linalg.norm(x) > 1.2:
            points.append(x)
    return np.array(points)


def _cutting_inputs(seed: int, workdir: Path) -> dict:
    """The batch is criterion 2's point set turned by the seeded angle.

    Cutting planes on a disk are rotation-equivariant, so turning the set
    changes every input but not the work; freshly drawn points moved a
    batch's cost by about 11 % (interquartile range over ten seeds).
    """
    u = seeded_direction(np.random.default_rng(seed))
    turn = np.array([[u[0], -u[1]], [u[1], u[0]]])
    points = _exterior_points(np.random.default_rng(BATCH_BASE_SEED), BATCH_POINTS) @ turn.T
    disk = geometry.Sublevel(geometry.ball_fn([0.0, 0.0], 1.0), 0.0, slater=[0.0, 0.0])
    return {"u": u, "problem": translating_disk(u, sublevel=True), "disk": disk, "points": points}


def _cutting_pass(inputs: dict, tick: Tick = no_tick) -> PassOutcome:
    out = PassOutcome()
    u = inputs["u"]
    traj = _solve(out, inputs["problem"], CUTTING_N, "auto", "sublevel disk")
    tick()
    if traj is not None:
        _sup_error(out, traj, lambda t: (t - 1.0) * u, "sublevel disk")
        _audit(out, traj, inputs["problem"], "sublevel disk")
    cfg = oracles.ProjectorConfig(eps=BATCH_EPS)
    tol = math.sqrt(BATCH_EPS) + 1e-6
    for i, x in enumerate(inputs["points"]):
        if i % BATCH_CHUNK == 0:
            tick()
        res = oracles.approx_project(inputs["disk"], x, cfg)
        err = float(np.linalg.norm(res.point - x / np.linalg.norm(x)))
        out.projections += 1
        out.outputs.append(res.point.tobytes())
        out.worst_error = max(out.worst_error, err)
        out.check(res.converged and err <= tol,
                  f"batch point {i}: converged={res.converged}, error {err:.3e}, bound {tol:.3e}")
    return out


WORKLOADS = {
    "fw_disk": Workload(_fw_inputs, _fw_pass),
    "closed_form": Workload(_closed_inputs, _closed_pass),
    "sublevel_cutting": Workload(_cutting_inputs, _cutting_pass),
}
