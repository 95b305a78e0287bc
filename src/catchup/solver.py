"""Catching-up time stepping with certified approximate projections.

Each step integrates the frozen-node selection over the cell, then projects
the predictor onto the constraint set at the next grid time with a
certificate no larger than the schedule's eps_n.  The piecewise interpolant
and the audit of the discrete a-priori bounds both live here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    DISTANCE_EPS,
    Array,
    CLOSED_FORM_KINDS,
    MovingSet,
    as_vec,
    dimension,
    distance,
    residual,
)
from .oracles import ProjectionFailed, ProjectorConfig, approx_project, feasibility_tolerance
from .perturbation import (
    DEFAULT_GAMMA,
    Perturbation,
    Selection,
    cell_integral,
    make_selection,
)

_NODE_SNAP = 1e-9


class OutOfRange(ValueError):
    """Time outside [0, T] (or sitting on a node where a side is required)."""


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [0, T] with n cells; nodes computed as k*T/n."""

    horizon: float
    n: int

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def mu(self) -> float:
        return self.horizon / self.n

    def node(self, k: int) -> float:
        return k * self.horizon / self.n

    def cell_index(self, t: float) -> int:
        """Index k with t in [t_k, t_{k+1}), snapping float-noise at nodes."""
        if t < 0.0 or t > self.horizon:
            raise OutOfRange(f"t={t} outside [0, {self.horizon}]")
        r = t * self.n / self.horizon
        k = int(math.floor(r))
        if r - k > 1.0 - _NODE_SNAP:
            k += 1
        return min(k, self.n - 1)

    def theta(self, t: float) -> float:
        return self.node(self.cell_index(t) + 1)


def _left_cell(grid: Grid, t: float) -> int:
    """Index k of the cell (t_k, t_{k+1}] holding t > 0: a node ends its left cell."""
    k = grid.cell_index(t)
    if grid.node(k) >= t and k > 0:
        k -= 1
    return k


@dataclass(frozen=True)
class EpsSchedule:
    """Per-grid certificate budget eps_n = c * mu_n**p with p > 2.

    p > 2 keeps eps_n / mu_n^2 -> 0, and sup_n sqrt(eps_n)/mu_n stays
    finite; that supremum enters the audit constants.
    """

    c: float = 1.0
    p: float = 3.0

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError("schedule coefficient must be positive")
        if not self.p > 2.0:
            raise ValueError("schedule exponent must exceed 2 (eps_n/mu_n^2 -> 0)")

    def eps(self, mu: float) -> float:
        return self.c * mu**self.p

    def sqrt_eps_over_mu_sup(self, horizon: float) -> float:
        # sqrt(eps_n)/mu_n = sqrt(c) * mu^{(p-2)/2}, maximal at n = 1
        return math.sqrt(self.c) * horizon ** ((self.p - 2.0) / 2.0)


@dataclass
class SweepingProblem:
    moving_set: MovingSet
    perturbation: Perturbation
    x0: Array
    horizon: float
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        self.x0 = as_vec(self.x0)
        c0 = self.moving_set.at(0.0)
        if self.x0.shape[0] != dimension(c0):
            raise ValueError(f"x0 has dimension {self.x0.shape[0]}, C(0) has {dimension(c0)}")
        if residual(c0, self.x0) > feasibility_tolerance(c0):
            raise ValueError("x0 must belong to C(0)")


@dataclass
class StepDiagnostics:
    predictor_distance: float  # d_{C(t_{k+1})}(predictor), or an upper bound
    distance_exact: bool
    certified_eps: float
    budget_lambda: float  # 4 sqrt(eps) + (L_C + h(x_k) + sqrt(gamma)) mu
    h_at_node: float
    iterations: int
    converged: bool


@dataclass
class Trajectory:
    grid: Grid
    nodes: Array  # (n+1, d)
    integrals: Array  # (n, d) stored per-cell selection integrals
    diagnostics: list[StepDiagnostics]
    selection: Selection
    schedule: EpsSchedule
    complete: bool = True

    @property
    def eps_n(self) -> float:
        return self.schedule.eps(self.grid.mu)

    @property
    def steps_taken(self) -> int:
        return len(self.diagnostics)


def step(
    problem: SweepingProblem,
    grid: Grid,
    k: int,
    x_k: Array,
    selection: Selection,
    projector: ProjectorConfig,
) -> tuple[Array, StepDiagnostics, Array]:
    """One catching-up update: integrate the frozen selection, then project.

    The projector's eps is the grid's certificate budget eps_n.
    """
    t_k, t_k1 = grid.node(k), grid.node(k + 1)
    integral = cell_integral(selection, x_k, t_k, t_k1)
    predictor = x_k + integral
    target = problem.moving_set.at(t_k1)
    res = approx_project(target, predictor, projector)

    if isinstance(target, CLOSED_FORM_KINDS):
        dist = distance(target, predictor)
        exact = True
    else:
        dist = float(np.linalg.norm(predictor - res.point))
        exact = False
    h_k = float(problem.perturbation.h(x_k))
    lam = 4.0 * math.sqrt(projector.eps) + (
        problem.moving_set.lipschitz + h_k + math.sqrt(problem.gamma)
    ) * grid.mu
    diag = StepDiagnostics(
        predictor_distance=dist,
        distance_exact=exact,
        certified_eps=res.certified_eps,
        budget_lambda=lam,
        h_at_node=h_k,
        iterations=res.iterations,
        converged=res.converged,
    )
    return res.point, diag, integral


def solve(
    problem: SweepingProblem,
    n: int,
    schedule: EpsSchedule | None = None,
    method: str = "auto",
    max_iter: int = 10_000,
    permissive: bool = False,
) -> Trajectory:
    """Run the full node recursion on a uniform n-cell grid.

    Deterministic for fixed inputs.  A step whose achieved certificate
    exceeds eps_n raises ProjectionFailed with the partial trajectory
    attached, unless permissive is set.  A ProjectionFailed raised inside a
    step, such as an unconverged selection, is re-raised with the partial
    trajectory up to the step's start node, permissive or not.
    """
    if schedule is None:
        schedule = EpsSchedule()
    grid = Grid(problem.horizon, n)
    eps_n = schedule.eps(grid.mu)
    selection = make_selection(problem.perturbation, problem.gamma)
    d = problem.x0.shape[0]

    nodes = np.zeros((n + 1, d))
    integrals = np.zeros((n, d))
    nodes[0] = problem.x0
    diags: list[StepDiagnostics] = []
    projector = ProjectorConfig(eps=eps_n, max_iter=max_iter, method=method)

    def partial() -> Trajectory:
        done = len(diags)
        return Trajectory(
            grid, nodes[: done + 1], integrals[:done], diags, selection, schedule, complete=False,
        )

    for k in range(n):
        try:
            x_next, diag, integral = step(problem, grid, k, nodes[k], selection, projector)
        except ProjectionFailed as exc:
            if exc.partial is not None:
                raise
            raise ProjectionFailed(str(exc), partial=partial()) from exc
        nodes[k + 1] = x_next
        integrals[k] = integral
        diags.append(diag)
        if not diag.converged and not permissive:
            raise ProjectionFailed(
                f"step {k}: certificate {diag.certified_eps:.3e} exceeds eps_n {eps_n:.3e}",
                partial=partial(),
            )

    return Trajectory(grid, nodes, integrals, diags, selection, schedule)


def interpolate(traj: Trajectory, t: float) -> Array:
    """Evaluate the piecewise interpolant through the stored nodes.

    Inside a cell the value is the node plus a linear share of the
    projection move plus the partial selection integral, recomputed with the
    same quadrature as the stored cell integral so node evaluations
    telescope exactly.
    """
    grid = traj.grid
    if t == 0.0:
        return traj.nodes[0].copy()
    k = _left_cell(grid, t)  # raises OutOfRange outside [0, T]
    t_k = grid.node(k)
    x_k = traj.nodes[k]
    move = traj.nodes[k + 1] - x_k - traj.integrals[k]
    partial = cell_integral(traj.selection, x_k, t_k, min(t, grid.node(k + 1)))
    return x_k + ((t - t_k) / grid.mu) * move + partial


def velocity(traj: Trajectory, t: float, side: Optional[str] = None) -> Array:
    """d/dt of the interpolant; defined in cell interiors.

    At a grid node the derivative jumps; pass side="left" or side="right"
    for the one-sided value.
    """
    grid = traj.grid
    if t <= 0.0 and side != "right":
        if t < 0.0:
            raise OutOfRange(f"t={t} outside [0, {grid.horizon}]")
        raise OutOfRange("t=0 is a grid node; pass side='right'")
    if t >= grid.horizon and side != "left":
        if t > grid.horizon:
            raise OutOfRange(f"t={t} outside [0, {grid.horizon}]")
        raise OutOfRange("t=T is a grid node; pass side='left'")

    r = t * grid.n / grid.horizon
    on_node = abs(r - round(r)) < _NODE_SNAP and 0 < round(r) < grid.n
    if on_node:
        if side == "left":
            k = int(round(r)) - 1
        elif side == "right":
            k = int(round(r))
        else:
            raise OutOfRange(f"t={t} is a grid node; pass side='left' or side='right'")
    else:
        k = grid.cell_index(t)
    x_k = traj.nodes[k]
    move = traj.nodes[k + 1] - x_k - traj.integrals[k]
    return move / grid.mu + as_vec(traj.selection.f(t, x_k))


# ---------------------------------------------------------------------------
# audit of the discrete a-priori bounds

_AUDIT_SLACK = 1e-12
AUDIT_TIME_SAMPLES = 256


def audit_constants(problem: SweepingProblem, schedule: EpsSchedule) -> dict:
    """Explicit constants of the a-priori estimates, from the problem data."""
    t_hor = problem.horizon
    lc = problem.moving_set.lipschitz
    h0 = float(problem.perturbation.h(problem.x0))
    lh = problem.perturbation.lipschitz_h
    sg = math.sqrt(problem.gamma)
    frak_c = schedule.sqrt_eps_over_mu_sup(t_hor)

    k1 = t_hor * (lc + 2.0 * h0 + sg + frak_c) * math.exp(2.0 * lh * t_hor)
    k2 = k1 + float(np.linalg.norm(problem.x0)) + t_hor * (
        lc + 2.0 * (h0 + lh * k1 + sg) + frak_c
    )
    k3 = lc + 2.0 * h0 + 2.0 * sg + 2.0 * lh * k1
    k4 = k3 + lc + 2.0 * (h0 + lh * k1) + 2.0 * sg
    k5 = k4 + lc
    k6 = frak_c + lc + 2.0 * (h0 + lh * k1 + sg)
    return {
        "K1": k1, "K2": k2, "K3": k3, "K4": k4, "K5": k5, "K6": k6,
        "frak_c": frak_c, "L_C": lc, "h_x0": h0, "L_h": lh, "sqrt_gamma": sg,
    }


def theorem1_audit(traj: Trajectory, problem: SweepingProblem) -> dict:
    """Check every recorded quantity of a run against its proved bound.

    Report-only: returns per-bound pass/fail with the worst margin and the
    offending cells, never raises.  Bounds checked with exact distances when
    the moving set has a closed form; otherwise the recorded upper bound is
    compared against the bound plus its sqrt(eps_n) slack.
    """
    grid = traj.grid
    mu = grid.mu
    eps = traj.eps_n
    sq_eps = math.sqrt(eps)
    lc = problem.moving_set.lipschitz
    sg = math.sqrt(problem.gamma)
    const = audit_constants(problem, traj.schedule)
    checks = []

    def record(name: str, values, bound: float, cells: bool = False):
        """One check: it fails on any value above bound; cells lists those items."""
        over = np.asarray(values, dtype=float) > bound + _AUDIT_SLACK
        checks.append({
            "name": name,
            "passed": not over.any(),
            "max_lhs": float(max(values, default=-np.inf)),
            "bound": bound,
            "cells": [int(i) for i in np.flatnonzero(over)] if cells else [],
        })

    # (a)(i): predictor distance per step, as its margin over the step's bound
    margins = []
    for diag in traj.diagnostics:
        bound = (lc + diag.h_at_node + sg) * mu
        if not diag.distance_exact:
            bound += sq_eps  # recorded value is only an upper bound
        margins.append(diag.predictor_distance - bound)
    record("a_i_predictor_distance", margins, 0.0, cells=True)

    # (a)(ii): node drift from x0; cells are node indices
    record("a_ii_node_drift", np.linalg.norm(traj.nodes - traj.nodes[0], axis=1),
           const["K1"], cells=True)

    ts = np.linspace(0.0, grid.horizon, AUDIT_TIME_SAMPLES)
    interp = np.array([interpolate(traj, float(t)) for t in ts])

    # (a)(iii): uniform norm bound of the interpolant
    record("a_iii_sup_norm", np.linalg.norm(interp, axis=1), const["K2"])

    # (a)(iv): consecutive node increments; 0 when no step was taken
    inc = np.linalg.norm(np.diff(traj.nodes[: traj.steps_taken + 1], axis=0), axis=1)
    record("a_iv_node_increment", inc if inc.size else [0.0], const["K3"] * mu + sq_eps,
           cells=True)

    # (a)(v): deviation from the right node inside cells
    dev = [float(np.linalg.norm(xt - traj.nodes[_left_cell(grid, t) + 1]))
           for t, xt in zip(ts, interp) if t != 0.0]
    record("a_v_cell_deviation", dev, const["K4"] * mu + 2.0 * sq_eps)

    # (b) at m = n: distance of the interpolant to C(theta_n(t))
    set_dist = []
    for t, xt in zip(ts, interp):
        target = problem.moving_set.at(grid.theta(t) if t < grid.horizon else grid.horizon)
        slack = 0.0 if isinstance(target, CLOSED_FORM_KINDS) else math.sqrt(DISTANCE_EPS)
        set_dist.append(distance(target, xt) - slack)
    record("b_set_distance", set_dist, const["K5"] * mu + lc * mu + 2.0 * sq_eps)

    # (c): velocity bound sampled at cell interiors
    speeds = [float(np.linalg.norm(velocity(traj, grid.node(k) + frac * mu)))
              for k in range(grid.n) for frac in (0.25, 0.5, 0.75)]
    record("c_velocity_bound", speeds, const["K6"])

    failed_cells = [k for k, dg in enumerate(traj.diagnostics) if not dg.converged]
    return {
        "constants": const,
        "mu": mu,
        "eps_n": eps,
        "checks": checks,
        "projection_failures": failed_cells,
        "passed": all(c["passed"] for c in checks) and not failed_cells,
    }


# ---------------------------------------------------------------------------
# export

_FMT = "%.17g"


def _fmt(v: float) -> str:
    return _FMT % v


def trajectory_to_csv(traj: Trajectory) -> str:
    d = traj.nodes.shape[1]
    header = ["t"] + [f"x{i}" for i in range(d)] + ["certified_eps", "budget_lambda"]
    lines = [",".join(header)]
    for k in range(traj.nodes.shape[0]):
        cert = traj.diagnostics[k - 1].certified_eps if k >= 1 else 0.0
        lam = traj.diagnostics[k - 1].budget_lambda if k >= 1 else 0.0
        row = [_fmt(traj.grid.node(k))] + [_fmt(v) for v in traj.nodes[k]] + [_fmt(cert), _fmt(lam)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trajectory_to_json(traj: Trajectory, audit: dict | None = None) -> str:
    payload = {
        "horizon": traj.grid.horizon,
        "n": traj.grid.n,
        "mu": traj.grid.mu,
        "eps_n": traj.eps_n,
        "complete": traj.complete,
        "nodes": [[float(v) for v in row] for row in traj.nodes],
        "diagnostics": [
            {
                "predictor_distance": dg.predictor_distance,
                "distance_exact": dg.distance_exact,
                "certified_eps": dg.certified_eps,
                "budget_lambda": dg.budget_lambda,
                "h_at_node": dg.h_at_node,
                "iterations": dg.iterations,
                "converged": dg.converged,
            }
            for dg in traj.diagnostics
        ],
    }
    if audit is not None:
        payload["audit"] = audit
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
