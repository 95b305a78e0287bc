"""Problem catalog, closed-form references, and convergence studies.

Four desk-scale problems with known solutions drive all quantitative
verification: a dragged interval, a translating halfspace, interior
exponential decay inside a large fixed ball, and a translating disk whose
state rides the boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Ball, Box, Halfspace, MovingSet, exact_project
from .oracles import ProjectorConfig, approx_project
from .perturbation import linear_decay_perturbation, zero_perturbation
from .solver import (
    EpsSchedule,
    SweepingProblem,
    Trajectory,
    interpolate,
    solve,
)

EVAL_GRID_SIZE = 1000


class UnknownProblem(KeyError):
    pass


def _dragging_interval() -> SweepingProblem:
    return SweepingProblem(
        moving_set=MovingSet(at=lambda t: Box([t], [t + 1.0]), lipschitz=1.0),
        perturbation=zero_perturbation(),
        x0=[0.0],
        horizon=1.0,
    )


def _translating_halfspace() -> SweepingProblem:
    return SweepingProblem(
        moving_set=MovingSet(at=lambda t: Halfspace([1.0, 0.0], t), lipschitz=1.0),
        perturbation=zero_perturbation(),
        x0=[0.0, 0.0],
        horizon=1.0,
    )


def _interior_ode() -> SweepingProblem:
    return SweepingProblem(
        moving_set=MovingSet.fixed(Ball([0.0, 0.0], 10.0)),
        perturbation=linear_decay_perturbation(),
        x0=[1.0, 0.0],
        horizon=1.0,
    )


def _translating_disk() -> SweepingProblem:
    return SweepingProblem(
        moving_set=MovingSet(at=lambda t: Ball([t, 0.0], 1.0), lipschitz=1.0),
        perturbation=zero_perturbation(),
        x0=[-1.0, 0.0],
        horizon=1.0,
    )


CATALOG = {
    "dragging_interval": _dragging_interval,
    "translating_halfspace": _translating_halfspace,
    "interior_ode": _interior_ode,
    "translating_disk": _translating_disk,
}

# preferred projector per problem; the disk exercises the Frank-Wolfe route
DEFAULT_METHOD = {
    "dragging_interval": "auto",
    "translating_halfspace": "auto",
    "interior_ode": "auto",
    "translating_disk": "fw",
}


def make_problem(problem_id: str) -> SweepingProblem:
    try:
        return CATALOG[problem_id]()
    except KeyError:
        raise UnknownProblem(problem_id) from None


def reference_solution(problem_id: str, t: float) -> np.ndarray:
    """Analytic solution of a catalog problem at time t."""
    if problem_id == "dragging_interval":
        return np.array([t])
    if problem_id == "translating_halfspace":
        return np.array([t, 0.0])
    if problem_id == "interior_ode":
        return np.array([math.exp(-t), 0.0])
    if problem_id == "translating_disk":
        return np.array([t - 1.0, 0.0])
    raise UnknownProblem(problem_id)


def fine_grid_reference(problem_id: str, n_ref: int) -> Trajectory:
    """Self-consistent reference run: fine grid, default schedule, exact projections."""
    problem = make_problem(problem_id)
    return solve(problem, n_ref, method="auto")


def sup_error(traj: Trajectory, reference) -> float:
    """Max interpolant error over a fixed evaluation grid of times.

    reference is either a callable t -> point or a finer Trajectory.
    """
    horizon = traj.grid.horizon
    ts = np.linspace(0.0, horizon, EVAL_GRID_SIZE)
    worst = 0.0
    for t in ts:
        xt = interpolate(traj, float(t))
        if isinstance(reference, Trajectory):
            ref = interpolate(reference, float(t))
        else:
            ref = reference(float(t))
        worst = max(worst, float(np.linalg.norm(xt - ref)))
    return worst


@dataclass
class RateStudy:
    problem_id: str
    ladder: list[int]
    mus: list[float]
    eps: list[float]
    errors: list[float]
    slope: float
    ratios: list[float]

    @property
    def strictly_decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.errors, self.errors[1:]))

    def to_csv(self) -> str:
        lines = ["n,mu,eps_n,sup_error"]
        for n, mu, e, err in zip(self.ladder, self.mus, self.eps, self.errors):
            lines.append(f"{n},{mu:.17g},{e:.17g},{err:.17g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "problem": self.problem_id,
                "ladder": self.ladder,
                "mu": self.mus,
                "eps_n": self.eps,
                "sup_error": self.errors,
                "slope": self.slope,
                "ratios": self.ratios,
                "strictly_decreasing": self.strictly_decreasing,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"


def rate_study(
    problem_id: str,
    ladder: list[int],
    schedule: EpsSchedule | None = None,
    method: str | None = None,
    reference: str = "closed_form",
) -> RateStudy:
    """Sup errors along an n-ladder and the fitted log-log slope vs mu_n."""
    if any(b <= a for a, b in zip(ladder, ladder[1:])) or not ladder:
        raise ValueError("ladder must be nonempty and strictly increasing")
    if schedule is None:
        schedule = EpsSchedule()
    if method is None:
        method = DEFAULT_METHOD.get(problem_id, "auto")

    if reference == "closed_form":
        ref = lambda t: reference_solution(problem_id, t)
    elif reference == "fine_grid":
        ref = fine_grid_reference(problem_id, n_ref=4 * max(ladder))
    else:
        raise ValueError(f"unknown reference {reference!r}")

    errors, mus, eps = [], [], []
    for n in ladder:
        problem = make_problem(problem_id)
        traj = solve(problem, n, schedule=schedule, method=method)
        errors.append(sup_error(traj, ref))
        mus.append(traj.grid.mu)
        eps.append(traj.eps_n)

    log_mu = np.log(np.array(mus))
    safe_err = np.maximum(np.array(errors), 1e-300)
    slope = float(np.polyfit(log_mu, np.log(safe_err), 1)[0])
    ratios = [errors[i + 1] / errors[i] if errors[i] > 0 else 0.0 for i in range(len(errors) - 1)]
    return RateStudy(problem_id, list(ladder), mus, eps, errors, slope, ratios)


@dataclass
class StabilityStudy:
    set_kind: str
    eps_seq: list[float]
    gaps: list[float]  # ||z_n - proj(x)||

    @property
    def final_gap(self) -> float:
        return self.gaps[-1]

    def monotone_within(self, factor: float = 2.0) -> bool:
        """Non-increasing up to a multiplicative noise band."""
        running = self.gaps[0]
        for g in self.gaps[1:]:
            if g > factor * max(running, 1e-300):
                return False
            running = min(running, g)
        return True


def stability_study(
    s,
    x,
    points,
    eps_seq,
    method: str = "auto",
) -> StabilityStudy:
    """Track approximate projections of x_n -> x with certificates eps_n -> 0.

    Ground truth is the closed-form projection of the limit point; records
    the gap ||z_n - proj_s(x)|| for each supplied (x_n, eps_n).
    """
    target = exact_project(s, x)
    gaps = []
    for p, eps in zip(points, eps_seq):
        res = approx_project(s, p, ProjectorConfig(eps=eps, method=method))
        gaps.append(float(np.linalg.norm(res.point - target)))
    return StabilityStudy(
        set_kind=type(s).__name__,
        eps_seq=list(eps_seq),
        gaps=gaps,
    )
