"""Problem catalog, closed-form references, and convergence studies.

Five desk-scale problems with known solutions drive all quantitative
verification: a dragged interval, a translating halfspace, interior
exponential decay inside a large fixed ball, and a translating disk whose
state rides the boundary, given once as a ball and once as the sublevel set
of a convex function, so that solves run the cutting-plane route end to end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    Ball, Box, Halfspace, MovingSet, Sublevel, ball_fn, exact_project, norm, row_norms,
    sum_of_squares,
)
from .oracles import ProjectionFailed, ProjectorConfig, approx_project
from .perturbation import linear_decay_perturbation, zero_perturbation
from .solver import (
    EpsSchedule,
    SweepingProblem,
    Trajectory,
    interpolate,
    solve,
)

EVAL_GRID_SIZE = 1000
_EPS = 2.0**-52  # the spacing of doubles at 1
ROUNDING_ULPS = 4  # rate-study errors within this many ulps of the largest node norm are rounding


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


def _sublevel_disk() -> SweepingProblem:
    def at(t):
        center = np.array([t, 0.0])
        return Sublevel(ball_fn(center, 1.0), 0.0, slater=center)

    return SweepingProblem(
        moving_set=MovingSet(at=at, lipschitz=1.0),
        perturbation=zero_perturbation(),
        x0=[-1.0, 0.0],
        horizon=1.0,
    )


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog problem: its builder, its analytic solution and its preferred projector."""

    build: Callable[[], SweepingProblem]
    solution: Callable[[float], np.ndarray]
    method: str


# the disk prefers Frank-Wolfe, so catalog runs exercise that route too
CATALOG = {
    "dragging_interval": CatalogEntry(_dragging_interval, lambda t: np.array([t]), "auto"),
    "translating_halfspace": CatalogEntry(
        _translating_halfspace, lambda t: np.array([t, 0.0]), "auto"),
    "interior_ode": CatalogEntry(_interior_ode, lambda t: np.array([math.exp(-t), 0.0]), "auto"),
    "translating_disk": CatalogEntry(_translating_disk, lambda t: np.array([t - 1.0, 0.0]), "fw"),
    "sublevel_disk": CatalogEntry(_sublevel_disk, lambda t: np.array([t - 1.0, 0.0]), "auto"),
}


def _entry(problem_id: str) -> CatalogEntry:
    try:
        return CATALOG[problem_id]
    except KeyError:
        raise UnknownProblem(problem_id) from None


def make_problem(problem_id: str) -> SweepingProblem:
    return _entry(problem_id).build()


def reference_solution(problem_id: str, t: float) -> np.ndarray:
    """Analytic solution of a catalog problem at time t."""
    return _entry(problem_id).solution(t)


def fine_grid_reference(problem_id: str, n_ref: int) -> Trajectory:
    """Self-consistent reference run: fine grid, default schedule, exact projections."""
    problem = make_problem(problem_id)
    return solve(problem, n_ref, method="auto")


def sup_error(traj: Trajectory, reference) -> float:
    """Max interpolant error over EVAL_GRID_SIZE uniform times in [0, T].

    The interpolant is sampled in one array call of interpolate, which
    evaluates no selection: it reads the values the run stored.  reference
    is either a callable t -> point, called once per time, or a finer
    Trajectory, sampled in one more array call.  A callable's points
    (a float for d = 1) are stacked into one (times, d) array first, so a
    reference of another dimension raises ValueError instead of
    broadcasting.  np.vecdot's squares, one BLAS dot per time, pick the
    times whose square lies within the dot's rounding, 2(d + 1) eps relative,
    of the largest; the result is the largest sqrt(sum_of_squares) of their
    errors, correctly rounded squares, so it is the same on every BLAS
    kernel.  Raises OutOfRange on a partial trajectory whose last computed
    node is before T.  A NaN error at any time makes the result NaN, as
    ndarray.max gives it, so no err <= bound check can pass on it.
    """
    ts = np.linspace(0.0, traj.grid.horizon, EVAL_GRID_SIZE)
    xs = interpolate(traj, ts)
    if isinstance(reference, Trajectory):
        refs = interpolate(reference, ts)
    else:
        refs = np.array([reference(float(t)) for t in ts], dtype=float).reshape(ts.size, -1)
    if refs.shape != xs.shape:
        raise ValueError(f"reference points have dimension {refs.shape[1]}, "
                         f"the trajectory's have {xs.shape[1]}")
    errs = xs - refs
    squares = np.vecdot(errs, errs)
    top = squares.max()
    if top != top:
        return math.nan
    near = squares >= top * (1.0 - 2.0 * (errs.shape[1] + 1) * _EPS)
    return max(math.sqrt(sum_of_squares(row)) for row in errs[near].tolist())


def _slope(xs: list[float], ys: list[float]) -> float:
    """The least-squares slope of ys against xs, with every sum taken by math.fsum."""
    x_bar = math.fsum(xs) / len(xs)
    y_bar = math.fsum(ys) / len(ys)
    dx = [x - x_bar for x in xs]
    return math.fsum(a * (y - y_bar) for a, y in zip(dx, ys)) / math.fsum(a * a for a in dx)


@dataclass
class RateStudy:
    problem_id: str
    ladder: list[int]
    mus: list[float]
    eps: list[float]
    errors: list[float]
    slope: float
    ratios: list[float]
    node_scale: float  # largest node norm over the ladder's runs

    @property
    def strictly_decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.errors, self.errors[1:]))

    @property
    def passed(self) -> bool:
        """The gate of `catchup rate`: errors that fall at a fitted slope >= 0.25,
        or errors that all lie within a few ulps of the largest node norm, the
        rounding of a problem the solver gets exactly."""
        rounding = ROUNDING_ULPS * float(np.spacing(self.node_scale))
        return max(self.errors) <= rounding or (self.slope >= 0.25 and self.strictly_decreasing)

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
) -> RateStudy:
    """Sup errors against the analytic solution along an n-ladder, and the
    fitted log-log slope vs mu_n.  method defaults to the problem's own."""
    if any(b <= a for a, b in zip(ladder, ladder[1:])) or len(ladder) < 2:
        raise ValueError("ladder must hold at least two sizes, strictly increasing")
    if schedule is None:
        schedule = EpsSchedule()
    entry = _entry(problem_id)
    if method is None:
        method = entry.method

    errors, mus, eps = [], [], []
    node_scale = 0.0
    for n in ladder:
        traj = solve(entry.build(), n, schedule=schedule, method=method)
        errors.append(sup_error(traj, entry.solution))
        mus.append(traj.grid.mu)
        eps.append(traj.eps_n)
        node_scale = max(node_scale, float(row_norms(traj.nodes).max()))

    slope = _slope([math.log(mu) for mu in mus], [math.log(max(e, 1e-300)) for e in errors])
    ratios = [errors[i + 1] / errors[i] if errors[i] > 0 else 0.0 for i in range(len(errors) - 1)]
    return RateStudy(problem_id, list(ladder), mus, eps, errors, slope, ratios, node_scale)


@dataclass
class StabilityStudy:
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
    the gap ||z_n - proj_s(x)|| for each supplied (x_n, eps_n).  Raises
    ValueError unless there is one eps_n per point and at least one point.  A
    projection that does not reach its eps_n, or a gap that is not finite,
    raises ProjectionFailed.
    """
    points, eps_seq = list(points), list(eps_seq)
    if len(points) != len(eps_seq):
        raise ValueError(f"stability study: {len(points)} points but {len(eps_seq)} budgets")
    if not points:
        raise ValueError("stability study: no points")
    target = exact_project(s, x)
    gaps = []
    for i, (p, eps) in enumerate(zip(points, eps_seq)):
        res = approx_project(s, p, ProjectorConfig(eps=eps, method=method))
        if not res.converged:
            raise ProjectionFailed(
                f"stability study: projection {i} certificate {res.certified_eps:.3e} "
                f"exceeds eps {eps:.3e}"
            )
        gap = norm(res.point - target)
        if not math.isfinite(gap):
            raise ProjectionFailed(f"stability study: ||z_n - proj(x)|| = {gap} is not finite")
        gaps.append(gap)
    return StabilityStudy(gaps)
