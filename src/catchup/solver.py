"""Catching-up time stepping with certified approximate projections.

Each step integrates the frozen-node selection over the cell, then projects
the predictor onto the constraint set at the next grid time with a
certificate no larger than the schedule's eps_n.  The piecewise interpolant
and the audit of the discrete a-priori bounds both live here.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Array, MovingSet, SetDescription, UnsupportedKind, as_vec, norm, residual, row_norms,
)
from .oracles import ProjectionFailed, ProjectorConfig, approx_project
from .perturbation import (
    DEFAULT_GAMMA,
    Perturbation,
    Selection,
    cell_integral,
    make_selection,
)


class OutOfRange(ValueError):
    """Time outside [0, T], or a grid node where a derivative jumps."""


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [0, T] with n cells; nodes computed as k*T/n."""

    horizon: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        try:
            operator.index(self.n)
        except TypeError:
            raise ValueError(f"n must be an integer, got {self.n!r}") from None
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.mu == 0.0:
            raise ValueError(
                f"cell width horizon / n underflows to 0 for horizon={self.horizon}, n={self.n}"
            )

    @property
    def mu(self) -> float:
        return self.horizon / self.n

    def node(self, k):
        """t_k = k*T/n; elementwise on an int array."""
        return k * self.horizon / self.n

    def cell_index(self, t):
        """Index k < n with node(k) <= t < node(k+1), by comparison with the nodes.

        t >= node(n) falls in the last cell.  floor(t n / T) carries two
        roundings, so it is off by at most one cell, and one comparison with
        each of its nodes corrects it.  Elementwise on a 1-d array of times,
        which gives an int array; a scalar time gives an int.  Raises
        OutOfRange if any time lies outside [0, T].
        """
        ts = np.asarray(t, dtype=float)
        outside = ~((ts >= 0.0) & (ts <= self.horizon))
        if outside.any():
            raise OutOfRange(f"t={ts[outside][0]} outside [0, {self.horizon}]")
        k = np.minimum(np.floor(ts * self.n / self.horizon), self.n - 1).astype(int)
        k = k - (self.node(k) > ts) + ((self.node(k + 1) <= ts) & (k < self.n - 1))
        return int(k) if k.ndim == 0 else k


def _left_cells(grid: Grid, ts: Array) -> Array:
    """Index k of the cell (t_k, t_{k+1}] holding each t > 0: a node ends its left cell."""
    k = grid.cell_index(ts)
    return k - ((grid.node(k) == ts) & (k > 0))


@dataclass(frozen=True)
class EpsSchedule:
    """Per-grid certificate budget eps_n = c * mu_n**p with p > 2.

    p > 2 keeps eps_n / mu_n^2 -> 0, and sup_n sqrt(eps_n)/mu_n stays
    finite; that supremum enters the audit constants.
    """

    c: float = 1.0
    p: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise ValueError("schedule coefficient must be positive and finite")
        if not 2.0 < self.p < math.inf:
            raise ValueError("schedule exponent must be finite and exceed 2 (eps_n/mu_n^2 -> 0)")

    def eps(self, mu: float) -> float:
        try:
            return self.c * mu**self.p
        except OverflowError:
            raise ValueError(
                f"eps_n = c * mu**p overflows for c={self.c}, p={self.p}, mu={mu}"
            ) from None

    def sqrt_eps_over_mu_sup(self, horizon: float) -> float:
        # sqrt(eps_n)/mu_n = sqrt(c) * mu^{(p-2)/2}, maximal at n = 1
        try:
            sup = math.sqrt(self.c) * horizon ** ((self.p - 2.0) / 2.0)
        except OverflowError:
            sup = math.inf
        if sup == math.inf:
            raise ValueError(
                f"sup sqrt(eps_n)/mu_n = sqrt(c) * horizon**((p-2)/2) overflows for "
                f"c={self.c}, p={self.p}, horizon={horizon}"
            )
        return sup


@dataclass
class SweepingProblem:
    moving_set: MovingSet
    perturbation: Perturbation
    x0: Array
    horizon: float
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        self.x0 = as_vec(self.x0)
        if self.x0.shape[0] == 0:
            raise ValueError("x0 has dimension 0; a problem needs at least one coordinate")
        c0 = self.moving_set.at(0.0)
        if self.x0.shape[0] != _dim(c0, "C(0)"):
            raise ValueError(f"x0 has dimension {self.x0.shape[0]}, C(0) has {c0.dim}")
        f0 = self.perturbation.values(0.0, self.x0)
        if _dim(f0, "F(0, x0)") != self.x0.shape[0]:
            raise ValueError(f"F(0, x0) has dimension {f0.dim}, x0 has {self.x0.shape[0]}")
        if residual(c0, self.x0) > c0.feas_tol:
            raise ValueError("x0 must belong to C(0)")


def _dim(s, name: str) -> int:
    """s.dim; UnsupportedKind naming s's type when s is not a set kind."""
    if not isinstance(s, SetDescription):
        raise UnsupportedKind(f"{name} is not a set kind: {type(s).__name__}")
    return s.dim


@dataclass
class StepDiagnostics:
    predictor_distance: float  # ||predictor - point||, an upper bound on d_{C(t_{k+1})}(predictor)
    certified_eps: float  # d^2 >= predictor_distance^2 - certified_eps
    budget_lambda: float  # 4 sqrt(eps) + (L_C + h(x_k) + sqrt(gamma)) mu
    h_at_node: float
    iterations: int
    converged: bool


@dataclass
class Trajectory:
    grid: Grid
    nodes: Array  # (n+1, d)
    integrals: Array  # (n, d) stored per-cell selection integrals
    values: Array  # (n, q, d) the selection values each cell integral summed
    diagnostics: list[StepDiagnostics]
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
) -> tuple[Array, StepDiagnostics, Array, Array]:
    """One catching-up update: integrate the frozen selection, then project.

    The projector's eps is the grid's certificate budget eps_n.  Returns the
    next node, the step's diagnostics and cell_integral's integral and values.
    Raises ProjectionFailed when ||predictor - point|| is not finite.
    """
    t_k, t_k1 = grid.node(k), grid.node(k + 1)
    integral, values = cell_integral(selection, x_k, t_k, t_k1)
    predictor = x_k + integral
    target = problem.moving_set.at(t_k1)
    res = approx_project(target, predictor, projector)
    dist = norm(predictor - res.point)
    if not math.isfinite(dist):
        raise ProjectionFailed(f"step {k}: ||predictor - point|| = {dist} is not finite")
    h_k = float(problem.perturbation.h(x_k))
    lam = 4.0 * math.sqrt(projector.eps) + (
        problem.moving_set.lipschitz + h_k + math.sqrt(problem.gamma)
    ) * grid.mu
    # positional, in field order: binding six keywords costs more than the whole positional call
    diag = StepDiagnostics(dist, res.certified_eps, lam, h_k, res.iterations, res.converged)
    return res.point, diag, integral, values


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
    step, such as an unconverged selection or a non-finite projection, is
    re-raised with the partial trajectory up to the step's start node,
    permissive or not.
    """
    if schedule is None:
        schedule = EpsSchedule()
    grid = Grid(problem.horizon, n)
    eps_n = schedule.eps(grid.mu)
    selection = make_selection(problem.perturbation, problem.gamma)
    d = problem.x0.shape[0]

    nodes = np.zeros((n + 1, d))
    integrals = np.zeros((n, d))
    values = np.zeros((n, selection.quad_nodes, d))
    nodes[0] = problem.x0
    diags: list[StepDiagnostics] = []
    projector = ProjectorConfig(eps=eps_n, max_iter=max_iter, method=method)

    def partial() -> Trajectory:
        done = len(diags)
        return Trajectory(grid, nodes[: done + 1], integrals[:done], values[:done], diags,
                          schedule, complete=False)

    for k in range(n):
        try:
            x_next, diag, integrals[k], values[k] = step(
                problem, grid, k, nodes[k], selection, projector)
        except ProjectionFailed as exc:
            raise ProjectionFailed(str(exc), partial=partial()) from exc
        nodes[k + 1] = x_next
        diags.append(diag)
        if not diag.converged and not permissive:
            raise ProjectionFailed(
                f"step {k}: certificate {diag.certified_eps:.3e} exceeds eps_n {eps_n:.3e}",
                partial=partial(),
            )

    return Trajectory(grid, nodes, integrals, values, diags, schedule)


def _times(t) -> tuple[Array, bool]:
    """t as a 1-d array of times, and whether t was a single time."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"expected a time or a 1-d array of times, got shape {ts.shape}")
    return ts.reshape(-1), ts.ndim == 0


def _computed_cells(traj: Trajectory, ts: Array, cells: Array) -> Array:
    """cells, once each is known to end at or before the last computed node."""
    past = cells >= traj.steps_taken
    if past.any():
        raise OutOfRange(
            f"t={ts[past][0]} is past the last computed node "
            f"t={traj.grid.node(traj.steps_taken)}"
        )
    return cells


def _moves(traj: Trajectory) -> Array:
    """The projection move nodes[k+1] - nodes[k] - integrals[k] of every computed cell k."""
    return traj.nodes[1:] - traj.nodes[:-1] - traj.integrals


def _sub_cells(traj: Trajectory, cells: Array, elapsed: Array) -> tuple[Array, Array]:
    """The sub-cell j = floor(e / h) holding each elapsed time e = t - t_k of cell k, and h.

    h = (t_{k+1} - t_k) / q, as cell_integral forms it.  j is at most q - 1:
    an interior sub-cell end belongs to the later sub-cell, and t_{k+1} to
    the last.
    """
    q = traj.values.shape[1]
    h = (traj.grid.node(cells + 1) - traj.grid.node(cells)) / q
    return np.minimum(elapsed // h, q - 1).astype(int), h


def _in_cells(traj: Trajectory, cells: Array, elapsed: Array, j: Array, h: Array) -> Array:
    """x_n(t_k + e) for each cell k, elapsed time e and its sub-cell j of width h.

    The node plus a linear share e / mu of the projection move plus the
    partial integral of g = values[k], the values the step summed, each
    constant on its sub-cell: h (g_0 + ... + g_{j-1}) + (e - j h) g_j.  At
    q = 1 that is e g_0.
    """
    g, rows = traj.values[cells], np.arange(cells.size)
    partial = (elapsed - j * h)[:, None] * g[rows, j]
    later = j > 0  # j = 0 adds no sum, so q = 1 gives e g_0's bits
    partial[later] += h[later, None] * np.cumsum(g, axis=1)[rows[later], j[later] - 1]
    share = (elapsed / traj.grid.mu)[:, None]
    return traj.nodes[cells] + share * _moves(traj)[cells] + partial


def interpolate(traj: Trajectory, t) -> Array:
    """Evaluate the piecewise interpolant through the stored nodes.

    At t in cell k and sub-cell j (see _sub_cells) the value is _in_cells'
    at e = t - t_k.  No selection is evaluated.

    t is a time or a 1-d array of times; an array gives one row per time.
    Raises OutOfRange outside [0, T] and, on a partial trajectory, past the
    last computed node.
    """
    grid = traj.grid
    ts, single = _times(t)
    inside = ts != 0.0
    out = np.empty((ts.size, traj.nodes.shape[1]))
    out[~inside] = traj.nodes[0]
    t_in = ts[inside]
    cells = _computed_cells(traj, t_in, _left_cells(grid, t_in))
    elapsed = t_in - grid.node(cells)
    out[inside] = _in_cells(traj, cells, elapsed, *_sub_cells(traj, cells, elapsed))
    return out[0] if single else out


def velocity(traj: Trajectory, t) -> Array:
    """d/dt of the interpolant, moves_k / mu + values[k, j] on sub-cell j of cell k.

    Defined in cell interiors only; at an interior sub-cell end it is the
    right-hand value, that of the later sub-cell (see _sub_cells).  No
    selection is evaluated.  t is a time or a 1-d array of times; an array
    gives one row per time.  Raises OutOfRange at a grid node, where the
    derivative jumps, outside (0, T) and, on a partial trajectory, past the
    last computed node.
    """
    grid = traj.grid
    ts, single = _times(t)
    cells = grid.cell_index(ts)
    bad = (ts == grid.horizon) | (grid.node(cells) == ts)
    if bad.any():
        raise OutOfRange(f"t={ts[bad][0]} is a grid node or outside (0, {grid.horizon})")
    cells = _computed_cells(traj, ts, cells)
    j, _ = _sub_cells(traj, cells, ts - grid.node(cells))
    out = _moves(traj)[cells] / grid.mu + traj.values[cells, j]
    return out[0] if single else out


# ---------------------------------------------------------------------------
# audit of the discrete a-priori bounds

_AUDIT_SLACK = 1e-12


def audit_constants(problem: SweepingProblem, schedule: EpsSchedule) -> dict:
    """Explicit constants of the a-priori estimates, from the problem data."""
    t_hor = problem.horizon
    lc = problem.moving_set.lipschitz
    h0 = float(problem.perturbation.h(problem.x0))
    lh = problem.perturbation.lipschitz_h
    sg = math.sqrt(problem.gamma)
    frak_c = schedule.sqrt_eps_over_mu_sup(t_hor)

    k1 = t_hor * (lc + 2.0 * h0 + sg + frak_c) * math.exp(2.0 * lh * t_hor)
    k2 = k1 + norm(problem.x0) + t_hor * (
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

    Report-only: returns a verdict per bound with the worst value and the
    refuted cells.  A projection z with certificate eps_hat brackets the
    distance d between sqrt(max(||x - z||^2 - eps_hat, 0)) and ||x - z||;
    a_i and b read d off the steps' brackets, and every other value is
    exact.  A check is refuted when a lower end exceeds the bound, certified
    when it has values and every upper end is within it, inconclusive
    otherwise, and passes unless refuted.  A partial trajectory is read up
    to its last computed node and never passes.

    Every supremum over [0, T] is read exactly from the stored run: no
    projection, no set and no selection is evaluated.  On cell k, x_n is
    affine between its breakpoints b_{k,j} = x_n(t_k + j h), j < q, and
    x_{k+1}, so a_iii's convex ||x_n(t)|| peaks at a breakpoint or at the
    last node, and a_v's ||x_n(t) - x_{k+1}|| at a breakpoint of cell k.  c
    reads moves_k / mu + values[k, j], the velocity on each sub-cell.

    b rests on every C(t) being convex, as every set kind is.  On cell k the
    set is C(t_{k+1}), whose distance d is convex and 0 at x_{k+1}, so its
    supremum is max_j d(b_{k,j}).  The step projected p_k = x_k + I_k onto
    that set with the bracket [l_k, pd_k], and d is 1-Lipschitz, so
    d(b_{k,j}) lies between l_k - ||b_{k,j} - p_k|| and pd_k + ||b_{k,j} -
    p_k||.  With F = 0, b_{k,0} = p_k and b is the steps' own brackets.  A
    set that is not convex must not reuse this argument.
    """
    grid = traj.grid
    mu = grid.mu
    eps = traj.eps_n
    sq_eps = math.sqrt(eps)
    lc = problem.moving_set.lipschitz
    sg = math.sqrt(problem.gamma)
    const = audit_constants(problem, traj.schedule)
    checks = []

    def record(name: str, values, bound: float, lower=None, cells: bool = False):
        """One check of the upper ends values, whose lower ends default to values.

        cells lists the refuted items; max_lhs, the largest upper end, is None
        when there are no values (a partial run with no step).
        """
        upper = np.asarray(values, dtype=float)
        refuted = (upper if lower is None else lower) > bound + _AUDIT_SLACK
        certified = upper.size and (upper <= bound + _AUDIT_SLACK).all()
        verdict = "refuted" if refuted.any() else "certified" if certified else "inconclusive"
        checks.append({
            "name": name,
            "verdict": verdict,
            "passed": verdict != "refuted",
            "max_lhs": float(upper.max()) if upper.size else None,
            "bound": bound,
            "cells": [int(i) for i in np.flatnonzero(refuted)] if cells else [],
        })

    def lower_ends(dist: Array, certs: Array) -> Array:
        return np.sqrt(np.maximum(dist * dist - certs, 0.0))

    # (a)(i): predictor distance per step, as its margin over the step's bound
    diags = traj.diagnostics
    dist = np.array([dg.predictor_distance for dg in diags])
    certs = np.array([dg.certified_eps for dg in diags])
    bounds = (lc + np.array([dg.h_at_node for dg in diags]) + sg) * mu
    record("a_i_predictor_distance", dist - bounds, 0.0,
           lower=lower_ends(dist, certs) - bounds, cells=True)

    # (a)(ii): node drift from x0; cells are node indices
    record("a_ii_node_drift", row_norms(traj.nodes - traj.nodes[0]),
           const["K1"], cells=True)

    # the breakpoints b_{k,j} = x_n(t_k + j h), j < q, of every computed cell k
    q = traj.values.shape[1]
    k = np.repeat(np.arange(traj.steps_taken), q)
    j = np.tile(np.arange(q), traj.steps_taken)
    h = (grid.node(k + 1) - grid.node(k)) / q
    breaks = _in_cells(traj, k, j * h, j, h)

    # (a)(iii): uniform norm bound of the interpolant
    record("a_iii_sup_norm", row_norms(np.vstack([breaks, traj.nodes[-1:]])), const["K2"])

    # (a)(iv): consecutive node increments
    inc = row_norms(np.diff(traj.nodes, axis=0))
    record("a_iv_node_increment", inc, const["K3"] * mu + sq_eps, cells=True)

    # (a)(v): deviation from the right node inside cells
    record("a_v_cell_deviation", row_norms(breaks - traj.nodes[k + 1]),
           const["K4"] * mu + 2.0 * sq_eps)

    # (b) at m = n: distance of the interpolant to C(theta_n(t)) = C(t_{k+1}) on cell k,
    # the step's bracket at its predictor p_k widened by ||b_{k,j} - p_k||
    off = row_norms(breaks - (traj.nodes[:-1] + traj.integrals)[k])
    record("b_set_distance", dist[k] + off, const["K5"] * mu + lc * mu + 2.0 * sq_eps,
           lower=lower_ends(dist, certs)[k] - off)

    # (c): velocity bound on every sub-cell, where it takes each stored value
    record("c_velocity_bound", row_norms(_moves(traj)[:, None] / mu + traj.values), const["K6"])

    failed_cells = [k for k, dg in enumerate(traj.diagnostics) if not dg.converged]
    return {
        "constants": const,
        "mu": mu,
        "eps_n": eps,
        "checks": checks,
        "projection_failures": failed_cells,
        "passed": traj.complete and all(c["passed"] for c in checks) and not failed_cells,
    }


# ---------------------------------------------------------------------------
# export

_FMT = "%.17g"


def trajectory_to_csv(traj: Trajectory) -> str:
    """One row per node: t, the coordinates, certified_eps and budget_lambda, each as %.17g."""
    d = traj.nodes.shape[1]
    header = ["t"] + [f"x{i}" for i in range(d)] + ["certified_eps", "budget_lambda"]
    row = ",".join([_FMT] * (d + 3))
    lines = [",".join(header)]
    for k, node in enumerate(traj.nodes.tolist()):
        cert = traj.diagnostics[k - 1].certified_eps if k >= 1 else 0.0
        lam = traj.diagnostics[k - 1].budget_lambda if k >= 1 else 0.0
        lines.append(row % (traj.grid.node(k), *node, cert, lam))
    return "\n".join(lines) + "\n"


# json's C encoder, which runs only without indent, given json.dumps(indent=2)'s
# separator between the items of a row two levels deep
_encode_rows = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": ")).encode


def _json_rows(rows: list) -> str:
    """A list of non-empty lists or dicts, as json.dumps(indent=2) writes it as a field's value.

    The C encoder writes the rows with their items already laid out; only
    the brackets between rows need lines of their own.  No number, bool or
    key holds a bracket or a brace, so each "],\n      [" (or "},\n      {")
    is a row boundary.
    """
    if not rows:
        return "[]"
    text = _encode_rows(rows)
    opening, closing = text[1], text[-2]
    inner = text[2:-2].replace(f"{closing},\n      {opening}",
                               f"\n    {closing},\n    {opening}\n      ")
    return f"[\n    {opening}\n      {inner}\n    {closing}\n  ]"


def audit_to_json(audit: dict) -> str:
    """The audit as audit.json holds it: json.dumps(audit, indent=2, sort_keys=True) + "\n"."""
    return json.dumps(audit, indent=2, sort_keys=True) + "\n"


def trajectory_to_json(traj: Trajectory, audit: dict | str | None = None) -> str:
    """The run, and its audit if given, as one JSON document.

    The bytes are exactly those of json.dumps(payload, indent=2,
    sort_keys=True) + "\n" on the dict of horizon, n, mu, eps_n, complete,
    nodes, vars() of each diagnostic and audit.  json.dumps with indent runs
    a pure-Python generator over every float, so the nodes and the
    diagnostics, which hold nearly all of them, go through json's C encoder
    instead (_json_rows).  The audit may be given already encoded, as
    audit_to_json's string, so that a caller writing audit.json too encodes
    it once.
    """
    # json escapes every newline inside a string, so each raw newline of the
    # audit's own encoding is indentation, one level shallower than here
    if isinstance(audit, dict):
        audit = audit_to_json(audit)
    fields = [] if audit is None else ['"audit": ' + audit[:-1].replace("\n", "\n  ")]
    fields += [
        '"complete": ' + json.dumps(traj.complete),
        '"diagnostics": ' + _json_rows([vars(dg) for dg in traj.diagnostics]),
        '"eps_n": ' + json.dumps(traj.eps_n),
        '"horizon": ' + json.dumps(traj.grid.horizon),
        '"mu": ' + json.dumps(traj.grid.mu),
        '"n": ' + json.dumps(traj.grid.n),
        '"nodes": ' + _json_rows(traj.nodes.tolist()),
    ]
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"
