"""Certified approximate-projection oracles.

Every routine returns a feasible point z of the target set together with a
certificate eps_hat such that ||x - z||^2 <= d_C(x)^2 + eps_hat.  Three
strategies: wrapping the closed-form projection (certificate 0), Frank-Wolfe
over a linear-minimization oracle (certificate = final duality gap), and a
cutting-plane scheme driven by the separation oracle of a sublevel set
(certificate = feasible value minus outer-polyhedron lower bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    Array,
    Ball,
    Box,
    Halfspace,
    SetDescription,
    Sublevel,
    UnsupportedKind,
    as_vec,
    dimension,
    exact_project,
    residual,
)

FEAS_TOL_CLOSED_FORM = 1e-12
FEAS_TOL_SUBLEVEL = 1e-10


class ZeroSubgradient(Exception):
    """subgrad(x) = 0 while the point is infeasible: invalid convex oracle."""


class ProjectionFailed(RuntimeError):
    """A projection could not reach its certificate within budget.

    When the stepper raises it, partial holds the trajectory up to the
    failed step.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class ProjectorConfig:
    eps: float = 1e-8
    max_iter: int = 10_000
    method: str = "auto"  # auto | exact | fw | cutting

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class ProjectionResult:
    point: Array
    certified_eps: float
    iterations: int
    converged: bool = True


@dataclass(frozen=True)
class Hyperplane:
    """All members y of the set satisfy <normal, y> <= offset."""

    normal: Array
    offset: float


# ---------------------------------------------------------------------------
# linear-minimization oracles

LMO = Callable[[Array], Array]


def lmo_ball(center, radius: float) -> LMO:
    c = as_vec(center)

    def lmo(w: Array) -> Array:
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return c.copy()
        return c - (radius / nw) * w

    return lmo


def lmo_box(lo, hi) -> LMO:
    lo = as_vec(lo)
    hi = as_vec(hi)

    def lmo(w: Array) -> Array:
        # ties (w_i == 0) resolve to lo for determinism
        return np.where(w > 0.0, lo, hi)

    return lmo


def lmo_for(s: SetDescription) -> LMO:
    if isinstance(s, Ball):
        return lmo_ball(s.center, s.radius)
    if isinstance(s, Box):
        return lmo_box(s.lo, s.hi)
    raise UnsupportedKind(f"no bounded linear-minimization oracle for {type(s).__name__}")


# ---------------------------------------------------------------------------
# Frank-Wolfe projection


def frank_wolfe_project(
    lmo: LMO,
    x,
    cfg: ProjectorConfig,
    start: Optional[Array] = None,
) -> ProjectionResult:
    """Minimize ||x - z||^2 over a compact convex set given by its LMO.

    Exact line search on the quadratic; stops when the duality gap
    g = 2 <z - x, z - s> drops to cfg.eps.  Convexity gives
    f(z) - min f <= g, so the final gap certifies z as an approximate
    projection.  Iterates stay feasible because each update is a convex
    combination of feasible points.
    """
    x = as_vec(x)
    # deterministic starting atom, independent of x
    z = as_vec(start) if start is not None else lmo(np.ones_like(x))
    gap = np.inf
    for it in range(cfg.max_iter):
        grad = 2.0 * (z - x)
        s = lmo(grad)
        gap = float(np.dot(grad, z - s))
        if gap <= cfg.eps:
            return ProjectionResult(z, max(gap, 0.0), it, converged=True)
        dz = s - z
        denom = float(np.dot(dz, dz))
        if denom == 0.0:
            return ProjectionResult(z, max(gap, 0.0), it, converged=gap <= cfg.eps)
        tau = min(1.0, max(0.0, float(np.dot(x - z, dz)) / denom))
        z = z + tau * dz
    return ProjectionResult(z, max(gap, 0.0), cfg.max_iter, converged=False)


# ---------------------------------------------------------------------------
# separation oracle and cutting planes


def separation_oracle(s: Sublevel, x) -> Optional[Hyperplane]:
    """Membership check, or a hyperplane separating x from the sublevel set.

    Returns None when x is a member.  Otherwise the subgradient inequality
    gives <g', x - y> >= g(x) - g(y) >= g(x) - level > 0 for every member y,
    so the cut <g', y> <= <g', x> - (g(x) - level) keeps the set and
    excludes x.
    """
    x = as_vec(x)
    viol = s.fn.eval(x) - s.level
    if viol <= 0.0:
        return None
    g = as_vec(s.fn.subgrad(x))
    if float(np.linalg.norm(g)) == 0.0:
        raise ZeroSubgradient("zero subgradient at an infeasible point")
    return Hyperplane(normal=g, offset=float(np.dot(g, x)) - viol)


def _project_polyhedron(cuts_a: list[Array], cuts_b: list[float], x: Array) -> Array:
    """Nearest point to x in the intersection of halfspaces <a_i, y> <= b_i.

    Hildreth dual coordinate descent followed by an exact KKT polish on the
    detected active set.  Problems here are tiny (a handful of accumulated
    cuts in low dimension), so plain sweeps converge quickly.
    """
    if not cuts_a:
        return x.copy()
    a = np.array(cuts_a)
    b = np.array(cuts_b)
    m = a.shape[0]
    sq = np.einsum("ij,ij->i", a, a)
    lam = np.zeros(m)
    y = x.copy()
    for _ in range(500):
        shift = 0.0
        for i in range(m):
            r = float(a[i] @ y - b[i])
            delta = max(-lam[i], r / sq[i])
            if delta != 0.0:
                lam[i] += delta
                y = y - delta * a[i]
                shift = max(shift, abs(delta) * np.sqrt(sq[i]))
        if shift <= 1e-14 * (1.0 + float(np.linalg.norm(x))):
            break

    # KKT polish: solve the equality-constrained projection on the active set
    active = np.where((lam > 1e-12) | (a @ y - b > -1e-10))[0]
    if active.size:
        aj = a[active]
        rhs = aj @ x - b[active]
        nu, *_ = np.linalg.lstsq(aj @ aj.T, rhs, rcond=None)
        y_pol = x - aj.T @ nu
        primal_ok = np.all(a @ y_pol <= b + 1e-9)
        dual_ok = np.all(nu >= -1e-9)
        if primal_ok and dual_ok:
            return y_pol
    return y


def _restore_feasibility(s: Sublevel, w: Array) -> Array:
    """Walk from w toward the Slater anchor to a feasible boundary point.

    Bisection keeps the feasible endpoint, so the returned point satisfies
    fn(p) <= level exactly (up to floating point in fn itself).
    """
    if residual(s, w) <= 0.0:
        return w
    lo, hi = 0.0, 1.0  # w + t*(slater - w); t=1 strictly feasible
    seg = s.slater - w
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(s, w + mid * seg) <= 0.0:
            hi = mid
        else:
            lo = mid
        if (hi - lo) * float(np.linalg.norm(seg)) <= 1e-13 * (1.0 + float(np.linalg.norm(w))):
            break
    return w + hi * seg


def cutting_plane_project(s: Sublevel, x, cfg: ProjectorConfig) -> ProjectionResult:
    """Projection onto a sublevel set via accumulated separation cuts.

    An outer polyhedron O (intersection of cuts) always contains the set, so
    ||x - proj_O(x)||^2 is a valid lower bound on d^2.  Each outer projection
    is restored to feasibility along the Slater segment; the gap between the
    best feasible value and the current lower bound is the certificate.
    """
    x = as_vec(x)
    if residual(s, x) <= 0.0:
        return ProjectionResult(x.copy(), 0.0, 0, converged=True)

    cuts_a: list[Array] = []
    cuts_b: list[float] = []
    best_p: Optional[Array] = None
    best_val = np.inf
    lower = 0.0
    for it in range(cfg.max_iter):
        w = _project_polyhedron(cuts_a, cuts_b, x)
        lower = float(np.dot(x - w, x - w))
        cut = separation_oracle(s, w)
        if cut is None:
            p = w
            val = lower
        else:
            p = _restore_feasibility(s, w)
            val = float(np.dot(x - p, x - p))
        if val < best_val:
            best_val = val
            best_p = p
        cert = max(best_val - lower, 0.0)
        if cert <= cfg.eps:
            return ProjectionResult(best_p, cert, it + 1, converged=True)
        if cut is None:
            # outer projection already feasible: certificate is exactly 0
            return ProjectionResult(best_p, 0.0, it + 1, converged=True)
        cuts_a.append(cut.normal)
        cuts_b.append(cut.offset)
    return ProjectionResult(best_p, max(best_val - lower, 0.0), cfg.max_iter, converged=False)


# ---------------------------------------------------------------------------
# dispatch


def approx_project(s: SetDescription, x, cfg: ProjectorConfig | None = None) -> ProjectionResult:
    """Certified epsilon-projection of x onto s.

    Members short-circuit to themselves.  Otherwise dispatch follows
    cfg.method: "auto" prefers the closed form, falls back to cutting planes
    for sublevel sets; "fw" forces Frank-Wolfe on LMO-capable sets; "exact"
    demands a closed form.  A point whose dimension differs from the set's
    raises ValueError.
    """
    if cfg is None:
        cfg = ProjectorConfig()
    x = as_vec(x)
    if x.shape[0] != dimension(s):
        raise ValueError(f"point has dimension {x.shape[0]}, set has {dimension(s)}")
    if residual(s, x) <= 0.0:
        return ProjectionResult(x.copy(), 0.0, 0, converged=True)

    method = cfg.method
    if method == "auto":
        method = "cutting" if isinstance(s, Sublevel) else "exact"
    if method == "exact":
        return ProjectionResult(exact_project(s, x), 0.0, 0, converged=True)
    if method == "fw":
        return frank_wolfe_project(lmo_for(s), x, cfg)
    if method == "cutting":
        if not isinstance(s, Sublevel):
            raise UnsupportedKind("cutting-plane projection needs a sublevel set")
        return cutting_plane_project(s, x, cfg)
    raise ValueError(f"unknown projection method {cfg.method!r}")


def feasibility_tolerance(s: SetDescription) -> float:
    return FEAS_TOL_SUBLEVEL if isinstance(s, Sublevel) else FEAS_TOL_CLOSED_FORM
