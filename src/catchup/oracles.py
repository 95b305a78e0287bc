"""Certified approximate-projection oracles.

Every routine returns a feasible point z of the target set together with a
certificate eps_hat such that ||x - z||^2 <= d_C(x)^2 + eps_hat.  Three
strategies: wrapping the closed-form projection (certificate 0), Frank-Wolfe
over a linear-minimization oracle (certificate = final duality gap), and a
cutting-plane scheme driven by the separation oracle of a sublevel set
(certificate = feasible value minus outer-polyhedron lower bound).  The outer
projection is Lawson & Hanson's least-distance program, solved by their
finite NNLS active-set method, so the lower bound is exact up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    Array,
    Ball,
    Box,
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
METHODS = ("auto", "fw")


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
    method: str = "auto"  # auto: the set's kind picks the route | fw: Frank-Wolfe

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown projection method {self.method!r}, expected one of {METHODS}")


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


def frank_wolfe_project(lmo: LMO, x, cfg: ProjectorConfig) -> ProjectionResult:
    """Minimize ||x - z||^2 over a compact convex set given by its LMO.

    Exact line search on the quadratic; stops when the duality gap
    g = 2 <z - x, z - s> drops to cfg.eps.  Convexity gives
    f(z) - min f <= g, so the final gap certifies z as an approximate
    projection.  Iterates stay feasible because each update is a convex
    combination of feasible points.
    """
    x = as_vec(x)
    # deterministic starting atom, independent of x
    z = lmo(np.ones_like(x))
    gap = np.inf
    for it in range(cfg.max_iter):
        grad = 2.0 * (z - x)
        s = lmo(grad)
        gap = float(np.dot(grad, z - s))
        if gap <= cfg.eps:
            return ProjectionResult(z, max(gap, 0.0), it, converged=True)
        dz = s - z
        denom = float(np.dot(dz, dz))
        if denom == 0.0:  # |s - z|^2 underflowed while the gap still exceeds eps
            return ProjectionResult(z, max(gap, 0.0), it, converged=False)
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
    """Nearest point to x in the intersection of halfspaces <a_i, y> <= b_i, exactly.

    y = x - r[:d] / r[d] for the residual r = E u - f of the NNLS min ||E u - f||,
    u >= 0, E = -[A^T; (b - A x)^T], f = e_{d+1}: Lawson & Hanson's least-distance
    program (1974, ch. 23).  Raises ProjectionFailed on r = 0 or an NNLS cycle.
    """
    if not cuts_a:
        return x.copy()
    a = np.array(cuts_a)
    m, d = a.shape
    e = -np.vstack([a.T, np.array(cuts_b) - a @ x])
    e /= np.linalg.norm(e, axis=0)  # scaling u_i leaves r unchanged
    f = np.eye(d + 1)[d]
    u = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    dropped = np.zeros(m, dtype=bool)  # entered, then left at once: w_t = 0 up to rounding
    for _ in range(3 * m + 1):
        dual = np.where(passive | dropped, -np.inf, e.T @ (f - e @ u))
        t = int(np.argmax(dual))
        if dual[t] <= (m + d + 1) * np.finfo(float).eps * (1.0 + u.sum()):  # dual's rounding
            q = np.linalg.qr(e[:, passive], mode="complete")[0][:, passive.sum():]
            if not q[d].any():  # r = -q q^T f, free of the cancellation in E u - f
                raise ProjectionFailed("cutting planes have an empty intersection")
            return x - (q[:d] @ q[d]) / (q[d] @ q[d])
        passive[t] = True
        while True:  # each pass drops at least one index from passive
            s = np.zeros(m)
            s[passive] = np.linalg.lstsq(e[:, passive], f, rcond=None)[0]
            block = passive & (s <= 0.0)
            if not block.any():
                break
            ratio = u[block] / (u[block] - s[block])
            u = u + ratio.min() * (s - u)
            u[np.flatnonzero(block)[np.argmin(ratio)]] = 0.0
            passive &= u > 0.0
        dropped = (dropped | (np.arange(m) == t)) & np.array_equal(s, u)
        u = s
    raise ProjectionFailed(f"least-distance NNLS did not terminate on {m} cuts")


def _restore_feasibility(s: Sublevel, w: Array) -> Array:
    """Walk from w toward the Slater anchor to a feasible boundary point.

    Bisection keeps the feasible endpoint, so the returned point satisfies
    fn(p) <= level exactly (up to floating point in fn itself).
    """
    if residual(s, w) <= 0.0:
        return w
    lo, hi = 0.0, 1.0  # w + t*(slater - w); t=1 strictly feasible
    seg = s.slater - w
    seg_norm = float(np.linalg.norm(seg))
    stop = 1e-13 * (1.0 + float(np.linalg.norm(w)))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(s, w + mid * seg) <= 0.0:
            hi = mid
        else:
            lo = mid
        if (hi - lo) * seg_norm <= stop:
            break
    return w + hi * seg


def cutting_plane_project(s: Sublevel, x, cfg: ProjectorConfig) -> ProjectionResult:
    """Projection onto a sublevel set via accumulated separation cuts.

    An outer polyhedron O (intersection of cuts) always contains the set, so
    ||x - proj_O(x)||^2 is a valid lower bound on d^2; proj_O is computed
    exactly (up to rounding) by _project_polyhedron.  Each outer projection
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
        if cert <= cfg.eps:  # always taken when cut is None: then best_val <= lower
            return ProjectionResult(best_p, cert, it + 1, converged=True)
        cuts_a.append(cut.normal)
        cuts_b.append(cut.offset)
    return ProjectionResult(best_p, max(best_val - lower, 0.0), cfg.max_iter, converged=False)


# ---------------------------------------------------------------------------
# dispatch


def approx_project(s: SetDescription, x, cfg: ProjectorConfig | None = None) -> ProjectionResult:
    """Certified epsilon-projection of x onto s.

    Members short-circuit to themselves.  Otherwise cfg.method "fw" runs
    Frank-Wolfe (UnsupportedKind on a set without a bounded LMO); under
    "auto" a sublevel set takes cutting planes and every other kind its
    closed form.  A point whose dimension differs from the set's raises
    ValueError.
    """
    if cfg is None:
        cfg = ProjectorConfig()
    x = as_vec(x)
    if x.shape[0] != dimension(s):
        raise ValueError(f"point has dimension {x.shape[0]}, set has {dimension(s)}")
    if residual(s, x) <= 0.0:
        return ProjectionResult(x.copy(), 0.0, 0, converged=True)

    if cfg.method == "fw":
        return frank_wolfe_project(lmo_for(s), x, cfg)
    if isinstance(s, Sublevel):
        return cutting_plane_project(s, x, cfg)
    return ProjectionResult(exact_project(s, x), 0.0, 0, converged=True)


def feasibility_tolerance(s: SetDescription) -> float:
    return FEAS_TOL_SUBLEVEL if isinstance(s, Sublevel) else FEAS_TOL_CLOSED_FORM
