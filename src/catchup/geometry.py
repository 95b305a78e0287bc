"""Finite-dimensional set descriptions with closed-form projections and distances.

Sets live in R^d.  Three kinds carry closed-form projections (halfspace,
ball, box); sublevel sets of convex functions are handled through the
certified oracles in :mod:`catchup.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

Array = np.ndarray

# certificate of the cutting-plane distance to a sublevel set
DISTANCE_EPS = 1e-10


class UnsupportedKind(Exception):
    """No closed-form routine exists for this set kind."""


class NoRoot(ValueError):
    """The scalar equation has no positive root for these parameters."""


def as_vec(x) -> Array:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d point, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("point has non-finite coordinates")
    return v


@dataclass(frozen=True)
class ConvexFnOracle:
    """A continuous convex function given by value and one subgradient."""

    eval: Callable[[Array], float]
    subgrad: Callable[[Array], Array]


@dataclass(frozen=True)
class Halfspace:
    """{x : <normal, x> >= offset}."""

    normal: Array
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", as_vec(self.normal))
        if np.linalg.norm(self.normal) == 0.0:
            raise ValueError("halfspace normal must be nonzero")


@dataclass(frozen=True)
class Ball:
    center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec(self.center))
        if not self.radius > 0.0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class Box:
    lo: Array
    hi: Array

    def __post_init__(self):
        object.__setattr__(self, "lo", as_vec(self.lo))
        object.__setattr__(self, "hi", as_vec(self.hi))
        if self.lo.shape != self.hi.shape or np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi componentwise")


@dataclass(frozen=True)
class Sublevel:
    """{x : fn(x) <= level} for a convex fn, with a strictly feasible anchor.

    The Slater point anchors feasibility restoration in the projection
    oracles; construction rejects anchors that are not strictly feasible.
    """

    fn: ConvexFnOracle
    level: float
    slater: Array

    def __post_init__(self):
        object.__setattr__(self, "slater", as_vec(self.slater))
        if not self.fn.eval(self.slater) < self.level:
            raise ValueError("slater point must satisfy fn(slater) < level strictly")


SetDescription = Union[Halfspace, Ball, Box, Sublevel]

CLOSED_FORM_KINDS = (Halfspace, Ball, Box)


@dataclass(frozen=True)
class MovingSet:
    """t -> C(t) together with its Hausdorff Lipschitz constant."""

    at: Callable[[float], SetDescription]
    lipschitz: float = 0.0

    @staticmethod
    def fixed(s: SetDescription) -> "MovingSet":
        return MovingSet(at=lambda t: s, lipschitz=0.0)


# ---------------------------------------------------------------------------
# convex-function constructors used by sublevel sets


def ball_fn(center, radius: float) -> ConvexFnOracle:
    """g(x) = ||x - center||^2 - radius^2, so [g <= 0] is the closed ball."""
    c = as_vec(center)
    return ConvexFnOracle(
        eval=lambda x: float(np.dot(x - c, x - c) - radius * radius),
        subgrad=lambda x: 2.0 * (x - c),
    )


def affine_fn(a, b: float) -> ConvexFnOracle:
    """g(x) = <a, x> - b."""
    a = as_vec(a)
    return ConvexFnOracle(eval=lambda x: float(np.dot(a, x) - b), subgrad=lambda x: a.copy())


def max_fn(fns: Sequence[ConvexFnOracle]) -> ConvexFnOracle:
    """Pointwise maximum; finite intersections of sublevels reduce to this.

    Subgradient at a kink: lowest-index active function, so repeated calls
    are deterministic.
    """
    fns = tuple(fns)
    if not fns:
        raise ValueError("max_fn needs at least one function")

    def ev(x: Array) -> float:
        return max(f.eval(x) for f in fns)

    def sg_lowest(x: Array) -> Array:
        vals = [f.eval(x) for f in fns]
        top = max(vals)
        for j, v in enumerate(vals):
            if v == top:
                return fns[j].subgrad(x)
        raise AssertionError("unreachable")

    return ConvexFnOracle(eval=ev, subgrad=sg_lowest)


# ---------------------------------------------------------------------------
# projections, distances, residuals


def exact_project(s: SetDescription, x) -> Array:
    """Nearest point in s for the closed-form kinds.

    Raises UnsupportedKind for sublevel sets; those go through the oracle
    module instead.
    """
    x = as_vec(x)
    if isinstance(s, Halfspace):
        gap = s.offset - float(np.dot(s.normal, x))
        if gap <= 0.0:
            return x
        return x + (gap / float(np.dot(s.normal, s.normal))) * s.normal
    if isinstance(s, Ball):
        v = x - s.center
        r = float(np.linalg.norm(v))
        if r <= s.radius:
            return x
        return s.center + (s.radius / r) * v
    if isinstance(s, Box):
        return np.clip(x, s.lo, s.hi)
    raise UnsupportedKind(f"no closed-form projection for {type(s).__name__}")


def residual(s: SetDescription, x) -> float:
    """Feasibility measure: <= 0 exactly when x is in the set."""
    x = as_vec(x)
    if isinstance(s, Halfspace):
        return (s.offset - float(np.dot(s.normal, x))) / float(np.linalg.norm(s.normal))
    if isinstance(s, Ball):
        return float(np.linalg.norm(x - s.center)) - s.radius
    if isinstance(s, Box):
        return float(np.max(np.maximum(s.lo - x, x - s.hi)))
    if isinstance(s, Sublevel):
        return s.fn.eval(x) - s.level
    raise UnsupportedKind(type(s).__name__)


def distance(s: SetDescription, x, eps: float = DISTANCE_EPS) -> float:
    """d_s(x), exact for closed-form kinds.

    For sublevel sets the value is a certified *upper bound*: the norm gap
    to a feasible point produced by the cutting-plane oracle at certificate
    eps.  It tightens to the true distance as eps -> 0.  Raises
    ProjectionFailed when the oracle cannot reach eps.
    """
    x = as_vec(x)
    if isinstance(s, CLOSED_FORM_KINDS):
        return float(np.linalg.norm(x - exact_project(s, x)))
    if isinstance(s, Sublevel):
        if residual(s, x) <= 0.0:
            return 0.0
        from .oracles import ProjectionFailed, ProjectorConfig, cutting_plane_project

        res = cutting_plane_project(s, x, ProjectorConfig(eps=eps))
        if not res.converged:
            raise ProjectionFailed(
                f"distance: certificate {res.certified_eps:.3e} exceeds eps {eps:.3e}"
            )
        return float(np.linalg.norm(x - res.point))
    raise UnsupportedKind(type(s).__name__)


def centroid(s: SetDescription) -> Array:
    """An interior/anchor point, used to seed boundary sampling."""
    if isinstance(s, Halfspace):
        return (s.offset / float(np.dot(s.normal, s.normal))) * s.normal
    if isinstance(s, Ball):
        return s.center.copy()
    if isinstance(s, Box):
        return 0.5 * (s.lo + s.hi)
    if isinstance(s, Sublevel):
        return s.slater.copy()
    raise UnsupportedKind(type(s).__name__)


def dimension(s: SetDescription) -> int:
    """Ambient dimension, read off the vector the set stores."""
    if isinstance(s, Halfspace):
        return s.normal.shape[0]
    if isinstance(s, Ball):
        return s.center.shape[0]
    if isinstance(s, Box):
        return s.lo.shape[0]
    if isinstance(s, Sublevel):
        return s.slater.shape[0]
    raise UnsupportedKind(type(s).__name__)


# ---------------------------------------------------------------------------
# prox-regular scalar threshold


def prox_eps0(gamma: float, rho: float) -> float:
    """Largest certificate still covered by the stability threshold equation.

    Solves  gamma + 4*s*(1 + gamma + (1 + 4*s)/rho) = 1  for s = sqrt(eps0)
    by bisection to a bracket of width 1e-14; the left side is strictly
    increasing in s, so the positive root is unique.  Returns eps0 = s**2.
    """
    if not 0.0 < gamma < 1.0:
        raise NoRoot(f"gamma must lie in (0, 1), got {gamma}")
    if not rho > 0.0:
        raise ValueError(f"rho must be positive, got {rho}")

    def phi(s: float) -> float:
        return gamma + 4.0 * s * (1.0 + gamma + (1.0 + 4.0 * s) / rho) - 1.0

    lo, hi = 0.0, 1.0
    while phi(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14:
            break
    s = 0.5 * (lo + hi)
    return s * s


# ---------------------------------------------------------------------------
# Hausdorff distance estimation


def _boundary_samples(s: SetDescription, m: int, rng: np.random.Generator) -> Array:
    d = dimension(s)
    c = centroid(s)
    dirs = rng.standard_normal((m, d))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    dirs /= norms

    if isinstance(s, Ball):
        return s.center + s.radius * dirs
    if isinstance(s, Box):
        reach = float(np.linalg.norm(s.hi - s.lo)) + 1.0
        return np.array([exact_project(s, c + reach * u) for u in dirs])
    if isinstance(s, Halfspace):
        n = s.normal / float(np.linalg.norm(s.normal))
        spread = 1.0 + float(np.linalg.norm(c))
        tangents = dirs - np.outer(dirs @ n, n)
        return c + spread * tangents
    if isinstance(s, Sublevel):
        pts = []
        for u in dirs:
            step = 1.0
            hit = None
            for _ in range(60):
                if residual(s, c + step * u) > 0.0:
                    hit = step
                    break
                step *= 2.0
            if hit is None:  # unbounded direction, nothing to sample there
                continue
            lo_r, hi_r = 0.0, hit
            for _ in range(80):
                mid = 0.5 * (lo_r + hi_r)
                if residual(s, c + mid * u) > 0.0:
                    hi_r = mid
                else:
                    lo_r = mid
            pts.append(c + lo_r * u)
        if not pts:
            raise UnsupportedKind("could not sample sublevel boundary (set unbounded?)")
        return np.array(pts)
    raise UnsupportedKind(type(s).__name__)


def hausdorff_estimate(
    a: SetDescription,
    b: SetDescription,
    samples: int,
    rng: np.random.Generator | None = None,
) -> float:
    """Sampled lower bound on d_H(a, b).

    Boundary points of each set are drawn in uniform random directions from
    the set anchor, and the two one-sided excesses are maximized over the
    samples.  A lower-bound estimator only: unsampled boundary regions can
    hide excess.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    e_ab = max(distance(b, p) for p in _boundary_samples(a, samples, rng))
    e_ba = max(distance(a, p) for p in _boundary_samples(b, samples, rng))
    return max(e_ab, e_ba)
