"""Finite-dimensional set descriptions with closed-form projections and distances.

Sets live in R^d.  Three kinds carry closed-form projections (halfspace,
ball, box); sublevel sets of convex functions are handled through the
certified oracles in :mod:`catchup.oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

Array = np.ndarray

# certificate of distance(), which only the cutting planes on a sublevel set can miss
DISTANCE_EPS = 1e-10


class UnsupportedKind(Exception):
    """No closed-form routine exists for this set kind."""


class NoRoot(ValueError):
    """The scalar equation has no positive root for these parameters."""


_FLOAT = np.dtype(float)


def as_vec(x) -> Array:
    """x as a 1-d float64 array of finite coordinates; a 1-d float64 array is returned as is.

    An exact ndarray of native float64 with one axis skips the conversion,
    so only the finiteness test runs on it.  A sum of Python floats is
    finite only when every term is, and never warns; the elementwise test
    runs only when the sum is not finite, which finite coordinates reach
    when their sum overflows.
    """
    if type(x) is np.ndarray and x.dtype == _FLOAT and x.ndim == 1:
        v = x
    else:
        v = np.asarray(x, dtype=float)
        if v.ndim == 0:
            v = v.reshape(1)
        if v.ndim != 1:
            raise ValueError(f"expected a 1-d point, got shape {v.shape}")
    if not math.isfinite(sum(v.tolist())) and not np.isfinite(v).all():
        raise ValueError("point has non-finite coordinates")
    return v


def norm(v: Array) -> float:
    """||v|| of a 1-d float array: np.linalg.norm's own sqrt(v.dot(v)), without its wrapper."""
    return math.sqrt(v.dot(v))


def row_norms(rows: Array) -> Array:
    """||v|| of each row v of a C-contiguous (m, d) float array, as norm(v) gives it, in one call.

    np.vecdot hands each row to the same float64 dot kernel as v.dot(v),
    numpy's BLAS ddot, from C, and sqrt rounds as math.sqrt does, so every
    value has norm's bits; an overflowing row warns as its dot does.
    np.linalg.norm(rows, axis=1) would sum the squares in another order.
    """
    return np.sqrt(np.vecdot(rows, rows))


@dataclass(frozen=True)
class ConvexFnOracle:
    """A continuous convex function given by value and one subgradient."""

    eval: Callable[[Array], float]
    subgrad: Callable[[Array], Array]


@dataclass(frozen=True)
class Halfspace:
    """{x : <normal, x> >= offset}, stored with both sides scaled by one power of two.

    The scale 2**k puts the largest |normal_i| in [1, 2), so normal.normal
    is never subnormal or infinite.  Scaling by a power of two is exact, and
    a normal already in that range, such as a unit one, is stored as is.
    """

    normal: Array
    offset: float

    def __post_init__(self):
        normal = as_vec(self.normal)
        top = max(map(abs, normal.tolist()), default=0.0)
        if top == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        if not math.isfinite(self.offset):
            raise ValueError("halfspace offset must be finite")
        k = 1 - math.frexp(top)[1]  # 2**k * top lies in [1, 2)
        try:
            offset = math.ldexp(self.offset, k)
        except OverflowError:
            raise ValueError(
                f"halfspace offset {self.offset} is not finite once scaled by 2**{k}"
            ) from None
        object.__setattr__(self, "normal", np.ldexp(normal, k) if k else normal)
        object.__setattr__(self, "offset", offset)


@dataclass(frozen=True)
class Ball:
    center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec(self.center))
        if not 0.0 < self.radius < math.inf:
            raise ValueError("ball radius must be positive and finite")


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
    if not 0.0 < radius < math.inf:
        raise ValueError("ball radius must be positive and finite")

    def ev(x: Array) -> float:
        d = x - c
        return float(d.dot(d) - radius * radius)

    return ConvexFnOracle(eval=ev, subgrad=lambda x: 2.0 * (x - c))


def affine_fn(a, b: float) -> ConvexFnOracle:
    """g(x) = <a, x> - b."""
    a = as_vec(a)
    return ConvexFnOracle(eval=lambda x: float(np.dot(a, x) - b), subgrad=lambda x: a.copy())


def max_fn(fns: Sequence[ConvexFnOracle]) -> ConvexFnOracle:
    """Pointwise maximum; finite intersections of sublevels reduce to this.

    Subgradient at a kink: lowest-index active function, so repeated calls
    are deterministic.  A NaN component makes the maximum NaN, whatever its
    index, and its subgradient raises ValueError naming that component.
    """
    fns = tuple(fns)
    if not fns:
        raise ValueError("max_fn needs at least one function")

    def top(x: Array) -> tuple[int, float]:
        """The index and value of the lowest-index largest component, or of the first NaN one."""
        best, top_val = 0, fns[0].eval(x)
        if top_val != top_val:
            return 0, top_val
        for j in range(1, len(fns)):
            v = fns[j].eval(x)
            if v > top_val:
                best, top_val = j, v
            elif v != v:  # comparisons with NaN are False: max() would drop it
                return j, v
        return best, top_val

    def ev(x: Array) -> float:
        return top(x)[1]

    def sg_lowest(x: Array) -> Array:
        j, v = top(x)
        if v != v:
            raise ValueError(f"max_fn component {j} evaluates to NaN")
        return fns[j].subgrad(x)

    return ConvexFnOracle(eval=ev, subgrad=sg_lowest)


# ---------------------------------------------------------------------------
# projections, distances, residuals


def point_of(s: SetDescription, x) -> Array:
    """as_vec(x), which must have s's dimension: a point of another dimension raises ValueError."""
    x = as_vec(x)
    d = dimension(s)
    if x.shape[0] != d:
        raise ValueError(f"point has dimension {x.shape[0]}, set has {d}")
    return x


def exact_project(s: SetDescription, x) -> Array:
    """Nearest point in s for the closed-form kinds; a member comes back as a copy.

    Raises UnsupportedKind for sublevel sets; those go through the oracle
    module instead.  On a ball whose ||x - center||^2 overflows, the
    membership test and the formula are applied to x - center and the
    radius scaled by one power of two, which gives the projection rather
    than the centre; only that input takes the branch.
    """
    x = point_of(s, x)
    if isinstance(s, Halfspace):
        gap = s.offset - float(s.normal.dot(x))
        if gap <= 0.0:
            return x.copy()
        return x + (gap / float(s.normal.dot(s.normal))) * s.normal
    if isinstance(s, Ball):
        v = x - s.center
        r = norm(v)
        if r <= s.radius:
            return x.copy()
        if r == math.inf:  # v.v overflowed: test and project 2**k v, its largest |v_i| in [0.5, 1)
            k = -math.frexp(max(map(abs, v.tolist())))[1]  # 0 when v is not finite
            v = np.ldexp(v, k)
            r = norm(v)
            if r <= math.ldexp(s.radius, k):
                return x.copy()
        return s.center + (s.radius / r) * v
    if isinstance(s, Box):
        return np.clip(x, s.lo, s.hi)
    raise UnsupportedKind(f"no closed-form projection for {type(s).__name__}")


def residual(s: SetDescription, x) -> float:
    """Feasibility measure: <= 0 exactly when x is in the set."""
    x = point_of(s, x)
    if isinstance(s, Halfspace):
        return (s.offset - float(s.normal.dot(x))) / norm(s.normal)
    if isinstance(s, Ball):
        return norm(x - s.center) - s.radius
    if isinstance(s, Box):
        return float(np.max(np.maximum(s.lo - x, x - s.hi)))
    if isinstance(s, Sublevel):
        return s.fn.eval(x) - s.level
    raise UnsupportedKind(type(s).__name__)


def distance(s: SetDescription, x) -> float:
    """d_s(x) as ||x - z||, for the point z that approx_project certifies at DISTANCE_EPS.

    Exact for the closed-form kinds, whose certificate is 0.  For sublevel
    sets the value is a certified *upper bound*: the norm gap to a feasible
    point of the cutting-plane oracle (0 for a member).  approx_project
    checks x.  Raises ProjectionFailed when the oracle cannot reach
    DISTANCE_EPS or z is not finite; a finite z whose squared distance
    overflows gives inf, as np.linalg.norm does.
    """
    from .oracles import ProjectionFailed, ProjectorConfig, approx_project

    res = approx_project(s, x, ProjectorConfig(eps=DISTANCE_EPS))
    if not res.converged:
        raise ProjectionFailed(
            f"distance: certificate {res.certified_eps:.3e} exceeds eps {DISTANCE_EPS:.3e}"
        )
    d = norm(x - res.point)
    if not math.isfinite(d) and not np.isfinite(res.point).all():  # finite x: z is not finite
        raise ProjectionFailed(f"distance: projection {res.point.tolist()} is not finite")
    return d


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

    Solves  gamma + 4*s*(1 + gamma + (1 + 4*s)/rho) = 1  for s = sqrt(eps0).
    In s this is the quadratic  (16/rho)*s**2 + b*s - (1 - gamma) = 0  with
    b = 4*(1 + gamma + 1/rho) > 0, whose positive root is taken in the form
    free of cancellation.  Returns eps0 = s**2.
    """
    if not 0.0 < gamma < 1.0:
        raise NoRoot(f"gamma must lie in (0, 1), got {gamma}")
    if not rho > 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    slack = 1.0 - gamma
    b = 4.0 * (1.0 + gamma + 1.0 / rho)
    s = 2.0 * slack / (b + math.sqrt(b * b + 64.0 * slack / rho))
    return s * s
