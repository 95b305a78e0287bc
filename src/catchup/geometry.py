"""Finite-dimensional set kinds, each owning its residual, projection and LMO where it has them.

Sets live in R^d.  Three kinds carry closed-form projections (halfspace,
ball, box) and two of them an LMO (ball, box); sublevel sets of convex
functions are handled through the certified oracles in :mod:`catchup.oracles`.
Each kind returns its own certified projection, so each picks the route
that approx_project takes under "auto".
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

# certificate of distance(), which only the cutting planes on a sublevel set can miss
DISTANCE_EPS = 1e-10


class UnsupportedKind(Exception):
    """No closed-form routine exists for this set kind."""


class NoRoot(ValueError):
    """The scalar equation has no positive root for these parameters."""


_FLOAT = np.dtype(float)
# bound once: as_vec runs on nearly every point, where a global and an attribute lookup cost more
_ndarray = np.ndarray
_isfinite = math.isfinite


def as_vec(x) -> Array:
    """x as a 1-d float64 array of finite coordinates; a 1-d float64 array is returned as is.

    An exact ndarray of native float64 with one axis skips the conversion,
    so only the finiteness test runs on it.  A sum of Python floats is
    finite only when every term is, and never warns; the elementwise test
    runs only when the sum is not finite, which finite coordinates reach
    when their sum overflows.
    """
    if type(x) is _ndarray and x.dtype == _FLOAT and x.ndim == 1:
        v = x
    else:
        v = np.asarray(x, dtype=float)
        if v.ndim == 0:
            v = v.reshape(1)
        if v.ndim != 1:
            raise ValueError(f"expected a 1-d point, got shape {v.shape}")
    if not _isfinite(sum(v.tolist())) and not np.isfinite(v).all():
        raise ValueError("point has non-finite coordinates")
    return v


def norm(v: Array) -> float:
    """||v|| of a 1-d float array: np.linalg.norm's own sqrt(v.dot(v)), without its wrapper."""
    return math.sqrt(v.dot(v))


def scale_exponent(v) -> int:
    """The k with 2**k max |v_i| in [0.5, 1): 0 when that maximum is 0 or not finite.

    v is a 1-d float array or a sequence of floats.
    """
    return -math.frexp(max(map(abs, v.tolist() if type(v) is _ndarray else v)))[1]


_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
# plain sums of squares in [_SQUARES_MIN, _SQUARES_MAX) are summed by Dekker's split and fsum
_SQUARES_MIN, _SQUARES_MAX = 2.0**-960, 2.0**1000


def sum_of_squares(w) -> float:
    """The sum of w_i**2 over a sequence of floats, correctly rounded; inf where it overflows.

    Where the plain sum of the rounded squares lies in [2**-960, 2**1000),
    each square splits exactly into p + e, its rounded value and its
    rounding error, by Dekker's two-product on Veltkamp's split (*Numer.
    Math.* 18, 1971), and math.fsum rounds the sum of all of them once.  The
    split is exact where |w_i| is 0 or at least 2**-485.  A smaller square
    is off by at most 2**-1074, under 2**-61 of the sum's ulp, which can
    change the rounding only where the rest of the sum lies that close to a
    midpoint.  Outside that range a Dekker product or one of fsum's partial
    sums could overflow, or the squares are subnormal, so the sum is taken
    in exact rationals instead.  No BLAS kernel is involved, so the value is
    the same on every machine.  NaN where a coordinate is NaN.
    """
    squares = [a * a for a in w]
    total = sum(squares)
    if _SQUARES_MIN <= total < _SQUARES_MAX:
        terms = []
        for a, p in zip(w, squares):
            t = a * _SPLIT
            hi = t - (t - a)
            lo = a - hi
            terms += (p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo)
        return math.fsum(terms)
    if total != total:
        return total
    from fractions import Fraction  # here, off the start-up path: only this branch needs it

    try:
        return float(sum(Fraction(a) ** 2 for a in w))
    except OverflowError:  # the sum, or a coordinate, is infinite
        return math.inf


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


LMO = Callable[[tuple[float, ...]], tuple[float, ...]]
"""Maps a direction w, a tuple of floats, to an atom s minimizing <w, s> over the set, as one."""


@dataclass
class ProjectionResult:
    point: Array
    certified_eps: float
    iterations: int
    converged: bool = True


class SetDescription:
    """A set kind: a subclass with dim and residual(x), <= 0 exactly on the set.

    It overrides project(x), which returns a member as a copy, when it has a
    closed form, lmo() when it has a bounded LMO, and certified_project(x,
    cfg) when its certified projection is not the closed form's.  Points are
    checked by point_of first.  feas_tol is the residual an initial point may
    have.
    """

    feas_tol = 1e-12

    def certified_project(self, x, cfg) -> ProjectionResult:
        """The closed form at certificate 0: exact_project checks x and copies a member."""
        return ProjectionResult(exact_project(self, x), 0.0, 0, True)  # positional: it is hot

    def project(self, x: Array) -> Array:
        raise UnsupportedKind(f"no closed-form projection for {type(self).__name__}")

    def lmo(self) -> LMO:
        raise UnsupportedKind(f"no bounded linear-minimization oracle for {type(self).__name__}")


@dataclass(frozen=True)
class Halfspace(SetDescription):
    """{x : <normal, x> >= offset}, stored with both sides scaled by one power of two.

    The scale 2**k puts the largest |normal_i| in [1, 2), so normal.normal
    is never subnormal or infinite.  Scaling by a power of two is exact, and
    a normal already in that range, such as a unit one, is stored as is.
    """

    normal: Array
    offset: float

    def __post_init__(self):
        normal = as_vec(self.normal)
        if not any(normal.tolist()):  # -0.0 is falsy, as in normal.any()
            raise ValueError("halfspace normal must be nonzero")
        if not math.isfinite(self.offset):
            raise ValueError("halfspace offset must be finite")
        k = 1 + scale_exponent(normal)  # 2**k max |normal_i| lies in [1, 2)
        try:
            offset = math.ldexp(self.offset, k)
        except OverflowError:
            raise ValueError(
                f"halfspace offset {self.offset} is not finite once scaled by 2**{k}"
            ) from None
        object.__setattr__(self, "normal", np.ldexp(normal, k) if k else normal)
        object.__setattr__(self, "offset", offset)

    dim = property(lambda self: self.normal.shape[0])

    def project(self, x: Array) -> Array:
        gap = self.offset - float(self.normal.dot(x))
        if gap <= 0.0:
            return x.copy()
        return x + (gap / float(self.normal.dot(self.normal))) * self.normal

    def residual(self, x: Array) -> float:
        return (self.offset - float(self.normal.dot(x))) / norm(self.normal)


@dataclass(frozen=True)
class Ball(SetDescription):
    center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec(self.center))
        if not 0.0 < self.radius < math.inf:
            raise ValueError("ball radius must be positive and finite")

    dim = property(lambda self: self.center.shape[0])

    def project(self, x: Array) -> Array:
        """The radial projection; where ||x - center||^2 overflows, of x - center scaled by 2**k."""
        v = x - self.center
        r = norm(v)
        if r <= self.radius:
            return x.copy()
        if r == math.inf:  # v.v overflowed: test and project 2**k v, its largest |v_i| in [0.5, 1)
            k = scale_exponent(v)  # 0 when v is not finite
            v = np.ldexp(v, k)
            r = norm(v)
            if r <= math.ldexp(self.radius, k):
                return x.copy()
        return self.center + (self.radius / r) * v

    def residual(self, x: Array) -> float:
        return norm(x - self.center) - self.radius

    def lmo(self) -> LMO:
        """c - (radius / ||w||) w, and the centre for w = 0, on floats.

        ||w|| is the square root of sum_of_squares(w), correctly rounded, so
        each atom has the same bits on every machine.  Only where that sum
        overflows is w first scaled by 2**scale_exponent(w), as project
        scales.  Frank-Wolfe on a disk computes this atom inline and calls
        the closure only for its start atom and for the directions whose
        plain sum of squares lies outside [2**-960, 2**1000).
        """
        c = tuple(self.center.tolist())
        radius = float(self.radius)

        def lmo(w: tuple[float, ...]) -> tuple[float, ...]:
            nw = math.sqrt(sum_of_squares(w))
            if nw == 0.0:
                return c
            if nw == math.inf:
                e = scale_exponent(w)
                w = [math.ldexp(a, e) for a in w]
                nw = math.sqrt(sum_of_squares(w))
            k = radius / nw
            return tuple([ci - k * wi for ci, wi in zip(c, w, strict=True)])

        return lmo


@dataclass(frozen=True)
class Box(SetDescription):
    lo: Array
    hi: Array

    def __post_init__(self):
        lo, hi = as_vec(self.lo), as_vec(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape:
            raise ValueError(f"box lo has dimension {lo.shape[0]}, hi has {hi.shape[0]}")
        # finite coordinates compare the same as Python floats, without numpy's dispatch
        if any(map(operator.gt, lo.tolist(), hi.tolist())):
            raise ValueError("box requires lo <= hi componentwise")

    dim = property(lambda self: self.lo.shape[0])

    def project(self, x: Array) -> Array:
        """np.clip(x, lo, hi)'s bits, signed zeros included, without its Python wrapper."""
        return np.minimum(np.maximum(x, self.lo), self.hi)

    def residual(self, x: Array) -> float:
        return float(np.maximum(self.lo - x, x - self.hi).max())

    def lmo(self) -> LMO:
        """lo_i where w_i > 0, else hi_i, chosen on floats.

        Ties (w_i == 0, either sign of zero) and NaN resolve to hi for determinism.
        """
        lo, hi = self.lo.tolist(), self.hi.tolist()

        def lmo(w: tuple[float, ...]) -> tuple[float, ...]:
            return tuple([l if wi > 0.0 else h for wi, l, h in zip(w, lo, hi, strict=True)])

        return lmo


@dataclass(frozen=True)
class Sublevel(SetDescription):
    """{x : fn(x) <= level} for a convex fn, with a strictly feasible anchor.

    The Slater point anchors feasibility restoration in the projection
    oracles; construction rejects a level that is not finite and anchors
    that are not strictly feasible.  It has no closed-form projection and no
    LMO: its certified projection is the cutting planes'.
    """

    fn: ConvexFnOracle
    level: float
    slater: Array

    feas_tol = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "slater", as_vec(self.slater))
        if not math.isfinite(self.level):
            raise ValueError(f"sublevel level must be finite, got {self.level}")
        if not self.fn.eval(self.slater) < self.level:
            raise ValueError("slater point must satisfy fn(slater) < level strictly")

    dim = property(lambda self: self.slater.shape[0])

    def certified_project(self, x, cfg) -> ProjectionResult:
        """Cutting planes, called through the oracles module so that a wrapper there sees it."""
        return oracles.cutting_plane_project(self, point_of(self, x), cfg)

    def residual(self, x: Array) -> float:
        return self.fn.eval(x) - self.level


@dataclass(frozen=True)
class MovingSet:
    """t -> C(t) together with its Hausdorff Lipschitz constant, finite and >= 0."""

    at: Callable[[float], SetDescription]
    lipschitz: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.lipschitz < math.inf:
            raise ValueError(f"lipschitz must be finite and >= 0, got {self.lipschitz}")

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
    d = s.dim
    if x.shape[0] != d:
        raise ValueError(f"point has dimension {x.shape[0]}, set has {d}")
    return x


def exact_project(s: SetDescription, x) -> Array:
    """Nearest point in s for a kind with a closed form; a member comes back as a copy.

    Raises UnsupportedKind for sublevel sets, whose certified_project runs
    the cutting planes instead.
    """
    return s.project(point_of(s, x))


def residual(s: SetDescription, x) -> float:
    """Feasibility measure: <= 0 exactly when x is in the set."""
    return s.residual(point_of(s, x))


def distance(s: SetDescription, x) -> float:
    """d_s(x) as ||x - z||, for the point z that approx_project certifies at DISTANCE_EPS.

    Exact for the closed-form kinds, whose certificate is 0.  For sublevel
    sets the value is a certified *upper bound*: the norm gap to a feasible
    point of the cutting-plane oracle (0 for a member).  approx_project
    checks x.  Raises ProjectionFailed when the oracle cannot reach
    DISTANCE_EPS or z is not finite; a finite z whose squared distance
    overflows gives inf, as np.linalg.norm does.
    """
    res = oracles.approx_project(s, x, oracles.ProjectorConfig(eps=DISTANCE_EPS))
    if not res.converged:
        raise oracles.ProjectionFailed(
            f"distance: certificate {res.certified_eps:.3e} exceeds eps {DISTANCE_EPS:.3e}"
        )
    d = norm(x - res.point)
    if not math.isfinite(d) and not np.isfinite(res.point).all():  # finite x: z is not finite
        raise oracles.ProjectionFailed(f"distance: projection {res.point.tolist()} is not finite")
    return d


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


# oracles imports this module's names at its top, so it is bound here, once
# they are all defined: Sublevel's route and distance reach it at call time
from . import oracles  # noqa: E402
