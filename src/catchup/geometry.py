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


def scale_exponent(v: Array) -> int:
    """The k with 2**k max |v_i| in [0.5, 1): 0 when that maximum is 0 or not finite."""
    return -math.frexp(max(map(abs, v.tolist())))[1]


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


LMO = Callable[[Array], tuple[float, ...]]
"""Maps a direction w to an atom s minimizing <w, s> over the set, as a tuple of floats."""


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
        return lmo_ball(self.center, self.radius)


def lmo_ball(center, radius: float) -> LMO:
    """The ball's LMO: c - (radius / ||w||) w, and the centre for w = 0.

    Each coordinate is the same IEEE operation as the numpy expression, and
    ||w|| is one float64 dot; in the plane the closure is unrolled on floats.
    Only where w.w overflows is w first scaled by 2**scale_exponent(w), as
    Ball.project scales.
    """
    c = as_vec(center)
    radius = float(radius)
    inf = math.inf
    if c.shape[0] == 2:
        c0, c1 = c.tolist()

        def lmo2(w: Array) -> tuple[float, float]:
            nw = math.sqrt(w.dot(w))  # norm(w), inline on Frank-Wolfe's innermost call
            if nw == 0.0:
                return c0, c1
            if nw == inf:
                w = np.ldexp(w, scale_exponent(w))
                nw = norm(w)
            k = radius / nw
            w0, w1 = w.tolist()
            return c0 - k * w0, c1 - k * w1

        return lmo2

    def lmo(w: Array) -> tuple[float, ...]:
        nw = math.sqrt(w.dot(w))
        if nw == 0.0:
            return tuple(c.tolist())
        if nw == inf:
            w = np.ldexp(w, scale_exponent(w))
            nw = norm(w)
        return tuple((c - (radius / nw) * w).tolist())

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
        return lmo_box(self.lo, self.hi)


def lmo_box(lo, hi) -> LMO:
    """The box's LMO: lo_i where w_i > 0, else hi_i, chosen on floats.

    Ties (w_i == 0, either sign of zero) and NaN resolve to hi for determinism.
    """
    lo = as_vec(lo).tolist()
    hi = as_vec(hi).tolist()

    def lmo(w: Array) -> tuple[float, ...]:
        return tuple([l if wi > 0.0 else h for wi, l, h in zip(w.tolist(), lo, hi, strict=True)])

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
