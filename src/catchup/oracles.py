"""Certified approximate-projection oracles.

Every routine returns a feasible point z of the target set together with a
certificate eps_hat such that ||x - z||^2 <= d_C(x)^2 + eps_hat.  Three
strategies: wrapping the closed-form projection (certificate 0), Frank-Wolfe
over a linear-minimization oracle (certificate = final duality gap), and a
cutting-plane scheme driven by the separation oracle of a sublevel set
(certificate = best feasible value minus a lower bound on d_C(x)^2).  Under
"auto" the set's kind picks the route: approx_project returns its
certified_project, the closed form on the base class and the cutting planes
on a sublevel set.  The cutting-plane lower bound is the larger of two.  One is the distance to the
outer polyhedron, Lawson & Hanson's least-distance program solved by their
finite NNLS active-set method, so it is exact up to rounding.  The other is
the distance to the supporting halfspace at a restored boundary point, as in
Veinott's supporting-hyperplane method; it only bounds and never cuts, so
the iterates are Kelley's and the loop can only stop earlier.  Each outer
projection w is made feasible at the root of the convex function
phi(t) = g(w + t (slater - w)) - level, bracketed by Newton steps from the
infeasible end and secant steps through the bracket, which shrink it
superlinearly down to a few ulps of |w|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, index, mul, sub
from typing import Optional

import numpy as np

from .geometry import (
    _SPLIT,
    _SQUARES_MAX,
    _SQUARES_MIN,
    LMO,
    Array,
    Ball,
    ProjectionResult,
    SetDescription,
    Sublevel,
    as_vec,
    norm,
    point_of,
    residual,
    scale_exponent,
)

METHODS = ("auto", "fw")
_EPS = float(np.finfo(float).eps)


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
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        try:
            index(self.max_iter)  # an int or numpy integer, not a float
        except TypeError:
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}") from None
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown projection method {self.method!r}, expected one of {METHODS}")


@dataclass
class Hyperplane:
    """All members y of the set satisfy <normal, y> <= offset.

    violation is g(x) - level > 0 at the separated point x, as evaluated.
    """

    normal: Array
    offset: float
    violation: float


# ---------------------------------------------------------------------------
# Frank-Wolfe projection


def lmo_for(s: SetDescription) -> LMO:
    """s's LMO; UnsupportedKind for a kind without a bounded one."""
    return s.lmo()


def frank_wolfe_project(s: SetDescription, x, cfg: ProjectorConfig) -> ProjectionResult:
    """Minimize ||x - z||^2 over s, a compact convex set with an LMO.

    Exact line search on the quadratic; stops when the duality gap
    g = 2 <z - x, z - s> drops to cfg.eps.  Convexity gives
    f(z) - min f <= g, so the final gap certifies z as an approximate
    projection.  Iterates stay feasible because each update is a convex
    combination of feasible points.  x is a 1-d float array that has
    already been checked.  The LMO, lmo_for(s), is handed the direction
    2 (z - x) as a tuple of floats and returns its atom as one; the start
    atom is lmo((1.0,) * d), independent of x.

    The loop runs on Python floats and calls no numpy before it returns.
    Each element-wise step is one IEEE operation, and each inner product is
    a plain sum of rounded products, left to right from the first, so every
    iterate has the same bits on every machine; a BLAS dot would hand them
    to whichever kernel numpy picked, which may or may not fuse a
    multiply-add.  One numerator num = <z - x, z - s> gives both the gap,
    num + num, and the step tau = num / |z - s|^2.  On a disk (a Ball in the
    plane) the loop inlines the ball's atom, with the LMO's bits, and calls the
    LMO only for the start atom and where a direction's plain sum of squares
    is outside [2**-960, 2**1000); any other set, a 2-d box too, takes the general loop.

    tau is capped at 1.0, and the loop stops, unconverged, at a step that is
    not above 0.0 (negative, -0.0, -inf or NaN, as when the products
    overflow): z would not move, so no later iteration could do better.  The
    test reads "not tau > 0.0" rather than "tau < 0.0": every comparison
    with NaN is False, so the latter would let a NaN step through.  It also
    stops, unconverged, when |z - s|^2 underflows to 0 while the gap still
    exceeds cfg.eps.
    """
    lmo = lmo_for(s)
    start = lmo((1.0,) * x.shape[0])
    eps = cfg.eps
    gap = math.inf
    if type(s) is Ball and len(start) == 2:
        x0, x1 = x.tolist()
        z0, z1 = start
        (c0, c1), radius = s.center.tolist(), float(s.radius)
        sqrt, fsum, split, lower, upper = math.sqrt, math.fsum, _SPLIT, _SQUARES_MIN, _SQUARES_MAX
        for it in range(cfg.max_iter):
            v0 = z0 - x0
            v1 = z1 - x1
            w0 = v0 + v0
            w1 = v1 + v1
            p0 = w0 * w0
            p1 = w1 * w1
            if lower <= p0 + p1 < upper:  # the ball's atom, sum_of_squares((w0, w1)) inline
                t = w0 * split
                h0 = t - (t - w0)
                l0 = w0 - h0
                t = w1 * split
                h1 = t - (t - w1)
                l1 = w1 - h1
                k = radius / sqrt(fsum((p0, ((h0 * h0 - p0) + 2.0 * h0 * l0) + l0 * l0,
                                        p1, ((h1 * h1 - p1) + 2.0 * h1 * l1) + l1 * l1)))
                zs0 = z0 - (c0 - k * w0)
                zs1 = z1 - (c1 - k * w1)
            else:  # zero, tiny, large, inf or NaN
                s0, s1 = lmo((w0, w1))
                zs0, zs1 = z0 - s0, z1 - s1
            num = v0 * zs0 + v1 * zs1
            gap = num + num
            if gap <= eps:
                return ProjectionResult(np.array((z0, z1)), max(gap, 0.0), it, converged=True)
            denom = zs0 * zs0 + zs1 * zs1
            if denom == 0.0:
                return ProjectionResult(np.array((z0, z1)), max(gap, 0.0), it, converged=False)
            tau = num / denom
            if tau > 1.0:
                tau = 1.0
            elif not tau > 0.0:  # not tau < 0.0, which lets NaN through
                return ProjectionResult(np.array((z0, z1)), max(gap, 0.0), it, converged=False)
            z0 = z0 - tau * zs0
            z1 = z1 - tau * zs1
        return ProjectionResult(np.array((z0, z1)), max(gap, 0.0), cfg.max_iter, converged=False)
    xs = x.tolist()
    z = list(start)
    for it in range(cfg.max_iter):
        v = list(map(sub, z, xs))
        zs = list(map(sub, z, lmo(tuple(map(add, v, v)))))
        num = reduce(add, map(mul, v, zs))  # seeded by the first product, as in the plane
        gap = num + num
        if gap <= eps:
            return ProjectionResult(np.array(z), max(gap, 0.0), it, converged=True)
        denom = reduce(add, map(mul, zs, zs))
        if denom == 0.0:
            return ProjectionResult(np.array(z), max(gap, 0.0), it, converged=False)
        tau = num / denom
        if tau > 1.0:
            tau = 1.0
        elif not tau > 0.0:  # not tau < 0.0, which lets NaN through
            return ProjectionResult(np.array(z), max(gap, 0.0), it, converged=False)
        z = [a - tau * b for a, b in zip(z, zs)]
    return ProjectionResult(np.array(z), max(gap, 0.0), cfg.max_iter, converged=False)


# ---------------------------------------------------------------------------
# separation oracle and cutting planes


def separation_oracle(s: Sublevel, x) -> Optional[Hyperplane]:
    """Membership check, or a hyperplane separating x from the sublevel set.

    Returns None when x is a member.  Otherwise the subgradient inequality
    gives <g', x - y> >= g(x) - g(y) >= g(x) - level > 0 for every member y,
    so the cut <g', y> <= <g', x> - (g(x) - level) keeps the set and
    excludes x.  x is a 1-d float array that has already been checked.
    """
    viol = s.fn.eval(x) - s.level
    if viol <= 0.0:
        return None
    g = as_vec(s.fn.subgrad(x))
    if norm(g) == 0.0:
        raise ZeroSubgradient("zero subgradient at an infeasible point")
    return Hyperplane(normal=g, offset=float(g.dot(x)) - viol, violation=viol)


def _project_polyhedron(cuts_a: list[Array], cuts_b: list[float], x: Array) -> Array:
    """Nearest point to x in the intersection of one or more halfspaces <a_i, y> <= b_i, exactly.

    y = x - r[:d] / r[d] for the residual r = E u - f of the NNLS min ||E u - f||,
    u >= 0, E = -[A^T; (b - A x)^T], f = e_{d+1}: Lawson & Hanson's least-distance
    program (1974, ch. 23).  The NNLS stops only when no cut outside its passive
    set is violated at y beyond rounding.  Raises ProjectionFailed on r = 0, an
    NNLS cycle or a LinAlgError, and on a b - A x that is not finite or a
    column of E whose norm is 0 or overflows, before LAPACK sees it: its
    argument check would print to standard output, and a column divided by an
    infinite norm would drop its cut.
    """
    a = np.array(cuts_a)
    b = np.array(cuts_b, dtype=float)
    m, d = a.shape
    with np.errstate(over="ignore", invalid="ignore"):
        slack = b - a @ x
    if not np.isfinite(slack).all():
        raise ProjectionFailed(f"least-distance NNLS on {m} cuts: b - A x is not finite")
    e = -np.vstack([a.T, slack])
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(e, axis=0)
    bad = np.flatnonzero((scale == 0.0) | (scale == math.inf))
    if bad.size:
        raise ProjectionFailed(
            f"least-distance NNLS on {m} cuts: column {bad[0]} of E has norm {scale[bad[0]]}"
        )
    e /= scale  # scaling u_i leaves r unchanged
    f = np.eye(d + 1)[d]
    u = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    dropped = np.zeros(m, dtype=bool)  # entered, then left at once: w_t = 0 up to rounding
    try:
        for _ in range(3 * m + 1):
            dual = np.where(passive | dropped, -np.inf, e.T @ (f - e @ u))
            t = int(np.argmax(dual))
            if dual[t] <= (m + d + 1) * _EPS * (1.0 + u.sum()):  # dual's rounding
                ep = e[:, passive]
                # the complement of the passive columns at their numerical rank, by
                # matrix_rank's tolerance: nearly parallel cuts can make them dependent
                basis, sigma = np.linalg.svd(ep)[:2]
                q = basis[:, int((sigma > sigma.max(initial=0.0) * max(ep.shape) * _EPS).sum()):]
                if not q[d].any():  # r = -q q^T f, free of the cancellation in E u - f
                    raise ProjectionFailed("cutting planes have an empty intersection")
                y = x - (q[:d] @ q[d]) / (q[d] @ q[d])
                # dual_t is cut t's violation at y times r_d / ||E_t||, so the dual's
                # rounding can hide a violation that y itself shows
                viol = np.where(passive | dropped, -np.inf, a @ y - b)
                t = int(np.argmax(viol))
                # the least-distance program resolves y to rounding of 1 + ||x|| + ||x - y||
                reach = 1.0 + norm(x) + norm(x - y)
                if viol[t] <= (m + d + 1) * _EPS * (norm(a[t]) * reach + abs(b[t])):
                    return y
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
    except np.linalg.LinAlgError as exc:
        raise ProjectionFailed(f"least-distance NNLS on {m} cuts: {exc}") from exc
    raise ProjectionFailed(f"least-distance NNLS did not terminate on {m} cuts")


def _restore_feasibility(
    s: Sublevel, w: Array, viol: float, grad: Array
) -> tuple[Array, float]:
    """Walk from an infeasible w toward the Slater anchor to a feasible boundary point.

    Finds the root of the convex phi(t) = g(w + t (slater - w)) - level, with
    phi(0) = viol > 0 > phi(1), from viol and a subgradient grad at w.  Each
    round takes a Newton step from the infeasible end lo; unless that step
    alone halved the bracket, it then takes a secant step through the
    bracket, and a bisection step when the round still did not halve it.
    Far from the root the secant through the Slater end barely moves, while
    each Newton step halves the distance on a quadratic phi.  The tangent is
    a minorant of phi, so the Newton point lies at or below the root; the
    chord is a majorant, so the secant point lies at or above it.  The
    search stops when the bracket spans a few ulps of |w|, when no float
    lies inside it, or when a Newton point lands on the feasible side or
    within that width of hi, which leaves only the step's rounding between
    hi and the root.  hi moves only to a point whose residual was evaluated
    <= 0, so the returned point p satisfies fn(p) <= level as evaluated.
    Returns p and that residual, fn(p) - level.

    Each probe evaluates fn(p) - level directly: it is the value residual
    gives, without residual's dimension and finiteness checks and its call
    through the set's kind, which cost more than the evaluation on a
    point the walk built itself.  One check on entry keeps every probe
    finite.  w is finite, and for 0 < t < 1 the product t seg lies between 0
    and seg, so rounding (which is monotone) keeps fl(t seg) there too; each
    coordinate of a probe w + t seg then lies between those of w and of
    w + seg, and is finite when w + seg is.  When w + seg is not finite
    (slater - w overflowed, or its sum with w did), the Slater end itself is
    returned at once.  as_vec makes the test, for a third of the cost of
    np.isfinite(...).all().

    The walk stops when the bracket is narrower than 4 eps |w| / |seg|.
    When w.w overflows, or seg.seg underflows to 0 or overflows, that ratio
    is formed from w and seg both scaled by the power of two that takes the
    largest |seg_i| into [0.5, 1), which leaves every other stop's bits as
    they were.
    """
    fn, level = s.fn, s.level
    seg = s.slater - w
    f_slater = fn.eval(s.slater) - level  # < 0: Sublevel checks it
    try:
        as_vec(w + seg)  # its test: one float sum, elementwise only when the sum is not finite
    except ValueError:
        return s.slater.copy(), f_slater
    n_w, n_seg = norm(w), norm(seg)
    if 0.0 < n_seg < math.inf and n_w < math.inf:
        stop = 4.0 * _EPS * n_w / n_seg
    else:  # w.w or seg.seg overflowed, or seg.seg underflowed: scale both by 2**k
        k = scale_exponent(seg)
        with np.errstate(over="ignore"):  # 2**k w overflows only when all of seg is below w's ulp
            stop = 4.0 * _EPS * norm(np.ldexp(w, k)) / norm(np.ldexp(seg, k))
    lo, f_lo, slope = 0.0, viol, float(grad.dot(seg))
    hi, f_hi, hi_point = 1.0, f_slater, s.slater.copy()

    def probe(t: float) -> bool:
        """Move the end of the bracket that t falls on; True when hi moved."""
        nonlocal lo, f_lo, slope, hi, f_hi, hi_point
        if not (hi - lo > stop and lo < t < hi):
            return False
        p = w + t * seg
        r = fn.eval(p) - level
        if r <= 0.0:
            hi, f_hi, hi_point = t, r, p
            return True
        lo, f_lo, slope = t, r, float(as_vec(fn.subgrad(p)).dot(seg))
        return False

    while hi - lo > stop:
        width = hi - lo
        if slope < 0.0:
            t = lo - f_lo / slope
            if t >= hi - stop or probe(t):
                break
        if hi - lo <= 0.5 * width:  # the Newton step alone halved the bracket
            continue
        probe(max(lo + f_lo * ((hi - lo) / (f_lo - f_hi)), lo + 0.5 * stop))
        if hi - lo > 0.5 * width:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            probe(mid)
    return hi_point, f_hi


def cutting_plane_project(s: Sublevel, x, cfg: ProjectorConfig) -> ProjectionResult:
    """Projection onto a sublevel set via accumulated separation cuts.

    An outer polyhedron O (intersection of cuts) always contains the set, so
    ||x - proj_O(x)||^2 is a valid lower bound on d^2; proj_O is computed
    exactly (up to rounding) by _project_polyhedron.  Each outer projection
    is restored to feasibility along the Slater segment, to a point p with
    r = g(p) - level <= 0 as evaluated.  With n a subgradient at p, the set
    lies in the supporting halfspace H_p = {y : <n, y - p> <= -r}, so
    max(0, <n, x - p> + r)^2 / ||n||^2 is a second lower bound; a zero n
    gives none.  The certificate is the gap between the best feasible value
    and the larger of the polyhedral bound and the best supporting bound.
    H_p is not added to the cuts: the cuts alone pick the outer projections
    that the restore walks from, and with H_p among them the loop took more
    iterations, not fewer.  Used only as a bound, it leaves the iterates and
    the best point as they were and can only end the loop earlier.

    A restored point replaces the best one only when its value is lower by
    more than the value's own rounding, (d + 2) eps val: eps for each of x - p,
    its square and d - 1 sums.  Once successive outer projections differ only
    in rounding, so do their restored values, and the earlier point is kept.

    x is a 1-d float array that has already been checked.  The separation
    oracle at x is the membership test, and a member comes back as a copy;
    otherwise its cut is the first, at the outer projection x itself.  The
    restore evaluates g directly at each point of its walk and checks the
    Slater segment once per call (see _restore_feasibility), so no residual
    call re-checks a point built here.  x - w and x - p are each formed once.

    Overflow fails loudly, never into a certificate.  The first restored
    point is kept even when its value ||x - p||^2 overflows, so a finite
    feasible point always comes back.  When h * h / ||n||^2 overflows, the
    bound is formed as (h / ||n||)^2 instead, which leaves every finite
    bound's bits as they were.  When the lower bound itself reads inf,
    d_C(x)^2 overflows and no value can be certified: the best point comes
    back at once with certificate inf and converged False, and so it does
    before adding a cut whose offset is not finite, as when g(w) overflows.
    """
    cut = separation_oracle(s, x)
    if cut is None:
        return ProjectionResult(x.copy(), 0.0, 0, converged=True)

    keep = 1.0 - (x.shape[0] + 2) * _EPS
    cuts_a: list[Array] = []
    cuts_b: list[float] = []
    best_p: Optional[Array] = None
    best_val = np.inf
    lower = support = 0.0
    w = x
    for it in range(cfg.max_iter):
        if it:
            w = _project_polyhedron(cuts_a, cuts_b, x)
            cut = separation_oracle(s, w)
        xw = x - w
        lower = float(xw.dot(xw))
        if cut is None:
            best_p, best_val = w, lower
        else:
            p, r = _restore_feasibility(s, w, cut.violation, cut.normal)
            xp = x - p
            val = float(xp.dot(xp))
            if val < best_val * keep or best_p is None:  # the first point, even at val = inf
                best_p, best_val = p, val
            n = as_vec(s.fn.subgrad(p))
            nn = float(n.dot(n))
            h = float(n.dot(xp)) + r
            if nn > 0.0 and h > 0.0:
                bound = h * h / nn
                if bound == math.inf:  # h * h overflowed, or nn is tiny: scale first
                    bound = h / math.sqrt(nn)
                    bound *= bound
                support = max(support, bound)
        lower = max(lower, support)
        if lower == math.inf:  # d(x, C)^2 overflows, and so does every feasible value
            return ProjectionResult(best_p, math.inf, it + 1, converged=False)
        cert = max(best_val - lower, 0.0)
        if cert <= cfg.eps:  # always taken when cut is None: then best_val = lower
            return ProjectionResult(best_p, cert, it + 1, converged=True)
        if not math.isfinite(cut.offset):  # g(w) overflowed: no cut to add, no bound to gain
            return ProjectionResult(best_p, math.inf, it + 1, converged=False)
        cuts_a.append(cut.normal)
        cuts_b.append(cut.offset)
    return ProjectionResult(best_p, max(best_val - lower, 0.0), cfg.max_iter, converged=False)


# ---------------------------------------------------------------------------
# dispatch


def approx_project(s: SetDescription, x, cfg: ProjectorConfig | None = None) -> ProjectionResult:
    """Certified epsilon-projection of x onto s; a member comes back as a copy.

    Each route checks x once.  Under cfg.method "auto" the set's kind picks
    the route: s.certified_project(x, cfg).  A closed-form kind hands x to
    exact_project, which checks it and returns a member as a copy, so the
    closed form is also the membership test.  A sublevel set checks x and
    takes cutting planes, whose separation oracle at x is the membership
    test.  "fw" checks x here, tests membership with residual
    and runs Frank-Wolfe; on a set without a bounded LMO it raises
    UnsupportedKind, member or not.  A point whose dimension differs from
    the set's raises ValueError.  Callers that take ||x - z|| check that it
    is finite.
    """
    if cfg is None:
        cfg = ProjectorConfig()
    if cfg.method == "fw":
        x = point_of(s, x)
        if residual(s, x) <= 0.0:
            lmo_for(s)  # UnsupportedKind for a kind without a bounded LMO, member or not
            return ProjectionResult(x.copy(), 0.0, 0, converged=True)
        return frank_wolfe_project(s, x, cfg)
    return s.certified_project(x, cfg)
