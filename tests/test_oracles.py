import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catchup import geometry, oracles
from catchup.geometry import (
    Ball,
    ConvexFnOracle,
    Box,
    Halfspace,
    Sublevel,
    UnsupportedKind,
    affine_fn,
    ball_fn,
    exact_project,
    max_fn,
    residual,
)
from catchup.oracles import (
    ProjectionFailed,
    ProjectionResult,
    ProjectorConfig,
    _project_polyhedron,
    _restore_feasibility,
    approx_project,
    cutting_plane_project,
    frank_wolfe_project,
    separation_oracle,
)

UNIT_BALL = Ball([0.0, 0.0], 1.0)
DISK = Sublevel(ball_fn([0.0, 0.0], 1.0), 0.0, slater=[0.0, 0.0])
EPS = np.finfo(float).eps


class TestLinearMinimizationOracles:
    def test_ball_points_against_direction(self):
        s = UNIT_BALL.lmo()(np.array([1.0, 0.0]))
        assert np.allclose(s, [-1.0, 0.0])

    def test_ball_zero_direction_returns_center(self):
        assert np.allclose(UNIT_BALL.lmo()(np.zeros(2)), UNIT_BALL.center)

    def test_box_vertex(self):
        box = Box([0.0, 0.0], [2.0, 3.0])
        s = box.lmo()(np.array([-1.0, 1.0]))
        assert np.allclose(s, [2.0, 0.0])

    def test_box_ties_resolve_to_hi(self):
        # w_i = 0 of either sign picks hi; Frank-Wolfe's iterates on boxes rest on it
        s = Box([0.0, 0.0], [2.0, 3.0]).lmo()(np.array([0.0, -0.0]))
        assert list(s) == [2.0, 3.0]

    @pytest.mark.parametrize("w", [[1.0, -1.0], [1.0, -1.0, 0.0, 2.0]], ids=["shorter", "longer"])
    def test_box_rejects_direction_of_other_dimension(self, w):
        with pytest.raises(ValueError):
            Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]).lmo()(np.array(w))

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_ball_lmo_checks_its_radius_as_the_ball_does(self, radius):
        # radius -1 gave the atom (0.707, 0.707), which Frank-Wolfe certified at 0
        with pytest.raises(ValueError, match="^ball radius must be positive and finite$"):
            Ball([0.0, 0.0], radius).lmo()

    def test_ball_lmo_checks_its_centre_as_the_ball_does(self):
        with pytest.raises(ValueError, match="^point has non-finite coordinates$"):
            Ball([0.0, math.nan], 1.0).lmo()

    @pytest.mark.parametrize("lo, hi, message", [
        ([1.0], [0.0], "box requires lo <= hi componentwise"),
        ([0.0, 0.0], [1.0], "box lo has dimension 2, hi has 1"),
    ])
    def test_box_lmo_checks_its_ends_as_the_box_does(self, lo, hi, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Box(lo, hi).lmo()

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    @settings(max_examples=100, deadline=None)
    def test_lmo_optimality_on_ball(self, d):
        d = np.asarray(d, float)
        s = UNIT_BALL.lmo()(d)
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=2)
            v = UNIT_BALL.center + UNIT_BALL.radius * v / np.linalg.norm(v)
            assert float(np.dot(d, s)) <= float(np.dot(d, v)) + 1e-9


class TestFrankWolfe:
    def test_exterior_point_on_ball(self):
        cfg = ProjectorConfig(eps=1e-10)
        res = frank_wolfe_project(UNIT_BALL, np.array([2.0, 0.0]), cfg)
        assert res.converged
        assert np.linalg.norm(res.point - [1.0, 0.0]) <= 1e-5
        assert res.certified_eps <= 1e-10

    def test_certificate_sound_against_true_value(self):
        # certified_eps bounds ||x-z||^2 - d(x)^2 from above
        rng = np.random.default_rng(3)
        cfg = ProjectorConfig(eps=1e-8)
        for _ in range(25):
            x = rng.uniform(-3, 3, size=2)
            res = frank_wolfe_project(UNIT_BALL, x, cfg)
            d_true = max(np.linalg.norm(x - UNIT_BALL.center) - UNIT_BALL.radius, 0.0)
            gap = float(np.dot(x - res.point, x - res.point)) - d_true * d_true
            assert gap <= res.certified_eps + 1e-12

    def test_result_is_feasible(self):
        cfg = ProjectorConfig(eps=1e-8)
        res = frank_wolfe_project(UNIT_BALL, np.array([5.0, -4.0]), cfg)
        assert residual(UNIT_BALL, res.point) <= UNIT_BALL.feas_tol

    def test_iteration_cap_reported(self):
        cfg = ProjectorConfig(eps=1e-16, max_iter=2)
        res = frank_wolfe_project(UNIT_BALL, np.array([2.0, 1.0]), cfg)
        assert not res.converged
        assert res.iterations == 2


def _exact_sum_of_squares(w):
    """The sum of w_i**2 in rationals, rounded once: inf where it overflows, NaN on a NaN."""
    if any(a != a for a in w):
        return math.nan
    try:
        return float(sum(Fraction(a) ** 2 for a in w))
    except OverflowError:
        return math.inf


def _reference_ball_atom(c, radius, w):
    """c - (radius / ||w||) w on floats, with ||w|| from the exact sum of squares, and c for w = 0.

    Where ||w||^2 overflows, w is first scaled by the power of two that
    takes its largest |w_i| into [0.5, 1).
    """
    nw = math.sqrt(_exact_sum_of_squares(w))
    if nw == 0.0:
        return tuple(c)
    if nw == math.inf:
        k = -math.frexp(max(abs(a) for a in w))[1]
        w = [math.ldexp(a, k) for a in w]
        nw = math.sqrt(_exact_sum_of_squares(w))
    return tuple(ci - (radius / nw) * wi for ci, wi in zip(c, w))


def _reference_lmo_ball(center, radius):
    """Reference ball LMO, with the exact sum of squares."""
    c = [float(a) for a in center]
    return lambda w: _reference_ball_atom(c, float(radius), w)


def _reference_lmo_box(lo, hi):
    """Reference box LMO, with np.where."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def lmo(w):
        return tuple(np.where(np.array(w) > 0.0, lo, hi).tolist())

    return lmo


def _dot(a, b):
    """<a, b> as a plain float sum, left to right from the first product."""
    total = a[0] * b[0]
    for p, q in zip(a[1:], b[1:]):
        total += p * q
    return total


def _reference_frank_wolfe(lmo, x, cfg):
    """Reference Frank-Wolfe loop: the textbook iteration, every quantity recomputed."""
    x = [float(a) for a in x]
    z = list(lmo((1.0,) * len(x)))
    gap = math.inf
    for it in range(cfg.max_iter):
        grad = [2.0 * (a - b) for a, b in zip(z, x)]
        s = lmo(tuple(grad))
        dz = [a - b for a, b in zip(s, z)]
        num = _dot([a - b for a, b in zip(x, z)], dz)
        gap = 2.0 * num
        if gap <= cfg.eps:
            return ProjectionResult(np.array(z), max(gap, 0.0), it, converged=True)
        denom = _dot(dz, dz)
        if denom == 0.0:
            return ProjectionResult(np.array(z), max(gap, 0.0), it, converged=False)
        tau = num / denom
        if not tau > 0.0:  # z cannot move: stop
            return ProjectionResult(np.array(z), max(gap, 0.0), it, converged=False)
        z = [a + min(1.0, tau) * b for a, b in zip(z, dz)]
    return ProjectionResult(np.array(z), max(gap, 0.0), cfg.max_iter, converged=False)


@st.composite
def fw_cases(draw):
    """A ball or a box in d = 1..4, a point anywhere, eps in [1e-12, 1e-4]."""
    d = draw(st.integers(1, 4))
    coords = st.lists(st.floats(-10, 10), min_size=d, max_size=d)
    if draw(st.booleans()):
        center = draw(coords)
        radius = draw(st.floats(1e-3, 10))
        sets = (Ball(center, radius), _reference_lmo_ball(center, radius))
    else:
        lo = np.array(draw(coords))
        hi = lo + np.array(draw(st.lists(st.floats(0, 10), min_size=d, max_size=d)))
        sets = (Box(lo, hi), _reference_lmo_box(lo, hi))
    x = np.array(draw(st.lists(st.floats(-20, 20), min_size=d, max_size=d)))
    cfg = ProjectorConfig(eps=draw(st.floats(1e-12, 1e-4)), max_iter=draw(st.integers(1, 2000)))
    return sets, x, cfg


class TestFrankWolfeMatchesReference:
    """The streamlined loop must reproduce the textbook one bit for bit."""

    # a subnormal gap: <2v, s - z> rounds differently from 2 <v, s - z>
    @example(((Box([0.0], [0.7]), _reference_lmo_box([0.0], [0.7])),
              np.array([5e-324]), ProjectorConfig(eps=1e-12)))
    # the same in the plane, where a box takes the general loop
    @example(((Box([0.0, 0.0], [0.7, 0.7]), _reference_lmo_box([0.0, 0.0], [0.7, 0.7])),
              np.array([5e-324, 5e-324]), ProjectorConfig(eps=1e-12)))
    # |s - z|^2 underflows to 0 while the gap exceeds eps: unconverged at iteration 0
    @example(((Box([0.0, 0.0], [1e-170, 1e-170]),
               _reference_lmo_box([0.0, 0.0], [1e-170, 1e-170])),
              np.array([1.0, 1.0]), ProjectorConfig(eps=1e-300)))
    # x is the start atom, so the LMO gets the zero direction
    @example(((Ball([0.0, 0.0], 1.0), _reference_lmo_ball([0.0, 0.0], 1.0)),
              np.array(Ball([0.0, 0.0], 1.0).lmo()((1.0, 1.0))), ProjectorConfig()))
    # the iteration cap
    @example(((Ball([0.0, 0.0], 1.0), _reference_lmo_ball([0.0, 0.0], 1.0)),
              np.array([2.0, 1.0]), ProjectorConfig(eps=1e-16, max_iter=1)))
    # subnormal directions and products v_i (z_i - s_i): ||w||^2 is summed in rationals
    @example(((Ball([0.0, 0.0], 1e-160), _reference_lmo_ball([0.0, 0.0], 1e-160)),
              np.array([3e-160, 1e-161]), ProjectorConfig(eps=5e-324)))
    # a zero product on the first iteration
    @example(((Box([0.0, 0.0], [1.0, 1.0]), _reference_lmo_box([0.0, 0.0], [1.0, 1.0])),
              np.array([0.5, 3.0]), ProjectorConfig(eps=1e-14)))
    # a subnormal product under a normal gap
    @example(((Ball([-1.6991220960498802e-152, -1.9453723039386034e-159], 1.4297704417806662e-152),
               _reference_lmo_ball([-1.6991220960498802e-152, -1.9453723039386034e-159], 1.4297704417806662e-152)),
              np.array([-1.2155261538884718e-152, 8.847370707222149e-159]), ProjectorConfig(eps=5e-324, max_iter=7)))
    @given(fw_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_iterates(self, case):
        (s, reference_lmo), x, cfg = case
        got = frank_wolfe_project(s, x, cfg)
        want = _reference_frank_wolfe(reference_lmo, x, cfg)
        assert np.array_equal(got.point, want.point)
        assert got.certified_eps == want.certified_eps
        assert got.iterations == want.iterations
        assert got.converged == want.converged

    def test_same_iterates_across_scales(self):
        # planar balls and boxes from 1e-160 to 1e150 and on the subnormal grid,
        # where products and squares round to subnormals or to 0
        rng = np.random.default_rng(18)
        for _ in range(1000):
            if rng.random() < 0.2:
                scale = 5e-324
                coords = lambda: scale * rng.integers(-64, 65, size=2).astype(float)
                width = lambda: scale * rng.integers(1, 65, size=2).astype(float)
            else:
                scale = 10.0 ** rng.uniform(-160, 150)
                coords = lambda: scale * rng.normal(size=2)
                width = lambda: scale * rng.uniform(0.1, 2.0, size=2)
            if rng.random() < 0.5:
                center, radius = coords(), float(width()[0])
                sets = (Ball(center, radius), _reference_lmo_ball(center, radius))
            else:
                lo = coords()
                hi = lo + width()
                sets = (Box(lo, hi), _reference_lmo_box(lo, hi))
            x = 4.0 * coords()
            eps = max(scale * scale * 10.0 ** rng.uniform(-10, -2), 5e-324)
            cfg = ProjectorConfig(eps=eps, max_iter=int(rng.integers(1, 40)))
            got = frank_wolfe_project(sets[0], x, cfg)
            want = _reference_frank_wolfe(sets[1], x, cfg)
            assert np.array_equal(got.point, want.point)
            assert got.certified_eps == want.certified_eps
            assert got.iterations == want.iterations
            assert got.converged == want.converged


def _generic_frank_wolfe(lmo, x, cfg):
    """The loop's form on Python floats: z - min(1, r) (z - s), stopping where r is not > 0."""
    x = [float(a) for a in x]
    z = list(lmo((1.0,) * len(x)))
    gap = math.inf
    for it in range(cfg.max_iter):
        v = [a - b for a, b in zip(z, x)]
        zs = [a - b for a, b in zip(z, lmo(tuple(a + a for a in v)))]
        num = _dot(v, zs)
        gap = num + num
        if gap <= cfg.eps:
            return ProjectionResult(np.array(z), max(gap, 0.0), it, converged=True)
        denom = _dot(zs, zs)
        if denom == 0.0:
            return ProjectionResult(np.array(z), max(gap, 0.0), it, converged=False)
        tau = num / denom
        if not tau > 0.0:
            return ProjectionResult(np.array(z), max(gap, 0.0), it, converged=False)
        z = [a - min(1.0, tau) * b for a, b in zip(z, zs)]
    return ProjectionResult(np.array(z), max(gap, 0.0), cfg.max_iter, converged=False)


def _bits(v: float) -> bytes:
    return np.float64(v).tobytes()


@st.composite
def fw_cases_at_any_scale(draw):
    """A ball or a box in d = 1..4 with any finite coordinates, so that dots can overflow."""
    d = draw(st.integers(1, 4))
    coords = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d)
    if draw(st.booleans()):
        center, radius = draw(coords), draw(st.floats(0.0, 1e308, exclude_min=True))
        sets = (Ball(center, radius), _reference_lmo_ball(center, radius))
    else:
        ends = list(zip(draw(coords), draw(coords)))
        lo, hi = [min(e) for e in ends], [max(e) for e in ends]
        sets = (Box(lo, hi), _reference_lmo_box(lo, hi))
    x = np.array(draw(coords))
    cfg = ProjectorConfig(eps=draw(st.floats(5e-324, 1e300)), max_iter=draw(st.integers(1, 50)))
    return sets, x, cfg


class TestFrankWolfeMatchesReferenceBytes:
    """Both loops match the generic loop's form byte for byte: signed zeros and NaN included.

    np.array_equal calls -0.0 equal to 0.0, so this class compares bytes.
    """

    @staticmethod
    def _check(case):
        (s, reference_lmo), x, cfg = case
        got = frank_wolfe_project(s, x, cfg)
        want = _generic_frank_wolfe(reference_lmo, x, cfg)
        assert got.point.tobytes() == want.point.tobytes()
        assert _bits(got.certified_eps) == _bits(want.certified_eps)
        assert got.iterations == want.iterations
        assert got.converged == want.converged

    # a coordinate pinned at -0.0: z + tau (s - z) would turn it into +0.0
    @example(((Box([-0.0, 1.0], [-0.0, 2.0]), _reference_lmo_box([-0.0, 1.0], [-0.0, 2.0])),
              np.array([-0.0, 5.0]), ProjectorConfig(eps=1e-12)))
    # <v, z - s> and |z - s|^2 both overflow at iteration 0: a NaN ratio stops the loop
    @example(((Ball([5.605212176551486e154, 2.504518145772393e153], 8.633905223186162e154),
               _reference_lmo_ball([5.605212176551486e154, 2.504518145772393e153], 8.633905223186162e154)),
              np.array([7.79517393694598e154, 1.2885715865266572e155]), ProjectorConfig()))
    # the same in three dimensions, through the generic loop
    @example(((Ball([5.605212176551486e154, 2.504518145772393e153, 0.0], 8.633905223186162e154),
               _reference_lmo_ball([5.605212176551486e154, 2.504518145772393e153, 0.0], 8.633905223186162e154)),
              np.array([7.79517393694598e154, 1.2885715865266572e155, 0.0]), ProjectorConfig()))
    # an inside point of a tiny disk: from iteration 4 on ||w||^2 falls under 2**-960,
    # so the disk loop hands each direction to the ball's LMO
    @example(((Ball([0.0, 0.0], 1e-140), _reference_lmo_ball([0.0, 0.0], 1e-140)),
              np.array([1e-141, 0.0]), ProjectorConfig(eps=5e-324)))
    # an infinite ratio at iteration 0 clamps to 1.0
    @example(((Box([6.149282387045291e153, 5.951009689730982e153],
                       [3.751852066556199e154, 1.7014162517462393e154]),
               _reference_lmo_box([6.149282387045291e153, 5.951009689730982e153],
                                  [3.751852066556199e154, 1.7014162517462393e154])),
              np.array([-2.3932111182176696e154, 3.335743331547268e154]), ProjectorConfig()))
    @given(fw_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_bytes(self, case):
        self._check(case)

    @given(fw_cases_at_any_scale())
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_at_any_scale(self, case):
        self._check(case)


class TestLmoAtoms:
    """Each LMO takes a tuple of floats and returns its atom as one, with the reference formula's bits."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("w", ["zero", "nonzero"])
    def test_atom_is_a_tuple_of_floats(self, d, w):
        w = (0.0,) * d if w == "zero" else tuple(np.linspace(-1.0, 2.0, d).tolist())
        for lmo in (Ball(np.arange(d, dtype=float), np.float64(1.5)).lmo(),
                    Ball(np.zeros(d), 2).lmo(), Box(-np.ones(d), np.ones(d)).lmo()):
            s = lmo(w)
            assert type(s) is tuple and len(s) == d
            assert all(type(c) is float for c in s)

    @given(st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=2),  # ||w||^2 stays finite
           st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
           st.floats(1e-3, 1e100))  # radius / ||w|| stays finite
    @example([0.0, 0.0], [1.0, -2.0], 3.0)
    @example([-0.0, 0.0], [0.0, 0.0], 1.0)
    @example([3e200, -4e200], [1.0, -2.0], 5.0)  # ||w||^2 overflows: the atom of w scaled by a power of two
    @example([1e-170, 3e-171], [1.0, -2.0], 5.0)  # subnormal squares
    @example([0.068, -0.57], [0.0, 0.0], 1.0)  # a plain sum of the squares gives another ||w||
    @settings(max_examples=300, deadline=None)
    def test_plane_ball_atom_is_the_reference_formula(self, w, center, radius):
        got = Ball(center, radius).lmo()(tuple(w))
        want = _reference_ball_atom(center, radius, w)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_ball_atom_when_w_squared_overflows(self, d):
        # the atom is c - radius w / ||w||, not the centre that an unscaled radius / ||w|| = 0 gives
        w = np.zeros(d)
        w[:2] = 3e200, -4e200
        with np.errstate(over="ignore"):
            atom = Ball(np.zeros(d), 5.0).lmo()(w)
        assert atom[:2] == pytest.approx((-3.0, 4.0), rel=4 * EPS)
        assert all(a == 0.0 for a in atom[2:])

    @given(st.lists(st.floats(allow_nan=False), min_size=2, max_size=2),
           st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
           st.lists(st.floats(0.0, 1e6), min_size=2, max_size=2))
    @example([0.0, -0.0], [0.0, 1.0], [2.0, 3.0])
    @example([-0.0, 0.0], [-1.0, 0.0], [0.0, 5.0])
    @settings(max_examples=300, deadline=None)
    def test_plane_box_atom_is_the_numpy_formula(self, w, lo, width):
        w = np.array(w)
        lo = np.array(lo)
        hi = lo + np.array(width)
        want = np.where(w > 0.0, lo, hi)
        assert np.array(Box(lo, hi).lmo()(w)).tobytes() == want.tobytes()


class TestSeparationOracle:
    def test_member_returns_none(self):
        assert separation_oracle(DISK, np.array([0.3, 0.4])) is None

    def test_cut_values_for_disk(self):
        # g(x) = x1^2 + x2^2 - 1 at x = (0, 2): g = 3, g' = (0, 4)
        # cut: <g', y> <= <g', x> - g(x)  =>  4 y2 <= 8 - 3 = 5
        h = separation_oracle(DISK, np.array([0.0, 2.0]))
        assert h is not None
        assert np.allclose(h.normal, [0.0, 4.0])
        assert h.offset == pytest.approx(5.0)

    def test_cut_separates(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=2)
            h = separation_oracle(DISK, x)
            if h is None:
                assert residual(DISK, x) <= DISK.feas_tol
                continue
            # x violates its own cut; every member satisfies it
            assert float(np.dot(h.normal, x)) > h.offset
            for _ in range(10):
                v = rng.normal(size=2)
                v = v / max(np.linalg.norm(v), 1.0)
                assert float(np.dot(h.normal, v)) <= h.offset + 1e-9


class TestCuttingPlane:
    def test_disk_exterior_point(self):
        cfg = ProjectorConfig(eps=1e-8)
        res = cutting_plane_project(DISK, np.array([0.0, 2.0]), cfg)
        assert res.converged
        assert res.certified_eps <= 1e-8
        assert np.linalg.norm(res.point - [0.0, 1.0]) <= 1e-4
        assert residual(DISK, res.point) <= DISK.feas_tol

    def test_box_as_sublevel_of_piecewise_affine(self):
        fns = [affine_fn([1.0, 0.0], 1.0), affine_fn([-1.0, 0.0], 1.0),
               affine_fn([0.0, 1.0], 1.0), affine_fn([0.0, -1.0], 1.0)]
        square = Sublevel(max_fn(fns), 0.0, slater=[0.0, 0.0])
        cfg = ProjectorConfig(eps=1e-10)
        res = cutting_plane_project(square, np.array([3.0, 0.0]), cfg)
        assert res.converged
        assert np.linalg.norm(res.point - [1.0, 0.0]) <= 1e-5

    def test_certificate_upper_bounds_excess(self):
        rng = np.random.default_rng(11)
        cfg = ProjectorConfig(eps=1e-6)
        for _ in range(30):
            x = rng.uniform(-3, 3, size=2)
            res = cutting_plane_project(DISK, x, cfg)
            d_true = max(np.linalg.norm(x) - 1.0, 0.0)
            gap = float(np.dot(x - res.point, x - res.point)) - d_true * d_true
            assert gap <= res.certified_eps + 1e-10

    def test_batch_accuracy_on_turned_disk(self):
        # criterion 2's points, turned: with an exact restore every restored
        # point lies on the circle, so what is left is the angular rounding of
        # the outer projections, which the best-point tie rule keeps out
        rng = np.random.default_rng(7)
        points = []
        while len(points) < 100:
            x = rng.uniform(-4, 4, size=2)
            if np.linalg.norm(x) > 1.2:
                points.append(x)
        cfg = ProjectorConfig(eps=1e-8)
        worst = 0.0
        for degrees in range(0, 360, 45):
            c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
            for x in np.array(points) @ np.array([[c, -s], [s, c]]).T:
                res = approx_project(DISK, x, cfg)
                assert res.converged
                worst = max(worst, float(np.linalg.norm(res.point - x / np.linalg.norm(x))))
        assert worst <= 2e-13

    def test_overflowing_distance_gives_up_at_once(self):
        # |x - slater|^2 and d(x, C)^2 both overflow: the Slater end comes
        # back, finite and feasible, with an infinite certificate
        s = Sublevel(affine_fn([1.0, 0.0], 0.0), 0.0, slater=[-1.5e308, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            res = approx_project(s, [1.5e308, 0.0])
        assert res.point.tolist() == [-1.5e308, 0.0]
        assert residual(s, res.point) <= 0.0
        assert res.certified_eps == math.inf and not res.converged
        assert res.iterations == 1

    def test_non_finite_cut_ends_the_route_loudly(self):
        # g(0) = 4e308 - 1e308 overflows, so the first cut's offset is -inf; added,
        # it made the least-distance NNLS raise numpy's LinAlgError
        s = Sublevel(ball_fn([2e154, 0.0], 1e154), 0.0, slater=[2e154, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            res = approx_project(s, [0.0, 0.0])
        assert res.point.tolist() == [1e154, 0.0]
        assert res.certified_eps == math.inf and not res.converged
        assert res.iterations == 1

    def test_supporting_bound_does_not_overflow_into_a_zero_certificate(self):
        # on a disk of radius 1e150, h * h overflows at distances above about
        # 1e4, where |x - p|^2 does not; read as inf, the bound certified a
        # point at 1e-7 of its value above d^2 with 0
        s = Sublevel(ball_fn([0.0, 0.0], 1e150), 0.0, slater=[0.0, 0.0])
        rng = np.random.default_rng(0)
        for _ in range(50):
            angle, dist = rng.uniform(0.0, 2.0 * math.pi), 10.0 ** rng.uniform(141.0, 146.0)
            x = (1e150 + dist) * np.array([math.cos(angle), math.sin(angle)])
            res = cutting_plane_project(s, x, ProjectorConfig(max_iter=1))
            # d^2 <= (|x|_hi - 1e150)^2 for an upper bound |x|_hi on |x|, in exact arithmetic
            norm_sq = sum(Fraction(v) ** 2 for v in x.tolist())
            norm_hi = Fraction(math.nextafter(math.sqrt(float(norm_sq)), math.inf))
            while norm_hi * norm_hi < norm_sq:
                norm_hi = Fraction(math.nextafter(float(norm_hi), math.inf))
            val = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x.tolist(), res.point.tolist()))
            excess = val - (norm_hi - Fraction(1e150)) ** 2
            assert excess <= Fraction(res.certified_eps) + Fraction(1e-14) * val, x

    def test_member_short_circuit(self):
        cfg = ProjectorConfig(eps=1e-8)
        x = np.array([0.1, -0.2])
        res = approx_project(DISK, x, cfg)
        assert np.array_equal(res.point, x) and res.point is not x
        assert res.certified_eps == 0.0
        assert res.iterations == 0


def restore(s, w):
    """_restore_feasibility from an infeasible w, fed as cutting_plane_project feeds it."""
    cut = separation_oracle(s, w)
    assert cut is not None
    p, r = _restore_feasibility(s, w, cut.violation, cut.normal)
    assert r == residual(s, p)  # the residual evaluated at the returned point
    return p


def assert_on_boundary(s, w, p):
    """p is feasible, and stepping 4 ulps of |w| from p back toward w is not."""
    seg = s.slater - w
    back = p - 4.0 * EPS * np.linalg.norm(w) * seg / np.linalg.norm(seg)
    assert residual(s, p) <= 0.0
    assert residual(s, back) > 0.0


def counting(s):
    """s with an fn whose eval counts its calls, and the list that gains one entry per call."""
    calls = []
    fn = s.fn
    counted = ConvexFnOracle(eval=lambda y: calls.append(1) or fn.eval(y), subgrad=fn.subgrad)
    return Sublevel(counted, s.level, slater=s.slater), calls


def evaluations_per_restore(s, calls, w):
    """How often _restore_feasibility evaluates g on its walk from w, by whatever route."""
    cut = separation_oracle(s, w)
    assert cut is not None
    calls.clear()
    p, r = _restore_feasibility(s, w, cut.violation, cut.normal)
    count = len(calls)
    assert r == residual(s, p)
    return count


def _reference_restore(s, w, viol, grad):
    """_restore_feasibility as it was written with residual: p = w + t * seg, r = residual(s, p)."""
    seg = s.slater - w
    stop = 4.0 * float(EPS) * geometry.norm(w) / geometry.norm(seg)
    lo, f_lo, slope = 0.0, viol, float(grad.dot(seg))
    hi, f_hi, hi_point = 1.0, residual(s, s.slater), s.slater.copy()

    def probe(t):
        nonlocal lo, f_lo, slope, hi, f_hi, hi_point
        if not (hi - lo > stop and lo < t < hi):
            return False
        p = w + t * seg
        r = residual(s, p)
        if r <= 0.0:
            hi, f_hi, hi_point = t, r, p
            return True
        lo, f_lo, slope = t, r, float(geometry.as_vec(s.fn.subgrad(p)).dot(seg))
        return False

    while hi - lo > stop:
        width = hi - lo
        if slope < 0.0:
            t = lo - f_lo / slope
            if t >= hi - stop or probe(t):
                break
        if hi - lo <= 0.5 * width:
            continue
        probe(max(lo + f_lo * ((hi - lo) / (f_lo - f_hi)), lo + 0.5 * stop))
        if hi - lo > 0.5 * width:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            probe(mid)
    return hi_point, f_hi


@st.composite
def restore_cases(draw):
    """A ball_fn, affine_fn or max_fn sublevel set in d = 1..4 and a point w outside it.

    Coordinates include both signed zeros.  Each function is built to be
    negative at the drawn Slater point.
    """
    d = draw(st.integers(1, 4))
    vec = st.lists(st.floats(-100.0, 100.0) | st.sampled_from([0.0, -0.0]), min_size=d, max_size=d)
    slater = np.array(draw(vec))

    def component():
        if draw(st.booleans()):
            center = np.array(draw(vec))
            reach = float(np.linalg.norm(slater - center))
            return ball_fn(center, reach * draw(st.floats(1.01, 4.0)) + draw(st.floats(1e-3, 10.0)))
        a = np.array(draw(vec.filter(any)))
        return affine_fn(a, float(a.dot(slater)) + draw(st.floats(1e-3, 100.0)))

    kind = draw(st.sampled_from(["ball_fn", "affine_fn", "max_fn"]))
    fn = max_fn([component() for _ in range(draw(st.integers(2, 3)))]) if kind == "max_fn" else component()
    s = Sublevel(fn, 0.0, slater=slater)
    # filter redraws only w (and a above), where assume rejected the whole case: at some
    # fixed seeds that tripped hypothesis's filter_too_much health check
    scaled = st.tuples(vec, st.sampled_from([1.0, 1.0, 10.0, 1e3])).map(lambda p: np.array(p[0]) * p[1])
    w = draw(scaled.filter(lambda w: separation_oracle(s, w) is not None))
    return s, w, separation_oracle(s, w)


def _directions(count):
    return [np.array([math.cos(a), math.sin(a)]) for a in np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)]


class TestRestoreFeasibility:
    # disk and ball_fn: phi is quadratic along the segment; slater off-centre too
    @pytest.mark.parametrize("slater", [[0.0, 0.0], [0.3, -0.5]])
    @pytest.mark.parametrize("delta", [1e-12, 1e-6, 1e-2, 1.0, 100.0])
    def test_ball_fn(self, slater, delta):
        s = Sublevel(ball_fn([0.0, 0.0], 1.0), 0.0, slater=slater)
        for u in _directions(12):
            w = (1.0 + delta) * u
            assert_on_boundary(s, w, restore(s, w))

    # affine_fn: phi is linear, so one secant step is exact
    @pytest.mark.parametrize("w", [[3.0, 0.5], [2.75 + 1e-9, -7.0], [40.0, 40.0]])
    def test_affine_fn(self, w):
        s = Sublevel(affine_fn([1.0, 0.25], 1.0), 0.0, slater=[-1.0, 2.0])
        w = np.array(w)
        assert_on_boundary(s, w, restore(s, w))

    def test_max_fn_root_at_kink(self):
        # the disk is the top piece outside and y <= 0.6 inside, so phi has its
        # kink at the root (0.8, 0.6), and each Newton step from outside uses
        # the disk's subgradient
        s = Sublevel(max_fn([ball_fn([0.0, 0.0], 1.0), affine_fn([0.0, 1.0], 0.6)]), 0.0,
                     slater=[0.0, 0.0])
        for w in ([1.6, 1.2], [0.8 * 1.001, 0.6 * 1.001], [8.0, 6.0]):
            w = np.array(w)
            p = restore(s, w)
            assert_on_boundary(s, w, p)
            assert np.linalg.norm(p - [0.8, 0.6]) <= 1e-15

    def test_within_an_ulp_of_the_boundary(self):
        w = np.nextafter(np.array([0.6, 0.8]), 2.0)
        assert 0.0 < residual(DISK, w) <= 2.0 * EPS
        assert_on_boundary(DISK, w, restore(DISK, w))

    # Both counts are every evaluation of g inside the restore, the Slater
    # end's included, whether or not it goes through residual.
    def test_residual_calls_per_restore_on_disk(self):
        # Far out, each round halves the distance to the root (phi is
        # quadratic); near it, a few superlinear rounds end the search.
        disk, calls = counting(DISK)
        for delta in (1e-12, 1e-6, 1e-2, 1.0, 10.0):
            for u in _directions(24):
                count = evaluations_per_restore(disk, calls, (1.0 + delta) * u)
                assert count <= 12 + 2.0 * math.log2(1.0 + delta), (delta, u)

    @pytest.mark.parametrize("radius, most", [(11.0, 14), (1001.0, 23)])
    def test_far_point_skips_the_secant_step(self, radius, most):
        # Far out, the Newton step alone halves the bracket, and the secant
        # step through the Slater end would barely move it; skipping it took
        # 15-16 calls to 13-14 at |w| = 11 and 27-28 to 22-23 at |w| = 1001.
        disk, calls = counting(DISK)
        for u in _directions(24):
            assert evaluations_per_restore(disk, calls, radius * u) <= most, u

    @given(restore_cases())
    @example((Sublevel(ball_fn([-0.0, 0.0], 1.0), 0.0, slater=[-0.0, 0.0]), np.array([-0.0, 3.0]),
              separation_oracle(DISK, np.array([-0.0, 3.0]))))
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_reference(self, case):
        # the point's bytes and the residual's bits, signed zeros included
        s, w, cut = case
        got_p, got_r = _restore_feasibility(s, w, cut.violation, cut.normal)
        want_p, want_r = _reference_restore(s, w, cut.violation, cut.normal)
        assert got_p.tobytes() == want_p.tobytes()
        assert _bits(got_r) == _bits(want_r)

    # slater - w overflows; or it is finite while w + (slater - w) overflows
    @pytest.mark.parametrize("fn, slater, w", [
        (affine_fn([1.0, 0.0], 0.0), [-1.5e308, 0.0], [1.5e308, 0.0]),
        (affine_fn([-1.0], -1e300), [np.finfo(float).max], [3.0 * 2.0**970]),
    ], ids=["segment_overflows", "segment_end_overflows"])
    def test_non_finite_segment_returns_the_slater_end(self, fn, slater, w):
        s, calls = counting(Sublevel(fn, 0.0, slater=slater))
        w = np.array(w)
        cut = separation_oracle(s, w)
        calls.clear()
        with np.errstate(over="ignore"):
            p, r = _restore_feasibility(s, w, cut.violation, cut.normal)
        assert len(calls) == 1  # the Slater end's value; no probe
        assert p.tobytes() == s.slater.tobytes() and p is not s.slater
        assert r == residual(s, s.slater) < 0.0

    def test_finite_coordinates_whose_sum_overflows_are_walked(self):
        # w + seg = (0.5, 1e308, 1e308) is finite though its sum is not, so the
        # elementwise test must let the walk run; seg.seg overflows as well
        s = Sublevel(affine_fn([1.0, 0.0, 0.0], 0.0), 1.0, slater=[0.5, 1e308, 1e308])
        w = np.array([2.0, 0.0, 0.0])
        cut = separation_oracle(s, w)
        with np.errstate(over="ignore"):
            p, r = _restore_feasibility(s, w, cut.violation, cut.normal)
        assert p.tobytes() != s.slater.tobytes()
        assert r == residual(s, p) <= 0.0
        assert abs(p[0] - 1.0) <= 4.0 * EPS and np.isfinite(p).all()

    def test_segment_whose_square_underflows(self):
        # ||slater - w||^2 = 1e-600 underflows to 0, which divided the stop width
        s = Sublevel(affine_fn([9e307], 0.0), -89999999.0, slater=[-1e-300])
        x = np.array([-0.0])
        with np.errstate(over="ignore"):  # ||subgradient||^2 = 8.1e615
            res = approx_project(s, x)
        assert res.converged and residual(s, res.point) <= 0.0
        # sound: ||x - z||^2 <= d(x, C)^2 + certificate, with d from the halfspace's closed form
        nearest = exact_project(Halfspace([-9e307], 89999999.0), x)
        assert abs(res.point[0] - nearest[0]) <= 4.0 * EPS * abs(nearest[0])
        d2 = float((x - nearest).dot(x - nearest))
        assert float((x - res.point).dot(x - res.point)) <= d2 + res.certified_eps

    def test_point_whose_square_overflows(self):
        # |w|^2 overflows while |seg| is moderate: the stop width read inf, so
        # every restore returned the Slater end and the loop ran to max_iter
        c, r = np.array([2e154, 0.0]), 1e150
        s = Sublevel(ball_fn(c, r), 0.0, slater=c)
        x = c + np.array([2.0 * r, 0.0])
        with np.errstate(over="ignore"):
            res = approx_project(s, x, ProjectorConfig(eps=1e-8 * r * r))
        assert res.converged and res.iterations == 1
        assert residual(s, res.point) <= 0.0
        # the point lies within the walk's stop width, 4 ulps of |w| = 1.8e-11 r
        assert np.allclose((res.point - c) / r, [1.0, 0.0], rtol=0.0, atol=1e-10)


def off_centre_sample(kind, count, seed):
    """Seeded (set, x, closed-form projection of x) triples, x outside the set.

    "disk2" and "disk3" are balls with a Slater point anywhere in the inner
    90 % of the radius; "box" is a box as the sublevel set of the max of its
    four affine faces, with a Slater point anywhere inside.
    """
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        if kind == "box":
            lo = rng.uniform(-2.0, 0.0, size=2)
            hi = lo + rng.uniform(0.1, 3.0, size=2)
            faces = [affine_fn(e, h) for e, h in zip(np.eye(2), hi)]
            faces += [affine_fn(-e, -l) for e, l in zip(np.eye(2), lo)]
            slater = lo + rng.uniform(0.05, 0.95, size=2) * (hi - lo)
            s = Sublevel(max_fn(faces), 0.0, slater=slater)
            x = rng.uniform(-6.0, 6.0, size=2)
            proj = np.clip(x, lo, hi)
        else:
            d = int(kind[-1])
            center, radius = rng.uniform(-2.0, 2.0, size=d), float(rng.uniform(0.5, 3.0))
            u = rng.normal(size=d)
            slater = center + rng.uniform(0.0, 0.9) * radius * u / np.linalg.norm(u)
            s = Sublevel(ball_fn(center, radius), 0.0, slater=slater)
            x = rng.uniform(-6.0, 6.0, size=d)
            proj = center + radius * (x - center) / np.linalg.norm(x - center)
        if residual(s, x) > 0.0:
            cases.append((s, x, proj))
    return cases


class TestSupportingBound:
    """The supporting halfspace at each restored point bounds d_C(x)^2 from below."""

    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    @pytest.mark.parametrize("kind", ["disk2", "disk3", "box"])
    def test_sound_on_off_centre_sets(self, kind, eps):
        for s, x, proj in off_centre_sample(kind, 150, seed=2026):
            res = cutting_plane_project(s, x, ProjectorConfig(eps=eps))
            assert res.converged and res.certified_eps <= eps
            assert residual(s, res.point) <= 0.0
            d2 = float(np.dot(x - proj, x - proj))
            assert float(np.dot(x - res.point, x - res.point)) <= d2 + res.certified_eps + 1e-12

    def test_fewer_iterations_than_the_polyhedral_bound_alone(self):
        # 619 in total when only the outer polyhedron's bound certified the
        # result; 512 with the supporting bound
        total = sum(cutting_plane_project(s, x, ProjectorConfig(eps=1e-8)).iterations
                    for s, x, _ in off_centre_sample("disk2", 100, seed=11))
        assert total < 619

    def test_criterion_2_points_certify_in_one_iteration(self):
        # the first restored point is x / |x| up to rounding, and its tangent
        # line is the supporting halfspace that certifies it
        rng = np.random.default_rng(7)
        count = 0
        while count < 100:
            x = rng.uniform(-4, 4, size=2)
            if np.linalg.norm(x) <= 1.2:
                continue
            count += 1
            res = cutting_plane_project(DISK, x, ProjectorConfig(eps=1e-8))
            assert res.converged and res.iterations == 1, x

    def test_zero_subgradient_at_restored_point(self):
        # an oracle that reports a zero subgradient wherever g <= 0 as
        # evaluated: every restored point then adds no supporting bound, and
        # the outer polyhedron's bound alone certifies the result
        fn = ball_fn([0.0, 0.0], 1.0)
        flat = Sublevel(
            ConvexFnOracle(eval=fn.eval, subgrad=lambda y: fn.subgrad(y) * (fn.eval(y) > 0.0)),
            0.0, slater=[0.3, -0.2])
        for u in _directions(12):
            x = 2.5 * u
            res = cutting_plane_project(flat, x, ProjectorConfig(eps=1e-8))
            assert res.converged and res.iterations > 1
            assert residual(flat, res.point) <= 0.0
            excess = float(np.dot(x - res.point, x - res.point)) - 1.5 ** 2
            assert excess <= res.certified_eps + 1e-12


def _solve_rational(g, rhs):
    """Gauss-Jordan elimination over the rationals; None when g is singular."""
    k = len(rhs)
    rows = [list(row) + [rhs[i]] for i, row in enumerate(g)]
    for c in range(k):
        pivot = next((i for i in range(c, k) if rows[i][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for i in range(k):
            if i != c and rows[i][c] != 0:
                ratio = rows[i][c] / rows[c][c]
                rows[i] = [vi - ratio * vc for vi, vc in zip(rows[i], rows[c])]
    return [rows[i][k] / rows[i][i] for i in range(k)]


def brute_force_projection(a, b, x):
    """Projection onto {y : a y <= b} by enumerating active sets, in exact arithmetic.

    Tries every set of at most d cuts with independent normals, solves its
    equality-constrained projection and returns the first that is feasible
    with nonnegative multipliers (the KKT point, unique).  Carathéodory gives
    such a set even at a vertex where more than d cuts are active.
    """
    a = [[Fraction(v) for v in row] for row in a]
    b = [Fraction(v) for v in b]
    x = [Fraction(v) for v in x]
    d = len(x)

    def dot(u, v):
        return sum(ui * vi for ui, vi in zip(u, v))

    for k in range(min(d, len(a)) + 1):
        for active in itertools.combinations(range(len(a)), k):
            gram = [[dot(a[i], a[j]) for j in active] for i in active]
            nu = _solve_rational(gram, [dot(a[i], x) - b[i] for i in active])
            if nu is None or any(v < 0 for v in nu):
                continue
            y = [x[c] - sum(n * a[i][c] for n, i in zip(nu, active)) for c in range(d)]
            if all(dot(row, y) <= bi for row, bi in zip(a, b)):
                return np.array([float(v) for v in y])
    raise AssertionError("no KKT point: the polyhedron is empty")


def smallest_sine(a):
    """Sine of the smallest nonzero angle between two cut normals (1 if none)."""
    u = a / np.linalg.norm(a, axis=1)[:, None]
    sines = [math.sqrt(max(0.0, 1.0 - float(u[i] @ u[j]) ** 2))
             for i in range(len(u)) for j in range(i)]
    return min((s for s in sines if s > 0.0), default=1.0)


@st.composite
def polyhedra(draw):
    """Cuts through or near the origin, with duplicates and near-parallel copies.

    Every normal has a positive component along (1, ..., 1), so the polyhedron
    keeps an interior, as the cuts of a set with a Slater point do.  Offsets
    of 0 make the origin a vertex with up to 8 active cuts in d <= 3.
    """
    d = draw(st.integers(1, 3))
    ones = np.ones(d)
    small_ints = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
    normals = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "duplicate", "near"])) if normals else "fresh"
        if kind == "fresh":
            n = np.array(draw(small_ints), dtype=float)
            if not n.any():
                n[0] = 1.0
        else:
            n = normals[draw(st.integers(0, len(normals) - 1))].copy()
            v = np.array(draw(small_ints), dtype=float) if kind == "near" else 0.0 * n
            if v.any():
                angle = draw(st.floats(1e-6, 1e-3))
                n = n + angle * np.linalg.norm(n) * v / np.linalg.norm(v)
        if n @ ones <= 0.0:
            n = -n if n @ ones < 0.0 else n + ones
        normals.append(n)
    a = np.array(normals)
    b = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 2.0]),
                               min_size=len(a), max_size=len(a))))
    x = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d)))
    return a, b, x


class TestPolyhedronProjection:
    @given(polyhedra())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, case):
        # Rounding b - A x is a relative perturbation of b that a pair of cuts
        # at angle theta turns into a 1/theta error in their vertex, so the
        # bound is 1e-12 relative at theta >= 1e-3 and grows as 1/theta below.
        a, b, x = case
        y = _project_polyhedron(list(a), list(b), x)
        ref = brute_force_projection(a, b, x)
        scale = 1.0 + np.linalg.norm(x) + np.linalg.norm(ref)
        assert np.max((a @ y - b) / np.linalg.norm(a, axis=1)) <= 1e-12 * scale
        assert np.linalg.norm(y - ref) <= 1e-12 * scale * max(1.0, 1e-3 / smallest_sine(a))

    @pytest.mark.parametrize("tilted", [[3.162277660168379e-07, 1.0000009486832981],
                                        [4.4721359549995787e-07, 0.999999105572809]])
    def test_near_parallel_cuts_through_the_projection(self, tilted):
        # every cut passes through the answer, the origin; y2 <= 0 and a cut
        # tilted from it by ~4e-7 are both active there.  One case stopped on
        # the tilted cut alone, 2.6e-7 away; the other found its passive
        # columns dependent and reported an empty intersection.
        a = np.array([[0.0, 1.0], tilted] + [[1.0, 0.0]] * 4 + [[0.0, 1.0]])
        x = np.array([1e-6, 4.0])
        y = _project_polyhedron(list(a), [0.0] * len(a), x)
        assert np.linalg.norm(y) <= 1e-12 * (1.0 + np.linalg.norm(x)) * 1e-3 / smallest_sine(a)

    def test_near_parallel_pair_projects_onto_face(self):
        # cuts y2 >= 0 and y2 >= tan(theta) y1; x lies just off the second
        # face near the vertex, where capped coordinate sweeps stall
        theta = 1e-3
        a = [np.array([0.0, -4.0]), 4.0 * np.array([math.sin(theta), -math.cos(theta)])]
        x = np.array([0.03, -3.0])
        y = _project_polyhedron(a, [0.0, 0.0], x)
        along = 0.03 * math.cos(theta) - 3.0 * math.sin(theta)
        expected = along * np.array([math.cos(theta), math.sin(theta)])
        assert np.linalg.norm(y - expected) <= 1e-14 * np.linalg.norm(x)
        assert max(float(row @ y) / np.linalg.norm(row) for row in a) <= 1e-14 * np.linalg.norm(x)

    def test_empty_intersection_raises(self):
        with pytest.raises(ProjectionFailed, match="empty"):
            _project_polyhedron([np.array([1.0]), np.array([-1.0])], [-1.0, -1.0], np.zeros(1))

    def test_linalg_error_becomes_projection_failed(self, monkeypatch):
        # a finite E no longer reaches a failing LAPACK call, so the SVD is made to fail
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(ProjectionFailed, match="SVD did not converge") as failed:
            _project_polyhedron([np.array([1.0, 0.0])], [0.0], np.array([2.0, 0.0]))
        assert isinstance(failed.value.__cause__, np.linalg.LinAlgError)

    def test_non_finite_slack_fails_before_lapack(self, capfd):
        # a @ x overflows, so b - A x is -inf: LAPACK would print its argument check on fd 1
        with pytest.raises(ProjectionFailed, match="b - A x is not finite"):
            _project_polyhedron([np.array([1e200, 0.0])], [0.0], np.array([1e200, 0.0]))
        assert capfd.readouterr().out == ""

    @pytest.mark.parametrize("scale, norm_text", [(1e-200, "0.0"), (1e200, "inf")])
    def test_column_of_e_without_a_finite_positive_norm_fails(self, capfd, scale, norm_text):
        # the cut's column (a, b - a x) of E squares to 0 or to inf: divided by 0 it
        # would reach LAPACK, which prints its argument check on fd 1, and divided by
        # inf it would drop the cut and return x = (1, 0), which violates it by 1e200
        with pytest.raises(ProjectionFailed, match=f"column 0 of E has norm {norm_text}$"):
            _project_polyhedron([np.array([scale, 0.0])], [0.0], np.array([1.0, 0.0]))
        assert capfd.readouterr().out == ""


class TestApproxProject:
    def test_auto_routes_closed_form(self):
        res = approx_project(UNIT_BALL, np.array([2.0, 0.0]), ProjectorConfig(eps=1e-8))
        assert np.allclose(res.point, [1.0, 0.0])
        assert res.certified_eps == 0.0

    def test_auto_routes_sublevel(self):
        res = approx_project(DISK, np.array([0.0, 2.0]), ProjectorConfig(eps=1e-8))
        assert res.certified_eps <= 1e-8
        assert np.linalg.norm(res.point - [0.0, 1.0]) <= 1e-4

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_config_rejects_eps_that_is_not_positive_and_finite(self, eps):
        # eps = inf once let Frank-Wolfe's start atom pass as a converged projection
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            ProjectorConfig(eps=eps)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, "3", None])
    def test_config_rejects_max_iter_that_is_not_an_integer(self, max_iter):
        # max_iter = 2.5 was accepted, and Frank-Wolfe's range() then raised a TypeError
        with pytest.raises(ValueError, match="^max_iter must be an integer"):
            ProjectorConfig(max_iter=max_iter)

    def test_config_takes_a_numpy_integer_max_iter(self):
        res = approx_project(Ball([0, 0], 1), [3, 0.1], ProjectorConfig(max_iter=np.int64(3), method="fw"))
        assert res.iterations <= 3

    @pytest.mark.parametrize("method", ["exact", "cutting", "atuo"])
    def test_config_rejects_unknown_method(self, method):
        with pytest.raises(ValueError, match="method"):
            ProjectorConfig(method=method)

    @pytest.mark.parametrize("s, x", [
        (Halfspace([1.0, 0.0], 0.0), [1.0, 0.0]),
        (Halfspace([1.0, 0.0], 0.0), [-1.0, 0.0]),
        (DISK, [0.0, 0.0]),
    ])
    def test_fw_without_lmo_raises_member_or_not(self, s, x):
        with pytest.raises(UnsupportedKind):
            approx_project(s, np.array(x), ProjectorConfig(method="fw"))

    def test_fw_method_on_ball(self):
        res = approx_project(UNIT_BALL, np.array([2.0, 0.0]), ProjectorConfig(eps=1e-8, method="fw"))
        assert res.certified_eps <= 1e-8
        assert residual(UNIT_BALL, res.point) <= UNIT_BALL.feas_tol

    def test_fw_on_ball_whose_distance_squared_overflows(self):
        # ||x - c||^2 overflows: an unscaled LMO gives (1.29e154, -7.07e153), certified 0
        with np.errstate(over="ignore", invalid="ignore"):
            res = approx_project(Ball([2e154, 0.0], 1e154), [0.0, 0.0], ProjectorConfig(method="fw"))
        assert res.point.tolist() == [1e154, 0.0]
        assert res.converged and res.certified_eps == 0.0

    def test_fw_in_three_dimensions_certifies_no_wrong_point(self):
        # the generic loop's own dots overflow, so it cannot converge, but it says so
        with np.errstate(over="ignore", invalid="ignore"):
            res = approx_project(Ball([2e154, 0.0, 0.0], 1e154), [0.0, 0.0, 0.0],
                                 ProjectorConfig(method="fw", max_iter=100))
        assert not res.converged and res.certified_eps == math.inf

    def test_fw_stops_at_a_step_that_cannot_move(self):
        # the overflowed dots make the first step NaN: z stays the start atom, so
        # the loop stops there instead of repeating it for all of max_iter
        c, r = [2e154, 0.0, 0.0], 1e154
        with np.errstate(over="ignore", invalid="ignore"):
            res = approx_project(Ball(c, r), [0.0, 0.0, 0.0], ProjectorConfig(method="fw"))
        assert res.iterations <= 2 and not res.converged
        assert res.point.tobytes() == np.array(Ball(c, r).lmo()(np.ones(3))).tobytes()
        assert res.certified_eps == math.inf

    @pytest.mark.parametrize("s, x", [
        (Ball([0.0], 1.0), [2.0, 0.0]),
        (Box([0.0], [1.0]), [2.0, 0.0]),
        (Halfspace([1.0], 0.0), [-2.0, 0.0]),
        (Sublevel(ball_fn([0.0], 1.0), 0.0, slater=[0.0]), [2.0, 0.0]),
        (UNIT_BALL, [2.0]),
    ])
    def test_rejects_mismatched_dimension(self, s, x):
        with pytest.raises(ValueError, match="dimension"):
            approx_project(s, np.array(x))

    def test_shrinking_eps_realizes_exact_projection(self):
        # with eps_n = 4^-n and x_n = x + 4^-n u, the approximate projections
        # converge to the exact projection of x
        x = np.array([0.0, 2.0])
        u = np.array([1.0, 0.0])
        dists = []
        for n in range(1, 17):
            eps = 4.0 ** (-n)
            res = approx_project(DISK, x + eps * u, ProjectorConfig(eps=eps))
            dists.append(np.linalg.norm(res.point - [0.0, 1.0]))
        for n in range(5, len(dists)):
            assert dists[n] <= dists[n - 5] + 1e-12
        assert dists[-1] <= 1e-4


class TestCheckedOnce:
    """approx_project checks a point once and tests membership once."""

    @pytest.fixture
    def as_vec_calls(self, monkeypatch):
        calls = []
        real = geometry.as_vec
        monkeypatch.setattr("catchup.geometry.as_vec", lambda x: calls.append(x) or real(x))
        return calls

    @pytest.mark.parametrize("x", [[2.0, 0.0], [0.5, 0.0]], ids=["outside", "member"])
    def test_closed_form_route_checks_the_point_once(self, as_vec_calls, x):
        approx_project(UNIT_BALL, np.array(x))
        assert len(as_vec_calls) == 1

    @pytest.mark.parametrize("s", [Ball([0.0], 1.0), Box([0.0], [1.0]), Halfspace([1.0], 0.0)])
    def test_member_given_as_a_scalar_array_comes_back_as_a_copy(self, s):
        x = np.array(0.5)
        res = approx_project(s, x)
        assert res.point.tolist() == [0.5] and not np.shares_memory(res.point, x)

    def test_sublevel_route_evaluates_g_at_x_once(self):
        at_x = []
        x = np.array([0.0, 2.0])
        fn = ball_fn([0.0, 0.0], 1.0)
        counted = ConvexFnOracle(eval=lambda y: at_x.append(y is x) or fn.eval(y),
                                 subgrad=fn.subgrad)
        res = approx_project(Sublevel(counted, 0.0, slater=[0.0, 0.0]), x)
        assert res.converged and np.linalg.norm(res.point - [0.0, 1.0]) <= 1e-4
        assert at_x.count(True) == 1

    def test_cutting_planes_evaluate_g_once_at_the_value_x(self):
        # the separation oracle at x is the membership test and the first cut
        x = np.array([0.0, 2.0])
        fn = ball_fn([0.0, 0.0], 1.0)
        at_x = []
        counted = ConvexFnOracle(eval=lambda y: at_x.append(np.array_equal(y, x)) or fn.eval(y),
                                 subgrad=fn.subgrad)
        res = cutting_plane_project(Sublevel(counted, 0.0, slater=[0.0, 0.0]), x,
                                    ProjectorConfig())
        assert res.converged and np.linalg.norm(res.point - [0.0, 1.0]) <= 1e-4
        assert at_x.count(True) == 1


CLOSED_FORMS = [
    Halfspace([1.0, 2.0], 1.0),
    Ball([0.5, -0.5], 1.5),
    Box([-1.0, 0.0], [1.0, 0.5]),
]


class TestFoldedClosedFormRoute:
    """Under "auto" the closed form is the membership test: residual is never called."""

    @pytest.fixture(autouse=True)
    def no_residual(self, monkeypatch):
        def fail(s, x):
            raise AssertionError("residual called on the closed-form route")

        monkeypatch.setattr("catchup.oracles.residual", fail)

    @pytest.mark.parametrize("s", CLOSED_FORMS)
    def test_member_comes_back_as_a_copy(self, s):
        x = np.array([0.5, 0.5])
        assert residual(s, x) <= 0.0  # the geometry binding, not the patched one
        res = approx_project(s, x)
        assert np.array_equal(res.point, x) and res.point is not x
        assert (res.certified_eps, res.iterations, res.converged) == (0.0, 0, True)

    @given(coords=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_point_is_the_closed_form_bit_for_bit(self, coords):
        x = np.array(coords)
        for s in CLOSED_FORMS:
            res = approx_project(s, x)
            expected = exact_project(s, x)
            assert res.point.tobytes() == expected.tobytes() and res.point is not x

