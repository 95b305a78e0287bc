import math
import warnings
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from catchup import geometry
from catchup.geometry import (
    Ball,
    Box,
    Halfspace,
    Sublevel,
    UnsupportedKind,
    MovingSet,
    NoRoot,
    SetDescription,
    ball_fn,
    affine_fn,
    as_vec,
    max_fn,
    distance,
    exact_project,
    prox_eps0,
    residual,
    row_norms,
    sum_of_squares,
)
from catchup.oracles import ProjectionFailed, ProjectionResult, ProjectorConfig, approx_project
from catchup.perturbation import Perturbation, zero_perturbation
from catchup.solver import SweepingProblem, solve, theorem1_audit

UNIT_BALL = Ball([0.0, 0.0], 1.0)
RIGHT_HALF = Halfspace([1.0, 0.0], 0.0)  # x1 >= 0
UNIT_BOX = Box([0.0, 0.0], [1.0, 1.0])
DISK_SUBLEVEL = Sublevel(ball_fn([0.0, 0.0], 1.0), 0.0, slater=[0.0, 0.0])
EPS = float(np.finfo(float).eps)


def coords(lo=-10.0, hi=10.0):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2)


class TestExactProject:
    def test_ball_radial(self):
        assert np.allclose(exact_project(UNIT_BALL, [2.0, 0.0]), [1.0, 0.0])

    def test_halfspace_drops_normal_component(self):
        assert np.allclose(exact_project(RIGHT_HALF, [-2.0, 3.0]), [0.0, 3.0])

    def test_box_clamps(self):
        assert np.allclose(exact_project(UNIT_BOX, [2.0, -1.0]), [1.0, 0.0])

    def test_member_is_fixed(self):
        for s in (UNIT_BALL, RIGHT_HALF, UNIT_BOX):
            x = np.array([0.5, 0.25])
            assert np.array_equal(exact_project(s, x), x)

    def test_sublevel_has_no_closed_form(self):
        with pytest.raises(UnsupportedKind):
            exact_project(DISK_SUBLEVEL, [0.0, 2.0])

    @given(coords())
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, x):
        for s in (UNIT_BALL, RIGHT_HALF, UNIT_BOX):
            p = exact_project(s, x)
            assert np.linalg.norm(exact_project(s, p) - p) <= 1e-12

    @given(coords())
    @settings(max_examples=200, deadline=None)
    def test_distance_matches_projection(self, x):
        for s in (UNIT_BALL, RIGHT_HALF, UNIT_BOX):
            assert abs(np.linalg.norm(np.asarray(x, float) - exact_project(s, x))
                       - distance(s, x)) <= 1e-12

    @given(coords(), coords())
    @settings(max_examples=200, deadline=None)
    def test_firmly_nonexpansive(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        for s in (UNIT_BALL, RIGHT_HALF, UNIT_BOX):
            px, py = exact_project(s, x), exact_project(s, y)
            lhs = float(np.dot(px - py, px - py))
            rhs = float(np.dot(px - py, x - y))
            assert lhs <= rhs + 1e-10


class TestDistanceAndResidual:
    def test_ball_distance(self):
        assert distance(UNIT_BALL, [2.0, 0.0]) == pytest.approx(1.0)

    def test_member_distance_zero(self):
        assert distance(UNIT_BOX, [0.5, 0.5]) == 0.0

    def test_residual_values(self):
        assert residual(UNIT_BALL, [0.0, 0.0]) == pytest.approx(-1.0)
        assert residual(UNIT_BALL, [2.0, 0.0]) == pytest.approx(1.0)
        assert residual(DISK_SUBLEVEL, [0.0, 2.0]) == pytest.approx(3.0)

    def test_halfspace_residual_is_normalized(self):
        scaled = Halfspace([2.0, 0.0], 0.0)
        assert residual(scaled, [-3.0, 1.0]) == pytest.approx(3.0)

    @pytest.mark.parametrize("x", [[2.0, 0.5], [0.5, 0.5]], ids=["outside", "member"])
    def test_closed_form_distance_checks_the_point_once(self, monkeypatch, x):
        calls = []
        real = geometry.as_vec
        monkeypatch.setattr("catchup.geometry.as_vec", lambda v: calls.append(v) or real(v))
        assert distance(UNIT_BOX, np.array(x)) == max(x[0] - 1.0, 0.0)
        assert len(calls) == 1

    def test_sublevel_distance_is_upper_bound_and_tightens(self):
        # exact disk distance of (0, 2) is 1
        d = distance(DISK_SUBLEVEL, [0.0, 2.0])
        assert d >= 1.0 - 1e-12
        assert d == pytest.approx(1.0, abs=1e-6)

    def test_sublevel_distance_raises_when_unconverged(self, monkeypatch):
        def unconverged(s, x, cfg):
            return ProjectionResult(np.array([0.0, 1.0]), 1.0, 7, converged=False)

        monkeypatch.setattr("catchup.oracles.cutting_plane_project", unconverged)
        with pytest.raises(ProjectionFailed):
            distance(DISK_SUBLEVEL, [0.0, 2.0])

    def test_non_finite_projection_raises(self):
        # x - center overflows, so the closed form returns (nan, 0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ProjectionFailed, match="not finite"):
            distance(Ball([1e308, 0.0], 1.0), [-1e308, 0.0])

    def test_finite_projection_whose_square_overflows_gives_inf(self):
        with np.errstate(over="ignore"):
            assert distance(Ball([0.0, 0.0], 1.0), [1e200, 0.0]) == math.inf

    @given(coords())
    @settings(max_examples=200, deadline=None)
    def test_residual_sign_iff_zero_distance(self, x):
        for s in (UNIT_BALL, RIGHT_HALF, UNIT_BOX):
            r = residual(s, x)
            if r <= 0.0:
                assert distance(s, x) == 0.0
            elif r > 1e-12:  # squaring subnormal residuals underflows to 0
                assert distance(s, x) > 0.0


class TestAsVec:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            as_vec([0.0, bad])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-d"):
            as_vec([[0.0, 1.0]])

    def test_rejects_2d_float_array(self):
        with pytest.raises(ValueError, match="1-d"):
            as_vec(np.zeros((1, 2)))

    def test_scalar_becomes_1_vector(self):
        v = as_vec(2.5)
        assert v.shape == (1,) and v[0] == 2.5

    def test_int_list_becomes_float(self):
        v = as_vec([1, 2])
        assert v.dtype == np.float64 and np.array_equal(v, [1.0, 2.0])

    @pytest.mark.parametrize("call", [
        lambda p: approx_project(UNIT_BALL, p),
        lambda p: residual(UNIT_BALL, p),
        lambda p: Ball(p, 1.0),
    ])
    def test_callers_reject_nan_point(self, call):
        with pytest.raises(ValueError, match="non-finite"):
            call([math.nan, 0.0])

    @given(arrays(np.float64, st.integers(0, 6), elements=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.floats(1e154, 1.7976931348623157e308).flatmap(lambda v: st.sampled_from([v, -v])),
        st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -5e-324]),
    )))
    @settings(max_examples=500, deadline=None)
    def test_rejects_exactly_the_non_finite(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if np.isfinite(v).all():
                assert as_vec(v) is v
            else:
                with pytest.raises(ValueError, match="non-finite"):
                    as_vec(v)

    @pytest.mark.parametrize("big", [[1e200, 1e200], [1.7e308, 1.7e308], [1.7e308, -1.7e308]])
    def test_accepts_finite_coordinates_whose_sum_or_square_overflows(self, big):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(as_vec(big), big)

    def test_1d_float_array_is_returned_as_is(self):
        v = np.array([0.5, -2.0])
        assert as_vec(v) is v

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_fast_path_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            as_vec(np.array([0.0, bad]))

    @pytest.mark.parametrize("x, shape", [
        (np.float64(2.5), (1,)),
        (np.array(2.5), (1,)),
        (np.array([1, 2]), (2,)),
        (np.array([1.0, 2.0], dtype=">f8"), (2,)),
        (np.array([1.0, 2.0], dtype=np.float32), (2,)),
    ], ids=["scalar", "0d", "int", "big_endian", "float32"])
    def test_other_arrays_become_new_native_float_vectors(self, x, shape):
        v = as_vec(x)
        assert v is not x and type(v) is np.ndarray
        assert v.dtype == np.dtype(float) and v.dtype.isnative and v.shape == shape
        assert np.array_equal(v, np.reshape(x, shape))

    def test_subclass_becomes_a_plain_array(self):
        class Tagged(np.ndarray):
            pass

        x = np.array([0.5, -2.0]).view(Tagged)
        v = as_vec(x)
        assert type(v) is np.ndarray and np.array_equal(v, x)
        with pytest.raises(ValueError, match="non-finite"):
            as_vec(np.array([0.5, math.nan]).view(Tagged))


# the closed forms as written with np.linalg.norm and np.dot, which
# geometry.norm and the module's .dot calls must match bit for bit


def _reference_project(s, x):
    if isinstance(s, Halfspace):
        gap = s.offset - float(np.dot(s.normal, x))
        if gap <= 0.0:
            return x
        return x + (gap / float(np.dot(s.normal, s.normal))) * s.normal
    v = x - s.center
    r = float(np.linalg.norm(v))
    if r <= s.radius:
        return x
    return s.center + (s.radius / r) * v


def _reference_residual(s, x):
    if isinstance(s, Halfspace):
        return (s.offset - float(np.dot(s.normal, x))) / float(np.linalg.norm(s.normal))
    return float(np.linalg.norm(x - s.center)) - s.radius


def _vectors(d, scale):
    return arrays(np.float64, d, elements=st.floats(-scale, scale))


# the least float whose square rounds above 0: 2**-537.5 lies between it and the float
# below, and math.sqrt(2.0) rounds up
_LEAST_WITH_A_SQUARE = math.ldexp(math.sqrt(2.0), -538)


@st.composite
def _normals(draw, d):
    """A d-vector of coordinates in [-10, 10], one of them, at least, with a square above 0."""
    normal = draw(_vectors(d, 10.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    normal[draw(st.integers(0, d - 1))] = sign * draw(st.floats(_LEAST_WITH_A_SQUARE, 10.0))
    return normal


@st.composite
def _sets_and_points(draw):
    d = draw(st.integers(1, 17))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    x = draw(_vectors(d, 10.0 * scale))
    if draw(st.booleans()):
        s = Ball(draw(_vectors(d, scale)), draw(st.floats(1e-3 * scale, 10.0 * scale)))
    else:
        normal = draw(_normals(d))
        s = Halfspace(normal, draw(st.floats(-10.0 * scale, 10.0 * scale)))
    return s, x


# boxes from subnormal to overflowing scales: lo - x and x - hi overflow at 1e308
_BOX_SCALES = [1e-300, 1.0, 1e300, 1e308]


@st.composite
def _box_vectors(draw, d, count):
    """count vectors of d coordinates at one scale, each often 0.0, -0.0 or the scale itself."""
    scale = draw(st.sampled_from(_BOX_SCALES))
    element = st.floats(-scale, scale) | st.sampled_from([-0.0, 0.0, scale])
    return tuple(draw(arrays(np.float64, d, elements=element)) for _ in range(count))


@st.composite
def _boxes_and_points(draw):
    a, b, x = draw(_box_vectors(draw(st.integers(1, 17)), 3))
    return np.minimum(a, b), np.maximum(a, b), x


def _bits(v):
    """A float as float.hex, which tells -0.0 from 0.0; a warning's text as it is."""
    return v.hex() if isinstance(v, float) else v


def _warns(f):
    """f's result, or the RuntimeWarning it raises when warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return f()
        except RuntimeWarning as w:
            return str(w).split(" in ")[0]  # "overflow encountered", without the function's name


class TestMatchesNumpyReference:
    @given(_sets_and_points())
    # the projection 1e160 is finite, but its squared norm overflows on both sides
    @example((Halfspace([1.0], 1e160), np.array([0.0])))
    @settings(max_examples=300, deadline=None)
    def test_bit_for_bit(self, case):
        s, x = case
        want = _reference_project(s, x)
        assert np.array_equal(exact_project(s, x), want)
        assert residual(s, x) == _reference_residual(s, x)
        assert _warns(lambda: distance(s, x)) == _warns(lambda: float(np.linalg.norm(x - want)))
        assert _warns(lambda: geometry.norm(x)) == _warns(lambda: float(np.linalg.norm(x)))

    @given(_boxes_and_points())
    @example((np.array([-0.0, 0.0]), np.array([0.0, 0.0]), np.array([0.0, -0.0])))
    @example((np.array([-0.0, -0.0]), np.array([-0.0, 1.0]), np.array([0.0, -0.0])))
    @example((np.array([0.0, -1.0]), np.array([0.0, 1.0]), np.array([-0.0, -0.0])))
    @example((np.array([1.5, -2.0]), np.array([1.5, -2.0]), np.array([3.0, -2.0])))  # lo == hi
    @example((np.array([-1e308]), np.array([1e308]), np.array([-1e308])))  # x - hi overflows
    @settings(max_examples=300, deadline=None)
    def test_box_bit_for_bit(self, case):
        lo, hi, x = case
        s = Box(lo, hi)
        assert exact_project(s, x).tobytes() == np.clip(x, lo, hi).tobytes()
        assert _bits(_warns(lambda: residual(s, x))) == _bits(
            _warns(lambda: float(np.max(np.maximum(lo - x, x - hi)))))

    @given(st.integers(1, 17).flatmap(lambda d: _box_vectors(d, 2)))
    @example((np.array([0.0]), np.array([-0.0])))
    @example((np.array([-0.0, 1.0]), np.array([0.0, 1.0])))
    @example((np.array([1.0, 2.0]), np.array([1.0, 2.0 - 2.0**-52])))
    @settings(max_examples=300, deadline=None)
    def test_box_rejects_exactly_lo_above_hi(self, bounds):
        lo, hi = bounds
        if np.any(lo > hi):
            with pytest.raises(ValueError, match="lo <= hi"):
                Box(lo, hi)
        else:
            Box(lo, hi)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_ball_fn_bit_for_bit(self, data):
        d = data.draw(st.integers(1, 17))
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        x, c = data.draw(_vectors(d, 10.0 * scale)), data.draw(_vectors(d, scale))
        radius = data.draw(st.floats(1e-3 * scale, 10.0 * scale))
        want = float(np.dot(x - c, x - c) - radius * radius)
        assert ball_fn(c, radius).eval(x).hex() == want.hex()


# magnitudes from squares that are subnormal or underflow to squares that overflow
_WIDE = (st.floats(-1e-150, 1e-150) | st.floats(-1e-160, 1e-160) | st.floats(-10.0, 10.0)
         | st.floats(-1e150, 1e150) | st.floats(-1e160, 1e160))


class TestRowNorms:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_bit_for_bit_with_norm(self, data):
        d = data.draw(st.sampled_from([1, 2, 3]))
        special = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324])
        rows = data.draw(st.lists(st.lists(_WIDE | special, min_size=d, max_size=d),
                                  min_size=1, max_size=6))
        v = np.array(rows)
        got = _warns(lambda: row_norms(v))
        want = _warns(lambda: np.array([geometry.norm(r) for r in v]))
        if isinstance(want, str):
            assert got == want
        else:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_for_bit_on_random_mantissas(self, d):
        # hypothesis favours short mantissas, whose squares sum exactly; here
        # np.linalg.norm(v, axis=1), which sums in another order, differs on
        # hundreds of rows at d = 2 and 3
        rng = np.random.default_rng(d)
        v = rng.standard_normal((3000, d)) * 10.0 ** rng.integers(-170, 150, (3000, 1))
        with np.errstate(under="ignore"):
            want = np.array([geometry.norm(r) for r in v])
        assert row_norms(v).tobytes() == want.tobytes()

    def test_overflow_warns_as_norm_does(self):
        v = np.array([[1e200, 0.0], [1.0, 2.0]])
        assert _warns(lambda: row_norms(v)) == _warns(lambda: geometry.norm(v[0]))
        assert _warns(lambda: row_norms(v)) == "overflow encountered"

    def test_nan_and_inf_rows(self):
        v = np.array([[math.nan, 1.0], [math.inf, 0.0], [-math.inf, math.nan], [3.0, 4.0]])
        got = row_norms(v)
        assert math.isnan(got[0]) and got[1] == math.inf and math.isnan(got[2]) and got[3] == 5.0


# 0, or a magnitude whose square's rounding error is a multiple of the least subnormal
# (|a| >= 2**-485), so that Dekker's split of the square is exact; squares may overflow
_SPLIT_EXACT = (st.just(0.0) | st.floats(2.0**-485, allow_infinity=False)).flatmap(
    lambda a: st.sampled_from((a, -a)))


class TestSumOfSquares:
    """sum_of_squares is the exact sum of the squares, rounded once, wherever Dekker's split is exact."""

    @given(st.lists(_SPLIT_EXACT, min_size=1, max_size=4))
    @example([math.nextafter(2.0**512, 0.0)])  # the largest finite square: Dekker's hi * hi overflows
    @example([2.0**512])  # the least square that overflows
    @example([1.3e154, 1.3e154])  # finite squares whose sum overflows
    @example([9.4e153, 9.4e153])  # finite squares whose sum is finite and above 2**1000
    @example([math.nextafter(2.0**500, 0.0), 1.0])  # a sum just below 2**1000
    @example([2.0**500])  # a sum at 2**1000, where exact rationals take over
    @example([2.0**-480, 3.0 * 2.0**-490])  # a sum at 2**-960, where the split and fsum take over
    @example([2.0**-485, 2.0**-485 * (1.0 + 2.0**-52)])  # the least magnitudes whose split is exact
    @example([1.0, 2.0**-27, 2.0**-27])  # the exact sum is a midpoint: it rounds to even
    @example([1.0] + [2.0**-27] * 6)  # a midpoint that rounds up, where a plain sum gives 1.0
    @example([0.0, -0.0])
    @settings(max_examples=500, deadline=None)
    def test_is_the_exact_sum_rounded_once(self, w):
        try:
            want = float(sum(Fraction(a) ** 2 for a in w))
        except OverflowError:
            want = math.inf
        got = sum_of_squares(w)
        assert got == want and type(got) is float

    @pytest.mark.parametrize("w", [[5e-324], [1e-170, 3e-171, 0.0], [5e-324, 1e-200]])
    def test_subnormal_squares_are_summed_exactly(self, w):
        assert sum_of_squares(w) == float(sum(Fraction(a) ** 2 for a in w))

    def test_nan_and_infinite_coordinates(self):
        assert math.isnan(sum_of_squares([math.nan, 1.0]))
        assert math.isnan(sum_of_squares([math.inf, math.nan]))
        assert sum_of_squares([1.0, -math.inf]) == math.inf


def _today_ball_project(s, x):
    """exact_project's ball formula as it reads where ||x - c||^2 is finite."""
    v = x - s.center
    r = math.sqrt(v.dot(v))
    return x.copy() if r <= s.radius else s.center + (s.radius / r) * v


class TestBallOverflow:
    def test_projection_not_the_centre(self):
        s = Ball([2e154, 0.0], 1e154)
        with np.errstate(over="ignore"):
            res = approx_project(s, [0.0, 0.0])
        assert res.point.tolist() == [1e154, 0.0]
        assert res.certified_eps == 0.0 and res.converged
        assert residual(s, res.point) <= 0.0

    @pytest.mark.parametrize("radius", [1.0, 1.5e308])
    def test_overflowing_difference_is_still_not_finite(self, radius):
        # x - c itself overflows: the point stays NaN, as before, and fails downstream
        with np.errstate(over="ignore", invalid="ignore"):
            z = exact_project(Ball([1e308, 0.0], radius), [-1e308, 0.0])
        assert not np.isfinite(z).all()

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_finite_cases_unchanged(self, data):
        d = data.draw(st.integers(1, 4))
        c = np.array(data.draw(st.lists(_WIDE, min_size=d, max_size=d)))
        x = np.array(data.draw(st.lists(_WIDE, min_size=d, max_size=d)))
        # |r| for a nonzero r from _WIDE's ranges
        radius = data.draw(st.one_of([st.floats(0.0, top, exclude_min=True)
                                      for top in (1e-150, 1e-160, 10.0, 1e150, 1e160)]))
        s = Ball(c, radius)
        with np.errstate(over="ignore", under="ignore"):
            got = exact_project(s, x)
            v = x - c
            if math.isfinite(float(v.dot(v))):
                assert got.tobytes() == _today_ball_project(s, x).tobytes()
                return
            # the overflowing case: the projection, read off v scaled by its largest |v_i|
            top = float(np.abs(v).max())
            rs = float(np.linalg.norm(v / top))
            want = x if rs * top <= radius else c + radius * (v / top) / rs
        assert np.isfinite(got).all()
        tol = 8.0 * EPS * (np.abs(c).max() + radius)
        assert np.allclose(got, want, rtol=0.0, atol=tol)

    def test_overflowing_member_is_fixed(self):
        # ||x - c||^2 overflows, but ||x - c|| = 1e156 lies inside the radius
        s = Ball([0.0, 0.0], 1e157)
        x = np.array([1e156, 0.0])
        with np.errstate(over="ignore"):
            z = exact_project(s, x)
        assert z.tobytes() == x.tobytes() and z is not x


OTHER_DIMENSION = [
    (Ball([0.0], 1.0), [3.0, 4.0]),
    (Box([0.0], [1.0]), [3.0, 4.0]),
    (Halfspace([1.0], 0.0), [-2.0, 0.0]),
    (UNIT_BALL, [2.0]),
    (Sublevel(ball_fn([0.0], 1.0), 0.0, slater=[0.0]), [2.0, 0.0]),
]


class TestDimensionMismatch:
    """A point of another dimension than the set raises instead of broadcasting."""

    @pytest.mark.parametrize("s, x", OTHER_DIMENSION)
    @pytest.mark.parametrize("call", [residual, distance])
    def test_residual_and_distance_raise(self, call, s, x):
        with pytest.raises(ValueError, match=f"point has dimension {len(x)}, set has"):
            call(s, x)

    @pytest.mark.parametrize("s, x", OTHER_DIMENSION[:4])
    def test_exact_project_raises(self, s, x):
        with pytest.raises(ValueError, match=f"point has dimension {len(x)}, set has"):
            exact_project(s, x)


@dataclass(frozen=True)
class _Above(SetDescription):
    """{x : x >= lo} componentwise: a kind that only this module defines."""

    lo: np.ndarray

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def project(self, x):
        return np.maximum(x, self.lo)

    def residual(self, x):
        return float(np.max(self.lo - x))


@dataclass(frozen=True)
class _Certified(_Above):
    """{x : x >= lo}, whose certified projection is its own: the closed form at certificate cert."""

    cert: float = 2.0**-14
    converged: bool = True

    def project(self, x):
        raise AssertionError("the kind's certified_project is the route")

    def certified_project(self, x, cfg):
        z = np.maximum(geometry.point_of(self, x), self.lo)
        return ProjectionResult(z, self.cert, 3, converged=self.converged)


class TestSetKindContract:
    """Each kind owns dim, residual and feas_tol, and project and lmo where it has them."""

    @pytest.mark.parametrize("s, feas_tol", [
        (RIGHT_HALF, 1e-12), (UNIT_BALL, 1e-12), (UNIT_BOX, 1e-12), (DISK_SUBLEVEL, 1e-10),
    ])
    def test_builtin_kinds_report_dim_residual_and_feas_tol(self, s, feas_tol):
        x = np.array([-0.5, 2.0])
        assert isinstance(s, SetDescription)
        assert s.dim == 2
        assert s.residual(x) == residual(s, x) > 0.0
        assert s.feas_tol == feas_tol

    @pytest.mark.parametrize("s, method, message", [
        (DISK_SUBLEVEL, "project", "no closed-form projection for Sublevel"),
        (RIGHT_HALF, "lmo", "no bounded linear-minimization oracle for Halfspace"),
        (DISK_SUBLEVEL, "lmo", "no bounded linear-minimization oracle for Sublevel"),
    ])
    def test_missing_operations_raise(self, s, method, message):
        with pytest.raises(UnsupportedKind, match=message):
            getattr(s, method)() if method == "lmo" else s.project(np.zeros(2))

    def test_new_kind_works_without_editing_the_package(self):
        s = _Above(np.array([1.0, 0.0]))
        res = approx_project(s, [0.0, -2.0])
        assert res.point.tolist() == [1.0, 0.0] and res.certified_eps == 0.0 and res.converged
        assert residual(s, [0.0, -2.0]) == 2.0
        assert distance(s, [0.0, -2.0]) == math.sqrt(5.0)
        assert exact_project(s, [2.0, 3.0]).tolist() == [2.0, 3.0]
        with pytest.raises(ValueError, match="point has dimension 3, set has 2"):
            residual(s, [0.0, 0.0, 0.0])
        with pytest.raises(UnsupportedKind, match="no bounded linear-minimization oracle for _Above"):
            approx_project(s, [0.0, -2.0], ProjectorConfig(method="fw"))

    def test_new_kind_drives_a_sweeping_process(self):
        # C(t) = {x >= (t, 0)} pushes x0 = 0 along x(t) = (t, 0); the nodes are exact
        problem = SweepingProblem(MovingSet(lambda t: _Above(np.array([t, 0.0])), lipschitz=1.0),
                                  zero_perturbation(), [0.0, 0.0], 1.0)
        traj = solve(problem, 8)
        assert traj.nodes.tolist() == [[k / 8, 0.0] for k in range(9)]
        audit = theorem1_audit(traj, problem)
        assert all(c["verdict"] == "certified" for c in audit["checks"])

    def test_kind_certificate_passes_through_approx_project(self):
        s = _Certified(np.array([1.0, 0.0]))
        res = approx_project(s, [0.0, -2.0], ProjectorConfig(eps=1e-3))
        assert res.point.tolist() == [1.0, 0.0] and residual(s, res.point) <= 0.0
        assert (res.certified_eps, res.iterations, res.converged) == (2.0**-14, 3, True)

    def test_distance_raises_on_the_kind_unconverged_result(self):
        s = _Certified(np.array([1.0, 0.0]), cert=0.25, converged=False)
        with pytest.raises(ProjectionFailed, match="certificate 2.500e-01 exceeds eps"):
            distance(s, [0.0, -2.0])

    def test_solve_records_the_kind_certificate(self):
        # 2**-14 lies below eps_n = 8**-3, so every step converges and keeps it
        problem = SweepingProblem(MovingSet(lambda t: _Certified(np.array([t, 0.0])), lipschitz=1.0),
                                  zero_perturbation(), [0.0, 0.0], 1.0)
        traj = solve(problem, 8)
        assert traj.nodes.tolist() == [[k / 8, 0.0] for k in range(9)]
        assert [(d.certified_eps, d.iterations, d.converged) for d in traj.diagnostics] == \
            [(2.0**-14, 3, True)] * 8

    def test_non_kind_is_rejected_at_construction(self):
        with pytest.raises(UnsupportedKind, match="C\\(0\\) is not a set kind: tuple"):
            SweepingProblem(MovingSet.fixed((0.0, 1.0)), zero_perturbation(), [0.0], 1.0)
        field = Perturbation(lambda t, x: np.zeros(1), lambda x: 0.0, 0.0)
        with pytest.raises(UnsupportedKind, match="F\\(0, x0\\) is not a set kind: ndarray"):
            SweepingProblem(MovingSet.fixed(Ball([0.0], 1.0)), field, [0.0], 1.0)


class TestConstruction:
    def test_box_order_enforced(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    @pytest.mark.parametrize("lo, hi, message", [
        ([0.0, 0.0], [1.0], "box lo has dimension 2, hi has 1"),
        ([0.0], [1.0, 2.0, 3.0], "box lo has dimension 1, hi has 3"),
    ])
    def test_box_names_the_shapes_it_cannot_pair(self, lo, hi, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Box(lo, hi)

    def test_halfspace_nonzero_normal(self):
        with pytest.raises(ValueError):
            Halfspace([0.0, 0.0], 1.0)

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_halfspace_finite_offset(self, offset):
        with pytest.raises(ValueError, match="offset must be finite"):
            Halfspace([1.0, 0.0], offset)

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), math.inf])
    def test_ball_fn_radius_positive(self, radius):
        # radius -1 would square to the unit disk
        with pytest.raises(ValueError, match="radius"):
            ball_fn([0.0, 0.0], radius)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_ball_radius_positive_and_finite(self, radius):
        # an infinite radius would give an LMO atom of (-inf, nan)
        with pytest.raises(ValueError, match="ball radius must be positive and finite"):
            Ball([0.0, 0.0], radius)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_sublevel_level_finite(self, level):
        # level = inf made every point a member
        with pytest.raises(ValueError, match="sublevel level must be finite"):
            Sublevel(ball_fn([0.0, 0.0], 1.0), level, slater=[0.0, 0.0])

    @pytest.mark.parametrize("lipschitz", [math.nan, math.inf, -1.0])
    def test_moving_set_lipschitz_finite_and_nonnegative(self, lipschitz):
        # L_C = nan let the audit pass with every check inconclusive, and
        # L_C = -1 refuted six checks without naming the constant
        with pytest.raises(ValueError, match="lipschitz must be finite and >= 0"):
            MovingSet(lambda t: UNIT_BALL, lipschitz=lipschitz)

    def test_slater_strictness(self):
        with pytest.raises(ValueError):
            Sublevel(ball_fn([0.0, 0.0], 1.0), 0.0, slater=[1.0, 0.0])

    def test_max_fn_lowest_index_subgradient(self):
        f = max_fn([affine_fn([1.0, 0.0], 0.0), affine_fn([1.0, 0.0], 0.0),
                    affine_fn([0.0, 1.0], 0.0)])
        # first two tie at the kink; the first one wins
        g = f.subgrad(np.array([1.0, 0.5]))
        assert np.allclose(g, [1.0, 0.0])

    def test_box_as_max_of_affine(self):
        fns = [affine_fn([1.0, 0.0], 1.0), affine_fn([-1.0, 0.0], 1.0),
               affine_fn([0.0, 1.0], 1.0), affine_fn([0.0, -1.0], 1.0)]
        g = max_fn(fns)
        assert g.eval(np.array([0.0, 0.0])) == pytest.approx(-1.0)
        assert g.eval(np.array([3.0, 0.0])) == pytest.approx(2.0)


def _constant(value, j):
    """A constant component whose subgradient names its index."""
    return geometry.ConvexFnOracle(eval=lambda x: value, subgrad=lambda x: np.array([float(j), 0.0]))


class TestMaxFnNaN:
    """A NaN component makes max_fn NaN wherever it stands; finite values keep max()'s bits."""

    X = np.array([0.5, 0.0])

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_nan_component_makes_the_max_nan(self, at):
        fns = [affine_fn([1.0, 0.0], 1.5), affine_fn([0.0, 1.0], 0.0)]  # -1.0 and 0.0 at X
        fns.insert(at, _constant(math.nan, at))
        assert math.isnan(max_fn(fns).eval(self.X))

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_nan_component_subgradient_raises(self, at):
        fns = [affine_fn([1.0, 0.0], 1.5), affine_fn([0.0, 1.0], 0.0)]
        fns.insert(at, _constant(math.nan, at))
        with pytest.raises(ValueError, match=f"component {at} evaluates to NaN"):
            max_fn(fns).subgrad(self.X)

    @given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.0, math.inf, -math.inf]), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_finite_values_keep_max_and_lowest_index(self, values):
        f = max_fn([_constant(v, j) for j, v in enumerate(values)])
        top = max(values)
        assert np.float64(f.eval(self.X)).tobytes() == np.float64(top).tobytes()
        assert f.subgrad(self.X)[0] == values.index(top)


class TestHalfspaceScaling:
    """Normal and offset are stored scaled by 2**k, with the largest |normal_i| in [1, 2)."""

    @pytest.mark.parametrize("normal, offset, x, want", [
        ([1e-160, 0.0], 1.0, [0.0, 0.0], [1e160, 0.0]),  # n.n was subnormal: [inf, nan]
        ([1e-153, 0.0], 1000.0, [0.0, 0.0], [1e156, 0.0]),  # gap / n.n overflowed: [inf, nan]
        ([1e200, 1e200], 1.0, [-1e200, 0.0], [-5e199, 5e199]),  # n.n overflowed: [nan, nan]
        ([1e-200, 0.0], 1.0, [0.0, 0.0], [1e200, 0.0]),  # n.n underflowed to 0: rejected
    ])
    def test_projection_is_finite(self, normal, offset, x, want):
        s = Halfspace(normal, offset)
        assert 1.0 <= np.abs(s.normal).max() < 2.0
        assert exact_project(s, x) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("normal, offset, stored_normal, stored_offset", [
        ([1.0, 0.0], 0.3, [1.0, 0.0], 0.3),  # a unit normal is stored as is
        ([3.0, -4.0], 2.5, [0.75, -1.0], 0.625),
    ])
    def test_scaling_is_exact(self, normal, offset, stored_normal, stored_offset):
        s = Halfspace(normal, offset)
        assert np.array_equal(s.normal, stored_normal) and s.offset == stored_offset

    def test_offset_that_overflows_once_scaled_is_rejected(self):
        with pytest.raises(ValueError, match="offset 10000.0 is not finite once scaled"):
            Halfspace([5e-324, 0.0], 1e4)

    def test_keeps_the_bits_of_every_finite_unscaled_projection(self):
        rng = np.random.default_rng(7)
        compared = 0
        for _ in range(2000):
            d = int(rng.integers(1, 6))
            n, x = (rng.normal(size=d) * 10.0 ** rng.uniform(-100, 100) for _ in range(2))
            b = float(rng.normal() * 10.0 ** rng.uniform(-100, 100))
            with np.errstate(over="ignore", invalid="ignore"):
                want = _reference_project(_Unscaled(n, b), x)
                want_residual = _reference_residual(_Unscaled(n, b), x)
            if np.isfinite(want).all() and math.isfinite(want_residual):
                s = Halfspace(n, b)
                assert np.array_equal(exact_project(s, x), want)
                assert residual(s, x) == want_residual
                compared += 1
        assert compared > 1900


class _Unscaled(Halfspace):
    """A halfspace whose normal and offset are stored as given."""

    def __post_init__(self):
        pass


class TestProxEps0:
    @staticmethod
    def quadratic_root(gamma, rho):
        # the defining equation is quadratic in s = sqrt(eps0):
        # (16/rho) s^2 + 4 (1 + gamma + 1/rho) s + (gamma - 1) = 0
        a = 16.0 / rho
        b = 4.0 * (1.0 + gamma + 1.0 / rho)
        c = gamma - 1.0
        s = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        return s * s

    def test_against_quadratic_formula(self):
        eps0 = prox_eps0(0.5, 1.0)
        assert eps0 == pytest.approx(self.quadratic_root(0.5, 1.0), abs=1e-12)
        assert eps0 == pytest.approx(2.1655216196e-3, abs=1e-10)

    def test_defining_equation_residual(self):
        for gamma in (0.1, 0.5, 0.9, 0.999):
            for rho in (0.1, 1.0, 100.0):
                s = math.sqrt(prox_eps0(gamma, rho))
                lhs = gamma + 4.0 * s * (1.0 + gamma + (1.0 + 4.0 * s) / rho)
                assert abs(lhs - 1.0) <= 1e-10

    def test_vanishes_as_gamma_to_one(self):
        values = [prox_eps0(g, 1.0) for g in (0.9, 0.99, 0.999, 0.9999)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-8

    def test_monotone_in_both_arguments(self):
        gammas = np.linspace(0.05, 0.95, 8)
        rhos = np.logspace(-1, 2, 8)
        for rho in rhos:
            vals = [prox_eps0(g, rho) for g in gammas]
            assert all(b < a for a, b in zip(vals, vals[1:]))  # decreasing in gamma
        for g in gammas:
            vals = [prox_eps0(g, r) for r in rhos]
            assert all(b > a for a, b in zip(vals, vals[1:]))  # increasing in rho

    def test_matches_high_precision_root(self):
        # reference: the textbook root in 60-digit decimals, from the exact
        # binary values of gamma and rho
        for gamma in (0.025, 0.5, 0.9, 0.9999, 1.0 - 1e-8, 1.0 - 1e-12):
            for rho in (0.01, 1.0, 100.0):
                s = math.sqrt(prox_eps0(gamma, rho))
                with localcontext() as ctx:
                    ctx.prec = 60
                    g, r = Decimal(gamma), Decimal(rho)
                    a, b = 16 / r, 4 * (1 + g + 1 / r)
                    ref = (-b + (b * b + 4 * a * (1 - g)).sqrt()) / (2 * a)
                    rel = float(abs(Decimal(s) - ref) / ref)
                assert rel <= 1e-15, (gamma, rho, rel)
                lhs = gamma + 4.0 * s * (1.0 + gamma + (1.0 + 4.0 * s) / rho)
                assert abs(lhs - 1.0) <= 4 * 2.0**-52, (gamma, rho, lhs)

    def test_no_root_for_gamma_ge_one(self):
        with pytest.raises(NoRoot):
            prox_eps0(1.0, 1.0)
