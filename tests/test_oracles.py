import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catchup.geometry import Ball, Box, Halfspace, Sublevel, affine_fn, ball_fn, max_fn, residual
from catchup.oracles import (
    ProjectionFailed,
    ProjectorConfig,
    _project_polyhedron,
    approx_project,
    cutting_plane_project,
    frank_wolfe_project,
    lmo_ball,
    lmo_box,
    separation_oracle,
    feasibility_tolerance,
)

UNIT_BALL = Ball([0.0, 0.0], 1.0)
DISK = Sublevel(ball_fn([0.0, 0.0], 1.0), 0.0, slater=[0.0, 0.0])


class TestLinearMinimizationOracles:
    def test_ball_points_against_direction(self):
        s = lmo_ball(UNIT_BALL.center, UNIT_BALL.radius)(np.array([1.0, 0.0]))
        assert np.allclose(s, [-1.0, 0.0])

    def test_ball_zero_direction_returns_center(self):
        assert np.allclose(lmo_ball(UNIT_BALL.center, UNIT_BALL.radius)(np.zeros(2)), UNIT_BALL.center)

    def test_box_vertex(self):
        box = Box([0.0, 0.0], [2.0, 3.0])
        s = lmo_box(box.lo, box.hi)(np.array([-1.0, 1.0]))
        assert np.allclose(s, [2.0, 0.0])

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    @settings(max_examples=100, deadline=None)
    def test_lmo_optimality_on_ball(self, d):
        d = np.asarray(d, float)
        s = lmo_ball(UNIT_BALL.center, UNIT_BALL.radius)(d)
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=2)
            v = UNIT_BALL.center + UNIT_BALL.radius * v / np.linalg.norm(v)
            assert float(np.dot(d, s)) <= float(np.dot(d, v)) + 1e-9


class TestFrankWolfe:
    def test_exterior_point_on_ball(self):
        cfg = ProjectorConfig(eps=1e-10)
        res = frank_wolfe_project(lmo_ball(UNIT_BALL.center, UNIT_BALL.radius),
                                  np.array([2.0, 0.0]), cfg)
        assert res.converged
        assert np.linalg.norm(res.point - [1.0, 0.0]) <= 1e-5
        assert res.certified_eps <= 1e-10

    def test_certificate_sound_against_true_value(self):
        # certified_eps bounds ||x-z||^2 - d(x)^2 from above
        rng = np.random.default_rng(3)
        cfg = ProjectorConfig(eps=1e-8)
        for _ in range(25):
            x = rng.uniform(-3, 3, size=2)
            res = frank_wolfe_project(lmo_ball(UNIT_BALL.center, UNIT_BALL.radius), x, cfg)
            d_true = max(np.linalg.norm(x - UNIT_BALL.center) - UNIT_BALL.radius, 0.0)
            gap = float(np.dot(x - res.point, x - res.point)) - d_true * d_true
            assert gap <= res.certified_eps + 1e-12

    def test_result_is_feasible(self):
        cfg = ProjectorConfig(eps=1e-8)
        res = frank_wolfe_project(lmo_ball(UNIT_BALL.center, UNIT_BALL.radius),
                                  np.array([5.0, -4.0]), cfg)
        assert residual(UNIT_BALL, res.point) <= feasibility_tolerance(UNIT_BALL)

    def test_iteration_cap_reported(self):
        cfg = ProjectorConfig(eps=1e-16, max_iter=2)
        res = frank_wolfe_project(lmo_ball(UNIT_BALL.center, UNIT_BALL.radius),
                                  np.array([2.0, 1.0]), cfg)
        assert not res.converged
        assert res.iterations == 2


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
                assert residual(DISK, x) <= feasibility_tolerance(DISK)
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
        assert residual(DISK, res.point) <= feasibility_tolerance(DISK)

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

    def test_member_short_circuit(self):
        cfg = ProjectorConfig(eps=1e-8)
        x = np.array([0.1, -0.2])
        res = approx_project(DISK, x, cfg)
        assert np.array_equal(res.point, x)
        assert res.certified_eps == 0.0
        assert res.iterations == 0


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


class TestApproxProject:
    def test_auto_routes_closed_form(self):
        res = approx_project(UNIT_BALL, np.array([2.0, 0.0]), ProjectorConfig(eps=1e-8))
        assert np.allclose(res.point, [1.0, 0.0])
        assert res.certified_eps == 0.0

    def test_auto_routes_sublevel(self):
        res = approx_project(DISK, np.array([0.0, 2.0]), ProjectorConfig(eps=1e-8))
        assert res.certified_eps <= 1e-8
        assert np.linalg.norm(res.point - [0.0, 1.0]) <= 1e-4

    @pytest.mark.parametrize("method", ["exact", "cutting", "atuo"])
    def test_config_rejects_unknown_method(self, method):
        with pytest.raises(ValueError, match="method"):
            ProjectorConfig(method=method)

    def test_fw_method_on_ball(self):
        res = approx_project(UNIT_BALL, np.array([2.0, 0.0]), ProjectorConfig(eps=1e-8, method="fw"))
        assert res.certified_eps <= 1e-8
        assert residual(UNIT_BALL, res.point) <= feasibility_tolerance(UNIT_BALL)

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
