import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catchup.geometry import Ball, Box, MovingSet
from catchup.oracles import ProjectionFailed, ProjectionResult, ProjectorConfig
from catchup.perturbation import (
    Perturbation,
    Selection,
    cell_integral,
    constant_set_perturbation,
    linear_decay_perturbation,
    make_selection,
    min_norm_selection,
    zero_perturbation,
)
from catchup.solver import SweepingProblem, solve

SINGLE_VALUED = (zero_perturbation, linear_decay_perturbation)


class TestMinNormSelection:
    def test_singleton_zero(self):
        p = zero_perturbation()
        assert np.allclose(min_norm_selection(p, 0.0, [1.0, 2.0]), [0.0, 0.0])

    def test_singleton_minus_x(self):
        p = linear_decay_perturbation()
        x = np.array([0.3, -0.7])
        assert np.allclose(min_norm_selection(p, 0.5, x), -x)

    def test_interval_picks_near_end(self):
        p = constant_set_perturbation(Box([2.0], [3.0]), h_bound=2.0)
        v = min_norm_selection(p, 0.0, [0.0])
        assert v[0] == pytest.approx(2.0, abs=1e-6)

    def test_offset_ball_picks_near_point(self):
        p = constant_set_perturbation(Ball([3.0, 0.0], 1.0), h_bound=2.0)
        v = min_norm_selection(p, 0.0, [0.0, 0.0])
        assert np.linalg.norm(v - [2.0, 0.0]) <= 1e-6

    def test_norm_within_gamma_of_minimum(self):
        # min norm over Ball((3,0),1) is 2; selection norm^2 < 4 + gamma
        gamma = 1e-6
        p = constant_set_perturbation(Ball([3.0, 0.0], 1.0), h_bound=2.0)
        v = min_norm_selection(p, 0.0, [0.0, 0.0], projector=ProjectorConfig(eps=gamma))
        assert float(np.dot(v, v)) <= 4.0 + gamma

    def test_unconverged_projection_raises(self, monkeypatch):
        def unconverged(s, x, cfg=None):
            return ProjectionResult(np.asarray(x, float), 1.0, 7, converged=False)

        monkeypatch.setattr("catchup.perturbation.approx_project", unconverged)
        p = constant_set_perturbation(Ball([3.0, 0.0], 1.0), h_bound=2.0)
        with pytest.raises(ProjectionFailed):
            min_norm_selection(p, 0.0, [0.0, 0.0])


class TestCellIntegral:
    def test_time_independent_single_evaluation(self):
        calls = []

        def f(t, x):
            calls.append(t)
            return np.array([2.0])

        sel = Selection(f=f, time_independent=True)
        v, values = cell_integral(sel, [0.0], 0.0, 0.5)
        assert np.allclose(v, [1.0])
        assert calls == [0.0]
        assert np.array_equal(values, [[2.0]])

    def test_hands_back_the_values_it_summed(self):
        # f at the midpoints 1/8, 3/8, 5/8, 7/8 of the four sub-cells, summed in order
        sel = Selection(f=lambda t, x: np.array([t, 1.0 - t]) + x)
        x = np.array([0.1, -0.3])
        v, values = cell_integral(sel, x, 0.0, 1.0)
        mids = np.array([0.125, 0.375, 0.625, 0.875])
        assert np.array_equal(values, np.stack([mids, 1.0 - mids], axis=1) + x)
        assert np.array_equal(v, 0.25 * (((values[0] + values[1]) + values[2]) + values[3]))

    def test_exact_on_linear_integrands(self):
        sel = Selection(f=lambda t, x: np.array([3.0 * t + 1.0]))
        v, _ = cell_integral(sel, [0.0], 0.0, 2.0)
        assert v[0] == pytest.approx(8.0, abs=1e-12)  # int_0^2 (3t+1) dt

    def test_quadratic_frozen_value(self):
        # composite midpoint with the default q=4 on t^2 over [0,1]:
        # (1/4) * sum ((2j+1)/8)^2 = 0.328125 exactly
        sel = Selection(f=lambda t, x: np.array([t * t]))
        v, _ = cell_integral(sel, [0.0], 0.0, 1.0)
        assert v[0] == 0.328125
        # error against 1/3 obeys the (b-a)^3 M2 / (24 q^2) bound with M2 = 2
        assert abs(v[0] - 1.0 / 3.0) <= 2.0 / (24.0 * 16.0)

    def test_empty_cell(self):
        sel = Selection(f=lambda t, x: np.array([1.0]))
        v, values = cell_integral(sel, [0.0], 0.3, 0.3)
        assert np.array_equal(v, [0.0])
        assert np.array_equal(values, np.zeros((4, 1)))

    def test_rejects_reversed_interval(self):
        sel = Selection(f=lambda t, x: np.array([1.0]))
        with pytest.raises(ValueError):
            cell_integral(sel, [0.0], 1.0, 0.0)

    @pytest.mark.parametrize("time_independent", [True, False])
    def test_rejects_selection_of_wrong_dimension(self, time_independent):
        sel = Selection(f=lambda t, x: np.array([1.0]), time_independent=time_independent)
        with pytest.raises(ValueError, match="shape"):
            cell_integral(sel, [0.0, 0.0], 0.0, 0.5)


class TestWrongDimensionField:
    """A field whose value has another dimension than the state fails loudly."""

    one_vector = Perturbation.single_valued(
        field=lambda t, x: np.array([1.0]), h=lambda x: 1.0, lipschitz_h=0.0, time_independent=True,
    )

    def test_construction_rejects_it(self):
        with pytest.raises(ValueError, match="dimension"):
            SweepingProblem(MovingSet.fixed(Ball([0.0, 0.0], 10.0)), self.one_vector,
                            [0.0, 0.0], 1.0)

    def test_construction_rejects_set_value_of_other_dimension(self):
        three_d = constant_set_perturbation(Ball([1.0, 0.0, 0.0], 0.5), h_bound=1.5)
        with pytest.raises(ValueError, match="dimension"):
            SweepingProblem(MovingSet.fixed(Ball([0.0, 0.0], 10.0)), three_d, [0.0, 0.0], 1.0)

    def test_solve_rejects_it(self):
        # 2-d at t = 0, which construction checks, and 1-d at the quadrature nodes
        later_one_vector = Perturbation.single_valued(
            field=lambda t, x: np.zeros(2) if t == 0.0 else np.array([1.0]),
            h=lambda x: 1.0, lipschitz_h=0.0,
        )
        problem = SweepingProblem(MovingSet.fixed(Ball([0.0, 0.0], 10.0)), later_one_vector,
                                  [0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="shape"):
            solve(problem, 4)


class TestCatalog:
    def test_growth_bound_holds_for_selections(self):
        # ||f(t, x)|| <= h(x) + sqrt(gamma) for near-minimal selections
        gamma = 1e-8
        rng = np.random.default_rng(2)
        for p in (zero_perturbation(), linear_decay_perturbation(),
                  constant_set_perturbation(Ball([3.0, 0.0], 1.0), h_bound=2.0)):
            sel = make_selection(p, gamma)
            for _ in range(10):
                x = rng.uniform(-2, 2, size=2)
                v = sel.f(0.3, x)
                assert np.linalg.norm(v) <= p.h(x) + math.sqrt(gamma) + 1e-12

    def test_zero_perturbation_metadata(self):
        p = zero_perturbation()
        assert p.time_independent
        assert p.lipschitz_h == 0.0
        assert p.h(np.array([5.0, 5.0])) == 0.0

    @pytest.mark.parametrize("lipschitz_h", [math.nan, math.inf, -1.0])
    def test_rejects_lipschitz_h_that_is_not_finite_and_nonnegative(self, lipschitz_h):
        # L_h = nan once let the audit pass with six of its seven checks inconclusive
        with pytest.raises(ValueError, match="lipschitz_h must be finite and >= 0"):
            Perturbation(lambda t, x: Box(x, x), lambda x: 0.0, lipschitz_h)
        with pytest.raises(ValueError, match="lipschitz_h must be finite and >= 0"):
            Perturbation.single_valued(lambda t, x: np.zeros(2), lambda x: 0.0, lipschitz_h)

    def test_linear_decay_monotonicity_modulus(self):
        # F(t, x) = {-x}: <y - y', x - x'> <= k ||x - x'||^2 with modulus k = 0
        p = linear_decay_perturbation()
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, xp = rng.normal(size=2), rng.normal(size=2)
            y, yp = min_norm_selection(p, 0.7, x), min_norm_selection(p, 0.7, xp)
            lhs = float(np.dot(y - yp, x - xp))
            assert lhs <= 0.0 * float(np.dot(x - xp, x - xp)) + 1e-12


class TestSingleValued:
    @pytest.mark.parametrize("make", SINGLE_VALUED)
    def test_selection_never_projects(self, make, monkeypatch):
        def no_projection(s, x, cfg=None):
            raise AssertionError("a single-valued selection called approx_project")

        monkeypatch.setattr("catchup.perturbation.approx_project", no_projection)
        sel = make_selection(make())
        x = np.array([0.3, -0.7])
        assert np.array_equal(sel.f(0.2, x), make().field(0.2, x))
        cell_integral(sel, x, 0.0, 0.5)

    @pytest.mark.parametrize("make", SINGLE_VALUED)
    @example(x=[0.0, -0.0], t=0.0)
    @example(x=[-0.0], t=1.0)
    @given(x=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
           t=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_field_is_the_min_norm_selection(self, make, x, t):
        p = make()
        x = np.array(x)
        assert np.array_equal(make_selection(p).f(t, x), min_norm_selection(p, t, x))

    @pytest.mark.parametrize("make", SINGLE_VALUED)
    def test_values_is_the_degenerate_box_of_field(self, make):
        p = make()
        x = np.array([1.5, -2.0, 0.0])
        s = p.values(0.4, x)
        v = p.field(0.4, x)
        assert isinstance(s, Box)
        assert np.array_equal(s.lo, v) and np.array_equal(s.hi, v)

    def test_set_valued_selection_builds_one_projector(self, monkeypatch):
        built = []

        def counting(**kwargs):
            built.append(kwargs)
            return ProjectorConfig(**kwargs)

        monkeypatch.setattr("catchup.perturbation.ProjectorConfig", counting)
        sel = make_selection(constant_set_perturbation(Ball([3.0, 0.0], 1.0), h_bound=2.0), 1e-6)
        for t in (0.0, 0.25, 0.5):
            sel.f(t, np.zeros(2))
        assert built == [{"eps": 1e-6}]

    def test_make_selection_rejects_nonpositive_gamma(self):
        for p in (zero_perturbation(), constant_set_perturbation(Box([1.0], [2.0]), 1.0)):
            with pytest.raises(ValueError, match="gamma"):
                make_selection(p, gamma=0.0)
