import math

import numpy as np
import pytest

from catchup.geometry import Ball, Box
from catchup.oracles import ProjectionFailed, ProjectionResult
from catchup.perturbation import (
    Selection,
    cell_integral,
    constant_set_perturbation,
    linear_decay_perturbation,
    make_selection,
    min_norm_selection,
    zero_perturbation,
)


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
        v = min_norm_selection(p, 0.0, [0.0, 0.0], gamma)
        assert float(np.dot(v, v)) <= 4.0 + gamma

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            min_norm_selection(zero_perturbation(), 0.0, [1.0], gamma=0.0)

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
        v = cell_integral(sel, [0.0], 0.0, 0.5)
        assert np.allclose(v, [1.0])
        assert len(calls) == 1

    def test_exact_on_linear_integrands(self):
        sel = Selection(f=lambda t, x: np.array([3.0 * t + 1.0]))
        v = cell_integral(sel, [0.0], 0.0, 2.0, q=1)
        assert v[0] == pytest.approx(8.0, abs=1e-12)  # int_0^2 (3t+1) dt

    def test_quadratic_frozen_value(self):
        # composite midpoint with q=4 on t^2 over [0,1]:
        # (1/4) * sum ((2j+1)/8)^2 = 0.328125 exactly
        sel = Selection(f=lambda t, x: np.array([t * t]))
        v = cell_integral(sel, [0.0], 0.0, 1.0, q=4)
        assert v[0] == 0.328125
        # error against 1/3 obeys the (b-a)^3 M2 / (24 q^2) bound with M2 = 2
        assert abs(v[0] - 1.0 / 3.0) <= 2.0 / (24.0 * 16.0)

    def test_additive_over_adjacent_cells(self):
        sel = Selection(f=lambda t, x: np.array([math.sin(3.0 * t)]))
        whole = cell_integral(sel, [0.0], 0.0, 1.0, q=8)
        parts = (cell_integral(sel, [0.0], 0.0, 0.5, q=4)
                 + cell_integral(sel, [0.0], 0.5, 1.0, q=4))
        assert abs(whole[0] - parts[0]) <= 1e-12

    def test_empty_cell(self):
        sel = Selection(f=lambda t, x: np.array([1.0]))
        assert np.allclose(cell_integral(sel, [0.0], 0.3, 0.3), [0.0])

    def test_rejects_reversed_interval(self):
        sel = Selection(f=lambda t, x: np.array([1.0]))
        with pytest.raises(ValueError):
            cell_integral(sel, [0.0], 1.0, 0.0)


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

    def test_linear_decay_monotonicity_modulus(self):
        # F(t, x) = {-x}: <y - y', x - x'> <= k ||x - x'||^2 with modulus k = 0
        p = linear_decay_perturbation()
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, xp = rng.normal(size=2), rng.normal(size=2)
            y, yp = min_norm_selection(p, 0.7, x), min_norm_selection(p, 0.7, xp)
            lhs = float(np.dot(y - yp, x - xp))
            assert lhs <= 0.0 * float(np.dot(x - xp, x - xp)) + 1e-12
