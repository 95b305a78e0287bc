import math

import numpy as np
import pytest

from catchup.geometry import Ball, exact_project, sum_of_squares
from catchup.harness import (
    CATALOG,
    EVAL_GRID_SIZE,
    RateStudy,
    UnknownProblem,
    fine_grid_reference,
    make_problem,
    rate_study,
    reference_solution,
    stability_study,
    sup_error,
)
from catchup.oracles import ProjectionResult
from catchup.solver import OutOfRange, ProjectionFailed, interpolate, solve


class TestCatalog:
    def test_all_problems_construct_and_validate(self):
        for pid in CATALOG:
            prob = make_problem(pid)
            assert prob.horizon > 0.0

    def test_unknown_problem(self):
        with pytest.raises(UnknownProblem):
            make_problem("does_not_exist")
        with pytest.raises(UnknownProblem):
            reference_solution("does_not_exist", 0.0)

    def test_reference_values(self):
        assert np.allclose(reference_solution("dragging_interval", 0.7), [0.7])
        assert np.allclose(reference_solution("translating_halfspace", 0.3), [0.3, 0.0])
        assert np.allclose(reference_solution("interior_ode", 0.0), [1.0, 0.0])
        assert np.allclose(reference_solution("translating_disk", 1.0), [0.0, 0.0])
        assert np.allclose(reference_solution("sublevel_disk", 0.25), [-0.75, 0.0])

    def test_references_stay_feasible(self):
        from catchup.geometry import residual
        for pid in CATALOG:
            prob = make_problem(pid)
            for t in np.linspace(0.0, prob.horizon, 9):
                s = prob.moving_set.at(float(t))
                assert residual(s, reference_solution(pid, float(t))) <= s.feas_tol


class TestSupError:
    def test_zero_against_self(self):
        traj = solve(make_problem("dragging_interval"), 16)
        assert sup_error(traj, traj) == 0.0

    def test_against_closed_form(self):
        traj = solve(make_problem("dragging_interval"), 16)
        err = sup_error(traj, lambda t: reference_solution("dragging_interval", t))
        assert err <= 1e-12

    def test_fine_grid_reference_usable(self):
        coarse = solve(make_problem("interior_ode"), 16)
        ref = fine_grid_reference("interior_ode", 256)
        err = sup_error(coarse, ref)
        assert 0.0 < err < 0.1

    @pytest.mark.parametrize("at", [0, EVAL_GRID_SIZE // 2, EVAL_GRID_SIZE - 1])
    def test_nan_reference_at_one_time_is_nan(self, at):
        traj = solve(make_problem("dragging_interval"), 16)
        ts = iter(range(EVAL_GRID_SIZE))

        def reference(t):
            x = reference_solution("dragging_interval", t)
            return np.full_like(x, np.nan) if next(ts) == at else x

        assert math.isnan(sup_error(traj, reference))

    def test_finite_result_is_the_largest_error(self):
        # errors off the axes, each measured from its correctly rounded square
        # as on every BLAS kernel
        traj = solve(make_problem("interior_ode"), 16)

        def reference(t):
            return np.array([0.9 * math.exp(-t), 0.37 * t])

        ts = np.linspace(0.0, traj.grid.horizon, EVAL_GRID_SIZE)
        want = max(math.sqrt(sum_of_squares((x - reference(float(t))).tolist()))
                   for t, x in zip(ts, interpolate(traj, ts)))
        assert np.float64(sup_error(traj, reference)).tobytes() == np.float64(want).tobytes()

    def test_float_reference_in_one_dimension(self):
        # d = 1: a reference that returns a float gives the same bits as one
        # that returns a 1-vector
        traj = solve(make_problem("dragging_interval"), 16)
        want = sup_error(traj, lambda t: reference_solution("dragging_interval", t))
        got = sup_error(traj, lambda t: float(reference_solution("dragging_interval", t)[0]))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("problem, reference", [
        ("dragging_interval", lambda t: np.array([t, 0.0])),  # (1,) - (2,) would broadcast
        ("translating_halfspace", lambda t: np.array([t])),
        ("translating_halfspace", lambda t: t),
    ])
    def test_reference_of_another_dimension_raises(self, problem, reference):
        traj = solve(make_problem(problem), 16)
        with pytest.raises(ValueError, match="dimension"):
            sup_error(traj, reference)

    def test_trajectory_reference_of_another_dimension_raises(self):
        traj = solve(make_problem("dragging_interval"), 16)
        with pytest.raises(ValueError, match="dimension"):
            sup_error(traj, solve(make_problem("translating_halfspace"), 16))

    def test_partial_trajectory_is_out_of_range(self):
        with pytest.raises(ProjectionFailed) as exc:
            solve(make_problem("translating_disk"), 16, method="fw", max_iter=1)
        with pytest.raises(OutOfRange, match="last computed node"):
            sup_error(exc.value.partial, lambda t: reference_solution("translating_disk", t))


class TestRateStudy:
    def test_halfspace_small_ladder(self):
        rs = rate_study("translating_halfspace", [8, 16, 32])
        assert len(rs.errors) == 3
        # exact projections track the closed form to rounding error
        assert max(rs.errors) <= 1e-10

    def test_disk_errors_shrink(self):
        rs = rate_study("translating_disk", [16, 32, 64])
        assert rs.errors[-1] < rs.errors[0]
        assert rs.slope > 0.25

    @pytest.mark.parametrize("pid", ["dragging_interval", "translating_halfspace", "sublevel_disk"])
    def test_exact_problem_passes_its_gate(self, pid):
        # errors of 0 or a few ulps neither fall strictly nor give a fitted slope
        rs = rate_study(pid, [16, 32, 64, 128])
        assert not (rs.slope >= 0.25 and rs.strictly_decreasing)
        assert rs.node_scale == 1.0
        assert rs.passed

    @pytest.mark.parametrize("errors, scale, passed", [
        ([2.2e-16, 1.1e-16, 2.2e-16, 1.1e-16], 1.0, True),
        ([0.0, 0.0], 0.0, True),
        ([1e-16, 8.8e-16], 1.0, True),  # within 4 ulps of 1, though rising
        ([1e-16, 9e-16], 1.0, False),  # above 4 ulps of 1, and rising
        ([1.1e-16, 2.2e-16], 1e-3, False),  # rounding of 1 is not rounding of 1e-3
        ([1e-2, 5e-3], 1.0, True),  # falls at slope 1
    ])
    def test_gate(self, errors, scale, passed):
        mus = [0.5 ** k for k in range(len(errors))]
        log_mu = np.log(mus)
        slope = float(np.polyfit(log_mu, np.log(np.maximum(errors, 1e-300)), 1)[0])
        rs = RateStudy("p", list(range(len(errors))), mus, mus, errors, slope, [], scale)
        assert rs.passed is passed

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            rate_study("dragging_interval", [16, 16])
        with pytest.raises(ValueError):
            rate_study("dragging_interval", [])

    def test_one_size_fits_no_slope(self):
        with pytest.raises(ValueError, match="at least two sizes"):
            rate_study("interior_ode", [16])

    def test_serialization(self):
        rs = rate_study("translating_halfspace", [8, 16])
        assert rs.to_csv().startswith("n,mu,eps_n,sup_error\n")
        assert '"strictly_decreasing"' in rs.to_json()


class _CertifiedAtQuarter(Ball):
    """A ball whose certified projection is its closed form at certificate 0.25."""

    def certified_project(self, x, cfg):
        return ProjectionResult(exact_project(self, x), 0.25, 7, 0.25 <= cfg.eps)


class TestStabilityStudy:
    def test_radial_approach_converges(self):
        ball = Ball([0.0, 0.0], 1.0)
        x = np.array([2.0, 0.0])
        u = np.array([1.0, 0.0])
        ns = range(1, 101)
        pts = [x + (1.0 / n) * u for n in ns]
        eps = [1.0 / n**2 for n in ns]
        study = stability_study(ball, x, pts, eps, method="fw")
        assert study.final_gap <= 1e-2
        assert study.monotone_within(factor=2.0)

    def test_non_finite_gap_raises(self):
        # x - center overflows, so the projections are (nan, 0)
        x = np.array([-1e308, 0.0])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ProjectionFailed, match="not finite"):
            stability_study(Ball([1e308, 0.0], 1.0), x, [x], [1e-8])

    def test_unconverged_projection_raises_naming_it(self):
        ball = _CertifiedAtQuarter([0.0, 0.0], 1.0)
        x = np.array([2.0, 0.0])
        with pytest.raises(ProjectionFailed,
                           match=r"projection 1 certificate 2\.500e-01 exceeds eps 1\.000e-08"):
            stability_study(ball, x, [x, x], [1.0, 1e-8])

    @pytest.mark.parametrize("points, eps, message", [
        ([[2.0, 0.0], [2.1, 0.0], [2.2, 0.0]], [1e-6], "3 points but 1 budgets"),
        ([[2.0, 0.0]], [1e-6, 1e-8], "1 points but 2 budgets"),
        ([], [], "no points"),
    ], ids=["fewer_budgets", "fewer_points", "empty"])
    def test_one_budget_per_point(self, points, eps, message):
        with pytest.raises(ValueError, match=message):
            stability_study(Ball([0.0, 0.0], 1.0), [2.0, 0.0], points, eps)

    def test_requires_convergence_when_eps_fixed_small(self):
        ball = Ball([0.0, 0.0], 1.0)
        x = np.array([0.0, 3.0])
        pts = [x] * 5
        study = stability_study(ball, x, pts, [1e-10] * 5)
        assert study.final_gap <= 1e-5
