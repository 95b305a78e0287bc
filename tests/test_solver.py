import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catchup import cli, geometry, harness, oracles, perturbation, solver
from catchup.geometry import Ball, MovingSet, Sublevel, affine_fn, ball_fn, norm
from catchup.harness import make_problem, reference_solution, sup_error
from catchup.perturbation import Perturbation, zero_perturbation
from catchup.solver import (
    EpsSchedule,
    Grid,
    OutOfRange,
    ProjectionFailed,
    StepDiagnostics,
    SweepingProblem,
    audit_constants,
    audit_to_json,
    interpolate,
    solve,
    theorem1_audit,
    trajectory_to_csv,
    trajectory_to_json,
)


class TestGrid:
    def test_nodes_and_mu(self):
        g = Grid(2.0, 4)
        assert g.mu == 0.5
        assert [g.node(k) for k in range(5)] == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_cell_index_halfopen(self):
        g = Grid(1.0, 10)
        assert g.cell_index(0.0) == 0
        assert g.cell_index(0.05) == 0
        assert g.cell_index(0.1) == 1
        assert g.cell_index(1.0) == 9  # right endpoint folds into last cell

    def test_cell_index_snaps_float_noise(self):
        g = Grid(1.0, 3)
        t = 2.0 / 3.0  # not representable; lands just below node 2
        assert g.cell_index(t) == 2

    def test_out_of_range(self):
        g = Grid(1.0, 4)
        with pytest.raises(OutOfRange):
            g.cell_index(-0.1)
        with pytest.raises(OutOfRange):
            g.cell_index(1.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0.0, 4)
        with pytest.raises(ValueError):
            Grid(1.0, 0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_a_horizon_that_is_not_positive_and_finite(self, horizon):
        # Grid(inf, 4) was accepted, and node(0) = 0 * inf / 4 was nan
        with pytest.raises(ValueError, match="^horizon must be positive and finite$"):
            Grid(horizon, 4)

    def test_rejects_a_cell_width_that_underflows(self):
        # Grid(5e-324, 2) had mu = 0, and solve then failed on eps_n = 0 instead
        with pytest.raises(ValueError, match=r"^cell width .* horizon=5e-324, n=2$"):
            Grid(5e-324, 2)
        problem = dataclasses.replace(make_problem("interior_ode"), horizon=5e-324)
        with pytest.raises(ValueError, match=r"^cell width .* horizon=5e-324, n=2$"):
            solve(problem, 2)

    @pytest.mark.parametrize("n", [2.5, 4.0, "4", None])
    def test_rejects_n_that_is_not_an_integer(self, n):
        # n = 2.5 was accepted, and solve's node arrays then raised a TypeError
        with pytest.raises(ValueError, match="^n must be an integer"):
            Grid(1.0, n)

    def test_solve_rejects_n_that_is_not_an_integer(self):
        with pytest.raises(ValueError, match="^n must be an integer, got 2.5$"):
            solve(make_problem("dragging_interval"), 2.5)

    def test_takes_a_numpy_integer_n(self):
        assert Grid(1.0, np.int64(4)).node(np.int64(2)) == 0.5
        assert solve(make_problem("dragging_interval"), np.int64(4)).nodes.shape[0] == 5


@st.composite
def _grid_nodes(draw):
    """A grid of up to 10**8 cells and the index k < n of one of its nodes."""
    n = draw(st.integers(1, 10**8))
    return Grid(draw(st.floats(1e-3, 1e3)), n), draw(st.integers(0, n - 1))


class TestGridPlacement:
    """Each node time falls in its own cell, and the float just below it in the cell before."""

    @given(_grid_nodes())
    @example((Grid(0.1, 10**7), 6257460))  # t n / T rounds to k - 1.9e-9 there
    @settings(max_examples=300, deadline=None)
    def test_node_times_fall_in_their_own_cells(self, case):
        g, k = case
        t = g.node(k)
        assert g.cell_index(t) == k
        if k >= 1:
            assert g.cell_index(np.nextafter(t, -np.inf)) == k - 1


class TestEpsSchedule:
    def test_values(self):
        s = EpsSchedule(c=2.0, p=3.0)
        assert s.eps(0.5) == pytest.approx(0.25)
        assert s.sqrt_eps_over_mu_sup(1.0) == pytest.approx(math.sqrt(2.0))

    def test_exponent_must_exceed_two(self):
        with pytest.raises(ValueError):
            EpsSchedule(c=1.0, p=2.0)
        with pytest.raises(ValueError):
            EpsSchedule(c=1.0, p=1.5)

    @pytest.mark.parametrize("c, p", [(math.inf, 3.0), (math.nan, 3.0), (1.0, math.inf),
                                      (1.0, math.nan)])
    def test_rejects_non_finite(self, c, p):
        with pytest.raises(ValueError, match="finite"):
            EpsSchedule(c=c, p=p)

    def test_audit_overflow_is_a_value_error_naming_the_schedule(self):
        # eps_n = 1 on this grid, but sqrt(c) * horizon**((p-2)/2) overflows
        problem = SweepingProblem(MovingSet.fixed(Ball([0.0], 1.0)), zero_perturbation(),
                                  [0.0], 10.0)
        traj = solve(problem, 10, schedule=EpsSchedule(c=1.0, p=1200.0))
        with pytest.raises(ValueError, match=r"c=1\.0, p=1200\.0, horizon=10\.0"):
            theorem1_audit(traj, problem)

    def test_sup_whose_product_overflows_is_a_value_error(self):
        # horizon**((p-2)/2) = 1e200 is finite, sqrt(c) * 1e200 is not
        with pytest.raises(ValueError, match="overflows"):
            EpsSchedule(c=1e300, p=402.0).sqrt_eps_over_mu_sup(10.0)

    def test_overflow_is_a_value_error_naming_the_schedule(self):
        problem = SweepingProblem(MovingSet.fixed(Ball([0.0], 1.0)), zero_perturbation(),
                                  [0.0], 2.0)
        with pytest.raises(ValueError, match=r"c=1\.0, p=2000\.0, mu=2\.0"):
            solve(problem, 1, schedule=EpsSchedule(c=1.0, p=2000.0))

    def test_sup_is_over_grid_family(self):
        # sqrt(eps_n)/mu_n is maximal at the coarsest grid (n = 1)
        s = EpsSchedule(c=1.0, p=3.0)
        t_hor = 2.0
        sup = s.sqrt_eps_over_mu_sup(t_hor)
        for n in (1, 2, 7, 64):
            mu = t_hor / n
            assert math.sqrt(s.eps(mu)) / mu <= sup + 1e-12


class TestSweepingProblem:
    def test_x0_must_be_feasible(self):
        ms = MovingSet(at=lambda t: Ball([0.0, 0.0], 1.0), lipschitz=0.0)
        with pytest.raises(ValueError):
            SweepingProblem(ms, zero_perturbation(), [5.0, 0.0], 1.0)

    def test_x0_dimension_must_match_c0(self):
        ms = MovingSet.fixed(Ball([0.0], 1.0))
        with pytest.raises(ValueError, match="dimension"):
            SweepingProblem(ms, zero_perturbation(), [0.5, 0.0], 1.0)

    def test_rejects_a_zero_dimensional_x0(self):
        ms = MovingSet.fixed(Ball([], 1.0))
        with pytest.raises(ValueError, match="x0 has dimension 0"):
            SweepingProblem(ms, zero_perturbation(), [], 1.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("name", ["horizon", "gamma"])
    def test_rejects_nonpositive_scalars(self, name, value):
        ms = MovingSet.fixed(Ball([0.0, 0.0], 1.0))
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            SweepingProblem(ms, zero_perturbation(), [0.0, 0.0], **{"horizon": 1.0, name: value})

    @pytest.mark.parametrize("name", ["horizon", "gamma"])
    def test_rejects_infinite_scalars(self, name):
        ms = MovingSet.fixed(Ball([0.0, 0.0], 1.0))
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            SweepingProblem(ms, zero_perturbation(), [0.0, 0.0], **{"horizon": 1.0, name: math.inf})


def _time_dependent(problem):
    """problem with its perturbation declared time-dependent: q = 4 values a cell."""
    return dataclasses.replace(problem, perturbation=dataclasses.replace(
        problem.perturbation, time_independent=False))


def _check_partial_after_three_cells(problem, selection_fails_after):
    """A selection that fails in cell 3 leaves the clean run's first three cells, values included."""
    clean = solve(problem, 8)
    # three cells' worth of selections: one a cell, or one per quadrature node
    selection_fails_after(3 * clean.values.shape[1])
    with pytest.raises(ProjectionFailed, match="selection") as exc:
        solve(problem, 8)
    partial = exc.value.partial
    assert partial is not None and not partial.complete
    assert partial.steps_taken == 3
    assert np.array_equal(partial.nodes, clean.nodes[:4])
    assert np.array_equal(partial.integrals, clean.integrals[:3])
    assert np.array_equal(partial.values, clean.values[:3])


class TestSolve:
    def test_dragging_interval_nodes_exact(self):
        prob = make_problem("dragging_interval")
        traj = solve(prob, 64)
        for k in range(65):
            t = traj.grid.node(k)
            assert np.linalg.norm(traj.nodes[k] - reference_solution("dragging_interval", t)) == 0.0

    def test_certificates_within_budget(self):
        prob = make_problem("translating_disk")
        sched = EpsSchedule()
        traj = solve(prob, 32, sched, method="fw")
        for dg in traj.diagnostics:
            assert dg.converged
            assert dg.certified_eps <= traj.eps_n

    def test_unknown_method_raises_before_any_step(self, monkeypatch):
        steps = []
        monkeypatch.setattr("catchup.solver.step", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match="method"):
            solve(make_problem("interior_ode"), 8, method="bogus")
        assert not steps

    def test_eps_n_follows_schedule(self):
        sched = EpsSchedule(c=2.0, p=3.0)
        traj = solve(make_problem("dragging_interval"), 16, sched)
        assert traj.eps_n == sched.eps(traj.grid.mu)
        other = dataclasses.replace(traj, schedule=EpsSchedule(c=0.5, p=3.0))
        assert other.eps_n == 0.5 * traj.grid.mu ** 3

    def test_projection_failure_carries_partial(self):
        prob = make_problem("translating_disk")
        with pytest.raises(ProjectionFailed) as exc:
            solve(prob, 32, method="fw", max_iter=1)
        partial = exc.value.partial
        assert partial is not None
        assert not partial.complete
        assert partial.steps_taken >= 1
        assert partial.eps_n == EpsSchedule().eps(partial.grid.mu)

    def test_unconverged_selection_aborts_solve(self, drift_in_fixed_ball, selection_fails_after):
        selection_fails_after(0)
        assert ProjectionFailed is oracles.ProjectionFailed
        with pytest.raises(ProjectionFailed, match="selection"):
            solve(drift_in_fixed_ball, 4)

    def test_unconverged_selection_carries_partial(self, drift_in_fixed_ball, selection_fails_after):
        _check_partial_after_three_cells(drift_in_fixed_ball, selection_fails_after)

    def test_unconverged_time_dependent_selection_carries_partial(self, drift_in_fixed_ball,
                                                                  selection_fails_after):
        _check_partial_after_three_cells(_time_dependent(drift_in_fixed_ball), selection_fails_after)

    @pytest.mark.parametrize("permissive", [False, True])
    def test_non_finite_projection_fails_the_step(self, jumping_ball, permissive):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ProjectionFailed, match="step 0: .* is not finite") as exc:
            solve(jumping_ball, 1, permissive=permissive)
        partial = exc.value.partial
        assert partial is not None and not partial.complete
        assert partial.steps_taken == 0
        assert np.array_equal(partial.nodes, [[-1e308, 0.0]])

    @pytest.mark.parametrize("permissive", [False, True])
    def test_overflowing_cutting_route_fails_the_step(self, permissive):
        # C(0) = {x_1 <= 1.5e308} holds x0; C(1) = {x_1 <= 0}, whose Slater
        # point lies 3e308 from x0: the projection comes back finite and
        # feasible with an infinite certificate, and ||predictor - point||
        # overflows
        def at(t):
            return Sublevel(affine_fn([1.0, 0.0], 0.0), 1.5e308 * (1.0 - t), slater=[-1.5e308, 0.0])

        prob = SweepingProblem(MovingSet(at), zero_perturbation(), [1.5e308, 0.0], 1.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ProjectionFailed, match="step 0: .* is not finite") as exc:
            solve(prob, 1, permissive=permissive)
        assert exc.value.partial.steps_taken == 0

    def test_permissive_completes_with_flagged_steps(self):
        prob = make_problem("translating_disk")
        traj = solve(prob, 32, method="fw", max_iter=1, permissive=True)
        assert traj.complete
        assert any(not dg.converged for dg in traj.diagnostics)


class TestInterpolant:
    def test_matches_nodes(self):
        prob = make_problem("interior_ode")
        traj = solve(prob, 32)
        for k in range(33):
            t = traj.grid.node(k)
            assert np.linalg.norm(interpolate(traj, t) - traj.nodes[k]) <= 1e-12

    def test_out_of_range(self):
        traj = solve(make_problem("dragging_interval"), 4)
        for t in (-0.1, 1.1):
            with pytest.raises(OutOfRange, match="outside"):
                interpolate(traj, t)

    def test_without_perturbation_midpoint_is_mean(self):
        prob = make_problem("dragging_interval")  # zero perturbation
        traj = solve(prob, 16)
        g = traj.grid
        for k in range(16):
            mid = 0.5 * (g.node(k) + g.node(k + 1))
            expect = 0.5 * (traj.nodes[k] + traj.nodes[k + 1])
            assert np.linalg.norm(interpolate(traj, mid) - expect) <= 1e-12


def _fw_partial():
    """translating_disk by Frank-Wolfe capped at one iteration: a partial run with 1 step."""
    with pytest.raises(ProjectionFailed) as exc:
        solve(make_problem("translating_disk"), 16, method="fw", max_iter=1)
    return exc.value.partial


class TestArraySampling:
    @pytest.fixture(params=["interior_ode", "drift", "drift_time_dependent", "partial"])
    def traj(self, request, drift_in_fixed_ball):
        if request.param == "interior_ode":
            return solve(make_problem("interior_ode"), 16)
        if request.param == "partial":
            return _fw_partial()
        problem = drift_in_fixed_ball
        if request.param == "drift_time_dependent":
            problem = _time_dependent(problem)
        return solve(problem, 16)

    def test_interpolate_array_equals_stacked_scalars(self, traj):
        g = traj.grid
        end = g.node(traj.steps_taken)
        ts = np.concatenate([np.linspace(0.0, end, 53), g.node(np.arange(traj.steps_taken + 1))])
        stacked = np.array([interpolate(traj, float(t)) for t in ts])
        assert np.array_equal(interpolate(traj, ts), stacked)

    def test_one_bad_time_fails_the_array(self):
        traj = solve(make_problem("interior_ode"), 4)
        with pytest.raises(OutOfRange, match="outside"):
            interpolate(traj, np.array([0.1, 0.5, 1.2]))

    def test_interpolate_past_partial_end_is_out_of_range(self):
        partial = _fw_partial()
        interpolate(partial, partial.grid.node(partial.steps_taken))
        for t in (0.53, np.array([0.03, 0.53])):
            with pytest.raises(OutOfRange, match="last computed node"):
                interpolate(partial, t)

    @pytest.mark.parametrize("time_independent", [True, False])
    def test_audit_and_sup_error_evaluate_no_selection(self, drift_in_fixed_ball, monkeypatch,
                                                       time_independent):
        # a set-valued F counted at min_norm_selection, a single-valued one at its field
        calls = []
        select = perturbation.min_norm_selection

        def counted(p, t, x, **kwargs):
            calls.append(t)
            return select(p, t, x, **kwargs)

        def field(t, x):
            calls.append(t)
            return np.array([1.0, 0.0])

        monkeypatch.setattr(perturbation, "min_norm_selection", counted)
        set_valued = drift_in_fixed_ball if time_independent else _time_dependent(drift_in_fixed_ball)
        single = Perturbation.single_valued(field, lambda x: 1.0, 0.0, time_independent)
        for problem in (set_valued, dataclasses.replace(drift_in_fixed_ball, perturbation=single)):
            calls.clear()
            traj = solve(problem, 64)
            assert len(calls) == traj.values.shape[0] * traj.values.shape[1]
            calls.clear()
            theorem1_audit(traj, problem)
            sup_error(traj, lambda t: np.zeros(2))
            assert calls == []

    @pytest.mark.parametrize("set_valued", [True, False])
    def test_a_wrapper_on_min_norm_selection_sees_every_selection(self, drift_in_fixed_ball,
                                                                  monkeypatch, set_valued):
        # installed at every module binding of the function, as perfbench's tracer does
        seen = []
        select = perturbation.min_norm_selection

        def counted(p, t, x, **kwargs):
            seen.append(t)
            return select(p, t, x, **kwargs)

        for module in (geometry, oracles, perturbation, solver, harness, cli):
            for attr, value in list(vars(module).items()):
                if value is select:
                    monkeypatch.setattr(module, attr, counted)
        if set_valued:
            traj = solve(_time_dependent(drift_in_fixed_ball), 64)
            assert len(seen) == 64 * 4
            assert np.array_equal(np.reshape(seen, (64, 4)), _sub_cell_midpoints(traj))
        else:
            solve(_linear_drift([1.0, -2.0], [3.0, 0.5]), 64)
            assert seen == []


def _linear_drift(a, b):
    """F(t, x) = {a + b t}, time-dependent, inside Ball(0, 1e3) from x0 = 0: x(t) = a t + b t^2 / 2."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    field = Perturbation.single_valued(lambda t, x: a + b * t, lambda x: norm(a) + norm(b), 0.0)
    return SweepingProblem(MovingSet.fixed(Ball(np.zeros(a.size), 1e3)), field,
                           np.zeros(a.size), 1.0)


def _sub_cell_midpoints(traj):
    """t_k + (j + 1/2) h for every computed cell k and sub-cell j, as cell_integral takes them."""
    g, q = traj.grid, traj.values.shape[1]
    k = np.arange(traj.steps_taken)
    h = (g.node(k + 1) - g.node(k)) / q
    return g.node(k)[:, None] + (np.arange(q) + 0.5) * h[:, None]


class TestStoredValues:
    """The interpolant and the audit's c of a time-dependent run, from the values each step summed."""

    def test_nodes_are_interpolated_at_four_quadrature_nodes(self):
        traj = solve(_linear_drift([1.0, -2.0], [3.0, 0.5]), 32)
        assert traj.values.shape == (32, 4, 2)
        interp = interpolate(traj, traj.grid.node(np.arange(33)))
        assert np.abs(interp - traj.nodes).max() <= 1e-12

    def test_audit_c_is_the_largest_stored_velocity(self):
        problem = _linear_drift([1.0, -2.0], [3.0, 0.5])
        traj = solve(problem, 16)
        moves = traj.nodes[1:] - traj.nodes[:-1] - traj.integrals
        speeds = [norm(move / traj.grid.mu + g) for move, cell in zip(moves, traj.values)
                  for g in cell]
        checks = {c["name"]: c["max_lhs"] for c in theorem1_audit(traj, problem)["checks"]}
        assert checks["c_velocity_bound"] == max(speeds)

    @given(a=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
           b=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
           n=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_linear_selection_error_is_within_the_sub_cell_bound(self, a, b, n):
        # g is constant on each sub-cell of width h = mu / q, at the midpoint value of
        # a + b t, so its integral misses b (t - m)^2 / 2 there: at most h^2 ||b|| / 8
        traj = solve(_linear_drift(a, b), n)
        q = traj.values.shape[1]
        ts = np.concatenate([np.linspace(0.0, 1.0, 101), _sub_cell_midpoints(traj).reshape(-1)])
        exact = np.outer(ts, a) + np.outer(ts * ts / 2.0, b)
        err = np.linalg.norm(interpolate(traj, ts) - exact, axis=1)
        bound = (traj.grid.mu / q) ** 2 * norm(np.array(b)) / 8.0
        assert err.max() <= bound + 1e-12


class TestExactAudit:
    """a_iii, a_v and b read exact sups, on a ball moving at velocity v with F = {a + b t}."""

    def test_sups_inside_a_cell(self):
        # F = (1 - t, 0) pins x at (1, 0) on the unit circle, so every node is (1, 0);
        # inside cell k the interpolant bulges out by (t - t_k)(t_{k+1} - t) / 2,
        # mu^2 / 8 at the cell's midpoint, which is the breakpoint j = 2 of q = 4,
        # and that bulge is also its distance to the circle's disk
        field = Perturbation.single_valued(lambda t, x: np.array([1.0 - t, 0.0]),
                                           lambda x: 1.0, 0.0)
        prob = SweepingProblem(MovingSet.fixed(Ball([0.0, 0.0], 1.0)), field, [1.0, 0.0], 1.0)
        traj = solve(prob, 4)
        assert (traj.nodes == [1.0, 0.0]).all()
        checks = {c["name"]: c["max_lhs"] for c in theorem1_audit(traj, prob)["checks"]}
        assert checks["a_iii_sup_norm"] == 1.0 + 0.25**2 / 8.0
        assert checks["a_v_cell_deviation"] == 0.25**2 / 8.0
        assert checks["b_set_distance"] == 0.25**2 / 8.0
        assert checks["a_iv_node_increment"] == 0.0

    @given(v=st.tuples(*[st.floats(-20.0, 20.0)] * 2), a=st.tuples(*[st.floats(-2.0, 2.0)] * 2),
           b=st.tuples(*[st.floats(-2.0, 2.0)] * 2), declared=st.floats(0.0, 1.0),
           n=st.integers(1, 24))
    @settings(max_examples=60, deadline=None)
    def test_sups_bound_the_samples_and_b_brackets_the_breakpoints(self, v, a, b, declared, n):
        v, a, b = np.array(v), np.array(a), np.array(b)
        # an L_C declared below the speed ||v|| lets b's lower ends pass its bound
        field = Perturbation.single_valued(lambda t, x: a + b * t,
                                           lambda x: norm(a) + norm(b), 0.0)
        prob = SweepingProblem(MovingSet(lambda t: Ball(t * v, 1.0), lipschitz=declared * norm(v)),
                               field, [0.0, 0.0], 1.0)
        traj = solve(prob, n)
        g, q = traj.grid, traj.values.shape[1]
        assert q == 4
        checks = {c["name"]: c for c in theorem1_audit(traj, prob)["checks"]}
        ts = np.linspace(0.0, 1.0, 2048)[1:]
        xs = interpolate(traj, ts)
        k = np.searchsorted(g.node(np.arange(n + 1)), ts) - 1  # t in (t_k, t_{k+1}]
        tol = 1e-12 * (1.0 + np.abs(traj.nodes).max())
        assert checks["a_iii_sup_norm"]["max_lhs"] >= np.linalg.norm(xs, axis=1).max() - tol
        deviation = np.linalg.norm(xs - traj.nodes[k + 1], axis=1).max()
        assert checks["a_v_cell_deviation"]["max_lhs"] >= deviation - tol
        # d(x, C(t_{k+1})) at each breakpoint t_k + j h of cell k, in closed form
        cells = np.repeat(np.arange(n), q)
        t_break = g.node(cells) + np.tile(np.arange(q), n) * (g.mu / q)
        ends = g.node(cells + 1)[:, None] * v
        worst = np.maximum(np.linalg.norm(interpolate(traj, t_break) - ends, axis=1) - 1.0,
                           0.0).max()
        b_check = checks["b_set_distance"]
        assert b_check["max_lhs"] >= worst - tol
        if b_check["verdict"] == "refuted":
            assert worst > b_check["bound"] + 1e-12 - tol


class TestAudit:
    def test_constants_reproducible_formulas(self):
        prob = make_problem("dragging_interval")
        sched = EpsSchedule(c=1.0, p=3.0)
        c = audit_constants(prob, sched)
        t_hor, lc = prob.horizon, prob.moving_set.lipschitz
        h0 = prob.perturbation.h(prob.x0)
        sg = math.sqrt(prob.gamma)
        frak_c = math.sqrt(1.0) * t_hor ** 0.5
        k1 = t_hor * (lc + 2 * h0 + sg + frak_c) * math.exp(0.0)
        assert c["K1"] == pytest.approx(k1, rel=1e-12)
        assert c["K5"] == pytest.approx(c["K4"] + lc, rel=1e-12)

    def test_catalog_runs_pass(self):
        for pid, n in (("dragging_interval", 64), ("translating_halfspace", 64),
                       ("interior_ode", 64), ("sublevel_disk", 64)):
            prob = make_problem(pid)
            traj = solve(prob, n)
            report = theorem1_audit(traj, prob)
            assert report["passed"], (pid, [c for c in report["checks"] if not c["passed"]])

    def test_partial_trajectory_audits_without_index_error(self):
        prob = make_problem("translating_disk")
        with pytest.raises(ProjectionFailed) as exc:
            solve(prob, 16, method="fw", max_iter=1)
        partial = exc.value.partial
        assert partial.steps_taken < partial.grid.n
        report = theorem1_audit(partial, prob)
        assert not report["passed"]
        assert len(report["checks"]) == 7

    def test_partial_trajectory_never_passes(self, drift_in_fixed_ball):
        traj = solve(drift_in_fixed_ball, 8)
        assert theorem1_audit(traj, drift_in_fixed_ball)["passed"]
        partial = dataclasses.replace(
            traj, nodes=traj.nodes[:4], integrals=traj.integrals[:3], values=traj.values[:3],
            diagnostics=traj.diagnostics[:3], complete=False,
        )
        report = theorem1_audit(partial, drift_in_fixed_ball)
        assert all(c["passed"] for c in report["checks"])
        assert not report["projection_failures"]
        assert not report["passed"]

    def test_zero_step_partial_audit_is_valid_json(self):
        traj = solve(make_problem("dragging_interval"), 8)
        partial = dataclasses.replace(
            traj, nodes=traj.nodes[:1], integrals=traj.integrals[:0], values=traj.values[:0],
            diagnostics=[], complete=False,
        )
        report = theorem1_audit(partial, make_problem("dragging_interval"))
        json.dumps(report, allow_nan=False)
        empty = {c["name"] for c in report["checks"] if c["max_lhs"] is None}
        assert empty == {"a_i_predictor_distance", "a_iv_node_increment",
                         "a_v_cell_deviation", "b_set_distance", "c_velocity_bound"}
        assert all(c["verdict"] == "inconclusive" and c["passed"]
                   for c in report["checks"] if c["name"] in empty)
        assert not report["passed"]

    @pytest.mark.parametrize("pid", ["dragging_interval", "translating_halfspace",
                                     "interior_ode", "translating_disk"])
    def test_closed_form_runs_are_certified(self, pid):
        prob = make_problem(pid)
        report = theorem1_audit(solve(prob, 64), prob)
        assert [c["verdict"] for c in report["checks"]] == ["certified"] * 7
        assert report["passed"]

    def test_frank_wolfe_bracket_leaves_a_i_inconclusive(self):
        prob = make_problem("translating_disk")
        report = theorem1_audit(solve(prob, 64, method="fw"), prob)
        a_i = report["checks"][0]
        assert a_i["name"] == "a_i_predictor_distance"
        assert a_i["verdict"] == "inconclusive" and a_i["passed"] and not a_i["cells"]
        assert report["passed"]

    @pytest.mark.parametrize("kind, method", [("ball", "auto"), ("ball", "fw"),
                                              ("sublevel", "auto")])
    def test_wrong_lipschitz_constant_refutes_a_i(self, kind, method):
        # the disk moves at speed 3 but declares L_C = 1
        def at(t):
            center = np.array([3.0 * t, 0.0])
            if kind == "ball":
                return Ball(center, 1.0)
            return Sublevel(ball_fn(center, 1.0), 0.0, slater=center)

        prob = SweepingProblem(MovingSet(at, lipschitz=1.0), zero_perturbation(),
                               [-1.0, 0.0], 1.0)
        report = theorem1_audit(solve(prob, 64, method=method), prob)
        a_i = report["checks"][0]
        assert a_i["verdict"] == "refuted" and not a_i["passed"] and a_i["cells"]
        assert not report["passed"]

    def test_norm_checks_have_norms_bits(self):
        # off the axes, np.linalg.norm(rows, axis=1) sums the squares in another
        # order, and its largest a_ii and a_iii values differ from norm's in the last bit
        u = np.array([math.cos(math.radians(91.5)), math.sin(math.radians(91.5))])
        prob = SweepingProblem(MovingSet(lambda t: Ball(t * u, 1.0), lipschitz=1.0),
                               zero_perturbation(), -u, 1.0)
        traj = solve(prob, 64)
        rows = {
            "a_ii_node_drift": traj.nodes - traj.nodes[0],
            "a_iii_sup_norm": traj.nodes,
            "a_iv_node_increment": np.diff(traj.nodes, axis=0),
        }
        checks = {c["name"]: c["max_lhs"] for c in theorem1_audit(traj, prob)["checks"]}
        for name, values in rows.items():
            assert checks[name] == max(map(norm, values)), name

    def test_projects_nothing_and_builds_no_set(self, monkeypatch):
        # T = 0.7 at n = 3, where node(3) = 0.6999999999999998 < T; the audit
        # reads b from the steps' own projections
        seen = []

        def at(t):
            seen.append(t)
            return Ball([0.0, 0.0], 1.0)

        problem = SweepingProblem(MovingSet(at), zero_perturbation(), [0.5, 0.0], 0.7)
        traj = solve(problem, 3)
        assert seen[-1] == traj.grid.node(3) == 0.6999999999999998
        projected = []
        real = oracles.approx_project

        def counted(*args):
            projected.append(args)
            return real(*args)

        monkeypatch.setattr(oracles, "approx_project", counted)
        monkeypatch.setattr("catchup.solver.approx_project", counted)
        seen.clear()
        report = theorem1_audit(traj, problem)
        assert seen == [] and projected == []
        assert report["passed"]

    def test_a_v_reads_mu_on_the_dragging_interval(self):
        # x_n(t) runs from x_k to x_{k+1} = x_k + mu on each cell, so the sup of
        # ||x_n(t) - x_{k+1}|| is mu, approached as t falls to t_k
        prob = make_problem("dragging_interval")
        checks = {c["name"]: c["max_lhs"] for c in theorem1_audit(solve(prob, 16), prob)["checks"]}
        assert checks["a_v_cell_deviation"] == 0.0625

    @pytest.mark.parametrize("pid", ["dragging_interval", "translating_halfspace",
                                     "translating_disk"])
    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_b_is_the_steps_own_distance_when_f_is_zero(self, pid, n):
        # with F = 0 each cell's breakpoint is the predictor the step projected
        prob = make_problem(pid)
        traj = solve(prob, n, method="auto")
        checks = {c["name"]: c["max_lhs"] for c in theorem1_audit(traj, prob)["checks"]}
        assert checks["b_set_distance"] == max(dg.predictor_distance for dg in traj.diagnostics)

    def test_failed_step_fails_audit(self):
        prob = make_problem("translating_disk")
        traj = solve(prob, 16, method="fw", max_iter=1, permissive=True)
        report = theorem1_audit(traj, prob)
        assert not report["passed"]
        assert report["projection_failures"]


def _csv_reference(traj):
    """trajectory_to_csv as one %.17g per value, each row joined by commas."""
    d = traj.nodes.shape[1]
    header = ["t"] + [f"x{i}" for i in range(d)] + ["certified_eps", "budget_lambda"]
    lines = [",".join(header)]
    for k in range(traj.nodes.shape[0]):
        cert = traj.diagnostics[k - 1].certified_eps if k >= 1 else 0.0
        lam = traj.diagnostics[k - 1].budget_lambda if k >= 1 else 0.0
        row = (["%.17g" % traj.grid.node(k)] + ["%.17g" % v for v in traj.nodes[k]]
               + ["%.17g" % cert, "%.17g" % lam])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestExport:
    @pytest.mark.parametrize("run", [
        lambda: solve(make_problem("dragging_interval"), 64),
        lambda: solve(make_problem("interior_ode"), 64),
        _fw_partial,
    ], ids=["1d", "2d", "partial"])
    def test_csv_matches_per_value_formatting(self, run):
        traj = run()
        assert trajectory_to_csv(traj) == _csv_reference(traj)

    def test_json_nodes_are_the_node_floats(self):
        traj = _fw_partial()
        nodes = json.loads(trajectory_to_json(traj))["nodes"]
        assert nodes == [[float(v) for v in row] for row in traj.nodes]

    def test_csv_shape_and_header(self):
        traj = solve(make_problem("dragging_interval"), 8)
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x0,certified_eps,budget_lambda"
        assert len(lines) == 10  # header + n+1 nodes

    def test_csv_roundtrips_exactly(self):
        traj = solve(make_problem("interior_ode"), 8)
        lines = trajectory_to_csv(traj).strip().split("\n")[1:]
        for k, line in enumerate(lines):
            vals = [float(v) for v in line.split(",")]
            assert vals[0] == traj.grid.node(k)
            assert vals[1] == traj.nodes[k][0] and vals[2] == traj.nodes[k][1]

    def test_json_deterministic(self):
        prob = make_problem("translating_halfspace")
        a = trajectory_to_json(solve(prob, 8))
        b = trajectory_to_json(solve(make_problem("translating_halfspace"), 8))
        assert a == b


def _json_reference(traj, audit=None):
    """trajectory_to_json as json.dumps of the payload dict, diagnostics by vars()."""
    payload = {
        "horizon": traj.grid.horizon,
        "n": traj.grid.n,
        "mu": traj.grid.mu,
        "eps_n": traj.eps_n,
        "complete": traj.complete,
        "nodes": traj.nodes.tolist(),
        "diagnostics": [vars(dg) for dg in traj.diagnostics],
    }
    if audit is not None:
        payload["audit"] = audit
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@functools.cache
def _base_run():
    return solve(make_problem("dragging_interval"), 8)


@functools.cache
def _audits():
    """A full audit and a zero-step partial audit, whose empty checks have max_lhs None."""
    prob = make_problem("dragging_interval")
    traj = _base_run()
    partial = dataclasses.replace(traj, nodes=traj.nodes[:1], integrals=traj.integrals[:0],
                                  values=traj.values[:0], diagnostics=[], complete=False)
    return theorem1_audit(traj, prob), theorem1_audit(partial, prob)


_JSON_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]),
    st.floats(),
)


@st.composite
def _trajectories(draw):
    d = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 6))
    nodes = np.array(draw(st.lists(st.lists(_JSON_FLOATS, min_size=d, max_size=d),
                                   min_size=rows, max_size=rows)))
    # a float field sometimes holds an int, which json writes as an int
    field = st.one_of(_JSON_FLOATS, st.integers(-10**6, 10**6))
    diags = draw(st.lists(st.builds(
        StepDiagnostics, predictor_distance=field, certified_eps=field,
        budget_lambda=field, h_at_node=field,
        iterations=st.integers(0, 10**6), converged=st.booleans()), max_size=rows))
    grid = Grid(draw(st.floats(1e-3, 1e3)), draw(st.integers(1, 10**6)))
    traj = dataclasses.replace(_base_run(), grid=grid, nodes=nodes, diagnostics=diags,
                               complete=draw(st.booleans()))
    return traj, draw(st.sampled_from((None, *_audits())))


class TestJsonWriter:
    """trajectory_to_json writes the bytes of json.dumps(payload, indent=2, sort_keys=True)."""

    @given(_trajectories())
    @settings(max_examples=300, deadline=None)
    def test_matches_stdlib_encoder(self, case):
        traj, audit = case
        report = None if audit is None else audit_to_json(audit)
        assert trajectory_to_json(traj, report) == _json_reference(traj, audit)

    def test_int_in_a_float_field_raises(self):
        # a Python int is written as json writes it (see _trajectories); a
        # NumPy integer is no JSON number, so the writer raises as json.dumps does
        dg = StepDiagnostics(predictor_distance=0.0, certified_eps=np.int64(0), budget_lambda=0.0,
                             h_at_node=0.0, iterations=0, converged=True)
        traj = dataclasses.replace(_base_run(), diagnostics=[dg] * 8)
        with pytest.raises(TypeError):
            _json_reference(traj)
        with pytest.raises(TypeError):
            trajectory_to_json(traj)

    @pytest.mark.parametrize("pid, run", [
        ("interior_ode", lambda prob: solve(prob, 7)),
        ("sublevel_disk", lambda prob: solve(prob, 7)),
        ("translating_disk", lambda prob: solve(prob, 7, method="fw")),
        ("translating_disk", lambda prob: _fw_partial()),
    ], ids=["closed_form", "cutting", "fw", "partial"])
    def test_runs_match_stdlib_encoder(self, pid, run):
        prob = make_problem(pid)
        traj = run(prob)
        audit = theorem1_audit(traj, prob)
        assert trajectory_to_json(traj) == _json_reference(traj)
        assert trajectory_to_json(traj, audit_to_json(audit)) == _json_reference(traj, audit)
