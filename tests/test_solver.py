import dataclasses
import math

import numpy as np
import pytest

from catchup import oracles
from catchup.geometry import Ball, MovingSet
from catchup.harness import make_problem, reference_solution
from catchup.perturbation import zero_perturbation
from catchup.solver import (
    EpsSchedule,
    Grid,
    OutOfRange,
    ProjectionFailed,
    SweepingProblem,
    audit_constants,
    interpolate,
    solve,
    theorem1_audit,
    trajectory_to_csv,
    trajectory_to_json,
    velocity,
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

    def test_delta_theta_bracket(self):
        # the cell's left node is theta(t) - mu
        g = Grid(1.0, 8)
        for t in np.linspace(0.01, 0.99, 23):
            assert g.theta(t) - g.mu <= t <= g.theta(t) + 1e-12

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
        clean = solve(drift_in_fixed_ball, 8)
        selection_fails_after(3)
        with pytest.raises(ProjectionFailed, match="selection") as exc:
            solve(drift_in_fixed_ball, 8)
        partial = exc.value.partial
        assert partial is not None and not partial.complete
        assert partial.steps_taken == 3
        assert np.array_equal(partial.nodes, clean.nodes[:4])
        assert np.array_equal(partial.integrals, clean.integrals[:3])

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

    def test_velocity_constant_drag(self):
        traj = solve(make_problem("dragging_interval"), 16)
        for t in (0.13, 0.5 + 1e-3, 0.87):
            assert np.allclose(velocity(traj, t), [1.0])

    def test_velocity_zero_when_static(self):
        ms = MovingSet(at=lambda t: Ball([0.0, 0.0], 1.0), lipschitz=0.0)
        prob = SweepingProblem(ms, zero_perturbation(), [0.5, 0.0], 1.0)
        traj = solve(prob, 8)
        assert np.allclose(velocity(traj, 0.4), [0.0, 0.0])

    def test_velocity_needs_side_at_nodes(self):
        traj = solve(make_problem("dragging_interval"), 4)
        with pytest.raises(OutOfRange):
            velocity(traj, 0.25)
        left = velocity(traj, 0.25, side="left")
        right = velocity(traj, 0.25, side="right")
        assert np.allclose(left, [1.0]) and np.allclose(right, [1.0])


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
                       ("interior_ode", 64)):
            prob = make_problem(pid)
            traj = solve(prob, n)
            report = theorem1_audit(traj, prob)
            assert report["passed"], (pid, [c for c in report["checks"] if not c["passed"]])

    def test_failed_step_fails_audit(self):
        prob = make_problem("translating_disk")
        traj = solve(prob, 16, method="fw", max_iter=1, permissive=True)
        report = theorem1_audit(traj, prob)
        assert not report["passed"]
        assert report["projection_failures"]


class TestExport:
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
