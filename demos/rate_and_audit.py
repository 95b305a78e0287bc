"""Convergence-order study plus a full printout of one audit report.

Runs the translating-disk problem over a ladder of grid sizes, fits the
log-log slope of the sup error against the step size, then shows the
per-bound audit for the finest run.
"""

from catchup.harness import make_problem, rate_study
from catchup.solver import solve, theorem1_audit


def main():
    ladder = [64, 128, 256, 512]
    rs = rate_study("translating_disk", ladder)
    print(f"{'n':>6s} {'mu':>10s} {'eps_n':>10s} {'sup error':>12s}")
    for n, mu, e, err in zip(rs.ladder, rs.mus, rs.eps, rs.errors):
        print(f"{n:6d} {mu:10.4e} {e:10.4e} {err:12.4e}")
    print(f"fitted slope: {rs.slope:.3f}  (floor required: 0.25)")

    print("\naudit of the finest run:")
    prob = make_problem("translating_disk")
    traj = solve(prob, ladder[-1], method="fw")
    report = theorem1_audit(traj, prob)
    for check in report["checks"]:
        print(f"  {check['name']:24s} {check['verdict']:12s} "
              f"lhs={check['max_lhs']:.4e}  bound={check['bound']:.4e}")
    print(f"overall: {'pass' if report['passed'] else 'FAIL'}")


if __name__ == "__main__":
    main()
