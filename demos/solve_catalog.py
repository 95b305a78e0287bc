"""Solve every catalog problem and compare against its analytic solution.

Each problem is integrated with the certified catching-up stepper; the
table reports the sup-norm error of the interpolant over 1000 sample times
and whether the a-priori bound audit passed.
"""

from catchup.harness import CATALOG, make_problem, sup_error
from catchup.solver import solve, theorem1_audit


def main():
    n = 256
    print(f"{'problem':24s} {'n':>5s} {'sup error':>12s} {'audit':>6s}")
    for pid, entry in CATALOG.items():
        prob = entry.build()
        traj = solve(prob, n, method=entry.method)
        err = sup_error(traj, entry.solution)
        audit = theorem1_audit(traj, prob)
        print(f"{pid:24s} {n:5d} {err:12.3e} {'pass' if audit['passed'] else 'FAIL':>6s}")

    print("\nworst certified projection budget used (translating_disk):")
    prob = make_problem("translating_disk")
    traj = solve(prob, n, method="fw")
    worst = max(dg.certified_eps for dg in traj.diagnostics)
    print(f"  max certified_eps = {worst:.3e}  (budget eps_n = {traj.eps_n:.3e})")


if __name__ == "__main__":
    main()
