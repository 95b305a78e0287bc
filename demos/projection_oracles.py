"""Tour of the projection oracles and their certificates.

Projects points onto a ball three ways (closed form, conditional gradient,
cutting planes on the sublevel description) and prints the certified
squared-distance gap each route reports.
"""

import numpy as np

from catchup import (
    Ball,
    ProjectorConfig,
    Sublevel,
    approx_project,
    ball_fn,
    exact_project,
)


def main():
    ball = Ball([0.0, 0.0], 1.0)
    disk = Sublevel(ball_fn([0.0, 0.0], 1.0), 0.0, slater=[0.0, 0.0])
    x = np.array([2.0, 1.5])
    truth = exact_project(ball, x)
    print(f"point x = {x},  exact projection = {truth}")

    for label, target, method in (
        ("closed form  ", ball, "auto"),
        ("frank-wolfe  ", ball, "fw"),
        ("cutting plane", disk, "auto"),
    ):
        res = approx_project(target, x, ProjectorConfig(eps=1e-8, method=method))
        gap = np.linalg.norm(res.point - truth)
        print(
            f"{label}: z = {np.round(res.point, 8)}  "
            f"certified_eps = {res.certified_eps:.2e}  "
            f"iters = {res.iterations:3d}  ||z - proj|| = {gap:.2e}"
        )

    print("\nshrinking budgets drive the result to the exact projection:")
    for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        res = approx_project(disk, x, ProjectorConfig(eps=eps))
        print(f"  eps = {eps:.0e}  ->  ||z - proj|| = {np.linalg.norm(res.point - truth):.3e}")


if __name__ == "__main__":
    main()
