import contextlib
import warnings

import numpy as np
import pytest

# hypothesis imports this module (and libcst through it) to report a failing
# example; libcst's mypy_extensions use raises a DeprecationWarning there, which
# under -W error would replace the falsifying example with an INTERNALERROR.
# libcst is an optional extra of hypothesis; without it there is nothing to import.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from catchup import oracles
from catchup.geometry import Ball, MovingSet
from catchup.perturbation import constant_set_perturbation, zero_perturbation
from catchup.solver import SweepingProblem


@pytest.fixture
def drift_in_fixed_ball():
    """Fixed Ball(0, 10) with the set-valued F = Ball((3, 0), 1), from x0 = 0."""
    drift = constant_set_perturbation(Ball([3.0, 0.0], 1.0), h_bound=2.0)
    return SweepingProblem(MovingSet.fixed(Ball([0.0, 0.0], 10.0)), drift, [0.0, 0.0], 1.0)


@pytest.fixture
def jumping_ball():
    """x0 = (-1e308, 0) in C(0) = Ball(x0, 1), then C(t) = Ball((1e308, 0), 1) for t > 0.

    x0 minus the later center overflows, so its closed-form projection is (nan, 0).
    """
    def at(t):
        return Ball([1e308 if t > 0.0 else -1e308, 0.0], 1.0)

    return SweepingProblem(MovingSet(at), zero_perturbation(), [-1e308, 0.0], 1.0)


@pytest.fixture
def selection_fails_after(monkeypatch):
    """Make the selection oracle's projection unconverged after `calls` real calls."""

    def install(calls: int) -> None:
        real = oracles.approx_project
        seen = []

        def fake(s, x, cfg=None):
            seen.append(x)
            if len(seen) <= calls:
                return real(s, x, cfg)
            return oracles.ProjectionResult(np.asarray(x, float), 1.0, 7, converged=False)

        monkeypatch.setattr("catchup.perturbation.approx_project", fake)

    return install
