"""Set-valued perturbations and their near-minimal-norm selections.

The stepper never sees the set-valued map directly; it consumes a selection
f(t, x) whose squared norm exceeds the minimum over F(t, x) by less than a
fixed gamma, together with per-cell time integrals of that selection.  A
single-valued F(t, x) = {field(t, x)} is its own selection and is returned
directly; a set-valued F selects by projecting the origin onto F(t, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Array, Box, SetDescription, as_vec, norm
from .oracles import ProjectionFailed, ProjectorConfig, approx_project

DEFAULT_GAMMA = 1e-8
DEFAULT_QUAD_NODES = 4


@dataclass(frozen=True)
class Perturbation:
    """F(t, x) as closed convex values plus its growth data.

    h bounds the distance from the origin to F(t, x); L_h is its Lipschitz
    constant, finite and >= 0.  Upper semicontinuity of F(t, .) is a
    contract on the supplied map, not a runtime check.  field, when set, is
    the single element of F(t, x); build such a perturbation with
    single_valued, so that values describes the same set.
    """

    values: Callable[[float, Array], SetDescription]
    h: Callable[[Array], float]
    lipschitz_h: float
    time_independent: bool = False
    field: Callable[[float, Array], Array] | None = None

    def __post_init__(self):
        if not 0.0 <= self.lipschitz_h < math.inf:
            raise ValueError(f"lipschitz_h must be finite and >= 0, got {self.lipschitz_h}")

    @classmethod
    def single_valued(
        cls,
        field: Callable[[float, Array], Array],
        h: Callable[[Array], float],
        lipschitz_h: float,
        time_independent: bool = False,
    ) -> Perturbation:
        """F(t, x) = {field(t, x)}, with values the degenerate Box(v, v)."""

        def values(t: float, x: Array) -> SetDescription:
            v = field(t, x)
            return Box(v, v)

        return cls(values, h, lipschitz_h, time_independent, field)


@dataclass(frozen=True)
class Selection:
    f: Callable[[float, Array], Array]
    time_independent: bool = False

    @property
    def quad_nodes(self) -> int:
        """q, the values cell_integral takes on a cell: one for a time-independent selection."""
        return 1 if self.time_independent else DEFAULT_QUAD_NODES

    def value(self, t: float, x: Array) -> Array:
        """f(t, x) as a vector; ValueError unless it has the shape of the state x."""
        v = as_vec(self.f(t, x))
        if v.shape != x.shape:
            raise ValueError(f"selection has shape {v.shape}, state has shape {x.shape}")
        return v


def min_norm_selection(
    p: Perturbation,
    t: float,
    x,
    *,
    projector: ProjectorConfig = ProjectorConfig(eps=DEFAULT_GAMMA),
) -> Array:
    """A feasible element of F(t, x) with squared norm within gamma = projector.eps of minimal.

    Raises ProjectionFailed when the projection of the origin onto F(t, x)
    cannot reach the gamma certificate.
    """
    x = as_vec(x)
    res = approx_project(p.values(t, x), np.zeros(x.shape[0]), projector)
    if not res.converged:
        raise ProjectionFailed(
            f"selection at t={t}: certificate {res.certified_eps:.3e} exceeds gamma {projector.eps:.3e}"
        )
    return res.point


def make_selection(p: Perturbation, gamma: float = DEFAULT_GAMMA) -> Selection:
    """The selection of F that the stepper integrates.

    A single-valued F is its own selection: p.field is returned as-is.  A
    set-valued F selects min_norm_selection with one projector built here;
    the function is looked up at call time, so a wrapper installed on this
    module sees every call.
    """
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    projector = ProjectorConfig(eps=gamma)
    if p.field is not None:
        return Selection(f=p.field, time_independent=p.time_independent)
    return Selection(
        f=lambda t, x: min_norm_selection(p, t, x, projector=projector),
        time_independent=p.time_independent,
    )


def cell_integral(sel: Selection, x, a: float, b: float) -> tuple[Array, Array]:
    """Approximate integral of s -> sel.f(s, x) over [a, b], x frozen, and the (q, d) values summed.

    Composite midpoint rule: h = (b - a) / q times the sum of f at a + (j + 0.5) h,
    q = sel.quad_nodes; a selection declared time-independent is evaluated once,
    at a (q = 1), which makes the integral exact.  The rule is exact on integrands
    linear in time; otherwise the per-cell error is bounded by (b-a)^3 * M2 / (24 q^2)
    for |d^2 f/dt^2| <= M2.  An empty cell evaluates nothing and gives q zero values.
    """
    if a > b:
        raise ValueError("need a <= b")
    x = as_vec(x)
    q = sel.quad_nodes
    if a == b:
        return np.zeros(x.shape[0]), np.zeros((q, x.shape[0]))
    if sel.time_independent:
        v = sel.value(a, x)
        return (b - a) * v, v[None]
    h = (b - a) / q
    values = np.array([sel.value(a + (j + 0.5) * h, x) for j in range(q)])
    return h * sum(values, np.zeros(x.shape[0])), values


# ---------------------------------------------------------------------------
# built-in catalog: the fields take the state as given (a node or x0, checked
# on entry), and Selection.value checks what they return


def zero_perturbation() -> Perturbation:
    """F(t, x) = {0}."""
    return Perturbation.single_valued(
        field=lambda t, x: np.zeros(x.shape[0]),
        h=lambda x: 0.0,
        lipschitz_h=0.0,
        time_independent=True,
    )


def linear_decay_perturbation() -> Perturbation:
    """F(t, x) = {-x}; drives the interior exponential-decay dynamics."""
    return Perturbation.single_valued(
        field=lambda t, x: -x,
        h=norm,
        lipschitz_h=1.0,
        time_independent=True,
    )


def constant_set_perturbation(s: SetDescription, h_bound: float) -> Perturbation:
    """A fixed closed convex value F(t, x) = s with d(0, s) <= h_bound."""
    return Perturbation(
        values=lambda t, x: s,
        h=lambda x: h_bound,
        lipschitz_h=0.0,
        time_independent=True,
    )
