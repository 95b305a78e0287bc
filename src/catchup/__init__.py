"""Catching-up time stepping for sweeping processes with certified
approximate projections."""

from .geometry import (
    Ball,
    Box,
    ConvexFnOracle,
    Halfspace,
    MovingSet,
    ProjectionResult,
    SetDescription,
    Sublevel,
    UnsupportedKind,
    ball_fn,
    affine_fn,
    max_fn,
    distance,
    exact_project,
    prox_eps0,
    residual,
)
from .oracles import (
    Hyperplane,
    ProjectorConfig,
    ZeroSubgradient,
    approx_project,
    cutting_plane_project,
    frank_wolfe_project,
    separation_oracle,
)
from .perturbation import (
    Perturbation,
    Selection,
    cell_integral,
    constant_set_perturbation,
    linear_decay_perturbation,
    make_selection,
    min_norm_selection,
    zero_perturbation,
)
from .solver import (
    EpsSchedule,
    Grid,
    ProjectionFailed,
    SweepingProblem,
    Trajectory,
    interpolate,
    solve,
    step,
    theorem1_audit,
    trajectory_to_csv,
    trajectory_to_json,
    velocity,
)
from .harness import (
    CATALOG,
    RateStudy,
    StabilityStudy,
    make_problem,
    rate_study,
    reference_solution,
    stability_study,
    sup_error,
)

__version__ = "0.1.0"
