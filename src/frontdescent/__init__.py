"""Pareto front reconstruction by front descent.

A library and CLI for reconstructing Pareto fronts of smooth unconstrained
multi-objective problems through iterated refinement (common descent line
searches) and exploration (partial descent line searches), with steepest
descent, Newton-type and Barzilai-Borwein direction variants.
"""

from .directions import (
    DirectionResult,
    bb_direction,
    common_steepest,
    newton_direction,
    partial_steepest,
    sdr_check,
    solve_dual_simplex,
    spectral_shift,
    update_bb_scalars,
)
from .driver import (
    FDConfig,
    IterationRecord,
    RunResult,
    compute_iteration_bound,
    default_reference_point,
    front_hypervolume,
    run,
    select_processing_order,
    theta_of_front,
)
from .front import (
    FrontEntry,
    FrontSet,
    insert_filter,
    is_stable,
    nondominated,
    write_front_csv,
)
from .hypervolume import (
    box_gain_lower_bound,
    hv_monte_carlo,
    hypervolume,
    hypervolume_2d,
    hypervolume_3d,
    reference_point_cross_solver,
)
from .linesearch import LineSearchError, armijo_front, exploration_ls
from .metrics import (
    build_reference_front,
    delta_spread,
    gamma_spread,
    performance_profiles,
    profile_preprocess,
    purity,
)
from .model import (
    EvalCounters,
    EvaluationError,
    ProblemDefinition,
    counted,
    evaluate,
    gradient_check,
    hessians,
    jacobian,
)
from .suite import initial_points, list_problems, make_problem

__version__ = "0.1.0"

__all__ = [
    "DirectionResult",
    "bb_direction",
    "common_steepest",
    "newton_direction",
    "partial_steepest",
    "sdr_check",
    "solve_dual_simplex",
    "spectral_shift",
    "update_bb_scalars",
    "FDConfig",
    "IterationRecord",
    "RunResult",
    "compute_iteration_bound",
    "default_reference_point",
    "front_hypervolume",
    "run",
    "select_processing_order",
    "theta_of_front",
    "FrontEntry",
    "FrontSet",
    "insert_filter",
    "is_stable",
    "nondominated",
    "write_front_csv",
    "box_gain_lower_bound",
    "hv_monte_carlo",
    "hypervolume",
    "hypervolume_2d",
    "hypervolume_3d",
    "reference_point_cross_solver",
    "LineSearchError",
    "armijo_front",
    "exploration_ls",
    "build_reference_front",
    "delta_spread",
    "gamma_spread",
    "performance_profiles",
    "profile_preprocess",
    "purity",
    "EvalCounters",
    "EvaluationError",
    "ProblemDefinition",
    "counted",
    "evaluate",
    "gradient_check",
    "hessians",
    "jacobian",
    "initial_points",
    "list_problems",
    "make_problem",
]
