"""Time-parallel optimal control of the heat equation via intermediate targets."""

from .grid import (
    Grid,
    build_grid,
    inject,
    inner_omega,
    laplacian_apply,
    norm_omega,
)
from .linsolve import CGError, MatvecCounter, cg_solve
from .propagators import TimeGrid, solve_adjoint, solve_state, step_operator
from .problem import (
    ControlProblem,
    evaluate,
    gradient,
    inner_h,
    norm_h,
    optimal_step_gradient,
    oracle_kkt_solve,
)
from .targets import assemble_subproblems, make_partition, solve_subproblem
from .driver import (
    OuterConfig,
    line_search,
    run,
    targets_direction,
)
from .config import ConfigError, build_instance, make_field, parse_config

__all__ = [
    "CGError",
    "ConfigError",
    "ControlProblem",
    "Grid",
    "MatvecCounter",
    "OuterConfig",
    "TimeGrid",
    "assemble_subproblems",
    "build_grid",
    "build_instance",
    "cg_solve",
    "evaluate",
    "gradient",
    "inject",
    "inner_h",
    "inner_omega",
    "laplacian_apply",
    "line_search",
    "make_field",
    "make_partition",
    "norm_h",
    "norm_omega",
    "optimal_step_gradient",
    "oracle_kkt_solve",
    "parse_config",
    "run",
    "solve_adjoint",
    "solve_state",
    "solve_subproblem",
    "step_operator",
    "targets_direction",
]
