"""The outer sweep of the intermediate-targets method and its matvec ledger.

``_sweep`` is the only implementation of the method's four steps.  From the
state y(v), adjoint p(v) and gradient g(v) of the current control it (1)
forms the targets chi = y - p at the breakpoints, (2) solves the independent
sub-problems as one batched descent, each local time step advancing all of
them at once with per-sub-problem arithmetic and matvec counts, (3)
concatenates their controls into v_tilde, and (4) takes the exact line-search
step along d = v_tilde - v, rejecting an uphill one.  A sub-problem's local
adjoint starts from y - chi = p at its right breakpoint and repeats the outer
recursion, so its first gradient is the window of g on its sub-interval and
step 2 does not solve it again.  The state follows through linearity,
y(v + theta d) = y(v) + theta z with z the homogeneous trajectory the line
search solved for, so each outer iteration of ``run`` costs one adjoint
solve, the sub-problem solves and one homogeneous forward solve.  With one
inner iteration, the sub-problem solves are one batched homogeneous forward
solve; each further inner iteration adds a batched adjoint and a batched
forward solve.
``outer_iteration`` runs the same sweep from an arbitrary control.

One ``MatvecCounter`` counts every product: the sequential tally.  The
parallel tally charges each step-2 batch at its per-sub-problem maximum, so it
is that count minus the products each sweep reports as saved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .grid import inner_omega
from .linsolve import MatvecCounter
from .problem import ControlProblem, _record, inner_h, norm_h
from .propagators import solve_adjoint, solve_state
from .targets import (
    TimePartition,
    assemble_subproblems,
    make_partition,
    solve_subproblem,
    targets_from_solutions,
)


@dataclass(frozen=True)
class OuterConfig:
    n_intervals: int
    inner_iterations: int = 1
    inner_gradient_rtol: float | None = None
    max_outer: int = 100
    gradient_rtol: float = 1e-6

    def __post_init__(self):
        if self.n_intervals < 1:
            raise ValueError("n_intervals must be at least 1")
        if self.gradient_rtol <= 0:
            raise ValueError("gradient_rtol must be positive")


@dataclass(frozen=True)
class IterationMetrics:
    outer_index: int
    cost: float
    misfit: float
    penalty: float
    theta: float  # step taken at this iterate (0 at the final/converged row)
    matvec_sequential: int
    matvec_parallel: int
    wall_time: float  # seconds since the run started


@dataclass
class RunResult:
    control: np.ndarray
    history: list[IterationMetrics]
    converged: bool
    stalled: bool = False  # stopped early because the last row's step was zero


def line_search_theta(
    problem: ControlProblem,
    v: np.ndarray,
    d: np.ndarray,
    residual: np.ndarray,
    counter: MatvecCounter,
) -> tuple[float, np.ndarray | None]:
    """Exact minimizer of theta -> J(v + theta d) and the trajectory z it used.

    ``residual`` is y(T; v) - y_target.  z is the homogeneous state driven by
    d, so y(v + theta d) = y(v) + theta z; it is None (and theta 0) when d
    vanishes.
    """
    grid, tg = problem.grid, problem.time_grid
    if not np.any(d):
        return 0.0, None
    z = solve_state(grid, tg, grid.zero_field(), d, problem.nu, problem.cg_tol, counter)
    zT = z[-1]
    num = inner_omega(grid, residual, zT) + problem.alpha * inner_h(grid, tg, v, d)
    den = inner_omega(grid, zT, zT) + problem.alpha * inner_h(grid, tg, d, d)
    if den == 0.0:
        return 0.0, z
    return -num / den, z


def _sweep(
    problem: ControlProblem,
    partition: TimePartition,
    config: OuterConfig,
    v: np.ndarray,
    y: np.ndarray,
    p: np.ndarray,
    g: np.ndarray,
    cost: float,
    counter: MatvecCounter,
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Steps 1-4 from the state y(v), adjoint p(v), gradient g(v) and cost
    J(v) of the control v.

    Returns (v_next, y_next, theta, saved): y_next is y(v_next), updated
    through linearity; theta is 0 and v, y come back unchanged when the line
    search finds no descent step; saved is what the parallel tally does not
    charge of step 2's products.
    """
    chi = targets_from_solutions(problem, partition, y, p)
    batches = assemble_subproblems(problem, v, partition, y, chi, g)
    v_tilde, saved = solve_subproblem(batches, config.inner_iterations, counter,
                                      config.inner_gradient_rtol)
    d = v_tilde - v
    theta, z = line_search_theta(problem, v, d, y[-1] - problem.y_target, counter)
    if theta != 0.0:
        v_next, y_next = v + theta * d, y + theta * z
        if _record(problem, v_next, y_next[-1]).cost <= cost:
            return v_next, y_next, theta, saved
        # exact line search guarantees descent up to solver noise; keep the
        # previous iterate rather than take an uphill step
    return v, y, 0.0, saved


def _gradient(problem: ControlProblem, v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The gradient alpha v + B* p of the cost at v, from its adjoint trajectory p."""
    return problem.alpha * v + p[:-1][:, problem.grid.control_mask]


def outer_iteration(
    problem: ControlProblem,
    v_k: np.ndarray,
    config: OuterConfig,
    counter: MatvecCounter,
) -> tuple[np.ndarray, float, int]:
    """One sweep from an arbitrary control; returns (v_next, theta, parallel matvecs).

    Solves for y(v_k) and p(v_k) first.  ``counter`` accumulates the
    sequential tally; the returned integer is this sweep's parallel charge.
    """
    grid, tg = problem.grid, problem.time_grid
    start = counter.count
    y = solve_state(grid, tg, problem.y0, v_k, problem.nu, problem.cg_tol, counter)
    p = solve_adjoint(grid, tg, y[-1] - problem.y_target, problem.nu, problem.cg_tol, counter)
    cost = _record(problem, v_k, y[-1]).cost
    partition = make_partition(tg, config.n_intervals)
    v_next, _, theta, saved = _sweep(problem, partition, config, v_k, y, p,
                                     _gradient(problem, v_k, p), cost, counter)
    return v_next, theta, counter.count - start - saved


def run(problem: ControlProblem, config: OuterConfig) -> RunResult:
    """Iterate from v = 0 until the true gradient norm test, a stall or max_outer.

    The stopping gradient comes from the same adjoint solve that builds the
    targets, so it adds no extra cost; step 2 starts from it too.  Row k of
    the history reports J(v^k) and the step theta_k taken at that iterate;
    matvec tallies are those accumulated when J(v^k) and its gradient became
    known.
    """
    grid, tg = problem.grid, problem.time_grid
    partition = make_partition(tg, config.n_intervals)
    counter = MatvecCounter()
    saved = 0
    t0 = time.perf_counter()

    v = problem.zero_control()
    y = solve_state(grid, tg, problem.y0, v, problem.nu, problem.cg_tol, counter)

    threshold = None
    history: list[IterationMetrics] = []
    converged = stalled = False

    for k in range(config.max_outer + 1):
        rec = _record(problem, v, y[-1])
        p = solve_adjoint(grid, tg, y[-1] - problem.y_target, problem.nu, problem.cg_tol,
                          counter)
        g = _gradient(problem, v, p)
        gnorm = norm_h(grid, tg, g)
        if threshold is None:
            threshold = config.gradient_rtol * (1.0 + gnorm)
        marks = (counter.count, counter.count - saved, time.perf_counter() - t0)

        converged = gnorm <= threshold
        theta = 0.0
        if not converged and k < config.max_outer:
            v, y, theta, step_saved = _sweep(problem, partition, config, v, y, p, g,
                                             rec.cost, counter)
            saved += step_saved
            # a zero step leaves v unchanged: every later iteration would repeat this one
            stalled = theta == 0.0
        history.append(IterationMetrics(k, rec.cost, rec.misfit, rec.penalty, theta, *marks))
        if theta == 0.0:
            break

    return RunResult(v, history, converged, stalled)
