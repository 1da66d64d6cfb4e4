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

The sub-problems touch one another only through y and p at the N+1
breakpoints, and the gradient reads p only on the control patch, so a run
stores no full trajectory: y and z at the N+1 breakpoints, p as full fields
at the N right breakpoints and p on the control patch at every step, which
is O(N n + steps m) memory for n grid nodes and m control nodes.

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
    partition: TimePartition,
    v: np.ndarray,
    d: np.ndarray,
    residual: np.ndarray,
    counter: MatvecCounter,
) -> tuple[float, np.ndarray | None]:
    """Exact minimizer of theta -> J(v + theta d) and the z it used.

    ``residual`` is y(T; v) - y_target.  z is the homogeneous state driven by
    d at the partition's N+1 breakpoints, so y(v + theta d) = y(v) + theta z
    there; it is None (and theta 0) when d vanishes.
    """
    grid, tg = problem.grid, problem.time_grid
    if not np.any(d):
        return 0.0, None
    z = solve_state(grid, tg, grid.zero_field(), d, problem.nu, problem.cg_tol, counter,
                    keep=partition.breakpoint_steps)
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
    """Steps 1-4 from the state y(v) at the N+1 breakpoints, the adjoint p(v)
    at the N right breakpoints, the gradient g(v) and the cost J(v) of the
    control v.

    Returns (v_next, y_next, theta, saved): y_next is y(v_next) at the
    breakpoints, updated through linearity; theta is 0 and v, y come back
    unchanged when the line search finds no descent step; saved is what the
    parallel tally does not charge of step 2's products.
    """
    chi = targets_from_solutions(problem, partition, y, p)
    batches = assemble_subproblems(problem, v, partition, y, chi, g)
    v_tilde, saved = solve_subproblem(batches, config.inner_iterations, counter,
                                      config.inner_gradient_rtol)
    d = v_tilde - v
    theta, z = line_search_theta(problem, partition, v, d, y[-1] - problem.y_target, counter)
    if theta != 0.0:
        v_next, y_next = v + theta * d, y + theta * z
        if _record(problem, v_next, y_next[-1]).cost <= cost:
            return v_next, y_next, theta, saved
        # exact line search guarantees descent up to solver noise; keep the
        # previous iterate rather than take an uphill step
    return v, y, 0.0, saved


def _adjoint(problem: ControlProblem, partition: TimePartition, v: np.ndarray,
             y_final: np.ndarray, counter: MatvecCounter) -> tuple[np.ndarray, np.ndarray]:
    """p(v) at the N right breakpoints and the gradient alpha v + B* p of the
    cost at v, from one adjoint solve that keeps the rest of p on the control
    patch only."""
    p, patch = solve_adjoint(problem.grid, problem.time_grid, y_final - problem.y_target,
                             problem.nu, problem.cg_tol, counter,
                             keep=partition.breakpoint_steps[1:])
    return p, problem.alpha * v + patch[:-1]


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
    partition = make_partition(tg, config.n_intervals)
    y = solve_state(grid, tg, problem.y0, v_k, problem.nu, problem.cg_tol, counter,
                    keep=partition.breakpoint_steps)
    p, g = _adjoint(problem, partition, v_k, y[-1], counter)
    cost = _record(problem, v_k, y[-1]).cost
    v_next, _, theta, saved = _sweep(problem, partition, config, v_k, y, p, g, cost, counter)
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
    y = solve_state(grid, tg, problem.y0, v, problem.nu, problem.cg_tol, counter,
                    keep=partition.breakpoint_steps)

    threshold = None
    history: list[IterationMetrics] = []
    converged = stalled = False

    for k in range(config.max_outer + 1):
        rec = _record(problem, v, y[-1])
        p, g = _adjoint(problem, partition, v, y[-1], counter)
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
