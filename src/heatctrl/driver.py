"""The outer loop of both methods, and its matvec ledger.

``run`` is the only outer loop, from v = 0 or a given start control.  Each
iteration ``_sweep`` asks a direction rule for d from the state y(v), adjoint
p(v) and gradient g(v) of the current control v, then takes the exact
line-search step along d, rejecting an uphill one.  The two methods differ
only in the rule:

- ``steepest_direction``, the sequential baseline: d = -g, which makes the
  line search the optimal-step gradient method;
- ``targets_direction``, the intermediate-targets method: (1) the targets
  chi = y - p at the breakpoints, (2) the independent sub-problems solved as
  one batched descent, each local time step advancing all of them at once
  with per-sub-problem arithmetic and matvec counts, and (3) their controls
  joined into v_tilde, so d = v_tilde - v.  A sub-problem's local adjoint
  starts from y - chi = p at its right breakpoint and repeats the outer
  recursion, so its first gradient is the window of g on its sub-interval
  and step 2 does not solve it again.

Only step 2's solves may run at a looser CG tolerance
(``targets.DIRECTION_CG_TOL``, when the inner descent has no gradient test),
since they only shape d.  The state, adjoint and line-search solves stay at
the problem's ``cg_tol``, and so do J, g, the stopping test and the uphill
guard: every accepted step lowers J and the gradient stays the exact one.

The state follows through linearity, y(v + theta d) = y(v) + theta z with z
the homogeneous trajectory the line search solved for, so each outer
iteration costs one adjoint solve, the rule's solves and one homogeneous
forward solve.  With one inner iteration, the sub-problem solves are one
batched homogeneous forward solve; each further inner iteration adds a
batched adjoint and a batched forward solve.

The sub-problems touch one another only through y and p at the N+1
breakpoints, and the gradient reads p only on the control patch, so a run
stores no full trajectory: y and z at the N+1 breakpoints, p as full fields
at the N right breakpoints and p on the control patch at every step, which
is O(N n + steps m) memory for n grid nodes and m control nodes.

One ``MatvecCounter`` keeps both tallies.  The sequential tally counts every
product; the parallel tally charges step 2 at its per-sub-problem maximum
(``MatvecCounter.add_concurrent``), as if each sub-problem ran on its own
processor.  The baseline has no step 2, so its two tallies agree.
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
        if self.inner_iterations < 1:
            raise ValueError("inner_iterations must be at least 1")
        if self.max_outer < 0:
            raise ValueError("max_outer must be at least 0")
        # written so that NaN fails too
        if not self.gradient_rtol > 0:
            raise ValueError("gradient_rtol must be positive")
        if self.inner_gradient_rtol is not None and not self.inner_gradient_rtol > 0:
            raise ValueError("inner_gradient_rtol must be positive")


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


def steepest_direction(problem, partition, config, v, y, p, g, counter):
    """The sequential baseline's rule: d = -g."""
    return -g


def targets_direction(
    problem: ControlProblem,
    partition: TimePartition,
    config: OuterConfig,
    v: np.ndarray,
    y: np.ndarray,
    p: np.ndarray,
    g: np.ndarray,
    counter: MatvecCounter,
) -> np.ndarray:
    """Steps 1-3 of the intermediate-targets method: d = v_tilde - v."""
    chi = targets_from_solutions(problem, partition, y, p)
    batches = assemble_subproblems(problem, v, partition, y, chi, g)
    v_tilde = solve_subproblem(batches, config.inner_iterations, counter,
                               config.inner_gradient_rtol)
    return v_tilde - v


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
    direction,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One outer iteration from the state y(v) at the N+1 breakpoints, the
    adjoint p(v) at the N right breakpoints, the gradient g(v) and the cost
    J(v) of the control v: the direction rule's d, then the exact line search
    along it.

    Returns (v_next, y_next, theta): y_next is y(v_next) at the breakpoints,
    updated through linearity; theta is 0 and v, y come back unchanged when
    the line search finds no descent step.
    """
    d = direction(problem, partition, config, v, y, p, g, counter)
    theta, z = line_search_theta(problem, partition, v, d, y[-1] - problem.y_target, counter)
    if theta != 0.0:
        v_next, y_next = v + theta * d, y + theta * z
        if _record(problem, v_next, y_next[-1]).cost <= cost:
            return v_next, y_next, theta
        # exact line search guarantees descent up to solver noise; keep the
        # previous iterate rather than take an uphill step
    return v, y, 0.0


def _adjoint(problem: ControlProblem, partition: TimePartition, v: np.ndarray,
             y_final: np.ndarray, counter: MatvecCounter) -> tuple[np.ndarray, np.ndarray]:
    """p(v) at the N right breakpoints and the gradient alpha v + B* p of the
    cost at v, from one adjoint solve that keeps the rest of p on the control
    patch only."""
    p, patch = solve_adjoint(problem.grid, problem.time_grid, y_final - problem.y_target,
                             problem.nu, problem.cg_tol, counter,
                             keep=partition.breakpoint_steps[1:])
    return p, problem.alpha * v + patch[:-1]


def run(problem: ControlProblem, config: OuterConfig,
        direction=targets_direction, start: np.ndarray | None = None) -> RunResult:
    """Iterate from ``start`` (v = 0 without one) until the true gradient norm
    test, a stall or max_outer.

    ``direction`` is the rule each sweep takes its d from:
    ``targets_direction`` (the default) or ``steepest_direction``.  The
    stopping gradient comes from the same adjoint solve that builds the
    targets, so it adds no extra cost; step 2 starts from it too.  Row k of
    the history reports J(v^k) and the step theta_k taken at that iterate;
    matvec tallies are those accumulated when J(v^k) and its gradient became
    known.  A ``start`` not shaped like a control raises ValueError; a cost
    or gradient norm that overflows raises FloatingPointError.
    """
    grid, tg = problem.grid, problem.time_grid
    v = problem.zero_control()
    if start is not None:
        if np.shape(start) != v.shape:
            raise ValueError(f"start must have shape {v.shape}, got {np.shape(start)}")
        v = np.array(start, dtype=float)
    partition = make_partition(tg, config.n_intervals)
    counter = MatvecCounter()
    t0 = time.perf_counter()

    y = solve_state(grid, tg, problem.y0, v, problem.nu, problem.cg_tol, counter,
                    keep=partition.breakpoint_steps)

    threshold = None
    history: list[IterationMetrics] = []
    converged = stalled = False

    for k in range(config.max_outer + 1):
        p, g = _adjoint(problem, partition, v, y[-1], counter)
        with np.errstate(over="ignore"):
            rec = _record(problem, v, y[-1])
            gnorm = norm_h(grid, tg, g)
        if not (np.isfinite(rec.cost) and np.isfinite(gnorm)):
            raise FloatingPointError(f"the cost or its gradient overflowed at iteration {k}")
        if threshold is None:
            threshold = config.gradient_rtol * (1.0 + gnorm)
        marks = (counter.count, counter.parallel, time.perf_counter() - t0)

        converged = gnorm <= threshold
        theta = 0.0
        if not converged and k < config.max_outer:
            v, y, theta = _sweep(problem, partition, config, v, y, p, g, rec.cost, counter,
                                 direction)
            # a zero step leaves v unchanged: every later iteration would repeat this one
            stalled = theta == 0.0
        history.append(IterationMetrics(k, rec.cost, rec.misfit, rec.penalty, theta, *marks))
        if theta == 0.0:
            break

    return RunResult(v, history, converged, stalled)
