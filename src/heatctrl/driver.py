"""The outer loop of the intermediate-targets method, and its matvec ledger.

``run`` is the only outer loop, from v = 0 or a given start control.  Each
iteration ``_sweep`` takes d and the line search's head, z at the first
breakpoint or None, from ``targets_direction``, given the gradient g(v) of
the current control v, then takes the exact line-search step along d,
rejecting an uphill one.  The direction is steps 1-3 of the method: (1) the
targets chi = y - p at the breakpoints, (2) the independent sub-problems,
each solved on its own with a matvec count of its own, and (3) the changes
of their controls joined into d = v_tilde - v.  By linearity a sub-problem's
gradient at the current control is the window of g on its sub-interval, and
after a change u of its control it is that window plus alpha u plus the
adjoint of u's response, so step 2 reads g alone and chi is never formed
(``targets``).  Sub-problem 0 starts, like z, from zero at t = 0, so its
response (the homogeneous state its change of control drives, at its right
breakpoint) is z at the first breakpoint: the head, whenever it was solved
at ``cg_tol``.

The sequential baseline, the optimal-step gradient method, is the case of
one interval and one inner iteration: its one sub-problem takes the exact
step sigma along -g, its response is z(T), so the line search makes no sweep
and its theta is 1 up to rounding.

Only step 2's solves may run at a looser CG tolerance
(``targets.DIRECTION_CG_TOL``, when the inner descent has no gradient test),
since they only shape d; sub-problem 0's at one inner iteration do not,
since they also give the head.  The state, adjoint and line-search solves
stay at the problem's ``cg_tol``, and so do J, g, the stopping test and the
uphill guard: every accepted step lowers J and the gradient stays the exact
one.

The final state follows through linearity, y(T; v + theta d) = y(T; v) +
theta z(T) with z the homogeneous state the line search solved for, so each
outer iteration costs one adjoint sweep (all its steps from one Lanczos
pass: at seed 0, 64 products against 651 for a CG solve per step on the
33 x 33 benchmark, 128 against 1365 on the 65 x 65 one), step 2's solves and
the line search's one homogeneous forward sweep: from the head at the first
breakpoint when step 2 gives one, else from zero at t = 0, to T (none when
the head is z(T)).  That sweep is given the breakpoints it crosses, so its
first steps in each window recall the corrections made at the same steps of
the last windows, and like every sweep's steps each takes its one test
product at its corrected start (``propagators.solve_state``): about 4.0 and
11.5 products a step on the two at seed 0, against 4.15 and 13.5 without
the recall.  With one inner iteration, a sub-problem costs one homogeneous
forward solve; each further inner iteration adds an adjoint and a forward
solve.

A run stores no trajectory: y and z at the final step, p on the control
patch at every step, and the control and gradient, which is O(n + steps m)
memory for n grid nodes and m control nodes.

One ``MatvecCounter`` keeps both tallies.  The sequential tally counts every
product; the parallel tally charges step 2 at its costliest sub-problem
(``MatvecCounter.add_concurrent``), as if each sub-problem ran on its own
processor.  With one interval the two tallies agree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .grid import inner_omega
from .linsolve import MatvecCounter
from .problem import ControlProblem, _record, gradient, inner_h, norm_h
from .propagators import TimeGrid, solve_state
from .targets import assemble_subproblems, make_partition, solve_subproblem


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
    partition: list[int],
    v: np.ndarray,
    d: np.ndarray,
    residual: np.ndarray,
    counter: MatvecCounter,
    head: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None]:
    """Exact minimizer of theta -> J(v + theta d) and the z(T) it used.

    ``residual`` is y(T; v) - y_target.  z is the homogeneous state driven by
    d, so y(T; v + theta d) = y(T; v) + theta z(T); it is None (and theta 0)
    when d vanishes.  z comes from one sweep over the steps from a start
    step to T, on d's rows from there and given the breakpoints from there
    on.  Without ``head`` it starts at step 0 from z = 0.  With it, z at
    ``partition[1]`` solved at ``cg_tol`` (step 2's sub-problem 0 response),
    it starts at ``partition[1]`` from the head; with one interval that step
    is T, the head is z(T), and there is no sweep.
    """
    grid, tg = problem.grid, problem.time_grid
    if not np.any(d):
        return 0.0, None
    start, zT = (0, grid.zero_field()) if head is None else (partition[1], head)
    if start < tg.step_count:
        zT = solve_state(grid, TimeGrid(tg.step_count - start, tg.dt), zT, d[start:],
                         problem.nu, problem.cg_tol, counter, keep=-1,
                         breakpoints=[b - start for b in partition if b >= start])
    num = inner_omega(grid, residual, zT) + problem.alpha * inner_h(grid, tg, v, d)
    den = inner_omega(grid, zT, zT) + problem.alpha * inner_h(grid, tg, d, d)
    if den == 0.0:
        return 0.0, zT
    return -num / den, zT


def targets_direction(
    problem: ControlProblem,
    partition: list[int],
    config: OuterConfig,
    g: np.ndarray,
    counter: MatvecCounter,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Steps 1-3 of the intermediate-targets method from the gradient g of
    the cost at the current control: d = v_tilde - v, and the line search's
    head, z at ``partition[1]``, or None.

    Each sub-problem counts its own products, and ``counter`` is charged
    them as concurrent solves: their sum in the sequential tally, the
    largest in the parallel one.  The head is sub-problem 0's response,
    which ``solve_subproblem`` returns when that sub-problem ran at
    ``cg_tol``: with one inner iteration or an inner gradient test, not with
    more inner iterations and no test."""
    subproblems = assemble_subproblems(problem, partition, g)
    counters = [MatvecCounter() for _ in subproblems]
    solved = [solve_subproblem(sub, config.inner_iterations, own, config.inner_gradient_rtol)
              for sub, own in zip(subproblems, counters)]
    counter.add_concurrent([own.count for own in counters])
    return np.concatenate([update for update, _ in solved]), solved[0][1]


# a function so that d and z are freed before run's next adjoint sweep
def _sweep(
    problem: ControlProblem,
    partition: list[int],
    config: OuterConfig,
    v: np.ndarray,
    y: np.ndarray,
    g: np.ndarray,
    cost: float,
    counter: MatvecCounter,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One outer iteration from the final state y = y(T; v), the gradient
    g(v) and the cost J(v) of the control v: ``targets_direction``'s d, then
    the exact line search along it, from its head when it gives one.

    Returns (v_next, y_next, theta): y_next is y(T; v_next), updated through
    linearity; theta is 0 and v, y come back unchanged when the line search
    finds no descent step.
    """
    d, head = targets_direction(problem, partition, config, g, counter)
    theta, zT = line_search_theta(problem, partition, v, d, y - problem.y_target, counter, head)
    if theta != 0.0:
        v_next, y_next = v + theta * d, y + theta * zT
        if _record(problem, v_next, y_next).cost <= cost:
            return v_next, y_next, theta
        # exact line search guarantees descent up to solver noise; keep the
        # previous iterate rather than take an uphill step
    return v, y, 0.0


def run(problem: ControlProblem, config: OuterConfig,
        start: np.ndarray | None = None) -> RunResult:
    """Iterate from ``start`` (v = 0 without one) until the true gradient norm
    test, a stall or max_outer.

    The stopping gradient is the one step 2 starts from, so it adds no extra
    cost.  Row k of
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

    y = solve_state(grid, tg, problem.y0, v, problem.nu, problem.cg_tol, counter, keep=-1)

    threshold = None
    history: list[IterationMetrics] = []
    converged = stalled = False

    for k in range(config.max_outer + 1):
        g = gradient(problem, v, counter, final_state=y)
        with np.errstate(over="ignore"):
            rec = _record(problem, v, y)
            gnorm = norm_h(grid, tg, g)
        if not (np.isfinite(rec.cost) and np.isfinite(gnorm)):
            raise FloatingPointError(f"the cost or its gradient overflowed at iteration {k}")
        if threshold is None:
            threshold = config.gradient_rtol * (1.0 + gnorm)
        marks = (counter.count, counter.parallel, time.perf_counter() - t0)

        converged = gnorm <= threshold
        theta = 0.0
        if not converged and k < config.max_outer:
            v, y, theta = _sweep(problem, partition, config, v, y, g, rec.cost, counter)
            # a zero step leaves v unchanged: every later iteration would repeat this one
            stalled = theta == 0.0
        history.append(IterationMetrics(k, rec.cost, rec.misfit, rec.penalty, theta, *marks))
        if theta == 0.0:
            break

    return RunResult(v, history, converged, stalled)
