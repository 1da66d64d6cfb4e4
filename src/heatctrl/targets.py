"""Time partitioning and the intermediate-target sub-problems.

A partition is the list of its N+1 breakpoint steps, from 0 to the step
count; breakpoint step s is at time dt * s.  The target trajectory
chi = y - p is evaluated at the breakpoints; each sub-interval then carries
an independent tracking problem whose initial state is y at its left
breakpoint and whose target is chi at its right breakpoint.
A sub-problem's time grid is ``TimeGrid(count, dt)``, its step count with the
outer dt, so every sub-problem steps with the outer dt by construction.
At the final breakpoint chi equals the global target by construction, so the
last value is assigned, not computed.  chi is formed only when a sub-problem
reads its target: with more than one inner iteration or an inner gradient
test.  A one-step descent without a test starts from its given gradient and
stops before it solves for another, so its sub-problems get no targets.

The sub-problems only shape the search direction d = v_tilde - v, which the
outer exact line search rescales, so without an inner gradient test of their
own their CG solves stop at ``DIRECTION_CG_TOL`` (or the problem's
``cg_tol``, if looser).  With an inner gradient test they keep ``cg_tol``,
since that test reads their gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linsolve import CGError, MatvecCounter
from .problem import ControlProblem, optimal_step_gradient
from .propagators import START_ORDER, TimeGrid


def make_partition(time_grid: TimeGrid, n_intervals: int) -> list[int]:
    """The split of the time grid into n_intervals blocks of whole steps, as
    the list of its N+1 breakpoint steps: a list indexes the sweeps' step axis
    (``keep``) by step, where a tuple would index one axis per entry.

    When the step count is not divisible, leading intervals absorb one extra
    step each.
    """
    if not 1 <= n_intervals <= time_grid.step_count:
        raise ValueError(
            f"need 1 <= n_intervals <= {time_grid.step_count}, got {n_intervals}"
        )
    base, rem = divmod(time_grid.step_count, n_intervals)
    return [k * base + min(k, rem) for k in range(n_intervals + 1)]


def targets_from_solutions(
    problem: ControlProblem,
    partition: list[int],
    y: np.ndarray,
    p: np.ndarray,
) -> np.ndarray:
    """Breakpoint targets chi = y - p at t_1 .. t_N, as an (N, n) array.

    ``y`` holds the state at the N+1 breakpoints and ``p`` the adjoint at the
    N right ones, as the sweeps return them with ``keep`` set to the
    partition's breakpoint steps and to ``partition[1:]``.
    """
    n = len(partition) - 1
    if len(y) != n + 1 or len(p) != n:
        raise ValueError(f"need y at {n + 1} breakpoints and p at {n}, "
                         f"got {len(y)} and {len(p)}")
    chi = y[1:] - p
    chi[-1] = problem.y_target  # exact: chi(T) = y(T) - (y(T) - y_target)
    return chi


# bytes of the sweeps' (k, n) fields a step-2 batch may hold at once.  A
# column holds 4 + 3 START_ORDER fields of n floats in a sweep: its state,
# right-hand side, CG start and scratch term, the START_ORDER offsets its
# starts extrapolate and the 2 START_ORDER corrections and images of its
# correction space (``propagators._SweepStarts``).  The solvers take a batch
# one column at a time, so this caps only those fields.  It admits every
# sub-problem of a 31 x 31 interior and 4 of a 63 x 63 one.  On perfbench
# it-field65 (seeds 1 and 2, one run each, 2-core Xeon, numpy 2.4) peak RSS
# read 45.95 MB with 4 columns, 48.5-48.7 MB with the 8 admitted before the
# correction spaces were counted, and 46.5-46.6 MB without the spaces.
BATCH_BYTES = 2 * 1024 * 1024


def _column_bytes(grid) -> int:
    """The bytes of one column's fields in a sweep, as ``BATCH_BYTES`` counts them."""
    return 8 * (4 + 3 * START_ORDER) * grid.interior_node_count


# CG tolerance of step 2's solves when the inner descent has no gradient test.
# d then carries an error of about 1e-6 relative, which the outer line search
# absorbs; on the 65 x 65 benchmark at seed 0 a step 2 solve takes about 9.3
# products a column and step here, against 20.5 at cg_tol = 1e-10
DIRECTION_CG_TOL = 1e-6


@dataclass(frozen=True)
class SubProblemBatch:
    """Consecutive sub-problems with one step count, solved as one batched descent."""

    first: int  # index of its first sub-problem
    # batched: the sub-problems' step count with the outer dt, y0 and targets chi
    problem: ControlProblem
    breakpoints: list[int]  # steps of its sub-problems' breakpoints: k + 1 values
    warm_start: np.ndarray  # (k, steps, m): the current control on each sub-interval
    # y at the right breakpoints: each local final state under the warm start,
    # which the inner descent starts from instead of solving for it
    warm_final_state: np.ndarray
    # (k, steps, m): the outer gradient on each sub-interval.  A local adjoint
    # starts from y - chi = p at its right breakpoint and runs the outer
    # recursion, so this is each local gradient at the warm start, and the
    # inner descent starts from it instead of solving for it
    warm_gradient: np.ndarray


def assemble_subproblems(
    problem: ControlProblem,
    v: np.ndarray,
    partition: list[int],
    y: np.ndarray,
    chi: np.ndarray,
    g: np.ndarray,
) -> list[SubProblemBatch]:
    """Step 2's sub-problems from the state y(v) at the N+1 breakpoints, the
    targets chi and the gradient g of the cost at v, in batches.

    Sub-problem n starts from y[n], the state at its left breakpoint, and
    tracks chi[n].  With chi None, for an inner descent that reads no target,
    every target is NaN, so a descent that did read one would fail with a
    non-finite local adjoint.  A batch is a run of consecutive sub-problems
    with one step count, whose sweeps hold at most ``BATCH_BYTES`` of fields.
    """
    if chi is None:
        chi = np.full(y[1:].shape, np.nan)
    if len(chi) != len(partition) - 1 or len(y) != len(partition):
        raise ValueError("targets were computed for a different partition")
    width = max(1, BATCH_BYTES // _column_bytes(problem.grid))
    counts = [b - a for a, b in zip(partition, partition[1:])]
    batches = []
    first = 0
    while first < len(counts):
        stop = first + 1
        while stop < len(counts) and stop - first < width and counts[stop] == counts[first]:
            stop += 1
        local = replace(problem, time_grid=TimeGrid(counts[first], problem.time_grid.dt),
                        y0=y[first:stop], y_target=chi[first:stop])
        window = slice(partition[first], partition[stop])
        shape = (stop - first, counts[first], -1)
        batches.append(SubProblemBatch(first, local, partition[first : stop + 1],
                                       v[window].reshape(shape), y[first + 1 : stop + 1],
                                       g[window].reshape(shape)))
        first = stop
    return batches


def solve_subproblem(
    batches: list[SubProblemBatch],
    inner_iterations: int,
    counter: MatvecCounter,
    gradient_rtol: float | None = None,
) -> np.ndarray:
    """Inner descents of all sub-problems, one batched descent per batch.

    Returns v_tilde, the local controls joined in time.  Each batch counts
    its own products per sub-problem, and ``counter`` is charged all of them
    at once as concurrent solves: their sum in the sequential tally, the
    largest one in the parallel tally.  The descents read the batches' views
    of the run's v, y and g and do not write them.  A ``CGError`` names its
    sub-problem and interval, and keeps its type: the CLI maps it to an exit
    code.

    Without ``gradient_rtol`` the solves run at ``max(cg_tol,
    DIRECTION_CG_TOL)``: only the direction depends on them, and the caller's
    line search, cost and gradient stay at ``cg_tol``.  With it they run at
    ``cg_tol``, so the inner stopping test reads accurate gradients.
    """
    controls, per_column = [], []
    for batch in batches:
        local = batch.problem
        if gradient_rtol is None:
            local = replace(local, cg_tol=max(local.cg_tol, DIRECTION_CG_TOL))
        part = MatvecCounter(columns=len(batch.warm_start))
        try:
            control, _ = optimal_step_gradient(
                local, batch.warm_start, batch.warm_final_state, batch.warm_gradient,
                inner_iterations, part, gradient_rtol=gradient_rtol,
            )
        except CGError as exc:
            n, dt = batch.first + exc.column, local.time_grid.dt
            start, end = batch.breakpoints[exc.column : exc.column + 2]
            raise CGError(f"sub-problem {n} on [{dt * start:g}, {dt * end:g}]: {exc}", n) from exc
        controls.append(control.reshape(-1, control.shape[-1]))
        per_column.append(part.per_column)
    counter.add_concurrent(np.concatenate(per_column))
    return np.concatenate(controls)
