"""Time partitioning and the intermediate-target sub-problems.

The target trajectory chi = y - p is evaluated at partition breakpoints; each
sub-interval then carries an independent tracking problem whose initial state
is y at its left breakpoint and whose target is chi at its right breakpoint.
A sub-problem's time grid is its window of the outer one
(``TimeGrid.window``), so every sub-problem steps with the outer dt, bit for
bit.
At the final breakpoint chi equals the global target by construction, so the
last value is assigned, not computed.

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
from .propagators import TimeGrid


@dataclass(frozen=True)
class TimePartition:
    breakpoints: tuple[float, ...]  # N+1 values, aligned with time-grid points
    step_counts: tuple[int, ...]
    step_offsets: tuple[int, ...]  # global step index of each left breakpoint

    @property
    def n_intervals(self) -> int:
        return len(self.step_counts)

    @property
    def breakpoint_steps(self) -> list[int]:
        """Global step index of each of the N+1 breakpoints."""
        return list(self.step_offsets) + [self.step_offsets[-1] + self.step_counts[-1]]


def make_partition(time_grid: TimeGrid, n_intervals: int) -> TimePartition:
    """Split the time grid into n_intervals blocks of whole steps.

    When the step count is not divisible, leading intervals absorb one extra
    step each.
    """
    if not 1 <= n_intervals <= time_grid.step_count:
        raise ValueError(
            f"need 1 <= n_intervals <= {time_grid.step_count}, got {n_intervals}"
        )
    base, rem = divmod(time_grid.step_count, n_intervals)
    counts = tuple([base + 1] * rem + [base] * (n_intervals - rem))
    offsets = tuple(int(o) for o in np.concatenate([[0], np.cumsum(counts)[:-1]]))
    # t_start + dt * step_count can miss t_end in its last bit
    breakpoints = tuple(time_grid.t_start + time_grid.dt * o for o in offsets) + (
        time_grid.t_end,
    )
    return TimePartition(breakpoints, counts, offsets)


def targets_from_solutions(
    problem: ControlProblem,
    partition: TimePartition,
    y: np.ndarray,
    p: np.ndarray,
) -> np.ndarray:
    """Breakpoint targets chi = y - p at t_1 .. t_N, as an (N, n) array.

    ``y`` holds the state at the N+1 breakpoints and ``p`` the adjoint at the
    N right ones, as the sweeps return them with ``keep`` set to the
    partition's ``breakpoint_steps`` and ``breakpoint_steps[1:]``.
    """
    n = partition.n_intervals
    if len(y) != n + 1 or len(p) != n:
        raise ValueError(f"need y at {n + 1} breakpoints and p at {n}, "
                         f"got {len(y)} and {len(p)}")
    chi = y[1:] - p
    chi[-1] = problem.y_target  # exact: chi(T) = y(T) - (y(T) - y_target)
    return chi


# widest field block (columns x nodes of float64) of a step-2 batch: 8 columns
# on a 63 x 63 interior, every sub-problem of a 31 x 31 one.  All 16 columns
# of a 63 x 63 run at once raised its peak memory and gained no time.
BATCH_BYTES = 256 * 1024

# CG tolerance of step 2's solves when the inner descent has no gradient test.
# d then carries an error of about 1e-6 relative, which the outer line search
# absorbs; on the 65 x 65 benchmark a step 2 solve takes about 11 products a
# column and step here, against 23 at cg_tol = 1e-10
DIRECTION_CG_TOL = 1e-6


@dataclass(frozen=True)
class SubProblemBatch:
    """Consecutive sub-problems with one step count, solved as one batched descent."""

    first: int  # index of its first sub-problem
    # batched: the window of the first sub-problem's steps (each column has
    # its step count and the outer dt), y0 and targets chi
    problem: ControlProblem
    breakpoints: tuple[float, ...]  # of its sub-problems: k + 1 values
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
    partition: TimePartition,
    y: np.ndarray,
    chi: np.ndarray,
    g: np.ndarray,
) -> list[SubProblemBatch]:
    """Step 2's sub-problems from the state y(v) at the N+1 breakpoints, the
    targets chi and the gradient g of the cost at v, in batches.

    Sub-problem n starts from y[n], the state at its left breakpoint, and
    tracks chi[n].  A batch is a run of consecutive sub-problems with one step
    count, at most ``BATCH_BYTES`` of fields wide.
    """
    if len(chi) != partition.n_intervals or len(y) != partition.n_intervals + 1:
        raise ValueError("targets were computed for a different partition")
    width = max(1, BATCH_BYTES // (8 * problem.grid.interior_node_count))
    counts, steps = partition.step_counts, partition.breakpoint_steps
    batches = []
    first = 0
    while first < len(counts):
        stop = first + 1
        while stop < len(counts) and stop - first < width and counts[stop] == counts[first]:
            stop += 1
        local = replace(problem, time_grid=problem.time_grid.window(steps[first], counts[first]),
                        y0=y[first:stop], y_target=chi[first:stop])
        window = slice(steps[first], steps[stop])
        shape = (stop - first, counts[first], -1)
        batches.append(SubProblemBatch(first, local, partition.breakpoints[first : stop + 1],
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
            n = batch.first + exc.column
            start, end = batch.breakpoints[exc.column : exc.column + 2]
            raise CGError(f"sub-problem {n} on [{start:g}, {end:g}]: {exc}", n) from exc
        controls.append(control.reshape(-1, control.shape[-1]))
        per_column.append(part.per_column)
    counter.add_concurrent(np.concatenate(per_column))
    return np.concatenate(controls)
