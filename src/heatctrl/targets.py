"""Time partitioning and the intermediate-target sub-problems.

The target trajectory chi = y - p is evaluated at partition breakpoints; each
sub-interval then carries an independent tracking problem whose initial state
is y at its left breakpoint and whose target is chi at its right breakpoint.
At the final breakpoint chi equals the global target by construction, so the
last value is assigned, not computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linsolve import CGError, MatvecCounter
from .problem import ControlProblem, optimal_step_gradient
from .propagators import TimeGrid, solve_adjoint, solve_state


@dataclass(frozen=True)
class TimePartition:
    breakpoints: tuple[float, ...]  # N+1 values, aligned with time-grid points
    step_counts: tuple[int, ...]
    step_offsets: tuple[int, ...]  # global step index of each left breakpoint

    @property
    def n_intervals(self) -> int:
        return len(self.step_counts)


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
    breakpoints = tuple(
        time_grid.t_start + time_grid.dt * o
        for o in list(offsets) + [time_grid.step_count]
    )
    return TimePartition(breakpoints, counts, offsets)


@dataclass(frozen=True)
class TargetTrajectory:
    boundary_targets: np.ndarray  # (N, n): chi at t_1 .. t_N
    boundary_states: np.ndarray  # (N, n): y at t_0 .. t_{N-1}
    end_states: np.ndarray  # (N, n): y at t_1 .. t_N, reused by warm starts


def targets_from_solutions(
    problem: ControlProblem,
    partition: TimePartition,
    y: np.ndarray,
    p: np.ndarray,
) -> TargetTrajectory:
    """Breakpoint targets chi = y - p from already-computed trajectories."""
    ends = np.array(partition.step_offsets[1:] + (problem.time_grid.step_count,))
    starts = np.array(partition.step_offsets)
    chi = y[ends] - p[ends]
    chi[-1] = problem.y_target  # exact: chi(T) = y(T) - (y(T) - y_target)
    return TargetTrajectory(chi, y[starts].copy(), y[ends].copy())


def target_trajectory(
    problem: ControlProblem,
    v: np.ndarray,
    partition: TimePartition,
    counter: MatvecCounter,
) -> TargetTrajectory:
    """One forward and one backward solve; chi = y - p at each breakpoint."""
    grid, tg = problem.grid, problem.time_grid
    y = solve_state(grid, tg, problem.y0, v, problem.nu, problem.cg_tol, counter)
    p = solve_adjoint(
        grid, tg, y[-1] - problem.y_target, problem.nu, problem.cg_tol, counter
    )
    return targets_from_solutions(problem, partition, y, p)


@dataclass(frozen=True)
class SubProblem:
    index: int
    problem: ControlProblem  # local tracking problem on one sub-interval
    warm_start: np.ndarray  # restriction of the current global control
    # local final state under the warm start; equals the global trajectory at
    # the right breakpoint, so the inner solver can skip its first forward solve
    warm_final_state: np.ndarray


def restrict_control(partition: TimePartition, v: np.ndarray, n: int) -> np.ndarray:
    o, c = partition.step_offsets[n], partition.step_counts[n]
    return v[o : o + c].copy()


def concat_controls(locals_: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(locals_, axis=0)


def assemble_subproblems(
    problem: ControlProblem,
    v: np.ndarray,
    partition: TimePartition,
    targets: TargetTrajectory,
) -> list[SubProblem]:
    if targets.boundary_targets.shape[0] != partition.n_intervals:
        raise ValueError("targets were computed for a different partition")
    subs = []
    for n in range(partition.n_intervals):
        local_tg = TimeGrid(
            partition.breakpoints[n],
            partition.breakpoints[n + 1],
            partition.step_counts[n],
        )
        local = ControlProblem(
            grid=problem.grid,
            time_grid=local_tg,
            y0=targets.boundary_states[n],
            y_target=targets.boundary_targets[n],
            alpha=problem.alpha,
            nu=problem.nu,
            cg_tol=problem.cg_tol,
        )
        subs.append(
            SubProblem(
                n,
                local,
                restrict_control(partition, v, n),
                targets.end_states[n],
            )
        )
    return subs


# widest field block (columns x nodes of float64) of a step-2 batch: 8 columns
# on a 63 x 63 interior, every sub-problem of a 31 x 31 one.  All 16 columns
# of a 63 x 63 run at once raised its peak memory and saved no time.
BATCH_BYTES = 256 * 1024


def _batches(subs: list[SubProblem]):
    """Runs of consecutive sub-problems with one step count, BATCH_BYTES wide at most."""
    width = max(1, BATCH_BYTES // (8 * subs[0].problem.grid.interior_node_count))
    start = 0
    while start < len(subs):
        steps = subs[start].problem.time_grid.step_count
        stop = start + 1
        while (stop < len(subs) and stop - start < width
               and subs[stop].problem.time_grid.step_count == steps):
            stop += 1
        yield start, stop
        start = stop


def solve_subproblem(
    sub: SubProblem | list[SubProblem],
    inner_iterations: int,
    counter: MatvecCounter,
    gradient_rtol: float | None = None,
):
    """Inner descent of one sub-problem; returns its local control.

    Given a list, solves all of them as batched descents (see ``_batches``)
    and returns one control per sub-problem.  A counter with per-column
    counts is charged per sub-problem, and a ``CGError`` names its
    sub-problem's position in the list as ``column``.
    """
    if isinstance(sub, SubProblem):
        return solve_subproblem([sub], inner_iterations, counter, gradient_rtol)[0]
    controls = []
    for start, stop in _batches(sub):
        batch = sub[start:stop]
        try:
            with counter.columns(np.arange(start, stop)) as part:
                results = optimal_step_gradient(
                    ControlProblem.stack([s.problem for s in batch]),
                    np.stack([s.warm_start for s in batch]),
                    inner_iterations, part,
                    gradient_rtol=gradient_rtol,
                    initial_final_state=np.stack([s.warm_final_state for s in batch]),
                    need_final_gradient=False,
                )
        except CGError as exc:
            if exc.column is not None:
                exc.column += start
            raise
        controls += [r.control for r in results]
    return controls
