"""Outer iteration: targets, concurrent sub-problem solves, line search.

Sub-problems run on a thread pool with private matvec counters; results are
merged in sub-interval order so the outcome is independent of scheduling.
Two matvec tallies are kept: ``sequential`` counts every product, while
``parallel`` charges each concurrent batch at its per-sub-problem maximum.

``run`` keeps the full state trajectory across outer iterations and updates
it through linearity (y(v + theta d) = y(v) + theta z, with z the homogeneous
trajectory driven by d computed for the line search), so each outer iteration
costs one adjoint solve, the concurrent inner solves, and one homogeneous
forward solve.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grid import inner_omega
from .linsolve import CGError, MatvecCounter
from .problem import (
    ControlProblem,
    EvaluationRecord,
    _record,
    inner_h,
    norm_h,
)
from .propagators import solve_adjoint, solve_state
from .targets import (
    SubProblem,
    TimePartition,
    assemble_subproblems,
    concat_controls,
    make_partition,
    solve_subproblem,
    target_trajectory,
    targets_from_solutions,
)


@dataclass(frozen=True)
class OuterConfig:
    n_intervals: int
    inner_iterations: int = 1
    inner_gradient_rtol: float | None = None
    max_outer: int = 100
    gradient_rtol: float = 1e-6
    worker_count: int = 1

    def __post_init__(self):
        if self.n_intervals < 1:
            raise ValueError("n_intervals must be at least 1")
        if self.worker_count < 1:
            raise ValueError("worker_count must be at least 1")
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


def _solve_step2(
    subs: list[SubProblem],
    config: OuterConfig,
    partition: TimePartition,
) -> tuple[np.ndarray, int, int]:
    """Concurrent sub-problem solves; returns (v_tilde, seq matvecs, par matvecs)."""
    sub_counters = [MatvecCounter() for _ in subs]

    def task(n: int) -> np.ndarray:
        return solve_subproblem(
            subs[n], config.inner_iterations, sub_counters[n],
            gradient_rtol=config.inner_gradient_rtol,
        )

    if config.worker_count == 1 or len(subs) == 1:
        local_controls = [task(n) for n in range(len(subs))]
    else:
        with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
            futures = [pool.submit(task, n) for n in range(len(subs))]
            local_controls = []
            for n, fut in enumerate(futures):
                where = (f"sub-problem {n} on [{partition.breakpoints[n]:g}, "
                         f"{partition.breakpoints[n + 1]:g}]")
                try:
                    local_controls.append(fut.result())
                except CGError as exc:  # keeps its type: the CLI maps it to an exit code
                    raise CGError(f"{where}: {exc}") from exc
                except Exception as exc:
                    raise RuntimeError(f"{where} failed") from exc
    seq = sum(c.count for c in sub_counters)
    par = max(c.count for c in sub_counters)
    return concat_controls(local_controls), seq, par


def _theta_and_z(
    problem: ControlProblem,
    v: np.ndarray,
    d: np.ndarray,
    residual: np.ndarray,
    counter: MatvecCounter,
) -> tuple[float, np.ndarray | None]:
    """Closed-form line-search step and the homogeneous trajectory it used."""
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


def line_search_theta(
    problem: ControlProblem,
    v: np.ndarray,
    d: np.ndarray,
    counter: MatvecCounter,
    residual: np.ndarray | None = None,
) -> float:
    """Exact minimizer of theta -> J(v + theta d); 0 when d vanishes.

    ``residual`` is y(T; v) - y_target if already available; otherwise one
    extra forward solve computes it.
    """
    if residual is None and np.any(d):
        grid, tg = problem.grid, problem.time_grid
        y = solve_state(grid, tg, problem.y0, v, problem.nu, problem.cg_tol, counter)
        residual = y[-1] - problem.y_target
    theta, _ = _theta_and_z(problem, v, d, residual, counter)
    return theta


def outer_iteration(
    problem: ControlProblem,
    v_k: np.ndarray,
    config: OuterConfig,
    counter: MatvecCounter,
    partition: TimePartition | None = None,
) -> tuple[np.ndarray, float, int]:
    """One sweep of the four-step update; returns (v_next, theta, parallel matvecs).

    ``counter`` accumulates the sequential tally; the returned integer is the
    parallel-equivalent charge for this iteration (concurrent batch charged
    at its maximum).
    """
    if partition is None:
        partition = make_partition(problem.time_grid, config.n_intervals)

    start = counter.count
    targets = target_trajectory(problem, v_k, partition, counter)
    subs = assemble_subproblems(problem, v_k, partition, targets)
    step1 = counter.count - start

    v_tilde, step2_seq, step2_par = _solve_step2(subs, config, partition)
    counter.add(step2_seq)

    d = v_tilde - v_k
    before_ls = counter.count
    theta, _ = _theta_and_z(
        problem, v_k, d, targets.final_state - problem.y_target, counter
    )
    step4 = counter.count - before_ls

    v_next = v_k + theta * d
    return v_next, theta, step1 + step2_par + step4


def run(problem: ControlProblem, config: OuterConfig) -> RunResult:
    """Iterate from v = 0 until the true gradient norm test or max_outer.

    The stopping gradient comes from the same adjoint solve that builds the
    targets, so it adds no extra cost.  Row k of the history reports J(v^k)
    and the step theta_k taken at that iterate; matvec tallies are those
    accumulated when J(v^k) and its gradient became known.
    """
    grid, tg = problem.grid, problem.time_grid
    mask = grid.control_mask
    partition = make_partition(tg, config.n_intervals)
    counter = MatvecCounter()
    parallel = 0
    t0 = time.perf_counter()

    v = problem.zero_control()
    before = counter.count
    y = solve_state(grid, tg, problem.y0, v, problem.nu, problem.cg_tol, counter)
    parallel += counter.count - before

    threshold = None
    history: list[IterationMetrics] = []
    converged = stalled = False

    for k in range(config.max_outer + 1):
        rec: EvaluationRecord = _record(problem, v, y[-1])
        residual = y[-1] - problem.y_target

        before = counter.count
        p = solve_adjoint(grid, tg, residual, problem.nu, problem.cg_tol, counter)
        parallel += counter.count - before
        g = problem.alpha * v + p[:-1][:, mask]
        gnorm = norm_h(grid, tg, g)
        if threshold is None:
            threshold = config.gradient_rtol * (1.0 + gnorm)
        seq_mark, par_mark = counter.count, parallel
        wall_mark = time.perf_counter() - t0

        if gnorm <= threshold or k == config.max_outer:
            history.append(
                IterationMetrics(k, rec.cost, rec.misfit, rec.penalty, 0.0,
                                 seq_mark, par_mark, wall_mark)
            )
            converged = gnorm <= threshold
            break

        targets = targets_from_solutions(problem, partition, y, p)
        subs = assemble_subproblems(problem, v, partition, targets)

        before = counter.count
        v_tilde, step2_seq, step2_par = _solve_step2(subs, config, partition)
        counter.add(step2_seq)
        parallel += step2_par

        d = v_tilde - v
        before = counter.count
        theta, z = _theta_and_z(problem, v, d, residual, counter)
        parallel += counter.count - before

        if theta != 0.0 and z is not None:
            v_candidate = v + theta * d
            y_candidate = y + theta * z
            cost_candidate = _record(problem, v_candidate, y_candidate[-1]).cost
            if cost_candidate <= rec.cost:
                v, y = v_candidate, y_candidate
            else:
                # exact line search guarantees descent up to solver noise;
                # keep the previous iterate rather than take an uphill step
                theta = 0.0

        history.append(
            IterationMetrics(k, rec.cost, rec.misfit, rec.penalty, theta,
                             seq_mark, par_mark, wall_mark)
        )
        if theta == 0.0:
            # v is unchanged, so every later iteration would repeat this one
            stalled = True
            break

    return RunResult(v, history, converged, stalled)
