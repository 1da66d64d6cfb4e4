"""Discrete tracking cost, its adjoint gradient, and reference solvers.

The control space carries the inner product <u, w>_H = dt * sum_j <u^j, w^j>_c.
``optimal_step_gradient`` is steepest descent with the exact minimizing step,
which is exact line minimization because the cost is quadratic.
``oracle_kkt_solve`` is a dense normal-equations oracle for tiny instances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid, inner_omega
from .linsolve import CGError, MatvecCounter
from .propagators import TimeGrid, solve_adjoint, solve_state, step_lengths

DEFAULT_CG_TOL = 1e-10


@dataclass(frozen=True)
class ControlProblem:
    """One tracking problem, or a batch of independent ones.

    A batch shares grid, alpha, nu, cg_tol and the step count; ``time_grid``
    is then a tuple with one TimeGrid per column and ``y0``, ``y_target`` are
    (k, n) arrays (see ``stack``).  Controls of a batch are (k, steps, m).
    """

    grid: Grid
    time_grid: TimeGrid | tuple[TimeGrid, ...]
    y0: np.ndarray
    y_target: np.ndarray
    alpha: float
    nu: float
    cg_tol: float = DEFAULT_CG_TOL

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite (strict convexity)")
        if not 0 < self.nu < math.inf:
            raise ValueError("nu must be positive and finite")
        _, dt = step_lengths(self.time_grid)
        field = np.shape(dt) + (self.grid.interior_node_count,)
        if self.y0.shape != field:
            raise ValueError("y0 does not belong to the grid")
        if self.y_target.shape != field:
            raise ValueError("y_target does not belong to the grid")

    @staticmethod
    def stack(problems) -> "ControlProblem":
        """The batch of problems that share grid, alpha, nu, cg_tol and step count."""
        head = problems[0]
        shared = (head.alpha, head.nu, head.cg_tol)
        if any(p.grid is not head.grid or (p.alpha, p.nu, p.cg_tol) != shared
               for p in problems):
            raise ValueError("a batch of problems must share grid, alpha, nu and cg_tol")
        return ControlProblem(
            grid=head.grid,
            time_grid=tuple(p.time_grid for p in problems),
            y0=np.stack([p.y0 for p in problems]),
            y_target=np.stack([p.y_target for p in problems]),
            alpha=head.alpha,
            nu=head.nu,
            cg_tol=head.cg_tol,
        )

    def columns(self, index: np.ndarray) -> "ControlProblem":
        """The batch made of the columns ``index`` of this batch."""
        return replace(self, time_grid=tuple(self.time_grid[i] for i in index),
                       y0=self.y0[index], y_target=self.y_target[index])

    def zero_control(self) -> np.ndarray:
        steps, _ = step_lengths(self.time_grid)
        return np.zeros(self.y0.shape[:-1] + (steps, self.grid.control_node_count))


def inner_h(grid: Grid, time_grid, u: np.ndarray, w: np.ndarray):
    """Inner product of two control fields (time-by-control-node arrays).

    For a batch (one TimeGrid per column), one value per column.
    """
    _, dt = step_lengths(time_grid)
    return dt * grid.node_weight * np.sum(u * w, axis=(-2, -1))


def norm_h(grid: Grid, time_grid, u: np.ndarray):
    return np.sqrt(inner_h(grid, time_grid, u, u))


@dataclass(frozen=True)
class EvaluationRecord:
    cost: float
    misfit: float
    penalty: float
    final_state: np.ndarray


def _record(problem: ControlProblem, v: np.ndarray, final_state: np.ndarray) -> EvaluationRecord:
    """Cost terms at v; arrays with one entry per column for a batch."""
    r = final_state - problem.y_target
    misfit = 0.5 * inner_omega(problem.grid, r, r)
    penalty = 0.5 * problem.alpha * inner_h(problem.grid, problem.time_grid, v, v)
    return EvaluationRecord(misfit + penalty, misfit, penalty, final_state)


def evaluate(problem: ControlProblem, v: np.ndarray, counter: MatvecCounter) -> EvaluationRecord:
    y_final = solve_state(problem.grid, problem.time_grid, problem.y0, v, problem.nu,
                          problem.cg_tol, counter, keep=-1)
    return _record(problem, v, y_final)


def gradient(
    problem: ControlProblem,
    v: np.ndarray,
    counter: MatvecCounter,
    final_state: np.ndarray | None = None,
) -> np.ndarray:
    """Exact gradient of the discrete cost: g^j = alpha v^j + B* p^{j-1}."""
    grid = problem.grid
    if final_state is None:
        final_state = solve_state(grid, problem.time_grid, problem.y0, v, problem.nu,
                                  problem.cg_tol, counter, keep=-1)
    _, patch = solve_adjoint(grid, problem.time_grid, final_state - problem.y_target,
                             problem.nu, problem.cg_tol, counter, keep=[])
    return problem.alpha * v + patch[..., :-1, :]


@dataclass
class DescentResult:
    control: np.ndarray
    history: list[EvaluationRecord]
    step_sizes: list[float]
    gradient_norms: list[float]
    matvec_marks: list[int]  # counter.count after each recorded iterate
    wall_marks: list[float]  # seconds since the call started, per iterate
    converged: bool


def optimal_step_gradient(
    problem: ControlProblem,
    v_init: np.ndarray,
    iterations: int,
    counter: MatvecCounter,
    gradient_rtol: float | None = None,
    initial_final_state: np.ndarray | None = None,
    need_final_gradient: bool = True,
    initial_gradient: np.ndarray | None = None,
):
    """Steepest descent with the exact step for the quadratic cost.

    The step sigma = <g,g>_H / (||z_g(T)||^2 + alpha ||g||_H^2), where z_g is
    the state driven by g from a zero initial condition.  The final state is
    updated through linearity (y(T; v - sigma g) = y(T; v) - sigma z_g(T)), so
    each iteration costs one adjoint and one homogeneous forward solve.

    With ``gradient_rtol`` set, stops once ||g||_H <= rtol * (1 + ||g_0||_H).
    ``initial_final_state`` skips the initial forward solve when y(T; v_init)
    is already known; ``initial_gradient``, the gradient at v_init, skips the
    first adjoint solve (step 2 passes each sub-problem its window of the
    outer gradient, which the local adjoint would recompute up to rounding).
    ``need_final_gradient=False`` skips the gradient at the last iterate when
    the caller only wants the control (e.g. inner solves); ``gradient_norms``
    then has one entry fewer than ``history``.

    ``step_sizes[k]`` is the step taken at iterate k; the last iterate took
    none.

    A batched ``problem`` runs the descents of all its columns at once, as
    batched solves; each column keeps its own step, stopping test and product
    count, stops on its own and ends with the bits of its own 1D descent.  It
    returns one DescentResult per column; their ``matvec_marks`` read the
    shared ``counter``.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    single = problem.y0.ndim == 1
    if single:
        problem = ControlProblem.stack([problem])
    grid, alpha = problem.grid, problem.alpha
    v = np.array(v_init, dtype=float, copy=True).reshape(problem.zero_control().shape)
    cols = len(v)
    t0 = time.perf_counter()

    active = np.arange(cols)
    converged = np.zeros(cols, dtype=bool)

    def retire(stop, *arrays):
        """Mark the active columns ``stop`` as converged and drop them from arrays."""
        if not stop.any():
            return (active,) + arrays
        converged[active[stop]] = True
        keep = ~stop
        return (active[keep],) + tuple(a[keep] for a in arrays)

    try:
        if initial_final_state is None:
            final = solve_state(grid, problem.time_grid, problem.y0, v, problem.nu,
                                problem.cg_tol, counter, keep=-1)
        else:
            final = np.array(initial_final_state, dtype=float).reshape(problem.y0.shape)
        rec = _record(problem, v, final.copy())  # the history keeps these rows
        if initial_gradient is None:
            g = gradient(problem, v, counter, final_state=final)
        else:
            g = np.asarray(initial_gradient, dtype=float).reshape(v.shape)
        gnorm2 = inner_h(grid, problem.time_grid, g, g)
        threshold = None
        if gradient_rtol is not None:
            threshold = gradient_rtol * (1.0 + np.sqrt(gnorm2))

        history = [[_split(rec, i)] for i in range(cols)]
        step_sizes: list[list[float]] = [[] for _ in range(cols)]
        gradient_norms = [[float(n)] for n in np.sqrt(gnorm2)]
        marks = [[counter.count] for _ in range(cols)]
        walls = [[time.perf_counter() - t0] for _ in range(cols)]

        for it in range(iterations + 1):
            stop = gnorm2 == 0.0
            if threshold is not None:
                stop |= np.sqrt(gnorm2) <= threshold[active]
            active, g, gnorm2 = retire(stop, g, gnorm2)
            if it == iterations or not active.size:
                break
            part = problem.columns(active) if active.size < cols else problem
            with counter.columns(active) as c:
                zT = solve_state(grid, part.time_grid, np.zeros((active.size, final.shape[1])),
                                 g, problem.nu, problem.cg_tol, c, keep=-1)
            denom = inner_omega(grid, zT, zT) + alpha * gnorm2
            if (denom == 0.0).any():
                active, g, gnorm2, zT, denom = retire(denom == 0.0, g, gnorm2, zT, denom)
                if not active.size:
                    break
                part = problem.columns(active)
            sigma = gnorm2 / denom
            v[active] -= sigma[:, None, None] * g
            moved = final[active] - sigma[:, None] * zT
            final[active] = moved
            rec = _record(part, v[active], moved)
            for i, col in enumerate(active):
                history[col].append(_split(rec, i))
                step_sizes[col].append(float(sigma[i]))
            if it == iterations - 1 and threshold is None and not need_final_gradient:
                break
            with counter.columns(active) as c:
                g = gradient(part, v[active], c, final_state=final[active])
            gnorm2 = inner_h(grid, part.time_grid, g, g)
            now = time.perf_counter() - t0
            for i, col in enumerate(active):
                gradient_norms[col].append(float(np.sqrt(gnorm2[i])))
                marks[col].append(counter.count)
                walls[col].append(now)
    except CGError as exc:
        if exc.column is not None:
            exc.column = None if single else int(active[exc.column])
        raise

    results = [
        DescentResult(v[col], history[col], step_sizes[col], gradient_norms[col],
                      marks[col], walls[col], bool(converged[col]))
        for col in range(cols)
    ]
    return results[0] if single else results


def _split(rec: EvaluationRecord, i: int) -> EvaluationRecord:
    """Column i of a batched record."""
    return EvaluationRecord(float(rec.cost[i]), float(rec.misfit[i]), float(rec.penalty[i]),
                            rec.final_state[i])


ORACLE_DIMENSION_CAP = 2000


def oracle_kkt_solve(
    problem: ControlProblem, dimension_cap: int = ORACLE_DIMENSION_CAP
) -> tuple[np.ndarray, float]:
    """Dense normal-equations solve of the optimality system (test fixture).

    Materializes the affine control-to-final-state map column by column, then
    factorizes (G^T W G + alpha W_H) directly.  Only for tiny instances.
    """
    grid, tg = problem.grid, problem.time_grid
    steps, m = tg.step_count, grid.control_node_count
    n_unknowns = steps * m
    if n_unknowns > dimension_cap:
        raise ValueError(
            f"oracle limited to {dimension_cap} control unknowns, got {n_unknowns}"
        )
    counter = MatvecCounter()
    y_free = solve_state(grid, tg, problem.y0, problem.zero_control(), problem.nu,
                         problem.cg_tol, counter, keep=-1)
    b0 = y_free - problem.y_target

    G = np.empty((grid.interior_node_count, n_unknowns))
    zero_y0 = grid.zero_field()
    for j in range(steps):
        for i in range(m):
            e = np.zeros((steps, m))
            e[j, i] = 1.0
            G[:, j * m + i] = solve_state(
                grid, tg, zero_y0, e, problem.nu, problem.cg_tol, counter, keep=-1
            )

    w = grid.node_weight
    wh = tg.dt * w
    normal = w * (G.T @ G) + problem.alpha * wh * np.eye(n_unknowns)
    rhs = -w * (G.T @ b0)
    v_star = np.linalg.solve(normal, rhs).reshape(steps, m)
    j_star = evaluate(problem, v_star, counter).cost
    return v_star, j_star
