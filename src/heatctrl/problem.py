"""Discrete tracking cost, its adjoint gradient, and reference solvers.

The control space carries the inner product <u, w>_H = dt * sum_j <u^j, w^j>_c.
``optimal_step_gradient`` is steepest descent with the exact minimizing step,
which is exact line minimization because the cost is quadratic.
``oracle_kkt_solve`` is a dense normal-equations oracle for tiny instances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .grid import Grid, inner_omega, restrict
from .linsolve import MatvecCounter
from .propagators import TimeGrid, solve_adjoint, solve_state

DEFAULT_CG_TOL = 1e-10


@dataclass(frozen=True)
class ControlProblem:
    grid: Grid
    time_grid: TimeGrid
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
        if self.y0.shape != (self.grid.interior_node_count,):
            raise ValueError("y0 does not belong to the grid")
        if self.y_target.shape != (self.grid.interior_node_count,):
            raise ValueError("y_target does not belong to the grid")

    def zero_control(self) -> np.ndarray:
        return np.zeros((self.time_grid.step_count, self.grid.control_node_count))


def inner_h(grid: Grid, time_grid: TimeGrid, u: np.ndarray, w: np.ndarray) -> float:
    """Inner product of two control fields (time-by-control-node arrays)."""
    return time_grid.dt * grid.node_weight * float(np.sum(u * w))


def norm_h(grid: Grid, time_grid: TimeGrid, u: np.ndarray) -> float:
    return np.sqrt(inner_h(grid, time_grid, u, u))


@dataclass(frozen=True)
class EvaluationRecord:
    cost: float
    misfit: float
    penalty: float
    final_state: np.ndarray


def _record(problem: ControlProblem, v: np.ndarray, final_state: np.ndarray) -> EvaluationRecord:
    r = final_state - problem.y_target
    misfit = 0.5 * inner_omega(problem.grid, r, r)
    penalty = 0.5 * problem.alpha * inner_h(problem.grid, problem.time_grid, v, v)
    return EvaluationRecord(misfit + penalty, misfit, penalty, final_state)


def evaluate(problem: ControlProblem, v: np.ndarray, counter: MatvecCounter) -> EvaluationRecord:
    y = solve_state(
        problem.grid, problem.time_grid, problem.y0, v, problem.nu, problem.cg_tol, counter
    )
    return _record(problem, v, y[-1])


def gradient(
    problem: ControlProblem,
    v: np.ndarray,
    counter: MatvecCounter,
    final_state: np.ndarray | None = None,
) -> np.ndarray:
    """Exact gradient of the discrete cost: g^j = alpha v^j + B* p^{j-1}."""
    if final_state is None:
        y = solve_state(
            problem.grid, problem.time_grid, problem.y0, v, problem.nu, problem.cg_tol, counter
        )
        final_state = y[-1]
    p = solve_adjoint(
        problem.grid,
        problem.time_grid,
        final_state - problem.y_target,
        problem.nu,
        problem.cg_tol,
        counter,
    )
    return problem.alpha * v + p[:-1][:, problem.grid.control_mask]


@dataclass
class DescentResult:
    control: np.ndarray
    history: list[EvaluationRecord]
    step_sizes: list[float]
    gradient_norms: list[float]
    matvec_marks: list[int]  # counter value after each recorded iterate
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
) -> DescentResult:
    """Steepest descent with the exact step for the quadratic cost.

    The step sigma = <g,g>_H / (||z_g(T)||^2 + alpha ||g||_H^2), where z_g is
    the state driven by g from a zero initial condition.  The final state is
    updated through linearity (y(T; v - sigma g) = y(T; v) - sigma z_g(T)), so
    each iteration costs one adjoint and one homogeneous forward solve.

    With ``gradient_rtol`` set, stops once ||g||_H <= rtol * (1 + ||g_0||_H).
    ``initial_final_state`` skips the initial forward solve when y(T; v_init)
    is already known.  ``need_final_gradient=False`` skips the gradient at the
    last iterate when the caller only wants the control (e.g. inner solves);
    ``gradient_norms`` then has one entry fewer than ``history``.

    ``step_sizes[k]`` is the step taken at iterate k; the last iterate took
    none.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    grid, tg = problem.grid, problem.time_grid
    v = np.array(v_init, dtype=float, copy=True)
    t0 = time.perf_counter()

    if initial_final_state is None:
        y = solve_state(grid, tg, problem.y0, v, problem.nu, problem.cg_tol, counter)
        final_state = y[-1]
    else:
        final_state = initial_final_state
    rec = _record(problem, v, final_state)
    g = gradient(problem, v, counter, final_state=final_state)

    history = [rec]
    step_sizes: list[float] = []
    gradient_norms = [norm_h(grid, tg, g)]
    marks = [counter.count]
    walls = [time.perf_counter() - t0]
    g0_norm = gradient_norms[0]
    threshold = None if gradient_rtol is None else gradient_rtol * (1.0 + g0_norm)

    converged = False
    for it in range(iterations):
        gnorm2 = inner_h(grid, tg, g, g)
        if gnorm2 == 0.0 or (threshold is not None and np.sqrt(gnorm2) <= threshold):
            converged = True
            break
        z = solve_state(grid, tg, grid.zero_field(), g, problem.nu, problem.cg_tol, counter)
        zT = z[-1]
        denom = inner_omega(grid, zT, zT) + problem.alpha * gnorm2
        if denom == 0.0:
            converged = True
            break
        sigma = gnorm2 / denom
        v -= sigma * g
        final_state = final_state - sigma * zT
        history.append(_record(problem, v, final_state))
        step_sizes.append(sigma)
        last = it == iterations - 1
        if last and threshold is None and not need_final_gradient:
            break
        g = gradient(problem, v, counter, final_state=final_state)
        gradient_norms.append(norm_h(grid, tg, g))
        marks.append(counter.count)
        walls.append(time.perf_counter() - t0)
        if threshold is not None and gradient_norms[-1] <= threshold:
            converged = True
            break
    if threshold is None and gradient_norms and gradient_norms[-1] == 0.0:
        converged = True
    return DescentResult(v, history, step_sizes, gradient_norms, marks, walls, converged)


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
                         problem.cg_tol, counter)
    b0 = y_free[-1] - problem.y_target

    G = np.empty((grid.interior_node_count, n_unknowns))
    zero_y0 = grid.zero_field()
    for j in range(steps):
        for i in range(m):
            e = np.zeros((steps, m))
            e[j, i] = 1.0
            G[:, j * m + i] = solve_state(
                grid, tg, zero_y0, e, problem.nu, problem.cg_tol, counter
            )[-1]

    w = grid.node_weight
    wh = tg.dt * w
    normal = w * (G.T @ G) + problem.alpha * wh * np.eye(n_unknowns)
    rhs = -w * (G.T @ b0)
    v_star = np.linalg.solve(normal, rhs).reshape(steps, m)
    j_star = evaluate(problem, v_star, counter).cost
    return v_star, j_star
