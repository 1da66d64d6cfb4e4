"""Discrete tracking cost, its adjoint gradient, and reference solvers.

The control space carries the inner product <u, w>_H = dt * sum_j <u^j, w^j>_c.
``optimal_step_gradient`` is steepest descent with the exact minimizing step,
which is exact line minimization because the cost is quadratic; it is the
inner solver of each intermediate-targets sub-problem.  (The sequential
baseline is ``driver.run`` on one interval with one inner iteration, whose
one sub-problem is the whole problem.)
``oracle_kkt_solve`` is a dense normal-equations oracle for tiny instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, inner_omega
from .linsolve import MatvecCounter
from .propagators import TimeGrid, solve_adjoint, solve_state

DEFAULT_CG_TOL = 1e-10


@dataclass(frozen=True)
class ControlProblem:
    """One tracking problem: drive ``y0`` (n,) towards ``y_target`` (n,) by a
    control of shape (steps, m)."""

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
        if not 0 < self.cg_tol < 1:  # written so that NaN fails too
            raise ValueError(f"cg_tol must lie in (0, 1), got {self.cg_tol}")
        if self.y0.shape != (self.grid.interior_node_count,):
            raise ValueError("y0 does not belong to the grid")
        if self.y_target.shape != self.y0.shape:
            raise ValueError("y_target does not belong to the grid")

    def zero_control(self) -> np.ndarray:
        return np.zeros((self.time_grid.step_count, self.grid.control_node_count))


def inner_h(grid: Grid, time_grid: TimeGrid, u: np.ndarray, w: np.ndarray):
    """Inner product of two control fields (time-by-control-node arrays)."""
    return time_grid.dt * grid.node_weight * np.sum(u * w)


def norm_h(grid: Grid, time_grid: TimeGrid, u: np.ndarray):
    return np.sqrt(inner_h(grid, time_grid, u, u))


@dataclass(frozen=True)
class EvaluationRecord:
    cost: float
    misfit: float
    penalty: float
    final_state: np.ndarray


def _record(problem: ControlProblem, v: np.ndarray, final_state: np.ndarray) -> EvaluationRecord:
    """Cost terms at v."""
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
    patch = solve_adjoint(grid, problem.time_grid, final_state - problem.y_target, problem.nu,
                          problem.cg_tol, counter)
    # in place: a temporary alpha v beside the adjoint's powers would add a
    # control to a run's peak memory
    g = problem.alpha * v
    g += patch[:-1]
    return g


def optimal_step_gradient(
    problem: ControlProblem,
    g_init: np.ndarray,
    iterations: int,
    counter: MatvecCounter,
    gradient_rtol: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Steepest descent with the exact step for the quadratic cost, from a
    control whose gradient is ``g_init``.

    The step sigma = <g,g>_H / (||z_g(T)||^2 + alpha ||g||_H^2), where z_g is
    the state driven by g from a zero initial condition.  The cost is
    quadratic, so the gradient after an update u is, by linearity,
    g_init + alpha u + B* p_r, where r is the response of u (the final state
    u drives from zero) and p_r the adjoint from r: each iteration costs one
    homogeneous forward solve and one adjoint, and the descent reads neither
    the control, its final state, y0 nor y_target.  Step 2 passes each
    sub-problem its window of the outer gradient, which is the sub-problem's
    gradient at the current control, so its targets never need to be formed.
    ``g_init`` is copied and never written.

    With ``gradient_rtol`` set, the descent stops once ||g||_H <= rtol *
    (1 + ||g_0||_H).  It also stops on a zero gradient or a zero step
    denominator, and after its last iteration, whose gradient nothing reads,
    so it does not solve for it.

    Returns (update, response): the change of the control, the sum of the
    steps -sigma g, and the change of the final state it causes, the sum of
    the steps -sigma z_g(T).  Both are summed, not taken as differences of
    controls or of final states, which would lose the digits the two share:
    near an optimum, where the steps are small, the response then still
    belongs to the update to the accuracy of the forward solves.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    grid, tg, alpha = problem.grid, problem.time_grid, problem.alpha
    g = np.array(g_init, dtype=float)
    update, response = np.zeros_like(g), grid.zero_field()
    gnorm2 = inner_h(grid, tg, g, g)
    threshold = None if gradient_rtol is None else gradient_rtol * (1.0 + np.sqrt(gnorm2))
    for it in range(iterations):
        if gnorm2 == 0.0 or (threshold is not None and np.sqrt(gnorm2) <= threshold):
            break
        zT = solve_state(grid, tg, grid.zero_field(), g, problem.nu, problem.cg_tol, counter,
                         keep=-1)
        denom = inner_omega(grid, zT, zT) + alpha * gnorm2
        if denom == 0.0:
            break
        sigma = gnorm2 / denom
        g *= sigma
        update -= g
        zT *= sigma
        response -= zT
        if it == iterations - 1:
            break
        patch = solve_adjoint(grid, tg, response, problem.nu, problem.cg_tol, counter)
        g = g_init + alpha * update + patch[:-1]
        gnorm2 = inner_h(grid, tg, g, g)
    return update, response


ORACLE_DIMENSION_CAP = 2000


def oracle_kkt_solve(problem: ControlProblem) -> tuple[np.ndarray, float]:
    """Dense normal-equations solve of the optimality system (test fixture).

    Materializes the affine control-to-final-state map column by column, then
    factorizes (G^T W G + alpha W_H) directly.  Only for tiny instances.
    """
    grid, tg = problem.grid, problem.time_grid
    steps, m = tg.step_count, grid.control_node_count
    n_unknowns = steps * m
    if n_unknowns > ORACLE_DIMENSION_CAP:
        raise ValueError(
            f"oracle limited to {ORACLE_DIMENSION_CAP} control unknowns, got {n_unknowns}"
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
