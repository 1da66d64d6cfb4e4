"""Discrete tracking cost, its adjoint gradient, and reference solvers.

The control space carries the inner product <u, w>_H = dt * sum_j <u^j, w^j>_c.
``optimal_step_gradient`` is steepest descent with the exact minimizing step,
which is exact line minimization because the cost is quadratic; it is the
inner solver of the intermediate-targets sub-problems, and runs a batch of
them at once, each column stopping on its own but staying in the batch.  (The
sequential baseline is ``driver.run`` with ``driver.steepest_direction``.)
``oracle_kkt_solve`` is a dense normal-equations oracle for tiny instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid, inner_omega
from .linsolve import MatvecCounter
from .propagators import TimeGrid, solve_adjoint, solve_state

DEFAULT_CG_TOL = 1e-10


@dataclass(frozen=True)
class ControlProblem:
    """One tracking problem, or a batch of independent ones.

    A batch shares everything but ``y0`` and ``y_target``, which are then
    (k, n) arrays (see ``stack``): its columns have one time grid, so one step
    count and one dt.  Controls of a batch are (k, steps, m).
    """

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
        if self.y0.ndim not in (1, 2) or self.y0.shape[-1] != self.grid.interior_node_count:
            raise ValueError("y0 does not belong to the grid")
        if self.y_target.shape != self.y0.shape:
            raise ValueError("y_target does not belong to the grid")

    @staticmethod
    def stack(problems) -> "ControlProblem":
        """The batch of problems that share grid, step count, dt, alpha, nu and
        cg_tol, such as sub-problems on windows of one time grid; it has the
        first one's time grid."""
        head = problems[0]

        def shared(p):
            return p.grid, p.time_grid.step_count, p.time_grid.dt, p.alpha, p.nu, p.cg_tol

        if any(shared(p) != shared(head) for p in problems):
            raise ValueError("a batch of problems must share grid, step count, dt, alpha, "
                             "nu and cg_tol")
        return replace(head, y0=np.stack([p.y0 for p in problems]),
                       y_target=np.stack([p.y_target for p in problems]))

    def zero_control(self) -> np.ndarray:
        return np.zeros(self.y0.shape[:-1]
                        + (self.time_grid.step_count, self.grid.control_node_count))


def inner_h(grid: Grid, time_grid: TimeGrid, u: np.ndarray, w: np.ndarray):
    """Inner product of two control fields (time-by-control-node arrays).

    For a batch of them, one value per column.
    """
    return time_grid.dt * grid.node_weight * np.sum(u * w, axis=(-2, -1))


def norm_h(grid: Grid, time_grid: TimeGrid, u: np.ndarray):
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


def optimal_step_gradient(
    problem: ControlProblem,
    v_init: np.ndarray,
    final_state: np.ndarray,
    g_init: np.ndarray,
    iterations: int,
    counter: MatvecCounter,
    gradient_rtol: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Steepest descent with the exact step for the quadratic cost, on every
    column of the batched ``problem`` at once.

    The step sigma = <g,g>_H / (||z_g(T)||^2 + alpha ||g||_H^2), where z_g is
    the state driven by g from a zero initial condition.  The final state is
    updated through linearity (y(T; v - sigma g) = y(T; v) - sigma z_g(T)), so
    each iteration costs one adjoint and one homogeneous forward solve.  It
    starts from the controls ``v_init``, their final states ``final_state``
    and their gradients ``g_init`` (step 2 passes each sub-problem its
    window of the outer gradient, which the local adjoint would recompute up
    to rounding); it copies them and never writes them.

    With ``gradient_rtol`` set, a column stops once ||g||_H <= rtol *
    (1 + ||g_0||_H); without it, the gradient at the last iterate, which only
    that test reads, is not solved for.  A column also stops on a zero
    gradient or a zero step denominator.  A stopped column stays in the batch
    with zero inputs: a zero direction, an adjoint terminal of 0 and sigma 0.
    CG solves a zero right-hand side for free, so the column costs no more
    products, and every other column keeps its own step, stopping test and
    product count, and ends with the bits of its own 1D descent.

    Returns the controls and, per column, whether it stopped.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    grid, tg, alpha = problem.grid, problem.time_grid, problem.alpha
    v, final, g = (np.array(a, dtype=float) for a in (v_init, final_state, g_init))
    gnorm2 = inner_h(grid, tg, g, g)
    if gradient_rtol is not None:
        threshold = gradient_rtol * (1.0 + np.sqrt(gnorm2))
    stopped = np.zeros(len(v), dtype=bool)

    for it in range(iterations + 1):
        stopped |= gnorm2 == 0.0
        if gradient_rtol is not None:
            stopped |= np.sqrt(gnorm2) <= threshold
        if it == iterations or stopped.all():
            break
        g[stopped] = 0.0  # a zero direction: its forward solve costs nothing
        zT = solve_state(grid, tg, np.zeros_like(final), g, problem.nu, problem.cg_tol,
                         counter, keep=-1)
        denom = inner_omega(grid, zT, zT) + alpha * gnorm2
        stopped |= denom == 0.0
        sigma = np.divide(gnorm2, denom, out=np.zeros_like(denom), where=~stopped)
        v -= sigma[:, None, None] * g
        final -= sigma[:, None] * zT
        if it == iterations - 1 and gradient_rtol is None:
            break
        # a stopped column passes its target as its final state: a zero
        # adjoint terminal, so its gradient solve costs nothing
        g = gradient(problem, v, counter,
                     final_state=np.where(stopped[:, None], problem.y_target, final))
        gnorm2 = inner_h(grid, tg, g, g)
    return v, stopped


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
