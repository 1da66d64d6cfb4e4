"""Implicit-Euler time stepping for the heat equation and its discrete adjoint.

The forward step solves (Id + dt*nu*(-Lap)) y^j = y^{j-1} + dt*B v^j, with the
control slice v^j attached to the step ending at t_j.  The backward recursion
is the exact transpose of the forward step map, so the adjoint-based gradient
is the exact gradient of the discrete cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, _check_field, inject, laplacian_apply
from .linsolve import MatvecCounter, cg_solve


@dataclass(frozen=True)
class TimeGrid:
    t_start: float
    t_end: float
    step_count: int

    def __post_init__(self):
        if self.step_count < 1:
            raise ValueError("step_count must be at least 1")
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("t_start and t_end must be finite")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.step_count

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.step_count + 1)


def _check_control_field(grid: Grid, time_grid: TimeGrid, v: np.ndarray) -> None:
    if v.shape != (time_grid.step_count, grid.control_node_count):
        raise ValueError(
            f"control field of shape {v.shape} does not match "
            f"{time_grid.step_count} steps x {grid.control_node_count} control nodes"
        )


def step_operator(grid: Grid, dt: float, nu: float):
    """The implicit-Euler step matrix K = Id + dt*nu*(-Lap) as a callable."""

    scale = -(dt * nu)

    def apply_k(u: np.ndarray) -> np.ndarray:
        # in place on the stencil's fresh output; IEEE negation and
        # commutativity make this bitwise equal to u - dt * nu * Lap(u)
        out = laplacian_apply(grid, u)
        out *= scale
        out += u
        return out

    return apply_k


def solve_state(
    grid: Grid,
    time_grid: TimeGrid,
    y0: np.ndarray,
    v: np.ndarray,
    nu: float,
    tol: float,
    counter: MatvecCounter,
) -> np.ndarray:
    """Forward heat solve; returns the trajectory of shape (steps+1, n)."""
    _check_field(grid, y0)
    _check_control_field(grid, time_grid, v)
    if nu < 0:
        raise ValueError("nu must be non-negative")
    dt = time_grid.dt
    apply_k = step_operator(grid, dt, nu)
    y = np.empty((time_grid.step_count + 1, grid.interior_node_count))
    y[0] = y0
    for j in range(1, time_grid.step_count + 1):
        b = y[j - 1] + dt * inject(grid, v[j - 1])
        y[j] = cg_solve(apply_k, b, tol, counter, x0=y[j - 1])
    return y


def solve_adjoint(
    grid: Grid,
    time_grid: TimeGrid,
    terminal: np.ndarray,
    nu: float,
    tol: float,
    counter: MatvecCounter,
) -> np.ndarray:
    """Backward recursion p^{j-1} = K^{-1} p^j from p^N = terminal.

    K is symmetric, so this is the exact transpose of the forward step map.
    """
    _check_field(grid, terminal)
    if nu < 0:
        raise ValueError("nu must be non-negative")
    apply_k = step_operator(grid, time_grid.dt, nu)
    p = np.empty((time_grid.step_count + 1, grid.interior_node_count))
    p[time_grid.step_count] = terminal
    for j in range(time_grid.step_count, 0, -1):
        p[j - 1] = cg_solve(apply_k, p[j], tol, counter, x0=p[j])
    return p
