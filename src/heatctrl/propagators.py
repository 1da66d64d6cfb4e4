"""Implicit-Euler time stepping for the heat equation and its discrete adjoint.

The forward step solves (Id + dt*nu*(-Lap)) y^j = y^{j-1} + dt*B v^j, with the
control slice v^j attached to the step ending at t_j.  The backward recursion
is the exact transpose of the forward step map, so the adjoint-based gradient
is the exact gradient of the discrete cost.  The step matrix K is applied by
the stencil itself: ``laplacian_apply(..., scale=-(dt*nu))`` forms
Lap(u) * scale + u in its one read of the interior, bitwise the product
u - dt*nu*Lap(u).

Both sweeps start the CG solve of each step from the polynomial extrapolation
through the last (up to ``START_ORDER``) states the sweep has solved for: the
right-hand sides change smoothly from step to step, so this guess is closer
than the previous state.  The first solve starts from y0 or the terminal
value, which no K^-1 has smoothed.

A sweep stores only the steps its caller asks for (``keep``, an index into
the step axis); the starts hold the last solved fields themselves, so what a
sweep stores never changes its numbers.  The adjoint can also return the
control patch of every step, which is all the gradient reads.  A full
trajectory is the case where every step is kept.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .grid import Grid, StencilWork, _check_field, inject, laplacian_apply
from .linsolve import MatvecCounter, cg_solve


@dataclass(frozen=True)
class TimeGrid:
    """``step_count`` steps of one length ``dt`` from t_start to t_end.

    dt is fixed when the grid is built, as (t_end - t_start) / step_count.  A
    ``window`` keeps its parent's dt bit for bit: dividing the window's own
    span by its step count can miss it in the last bit.
    """

    t_start: float
    t_end: float
    step_count: int
    dt: float = field(init=False)

    def __post_init__(self):
        if self.step_count < 1:
            raise ValueError("step_count must be at least 1")
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("t_start and t_end must be finite")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        object.__setattr__(self, "dt", (self.t_end - self.t_start) / self.step_count)

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.step_count + 1)

    def window(self, first: int, count: int) -> "TimeGrid":
        """The ``count`` steps from step ``first`` on, with this grid's dt."""
        stop = first + count
        if not 0 <= first < stop <= self.step_count:
            raise ValueError(f"steps {first} to {stop} are not a window of {self.step_count}")
        end = self.t_end if stop == self.step_count else self.t_start + self.dt * stop
        sub = TimeGrid(self.t_start + self.dt * first, end, count)
        object.__setattr__(sub, "dt", self.dt)
        return sub


def _check_control_field(grid: Grid, steps: int, v: np.ndarray, batch: tuple) -> None:
    if v.shape != batch + (steps, grid.control_node_count):
        raise ValueError(
            f"control field of shape {v.shape} does not match "
            f"{batch} x {steps} steps x {grid.control_node_count} control nodes"
        )


def step_operator(grid: Grid, dt: float, nu: float):
    """K = Id + dt*nu*(-Lap) as a callable on one field (n,) or a batch (k, n).

    The stencil forms ``Lap(u) * -(dt*nu) + u`` in its read of the interior;
    by IEEE negation and commutativity that is bitwise u - dt * nu * Lap(u).
    The result is a buffer that the next call overwrites.
    """
    return partial(laplacian_apply, grid, work=StencilWork(grid), scale=-(dt * nu))


START_ORDER = 4
# extrapolation coefficients of the last m solved states, newest first:
# (-1)^i binom(m, i+1), exact for polynomials in time of degree below m
_START_COEFFICIENTS = {m: tuple((-1) ** i * math.comb(m, i + 1) for i in range(m))
                       for m in range(1, START_ORDER + 1)}


class _SweepStarts:
    """The CG starts of one sweep.

    ``next()`` is ``first`` until a state is recorded, then the
    extrapolation through the last (up to ``START_ORDER``) states that
    ``record`` was given.  The arithmetic is elementwise with scalar
    coefficients, so a column of a batch gets its own 1D start.  A start is
    written into a buffer that the next call overwrites.
    """

    def __init__(self, first: np.ndarray):
        self._first = first
        self._solved = deque(maxlen=START_ORDER)  # newest first
        self._start = np.empty(first.shape)
        self._term = np.empty(first.shape)

    def record(self, state: np.ndarray) -> None:
        self._solved.appendleft(state)

    def next(self) -> np.ndarray:
        if len(self._solved) <= 1:
            return self._solved[0] if self._solved else self._first
        newest, *older = self._solved
        first_coefficient, *coefficients = _START_COEFFICIENTS[len(self._solved)]
        np.multiply(first_coefficient, newest, out=self._start)
        for c, state in zip(coefficients, older):
            self._start += np.multiply(c, state, out=self._term)
        return self._start


def _storage(steps: int, keep, field: np.ndarray):
    """The buffer for the states ``keep`` selects from the steps 0..steps
    (None: all), the rows of it that each step fills, and whether the result
    has a step axis."""
    kept = np.arange(steps + 1)[slice(None) if keep is None else keep]
    rows = [[] for _ in range(steps + 1)]
    for row, step in enumerate(np.ravel(kept).tolist()):
        rows[step].append(row)
    return np.empty((kept.size,) + field.shape), rows, kept.ndim > 0


def _layout(out: np.ndarray, step_axis: bool) -> np.ndarray:
    """The stored states as (..., kept steps, n), or (..., n) for one step index."""
    return np.moveaxis(out, 0, -2) if step_axis else out[0]


def solve_state(
    grid: Grid,
    time_grid: TimeGrid,
    y0: np.ndarray,
    v: np.ndarray,
    nu: float,
    tol: float,
    counter: MatvecCounter,
    keep=None,
) -> np.ndarray:
    """Forward heat solve; returns the trajectory of shape (steps+1, n).

    A batch of independent solves on one time grid passes y0 of shape (k, n)
    and v of shape (k, steps, m), and gets (k, steps+1, n); every column is
    the 1D solve of its own inputs, bit for bit.  ``keep`` indexes the step
    axis (an int, a slice or a list of step indices) and only the states it
    selects are stored: the result is the full trajectory indexed by
    ``keep``, so ``keep=-1`` gives the final state alone and
    ``keep=[0, 4, 8]`` three rows.  The default, None, keeps every step.
    """
    steps, dt = time_grid.step_count, time_grid.dt
    _check_field(grid, y0)
    _check_control_field(grid, steps, v, y0.shape[:-1])
    if nu < 0:
        raise ValueError("nu must be non-negative")
    apply_k = step_operator(grid, dt, nu)
    out, rows, step_axis = _storage(steps, keep, y0)
    for row in rows[0]:
        out[row] = y0
    starts = _SweepStarts(y0)
    prev = y0
    for j in range(1, steps + 1):
        b = prev + dt * inject(grid, v[..., j - 1, :])
        prev = cg_solve(apply_k, b, tol, counter, x0=starts.next())
        for row in rows[j]:
            out[row] = prev
        starts.record(prev)
    return _layout(out, step_axis)


def solve_adjoint(
    grid: Grid,
    time_grid: TimeGrid,
    terminal: np.ndarray,
    nu: float,
    tol: float,
    counter: MatvecCounter,
    keep=None,
):
    """Backward recursion p^{j-1} = K^{-1} p^j from p^N = terminal.

    K is symmetric, so this is the exact transpose of the forward step map.
    Batches as in ``solve_state``.  Returns the trajectory of shape
    (steps+1, n) by default.  With ``keep``, an index into the step axis as
    in ``solve_state``, returns the pair (p at the steps ``keep`` selects, the
    control patch nodes of every p^j, of shape (steps+1, m)): the patch is
    all the gradient reads, so ``keep=[]`` stores no full field.
    """
    steps = time_grid.step_count
    _check_field(grid, terminal)
    if nu < 0:
        raise ValueError("nu must be non-negative")
    apply_k = step_operator(grid, time_grid.dt, nu)
    out, rows, step_axis = _storage(steps, keep, terminal)
    patch = None
    if keep is not None:
        patch = np.empty((steps + 1,) + terminal.shape[:-1] + (grid.control_node_count,))

    def store(j, p_j):
        for row in rows[j]:
            out[row] = p_j
        if patch is not None:
            patch[j] = p_j[..., grid.control_mask]

    store(steps, terminal)
    starts = _SweepStarts(terminal)
    cur = terminal
    for j in range(steps, 0, -1):
        cur = cg_solve(apply_k, cur, tol, counter, x0=starts.next())
        store(j - 1, cur)
        starts.record(cur)
    p = _layout(out, step_axis)
    return p if patch is None else (p, np.moveaxis(patch, 0, -2))
