"""Implicit-Euler time stepping for the heat equation and its discrete adjoint.

The forward step solves (Id + dt*nu*(-Lap)) y^j = y^{j-1} + dt*B v^j, with the
control slice v^j attached to the step ending at t_j = dt*j.  The adjoint is
p^j = K^-(N-j) p^N, the exact transpose of the forward step map, so the
adjoint-based gradient is the exact gradient of the discrete cost.  The step
matrix K is applied by the stencil itself: ``laplacian_apply`` with the
buffers ``StencilWork(grid, scale=-(dt*nu))`` forms Lap(u) * scale + u in its
one read of the interior, bitwise the product u - dt*nu*Lap(u).

The state sweep is one recursion, ``_recurse``, run forward from y0 with the
control as forcing.  Step j solves K x_j = b_j, b_j = x_{j-1} + dt B v^j, and
starts its CG from x0 = omega b_j + E_j(x - omega b): E_j is the polynomial
extrapolation through the last (up to ``START_ORDER``) steps the sweep has
solved, and omega = 1 / (1 + 2 dt nu sum_axes h^-2) is the inverse of K's
diagonal, the same at every node.  K is linear, so K E_j(x) = E_j(b) up to
the solve tolerance, and the extrapolated state E_j(x) misses x_j by exactly
K^-1 delta_j, with delta_j = b_j - E_j(b) known without a product.  The
start adds the Jacobi estimate omega delta_j of that miss: up to the earlier
solves' residuals its residual is (Id - omega K) delta_j, where the
extrapolated state alone leaves delta_j.  K's spectrum lies in
[1, 1 + 4 dt nu sum_axes h^-2], whose midpoint is its diagonal, so of all
scalars omega = 1/diagonal shrinks the worst eigencomponent most, by a
factor below 1 - omega.  On the benchmark's line searches this saves about
one product in every step of a window, the first steps after a breakpoint
(where the forcing jumps) included.  The first solve starts from y0, or from
x = 0 with no product when y0 is zero.

What CG still has to remove from that start, the start correction
x_j - x0_j, changes smoothly from step to step.  So each column of a sweep
keeps a ``linsolve.CorrectionSpace`` of its last ``START_ORDER`` start
corrections, and each solve first adds the Galerkin correction over them,
without a product (augmented CG).  At seed 0 a line-search step then costs
about 4.3 products on the 33 x 33 benchmark and 13.8 on the 65 x 65 one,
against 6.1 and 16.5 with the extrapolated start alone.  The first steps
after a breakpoint still cost most, as the jump in the forcing is new to
the space.

The adjoint sweep has no forcing, so every state it keeps is a power of K^-1
applied to the terminal value, and one Krylov space of K serves all N steps:
``solve_adjoint`` takes them from ``linsolve.inverse_powers`` (one Lanczos
pass, m products for m Lanczos vectors) instead of a CG solve per step.  It
keeps the Lanczos vectors whole only when ``keep`` selects a step before
the last, so ``keep=[]`` holds them on the control patch alone.

A sweep stores only the steps its caller asks for (``keep``, an index into
the step axis), and what it stores never changes its numbers.  The adjoint
can also return the control patch of every step, which is all the gradient
reads.  A full trajectory is the case where every step is kept.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import Grid, StencilWork, _check_field, inject, laplacian_apply
from .linsolve import CorrectionSpace, MatvecCounter, cg_solve, inverse_powers


@dataclass(frozen=True)
class TimeGrid:
    """``step_count`` implicit-Euler steps of one length ``dt``.

    The sweeps read nothing else.  A sub-problem's grid is
    ``TimeGrid(count, dt)`` with the outer dt, so every sub-problem steps
    with the outer dt bit for bit; the time of step s is ``dt * s``.
    """

    step_count: int
    dt: float

    def __post_init__(self):
        if self.step_count < 1:
            raise ValueError(f"step_count must be at least 1, got {self.step_count}")
        if not 0 < self.dt < math.inf:  # written so that NaN fails too
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


def step_operator(grid: Grid, dt: float, nu: float):
    """K = Id + dt*nu*(-Lap) as a callable on one field (n,).

    The stencil forms ``Lap(u) * -(dt*nu) + u`` in its read of the interior;
    by IEEE negation and commutativity that is bitwise u - dt * nu * Lap(u).
    The result is a buffer that the next call overwrites.
    """
    return partial(laplacian_apply, grid, work=StencilWork(grid, scale=-(dt * nu)))


def inverse_step_diagonal(grid: Grid, dt: float, nu: float) -> float:
    """1 / (1 + 2 dt nu sum_axes h^-2), the inverse of K's diagonal.

    -Lap has 2 h^-2 per axis on its diagonal at every interior node (the
    Dirichlet boundary is not stored), so K's diagonal is one number.  It is
    1 for nu = 0, where K = Id.  On a grid so fine that h^-2 overflows it is
    0 (or NaN for nu = 0) without a warning: the stencil's h^-2 overflows
    too, and the solves fail as they would from any start.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return float(1.0 / (1.0 + 2.0 * dt * nu * np.sum(1.0 / np.square(grid.spacing))))


START_ORDER = 4
# extrapolation coefficients of the last m solved states, newest first:
# (-1)^i binom(m, i+1), exact for polynomials in time of degree below m
_START_COEFFICIENTS = {m: tuple((-1) ** i * math.comb(m, i + 1) for i in range(m))
                       for m in range(1, START_ORDER + 1)}


class _SweepStarts:
    """The CG starts of one sweep, x0 = omega b_j + E_j(x - omega b), and
    the correction spaces ``cg_solve`` corrects them over.

    ``next(rhs)`` is ``first`` until a step is recorded, then omega ``rhs``
    plus the extrapolation through the last (up to ``START_ORDER``) offsets
    x - omega b that ``record`` made.  A zero ``first`` is None: the solve
    then starts from x = 0, r = b without the product that would test K 0.
    The arithmetic is elementwise with scalar coefficients, so a column of a
    batch gets its own 1D start.  A start is written into a buffer that the
    next call overwrites.  ``spaces`` holds one ``CorrectionSpace`` of
    ``START_ORDER`` corrections per column, which the solves fill, so a
    column of a batch also gets its own 1D correction.
    """

    def __init__(self, first: np.ndarray, omega: float):
        self._first = first if np.any(first) else None
        self._omega = omega
        self.spaces = [CorrectionSpace(first.shape[-1], START_ORDER)
                       for _ in range(math.prod(first.shape[:-1]))]
        self._offsets = deque(maxlen=START_ORDER)  # x - omega b, newest first
        self._start = np.empty(first.shape)
        self._term = np.empty(first.shape)

    def record(self, state: np.ndarray, rhs: np.ndarray) -> None:
        """Record a solved step, K ``state`` = ``rhs``; ``rhs`` becomes its
        offset, so the sweep must not read it again."""
        rhs *= -self._omega
        rhs += state  # (-omega) b + x is x - omega b, bit for bit
        self._offsets.appendleft(rhs)

    def next(self, rhs: np.ndarray) -> np.ndarray | None:
        if not self._offsets:
            return self._first
        newest, *older = self._offsets
        first_coefficient, *coefficients = _START_COEFFICIENTS[len(self._offsets)]
        np.multiply(first_coefficient, newest, out=self._start)
        for c, offset in zip(coefficients, older):
            if c == -1:  # s + (-1) * x is s - x, bit for bit, in one pass
                self._start -= offset
            else:
                self._start += np.multiply(c, offset, out=self._term)
        self._start += np.multiply(self._omega, rhs, out=self._term)
        return self._start


def _kept_steps(steps: int, keep) -> np.ndarray:
    """The step indices ``keep`` selects from 0..steps, shaped as it selects them."""
    return np.arange(steps + 1)[slice(None) if keep is None else keep]


def _layout(out: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Stored states (kept steps, ..., n) as (..., kept steps, n), or (..., n)
    for one step index."""
    return np.moveaxis(out, 0, -2) if kept.ndim > 0 else out[0]


def _recurse(grid: Grid, time_grid: TimeGrid, first: np.ndarray, forcing: np.ndarray,
             nu: float, tol: float, counter: MatvecCounter, keep) -> np.ndarray:
    """The implicit-Euler recursion K u^j = u^{j-1} + dt B v^j with ``forcing``
    v, from u^0 = ``first``.

    Returns the states ``keep`` selects, laid out as (..., kept steps, n) or
    (..., n) for one step index.
    """
    steps, dt = time_grid.step_count, time_grid.dt
    _check_field(grid, first)
    batch, m = first.shape[:-1], grid.control_node_count
    if forcing.shape != batch + (steps, m):
        raise ValueError(f"control field of shape {forcing.shape} does not match "
                         f"{batch} x {steps} steps x {m} control nodes")
    if nu < 0:
        raise ValueError("nu must be non-negative")
    apply_k = step_operator(grid, dt, nu)
    kept = _kept_steps(steps, keep)
    rows = [[] for _ in range(steps + 1)]  # the rows of ``out`` each step fills
    for row, step in enumerate(np.ravel(kept).tolist()):
        rows[step].append(row)
    out = np.empty((kept.size,) + first.shape)
    starts = _SweepStarts(first, inverse_step_diagonal(grid, dt, nu))
    u = first
    for j in range(steps + 1):
        if j:
            # dt * 0 is 0 off the patch: the bits of dt * B v^j
            b = inject(grid, dt * forcing[..., j - 1, :])
            b += u
            # the offsets keep all the starts need of x^{j-1}: free it for the solve
            del u
            u = cg_solve(apply_k, b, tol, counter, x0=starts.next(b), spaces=starts.spaces)
            starts.record(u, b)
        for row in rows[j]:
            out[row] = u
    return _layout(out, kept)


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
    return _recurse(grid, time_grid, y0, v, nu, tol, counter, keep)


def solve_adjoint(
    grid: Grid,
    time_grid: TimeGrid,
    terminal: np.ndarray,
    nu: float,
    tol: float,
    counter: MatvecCounter,
    keep=None,
):
    """The adjoint p^j = K^-(N-j) p^N from p^N = terminal, for j = 0..N.

    K is symmetric, so this is the exact transpose of the forward step map.
    The powers come from one Krylov space of K and the terminal
    (``linsolve.inverse_powers``), to the relative accuracy ``tol``; p^N is
    the terminal itself.  Batches as in ``solve_state``.  Returns the
    trajectory of shape (steps+1, n) by default.  With ``keep``, an index
    into the step axis as in ``solve_state``, returns the pair (p at the
    steps ``keep`` selects, the control patch nodes of every p^j, of shape
    (steps+1, m)): the patch is all the gradient reads, so ``keep=[]``
    stores no full field, nor any whole Lanczos vector.
    """
    _check_field(grid, terminal)
    if nu < 0:
        raise ValueError("nu must be non-negative")
    steps = time_grid.step_count
    kept = _kept_steps(steps, keep)
    # step j is power steps - j
    out, patches = inverse_powers(step_operator(grid, time_grid.dt, nu), terminal, steps,
                                  tol, counter, (steps - np.ravel(kept)).tolist(),
                                  grid.control_mask)
    p = _layout(out, kept)
    return p if keep is None else (p, np.moveaxis(patches[::-1], 0, -2))
