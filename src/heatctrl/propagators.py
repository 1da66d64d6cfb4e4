"""Implicit-Euler time stepping for the heat equation and its discrete adjoint.

The forward step solves (Id + dt*nu*(-Lap)) y^j = y^{j-1} + dt*B v^j, with the
control slice v^j attached to the step ending at t_j = dt*j.  The adjoint is
p^j = K^-(N-j) p^N, the exact transpose of the forward step map, so the
adjoint-based gradient is the exact gradient of the discrete cost.  The step
matrix K is applied by the stencil itself: ``laplacian_apply`` with the
buffers ``StencilWork(grid, scale=-(dt*nu))`` forms Lap(u) * scale + u in its
one read of the interior, bitwise the product u - dt*nu*Lap(u).  Each sweep
builds its own operator, whose buffers no other operator writes: a product
is read before the operator's next call overwrites it.

The state sweep, ``solve_state``, runs the recursion forward from y0 with
the control as forcing.  Step j solves K x_j = b_j, b_j = x_{j-1} + dt B v^j,
and starts its CG from x0 = omega b_j + E_j(x - omega b): E_j is the polynomial
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
x_j - x0_j, changes smoothly from step to step.  So a sweep keeps a
``linsolve.CorrectionSpace`` of its last ``START_ORDER`` start corrections,
and each solve first adds the Galerkin correction over them, without a
product, and takes its one test product at the corrected start, so CG
starts from that start's true residual (augmented CG,
``CorrectionSpace.correct``).  The first steps after a breakpoint cost
most, as the jump in the forcing is new to the space: at seed 0, steps
1-10 of a line-search window on the 65 x 65 benchmark cost 20.8, 17.6,
16.5, 15.5, 14.3, 12.5, 11.1, 9.4, 8.7 and 8.2 products with these
corrections alone (the mean over every window but the sweep's first).  But
every breakpoint brings the same kind of jump.  So a sweep given its
``breakpoints`` (only the line search's is) also recalls, at each of the
first ``RECALL_STEPS`` steps of a window, the corrections made at that step
of the last ``RECALL_WINDOWS`` windows, and corrects the start over them
and its last corrections jointly, still without a product.  Those steps
then cost 14.7, 15.2, 14.1, 11.7, 11.2, 10.5, 9.8, 9.0, 8.8 and 8.2
products, and a line-search step costs about 11.5 products against 13.5,
and 4.0 against 4.15 on the 33 x 33 benchmark.  The recall holds
2 ``RECALL_STEPS`` ``RECALL_WINDOWS`` fields.

The adjoint sweep has no forcing, so each of its states is a power of K^-1
applied to the terminal value, and one Krylov space of K serves all N steps:
``solve_adjoint`` takes them from ``linsolve.inverse_powers`` (one Lanczos
pass, m products for m Lanczos vectors) instead of a CG solve per step.  It
returns B* p, the control patch of every step, which is all the gradient
reads, so it holds its Lanczos vectors on the patch alone.

The state sweep stores only the steps its caller asks for (``keep``, an
index into the step axis), and what it stores never changes its numbers.  A
full trajectory is the case where every step is kept.
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
    The operator owns its buffers, so the result is a buffer that only its
    own next call overwrites.
    """
    return partial(laplacian_apply, grid, work=StencilWork(grid, -(dt * nu)))


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
# a sweep given its breakpoints recalls, at each of the first RECALL_STEPS
# steps of a window, the corrections made at that step of the last
# RECALL_WINDOWS windows
RECALL_STEPS, RECALL_WINDOWS = 8, 2
# extrapolation coefficients of the last m solved states, newest first:
# (-1)^i binom(m, i+1), exact for polynomials in time of degree below m
_START_COEFFICIENTS = {m: tuple((-1) ** i * math.comb(m, i + 1) for i in range(m))
                       for m in range(1, START_ORDER + 1)}


class _SweepStarts:
    """The CG starts of one sweep, x0 = omega b_j + E_j(x - omega b), and
    the correction space ``cg_solve`` corrects them over.

    ``next(rhs)`` is ``first`` until a step is recorded, then omega ``rhs``
    plus the extrapolation through the last (up to ``START_ORDER``) offsets
    x - omega b that ``record`` made.  A zero ``first`` is None: the solve
    then starts from x = 0, r = b without the product that would test K 0.
    A start is written into a buffer that the next call overwrites.
    ``space`` is the sweep's ``CorrectionSpace`` of ``START_ORDER``
    corrections, which the solves fill.  With ``breakpoints``, the steps
    where the sweep's windows begin, the space also recalls the corrections
    of the first ``RECALL_STEPS`` steps of the last ``RECALL_WINDOWS``
    windows, and ``next`` sets its position: step k of a window (from 0) for
    k < ``RECALL_STEPS``, None after.
    """

    def __init__(self, first: np.ndarray, omega: float, breakpoints=()):
        self._first = first if np.any(first) else None
        self._omega = omega
        self._windows = frozenset(breakpoints)
        self.space = CorrectionSpace(len(first), START_ORDER,
                                     RECALL_STEPS if self._windows else 0, RECALL_WINDOWS)
        self._offsets = deque(maxlen=START_ORDER)  # x - omega b, newest first
        self._start = np.empty(len(first))
        self._term = np.empty(len(first))
        # the steps started so far, and the breakpoint the current window begins at
        self._step = self._window = 0

    def record(self, state: np.ndarray, rhs: np.ndarray) -> None:
        """Record a solved step, K ``state`` = ``rhs``; ``rhs`` becomes its
        offset, so the sweep must not read it again."""
        rhs *= -self._omega
        rhs += state  # (-omega) b + x is x - omega b, bit for bit
        self._offsets.appendleft(rhs)

    def next(self, rhs: np.ndarray) -> np.ndarray | None:
        if self._windows:
            if self._step in self._windows:
                self._window = self._step
            position = self._step - self._window
            self.space.position = position if position < RECALL_STEPS else None
        self._step += 1
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


def solve_state(
    grid: Grid,
    time_grid: TimeGrid,
    y0: np.ndarray,
    v: np.ndarray,
    nu: float,
    tol: float,
    counter: MatvecCounter,
    keep=None,
    breakpoints=(),
) -> np.ndarray:
    """Forward heat solve, the implicit-Euler recursion K y^j = y^{j-1} +
    dt B v^j from y0 (n,) with the control v (steps, m); returns the
    trajectory of shape (steps+1, n).

    ``keep`` indexes the step axis (an int, a slice or a list of step
    indices) and only the states it selects are stored: the result is the
    full trajectory indexed by ``keep``, so ``keep=-1`` gives the final state
    alone and ``keep=[0, 4, 8]`` three rows.  The default, None, keeps every
    step.

    ``breakpoints`` are the steps where the windows of a forcing that jumps
    begin (as ``targets.make_partition`` gives them, 0 included); the sweep
    then recalls, at each of the first steps of a window, the corrections
    made at the same step of the last windows (``_SweepStarts``).  Without
    them no step is recalled.
    """
    steps, dt = time_grid.step_count, time_grid.dt
    _check_field(grid, y0)
    if v.shape != (steps, grid.control_node_count):
        raise ValueError(f"control field of shape {v.shape} does not match "
                         f"{steps} steps x {grid.control_node_count} control nodes")
    if nu < 0:
        raise ValueError("nu must be non-negative")
    apply_k = step_operator(grid, dt, nu)
    kept = np.arange(steps + 1)[slice(None) if keep is None else keep]
    rows = [[] for _ in range(steps + 1)]  # the rows of ``out`` each step fills
    for row, step in enumerate(np.ravel(kept).tolist()):
        rows[step].append(row)
    out = np.empty((kept.size, len(y0)))
    starts = _SweepStarts(y0, inverse_step_diagonal(grid, dt, nu), breakpoints)
    y = y0
    for j in range(steps + 1):
        if j:
            # dt * 0 is 0 off the patch: the bits of dt * B v^j
            b = inject(grid, dt * v[j - 1])
            b += y
            # the offsets keep all the starts need of y^{j-1}: free it for the solve
            del y
            y = cg_solve(apply_k, b, tol, counter, x0=starts.next(b), space=starts.space)
            starts.record(y, b)
        for row in rows[j]:
            out[row] = y
    return out if kept.ndim else out[0]


def solve_adjoint(
    grid: Grid,
    time_grid: TimeGrid,
    terminal: np.ndarray,
    nu: float,
    tol: float,
    counter: MatvecCounter,
) -> np.ndarray:
    """B* p^j for j = 0..N, the control patch nodes of the adjoint
    p^j = K^-(N-j) p^N from p^N = terminal, of shape (steps+1, m).

    K is symmetric, so this is the exact transpose of the forward step map.
    The powers come from one Krylov space of K and the terminal
    (``linsolve.inverse_powers``), to the relative accuracy ``tol``; row N
    is the terminal's patch itself.  No full field is stored, nor any whole
    Lanczos vector.
    """
    _check_field(grid, terminal)
    if nu < 0:
        raise ValueError("nu must be non-negative")
    steps = time_grid.step_count
    # step j is power steps - j
    return inverse_powers(step_operator(grid, time_grid.dt, nu), terminal, steps, tol, counter,
                          grid.control_mask)[::-1]
