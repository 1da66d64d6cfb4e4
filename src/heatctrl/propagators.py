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

Without forcing, the final state of the sweep is K^-L y0, one function of
K applied to y0, and ``free_evolution`` takes it from one Chebyshev pass
(Chebyshev propagators: Tal-Ezer and Kosloff, J. Chem. Phys. 81, 1984).
K's spectrum lies in [1, 1 + 4 dt nu sum_axes h^-2], so lambda^-L has a
Chebyshev series on that interval, whose coefficients come from a cosine
sum at its Chebyshev nodes (``_inverse_power_series``), and the forward
three-term recurrence forms the partial sums x_D from one product a degree,
holding four fields and no basis.  On the interval the coefficients are all
positive and sum to lambda^-L at lambda = 1, which is 1, so the tail after
degree D is known: the pass stops at the first D where ||y0|| times the
bound on that tail is at most tol ||x_D||, an error bound the CG sweep does
not give (it bounds each step's residual, not the state).  On the 33 x 33
and 65 x 65 benchmarks that is 56 and 156 products, against 357 and 800
for the CG sweep.  The series also gives a floor under every later bound,
from what it leaves beyond degree 2 L and from its rounding terms, which
grow with the degree.  So the coefficients stop, at no product, as soon as
no degree up to 2 L can certify the state (a short or stiff horizon, where
the tail decays slowly, or a long one, where the rounding of the 4 L-node
sums grows), and the pass gives up as soon as the state it has formed shows
that none can (a field that decays far below ||y0||).  The state is then
the CG sweep's, with its bits, as it is when the interval is not finite;
the products of a pass that gave up are charged too.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import chain

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


# the free evolution's Chebyshev pass goes up to this many degrees per step
# before it leaves K^-L y0 to the CG sweep
CHEBYSHEV_DEGREES_PER_STEP = 2


def _inverse_power_series(power: int, spread: float, degrees: int):
    """The Chebyshev series of lambda^-power on [1, 1 + spread], which holds
    the spectrum of a step operator K: yields (a_k, bound_k, floor_k) for k =
    0, 1, ..., ``degrees``, the coefficient of T_k(s) in the variable s = (1 +
    h - lambda) / h, h = spread / 2, a bound on |lambda^-power - sum_{i<=k}
    a_i T_i(s)| over the interval, and a floor below which no later bound up
    to ``degrees`` falls.  It yields nothing when it has no bound.

    The coefficients are the discrete cosine sums of lambda^-power at the M
    + 1 = 2 ``degrees`` + 1 nodes s_j = cos(pi j / M), which alias each true
    coefficient b_i, i >= M, onto one a_k with a plus sign.  In s every true
    coefficient is positive, and at s = 1 (lambda = 1) the interpolant's
    series sums to its value there, 1.  So the coefficients after k sum to
    at most 1 - sum_{i<=k} a_i, and what is aliased onto those up to k, like
    what lies beyond M, sums to at most sum_{i>=M} b_i.  That tail is
    bounded by b_{M-1} q / (1 - q) <= a_{M-1} q / (1 - q): each b_{i+1} <=
    q_i b_i with q_i = rho (i + power) / (i + 1), rho = h / (1 + h + sqrt(1
    + 2 h)) the decay rate of 1 / lambda, from the expansion of lambda^-power
    in e^{i theta}.  With q = q_{M-1} >= 1 there is no bound.  The bound
    also holds the rounding of each coefficient (its sum, and lambda^-power
    at the nodes) and of the running sum.  The floor is what the series
    leaves after ``degrees`` (one minus the sum of its coefficients up to
    there, from the Dirichlet kernel at the nodes, which forms none of them)
    plus the aliasing and the rounding terms of the next degree's bound; it
    holds up to the rounding of that sum.  No coefficient is formed before
    it is asked for.
    """
    half = spread / 2
    nodes = 2 * degrees
    j = np.arange(nodes + 1)
    cosines = np.cos(np.pi / nodes * np.arange(2 * nodes))  # cos(pi i / M), i < 2M
    values = (1.0 + half * (1.0 - cosines[:nodes + 1])) ** -power  # lambda^-power at s_j
    values[[0, -1]] *= 0.5

    def coefficient(k):  # cos(pi j k / M) = T_k(s_j), from the table
        return float(cosines[k * j % (2 * nodes)].dot(values)) * (2.0 if k else 1.0) / nodes

    rho = half / (1.0 + half + math.sqrt(1.0 + spread))
    q = rho * (nodes - 1 + power) / nodes
    if not q < 1.0:
        return
    eps = np.finfo(float).eps
    # a coefficient's rounding: the sum of its M + 1 terms, and each node's
    # lambda^-power, within 3 power + 2 units in its last place
    rounding = 2.0 * float(values.sum()) / nodes * (nodes + 3 * power + 3) * eps
    aliased = 2.0 * (abs(coefficient(nodes - 1)) + rounding) * q / (1.0 - q)
    # 1 + 2 sum_{1<=i<=degrees} cos(i theta) = sin((degrees + 1/2) theta) / sin(theta / 2)
    theta = np.pi / nodes * j[1:]
    kernel = np.sin((degrees + 0.5) * theta) / np.sin(0.5 * theta)
    summed = (values[0] * (2 * degrees + 1) + float(values[1:].dot(kernel))) / nodes
    beyond = max(1.0 - summed, 0.0) + aliased
    total = 0.0
    for k in range(degrees + 1):
        a = coefficient(k)
        total += a
        yield (a, 1.0 - total + aliased + (k + 1) * (rounding + eps),
               beyond + (k + 2) * (rounding + eps))


def free_evolution(
    grid: Grid,
    time_grid: TimeGrid,
    y0: np.ndarray,
    nu: float,
    tol: float,
    counter: MatvecCounter,
) -> np.ndarray:
    """K^-L y0, the final state of the sweep from y0 (n,) without forcing over
    L = ``time_grid.step_count`` steps, to the relative accuracy ``tol``.

    The state comes from one Chebyshev pass on K (``_chebyshev_pass``),
    which charges one product per degree, or, when no degree up to
    ``CHEBYSHEV_DEGREES_PER_STEP`` L certifies it or K's interval is not
    finite, from ``solve_state`` with a zero control and ``keep=-1``, with
    that sweep's bits; the products a pass spent before it gave up are
    charged too.  A zero y0, or one whose squared norm underflows, gives
    zeros at no product, as the sweep does.
    """
    _check_field(grid, y0)
    if nu < 0:
        raise ValueError("nu must be non-negative")
    if not tol > 0:  # written so that NaN fails too
        raise ValueError("tol must be positive")
    steps, dt = time_grid.step_count, time_grid.dt
    norm = math.sqrt(float(y0.dot(y0)))
    if not norm:
        return np.zeros(len(y0))
    # K's spectrum lies in [1, 1 + spread]: -Lap's in (0, 4 sum_axes h^-2)
    with np.errstate(over="ignore", invalid="ignore"):
        spread = float(4.0 * dt * nu * np.sum(1.0 / np.square(grid.spacing)))
    x = None
    if math.isfinite(norm) and math.isfinite(spread):
        x = _chebyshev_pass(step_operator(grid, dt, nu), y0, norm, steps, spread, tol, counter)
    if x is None:
        return solve_state(grid, time_grid, y0, np.zeros((steps, grid.control_node_count)),
                           nu, tol, counter, keep=-1)
    return x


def _chebyshev_pass(apply_k, y0, norm, steps, spread, tol, counter):
    """x_D = sum_{k<=D} a_k T_k(S) y0 for the series of lambda^-steps
    (``_inverse_power_series``), S = ((1 + h) Id - K) / h, h = spread / 2,
    whose spectrum lies in [-1, 1], by the forward three-term recurrence
    T_k(S) y0 = 2 S T_{k-1}(S) y0 - T_{k-2}(S) y0; or None.

    ||T_k(S)|| <= 1, so x_D misses K^-steps y0 by at most ||y0|| bound_D.
    The pass stops at the first degree D where that is at most tol ||x_D||,
    and gives up as soon as no later degree D' can have it: bound_D' >=
    floor_D, and ||x_D'|| <= U_D + ||y0|| bound_D', where U_D = min(||y0||,
    ||x_D|| + ||y0|| bound_D) bounds ||K^-steps y0||, so it gives up once
    ||y0|| floor_D (1 - tol) > tol U_D.  As U <= ||y0||, it takes no product
    before the first degree where bound_D (1 - tol) <= tol, and returns None
    without one when the floor shows there is none up to
    ``CHEBYSHEV_DEGREES_PER_STEP`` steps.  It holds four fields besides the
    operator's buffers: x, and T_k(S) y0 for the last two degrees and the
    next.
    """
    series = _inverse_power_series(steps, spread, CHEBYSHEV_DEGREES_PER_STEP * steps)
    head = []  # the terms up to the first degree that can certify
    for term in series:
        head.append(term)
        if term[1] * (1.0 - tol) <= tol:
            break
        if term[2] * (1.0 - tol) > tol:
            return None
    else:
        return None
    half = spread / 2
    centre = 1.0 + half
    x = np.multiply(head[0][0], y0)
    previous, current, free = y0.copy(), np.empty(len(y0)), np.empty(len(y0))
    products = 0
    try:
        # an overflow leaves x not finite: the pass gives up
        with np.errstate(over="ignore", invalid="ignore"):
            for degree, (a, bound, floor) in enumerate(chain(head, series)):
                if degree == 1:  # T_1(S) y0 = S y0
                    np.multiply(previous, centre, out=current)
                    current -= apply_k(previous)
                    current *= 1.0 / half
                elif degree:
                    np.multiply(current, centre, out=free)
                    free -= apply_k(current)
                    free *= 2.0 / half
                    free -= previous
                    previous, current, free = current, free, previous
                if degree:
                    products = degree
                    x += np.multiply(a, current, out=free)
                x_norm = math.sqrt(float(x.dot(x)))
                if not math.isfinite(x_norm):
                    return None
                if norm * bound <= tol * x_norm:
                    return x
                if norm * floor * (1.0 - tol) > tol * min(norm, x_norm + norm * bound):
                    return None
    finally:
        counter.add(products)
    return None
