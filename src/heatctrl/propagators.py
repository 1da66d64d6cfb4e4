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
by CG from x_{j-1}, or from x = 0 with no product where x_{j-1} is zero.  A
run sweeps only where no Chebyshev pass certifies its result (below) and for
y(T; v) from a start control other than zero.

The adjoint sweep has no forcing, so each of its states is a power of K^-1
applied to the terminal value, and one Krylov space of K serves all N steps:
``solve_adjoint`` takes them from ``linsolve.inverse_powers`` (one Lanczos
pass, m products for m Lanczos vectors) instead of a CG solve per step.  It
returns B* p, the control patch of every step, which is all the gradient
reads, so it holds its Lanczos vectors on the patch alone.

The state sweep stores only the steps its caller asks for (``keep``, an
index into the step axis), and what it stores never changes its numbers.  A
full trajectory is the case where every step is kept.

The final state of a sweep is a sum of functions of K: K^-L y0, and
K^-(L-j+1) dt B v^j for each step j.  K's spectrum lies in [1, 1 + 4 dt nu
sum_axes h^-2], so each lambda^-s has a Chebyshev series on that interval,
whose coefficients come from cosine sums at its Chebyshev nodes
(``_inverse_power_series``), and one Chebyshev pass (``_chebyshev_pass``)
takes either part with one product a degree and no basis (Chebyshev
propagators: Tal-Ezer and Kosloff, J. Chem. Phys. 81, 1984).  With the
forcing of degree k, F_k = sum_j a_k(s_j) f_j, the Clenshaw recurrence sums
sum_k T_k(S) F_k from the top degree down, for the whole horizon at once.
On the interval the coefficients are all positive and sum to lambda^-s at
lambda = 1, which is 1, so the tail after degree D is known, and the pass
certifies what it returns: an error bound the CG sweep does not give (it
bounds each step's residual, not the state).  The degree is chosen before
the products, from a lower bound on the result's norm that the lowest mode
of K gives (``_lowest_mode``), or, where no series reaches that guess, from
an upper bound, and certified after them.

- ``free_evolution`` takes K^-L y0, with y0 the one forcing: 56 and 156
  products on the 33 x 33 and 65 x 65 benchmarks, against 1034 and 1650
  for the CG sweep.
- ``forced_response`` takes z(T) = sum_j K^-(L-j+1) dt B v^j, the state a
  control drives from zero, with the forcing on the control patch.  The
  line search needs it of every direction, and each of step 2's
  sub-problems of every step it takes: 51 and 141 products for the first
  direction of the two benchmarks at seed 0, against 1651 and 3600 for the
  CG sweep from zero, and 2.9e-11 and 5.5e-11 from a 1e-14 sweep where the
  CG sweep ends 6.2e-10 and 3.7e-10 away.

The series is sized from the degree it must reach, not from the cap of
``CHEBYSHEV_DEGREES_PER_STEP`` L degrees: it doubles from 16 degrees, on
that many nodes plus ``SERIES_BLOCK``, and forms its coefficients a block of
degrees at a time, so a pass forms nodes and coefficients in proportion to
the degree it uses.  It also gives a floor under every later bound, from
what it leaves beyond its degrees and from its rounding terms, which grow
with the degree.  So a series stops, at no product, as soon as no degree up
to the cap can reach the bound the pass needs (a short or stiff horizon,
where the tail decays slowly, a long one, where the rounding of the node
sums grows, or a result that decays far below its data).  The result is
then the CG sweep's, with its bits, as it is when the interval is not
finite; the products of passes that did not certify are charged too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import Grid, StencilWork, _check_field, inject, laplacian_apply
from .linsolve import MatvecCounter, cg_solve, inverse_powers


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
    """Forward heat solve, the implicit-Euler recursion K y^j = y^{j-1} +
    dt B v^j from y0 (n,) with the control v (steps, m); returns the
    trajectory of shape (steps+1, n).

    ``keep`` indexes the step axis (an int, a slice or a list of step
    indices) and only the states it selects are stored: the result is the
    full trajectory indexed by ``keep``, so ``keep=-1`` gives the final state
    alone and ``keep=[0, 4, 8]`` three rows.  The default, None, keeps every
    step.
    """
    steps, dt = time_grid.step_count, time_grid.dt
    _check_field(grid, y0)
    _check_control_field(grid, steps, v)
    if nu < 0:
        raise ValueError("nu must be non-negative")
    apply_k = step_operator(grid, dt, nu)
    kept = np.arange(steps + 1)[slice(None) if keep is None else keep]
    rows = [[] for _ in range(steps + 1)]  # the rows of ``out`` each step fills
    for row, step in enumerate(np.ravel(kept).tolist()):
        rows[step].append(row)
    out = np.empty((kept.size, len(y0)))
    y = y0
    for j in range(steps + 1):
        if j:
            # dt * 0 is 0 off the patch: the bits of dt * B v^j
            b = inject(grid, dt * v[j - 1])
            b += y
            y = cg_solve(apply_k, b, tol, counter, x0=y if np.any(y) else None)
        for row in rows[j]:
            out[row] = y
    return out if kept.ndim else out[0]


def _check_control_field(grid: Grid, steps: int, v: np.ndarray) -> None:
    if v.shape != (steps, grid.control_node_count):
        raise ValueError(f"control field of shape {v.shape} does not match "
                         f"{steps} steps x {grid.control_node_count} control nodes")


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


# the Chebyshev passes go up to this many degrees per step before they leave
# the result to the CG sweep
CHEBYSHEV_DEGREES_PER_STEP = 2
# a series forms its coefficients this many degrees at a time, from the
# powers' values at its nodes in chunks of at most SERIES_CHUNK floats
SERIES_BLOCK, SERIES_CHUNK = 16, 2048


def _inverse_power_series(power, spread: float, degrees: int, weights=None):
    """The Chebyshev series of lambda^-s on [1, 1 + spread], which holds the
    spectrum of a step operator K, for the power s = ``power`` or each of an
    array of them: yields (a_k, bound_k, floor_k) for k = 0, 1, ...,
    ``degrees``, with a_k the array of the powers' coefficients of T_k(s) in
    the variable s = (1 + h - lambda) / h, h = spread / 2, bound_k the sum
    over the powers of w_s times a bound on |lambda^-s - sum_{i<=k} a_i(s)
    T_i(s)| over the interval, and floor_k the same sum of floors below which
    no later bound up to ``degrees`` falls; the weights w_s are ``weights``,
    or 1.  It yields nothing when it has no bound.

    The coefficients are the discrete cosine sums of lambda^-s at the M + 1
    = ``degrees`` + ``SERIES_BLOCK`` + 1 nodes s_j = cos(pi j / M), which
    alias each true coefficient b_i, i >= M, onto one a_k with a plus sign.
    In s every true coefficient is positive, and at s = 1 (lambda = 1) the
    interpolant's series sums to its value there, 1.  So the coefficients
    after k sum to at most 1 - sum_{i<=k} a_i, and what is aliased onto
    those up to k, like what lies beyond M, sums to at most sum_{i>=M} b_i.
    That tail is bounded by b_{M-1} q / (1 - q) <= a_{M-1} q / (1 - q): each
    b_{i+1} <= q_i b_i with q_i = rho (i + s) / (i + 1), rho = h / (1 + h +
    sqrt(1 + 2 h)) the decay rate of 1 / lambda, from the expansion of
    lambda^-s in e^{i theta}.  With q = q_{M-1} >= 1 for some power there is
    no bound.  The bound also holds the rounding of each coefficient (its
    sum, and lambda^-s at the nodes) and of the running sum.  A coefficient
    within its rounding would raise its power's bound: from there on that
    power's coefficients are 0 and its bound stays.

    The floor lies below every later bound, up to the rounding of the sum
    it is made of: a power's next bound is its bound now, if it stops, or at
    least what the series leaves after ``degrees`` (one minus the sum of its
    coefficients up to there, from the Dirichlet kernel at the nodes, which
    forms none of them) plus the aliasing and one rounding more.

    No coefficient is formed before its block of ``SERIES_BLOCK`` degrees is
    asked for, and the powers' values at the nodes are formed anew for each
    block, ``SERIES_CHUNK`` floats at a time: the series holds its nodes,
    one block of coefficients and a few numbers a power.
    """
    powers = np.atleast_1d(np.asarray(power, dtype=float))
    weights = np.ones(len(powers)) if weights is None else weights
    half, nodes = spread / 2, degrees + SERIES_BLOCK
    rho = half / (1.0 + half + math.sqrt(1.0 + spread))
    q = rho * (nodes - 1 + powers) / nodes
    if not np.all(q < 1.0):
        return
    j = np.arange(nodes + 1)
    cosines = np.cos(np.pi / nodes * np.arange(2 * nodes))  # cos(pi i / M), i < 2M
    lam = 1.0 + half * (1.0 - cosines[:nodes + 1])  # lambda at s_j
    size = max(1, SERIES_CHUNK // (nodes + 1))
    chunks = [slice(i, i + size) for i in range(0, len(powers), size)]

    def sums(rows):  # sum_j rows_j lambda_j^-s for every power, the end nodes counting half
        rows[:, [0, -1]] *= 0.5
        return np.concatenate([rows.dot((lam ** -powers[c, None]).T) for c in chunks], axis=1)

    def coefficients(ks):  # cos(pi j k / M) = T_k(s_j), from the table
        index = np.multiply.outer(ks, j)
        index %= 2 * nodes
        return sums(cosines[index]) * np.where(ks, 2.0, 1.0)[:, None] / nodes

    eps = np.finfo(float).eps
    # the node sum, and 1 + 2 sum_{1<=i<=degrees} cos(i theta) = sin((degrees
    # + 1/2) theta) / sin(theta / 2), 2 degrees + 1 at theta = 0
    theta = np.pi / nodes * j[1:]
    node_sum, summed = sums(np.array([np.ones(nodes + 1), np.concatenate((
        [2 * degrees + 1.0], np.sin((degrees + 0.5) * theta) / np.sin(0.5 * theta)))])) / nodes
    # a coefficient's rounding: the sum of its M + 1 terms, and each node's
    # lambda^-s, within 3 s + 2 units in its last place
    rounding = 2.0 * node_sum * (nodes + 3 * powers + 3) * eps
    aliased = 2.0 * (np.abs(coefficients(np.array([nodes - 1]))[0]) + rounding) * q / (1.0 - q)
    beyond = np.maximum(1.0 - summed, 0.0) + aliased
    total, taken = np.zeros(len(powers)), np.zeros(len(powers))
    live = np.ones(len(powers), dtype=bool)
    for start in range(0, degrees + 1, SERIES_BLOCK):
        for k, a in enumerate(coefficients(np.arange(start, min(start + SERIES_BLOCK,
                                                                degrees + 1))), start):
            if k:  # a coefficient within its rounding lowers no bound: its power stops
                live &= a > rounding + eps
                a[~live] = 0.0
            total += a
            taken += live
            bound = 1.0 - total + aliased + taken * (rounding + eps)
            # a live power's next bound holds one rounding more, unless it stops
            following = np.where(live, beyond + (taken + 1) * (rounding + eps), bound)
            yield a, float(weights.dot(bound)), float(weights.dot(np.minimum(following, bound)))


def _sized_series(powers, spread, target, cap, weights, forcing):
    """The coefficients a_k of ``_inverse_power_series``, kept as a_k
    ``forcing`` when that is given (the rows of one array: many small ones
    left the process's heap larger), up to its first degree whose bound is
    at most ``target``, and that bound, at the fewest degrees from 16 up,
    doubling, to ``cap`` that reach it.  When none does it gives (None, the
    least first floor of the sizes it tried), below which none of them has a
    bound.  The nodes come from the degree the series must reach, not from
    the cap.  A size is left at its first term whose floor lies above
    ``target``.  Larger sizes lower the floor the series' tail sets, not the
    one its rounding sets: no size is tried after one whose first floor is
    no lower than the last size's, or whose floor rises above ``target``
    after its first term.
    """
    degrees, last = 16, math.inf
    while True:
        degrees = min(degrees, cap)
        kept = []
        rows = None if forcing is None else np.empty((degrees + 1, forcing.shape[1]))
        for a, bound, floor in _inverse_power_series(powers, spread, degrees, weights):
            kept.append(a if rows is None else forcing.T.dot(a, out=rows[len(kept)]))
            if bound <= target:
                return kept, bound
            first = floor if len(kept) == 1 else first
            if floor > target:
                break
        lowest = min(first, last) if kept else last
        if degrees == cap or kept and (len(kept) > 1 and floor > target or first >= last):
            return None, lowest
        last, degrees = lowest, 2 * degrees


def free_evolution(grid: Grid, time_grid: TimeGrid, y0: np.ndarray, nu: float, tol: float,
                   counter: MatvecCounter) -> np.ndarray:
    """K^-L y0, the final state of the sweep from y0 (n,) without forcing over
    L = ``time_grid.step_count`` steps, certified to the relative accuracy
    ``tol`` where a pass certifies it.

    The state comes from one Chebyshev pass on K (``_chebyshev_pass``, with
    y0 as the one forcing, at power L, on every node), or, when no degree up
    to ``CHEBYSHEV_DEGREES_PER_STEP`` L certifies it or K's interval is not
    finite, from ``solve_state`` with a zero control and ``keep=-1``, with
    that sweep's bits; the products of passes that did not certify are
    charged too.  A zero y0, or one whose squared norm underflows, gives
    zeros at no product, as the sweep does.
    """
    _check_field(grid, y0)
    _check_nu_tol(nu, tol)
    x = _chebyshev_pass(grid, time_grid, nu, tol, counter, y0[None], slice(None), 1.0)
    if x is None:
        zero = np.zeros((time_grid.step_count, grid.control_node_count))
        x = solve_state(grid, time_grid, y0, zero, nu, tol, counter, keep=-1)
    return x


def forced_response(grid: Grid, time_grid: TimeGrid, v: np.ndarray, nu: float, tol: float,
                    counter: MatvecCounter) -> np.ndarray:
    """z(T) = sum_j K^-(L-j+1) dt B v^j, the final state the control v
    (steps, m) drives from zero over L = ``time_grid.step_count`` steps,
    certified to the relative accuracy ``tol`` where a pass certifies it.

    The state comes from one Chebyshev pass over the control
    (``_chebyshev_pass``, with dt v^j as the forcing at power L - j + 1, on
    the control patch), or, when no degree up to
    ``CHEBYSHEV_DEGREES_PER_STEP`` L certifies it or K's interval is not
    finite, from ``solve_state`` from zero with ``keep=-1``, with that
    sweep's bits; the products of passes that did not certify are charged
    too.  A control whose step norms all vanish (or underflow) costs no
    product, as in the sweep.
    """
    _check_control_field(grid, time_grid.step_count, v)
    _check_nu_tol(nu, tol)
    x = _chebyshev_pass(grid, time_grid, nu, tol, counter, v, grid.control_mask, time_grid.dt)
    if x is None:
        x = solve_state(grid, time_grid, grid.zero_field(), v, nu, tol, counter, keep=-1)
    return x


def _check_nu_tol(nu: float, tol: float) -> None:
    if nu < 0:
        raise ValueError("nu must be non-negative")
    if not tol > 0:  # written so that NaN fails too
        raise ValueError("tol must be positive")


def _chebyshev_pass(grid, time_grid, nu, tol, counter, forcing, nodes, scale):
    """x_D = sum_{k<=D} T_k(S) F_k, F_k = ``scale`` sum_i a_k(L - i)
    ``forcing[i]`` on ``nodes``, for the series of lambda^-s at the powers
    s = L - i (``_sized_series``, weighted by w_i = ``scale``
    ||``forcing[i]``||), S = ((1 + h) Id - K) / h, h = spread / 2, by the
    Clenshaw recurrence b_k = F_k + 2 S b_{k+1} - b_{k+2}, x_D = F_0 + S b_1
    - b_2: D products for degree D; or None.

    ||T_k(S)|| <= 1, so x_D misses the result, sum_i K^-(L - i) F_i, by at
    most sum_i w_i bound_D(L - i), the series' weighted bound.  The degree
    is chosen before the products, as the first where that bound times
    1 + tol is at most tol times a guess of the result's norm: |<phi,
    result>| for the lowest mode phi of K (``_lowest_mode``), a lower bound,
    or at least a 2^-6 share of the upper bound sum_i w_i lambda^-(L - i).
    Where no series size up to ``CHEBYSHEV_DEGREES_PER_STEP`` L reaches
    that first guess, the first pass is sized from the upper bound itself,
    unless every size tried has its floor above that target too.  The pass
    certifies x_D after the fact, when the bound is at most tol ||x_D||.
    When it does not, ||x_D|| - bound_D bounds the result's norm from below,
    and a pass of a higher degree follows from that guess; the pass gives up
    when that is not positive or no series size up to the cap reaches it,
    and at no product when the weights vanish or are not finite, as it does
    when K's interval is not.
    It keeps, a degree, a_k for every power or, where there are more powers
    than nodes, a_k ``forcing`` (a row of one array per series size), and
    holds three fields and one buffer on ``nodes`` besides the operator's.
    """
    steps, dt = time_grid.step_count, time_grid.dt
    powers = steps - np.arange(len(forcing), dtype=float)
    folded = forcing if forcing.shape[1] < len(forcing) else None  # F_k kept as a_k forcing
    phi, decay = _lowest_mode(grid, dt * nu, nodes, powers)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = scale * np.sqrt(np.vecdot(forcing, forcing))
        spread = float(4.0 * dt * nu * np.sum(1.0 / np.square(grid.spacing)))
        upper = float(decay.dot(weights))
        # phi is even under the box's point reflection, so the lowest-mode
        # bound of an odd forcing is 0.  The share of the upper bound trades
        # degrees for passes: each halving adds a few degrees, a guess above
        # the result a second pass.  At seed 0, matvec_par on it-desk33 /
        # it-field65 / the scaled benchmark reads 1007 / 2175 / 2189 at 2^-6,
        # within 1.1% of that at 2^-3, 994 / 2248 / 2347 at 2^-2, 1140 /
        # 2600 / 2992 at 2^-1, and 1052 / 2175 / 2191 with no share, where
        # more guesses need the retry from the upper bound.
        guess = max(abs(float(decay.dot(forcing.dot(phi)))) * scale, upper / 64)
    if not (upper and math.isfinite(upper) and math.isfinite(spread)):
        return None
    apply_k = step_operator(grid, dt, nu)
    products, first = 0, True
    try:
        while guess > 0:
            kept, bound = _sized_series(powers, spread, tol * guess / (1.0 + tol),
                                        CHEBYSHEV_DEGREES_PER_STEP * steps, weights, folded)
            if kept is None:
                # a first guess far below the result asks for more degrees
                # than the cap: size once from the upper bound instead,
                # unless every size tried has its floor above that target
                if not first or bound > tol * upper / (1.0 + tol):
                    return None
                guess, first = upper, False
                continue
            first = False
            # an overflow leaves x not finite: the pass gives up
            with np.errstate(over="ignore", invalid="ignore"):
                x = _clenshaw(grid, apply_k, kept, forcing if folded is None else None, nodes,
                              scale, spread)
            products += len(kept) - 1
            x_norm = math.sqrt(float(x.dot(x)))
            if not math.isfinite(x_norm):
                return None
            if bound <= tol * x_norm:
                return x
            guess = (x_norm - bound) / (1.0 + tol)
    finally:
        counter.add(products)
    return None


def _lowest_mode(grid: Grid, dt_nu: float, nodes, powers):
    """The unit eigenvector phi of K with the least eigenvalue lambda, on
    ``nodes``, and lambda^-s for each of the ``powers``.

    On the box phi is the product over the axes of sin(pi i / (n - 1)) at
    interior node i of n, and lambda = 1 + dt nu sum_axes 4 h^-2
    sin^2(pi / (2 (n - 1))): ||K^-s|| = lambda^-s.
    """
    phi, lowest = np.ones(1), 0.0
    for n, h in zip(grid.nodes_per_axis, grid.spacing):
        phi = np.multiply.outer(phi, np.sin(np.pi / (n - 1) * np.arange(1, n - 1))).ravel()
        lowest += 4.0 / (h * h) * math.sin(math.pi / (2 * (n - 1))) ** 2
    return phi[nodes] / math.sqrt(float(phi.dot(phi))), (1.0 + dt_nu * lowest) ** -powers


def _clenshaw(grid, apply_k, kept, forcing, nodes, scale, spread):
    """sum_{k<=D} T_k(S) F_k by the Clenshaw recurrence, D = len(kept) - 1,
    with F_k = ``scale`` f_k on ``nodes``, f_k = ``kept[k]`` or, given the
    ``forcing`` rows, ``kept[k]`` times them.  The zero b_{D+1} costs no
    product.  Each F_k is formed in one buffer the size of ``nodes``."""
    half = spread / 2
    n = grid.interior_node_count
    b1, b2, new = np.zeros(n), np.zeros(n), np.zeros(n)  # b_{k+1}, b_{k+2}, b_k
    f = np.empty_like(kept[0] if forcing is None else forcing[0])  # F_k
    for k in range(len(kept) - 1, -1, -1):
        if k < len(kept) - 1:
            np.multiply(b1, 1.0 + half, out=new)
            new -= apply_k(b1)
            new *= (2.0 if k else 1.0) / half
            new -= b2
        np.multiply(kept[k] if forcing is None else kept[k].dot(forcing, out=f), scale, out=f)
        new[nodes] += f
        b2, b1, new = b1, new, b2
    return b1
