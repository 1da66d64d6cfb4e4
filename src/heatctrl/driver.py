"""The outer loop of the intermediate-targets method, and its matvec ledger.

``run`` is the only outer loop, from v = 0 or a given start control.  Each
iteration takes d and the line search's head, z at the first breakpoint or
None, from ``targets_direction``, given the gradient g(v) of the current
control v; ``_sweep`` then minimizes J exactly over v plus the span of d,
the last step taken s and the last ``REMEMBERED_DIRECTIONS`` = 3 directions
d_{k-1}, d_{k-2}, d_{k-3}, rejecting an uphill step.  Over d and s alone
that is the memory-gradient method (Miele & Cantrell, J. Optim. Theory
Appl. 3, 1969); around step 2 it is flexible CG with step 2 as a variable
preconditioner (Notay, SIAM J. Sci. Comput. 22, 2000), and like truncated
flexible CG the step also spans the last few directions.  The first step,
and every step on one interval, is the exact step along d alone, as in the
paper.  On a control patch that the point reflection of the box maps onto
itself, the cost does not couple the even and odd parts of a control, and
from the second step on each part of d takes a coefficient of its own
(``line_search``): a run then takes as many iterations when a small
asymmetry of y0 or y_target brings in an odd part as when none does.  The
direction is steps 1-3 of the
method: (1) the targets chi = y - p at the breakpoints, (2) the independent
sub-problems, each solved on its own with a matvec count of its own, and (3)
the changes of their controls joined into d = v_tilde - v.  By linearity a
sub-problem's gradient at the current control is the window of g on its
sub-interval, and after a change u of its control it is that window plus
alpha u plus the adjoint of u's response, so step 2 reads g alone and chi is
never formed (``targets``).  Sub-problem 0 starts, like z, from zero at
t = 0, so its response (the homogeneous state its change of control drives,
at its right breakpoint) is z at the first breakpoint: the head, whenever
it was solved at ``cg_tol``.

The sequential baseline, the optimal-step gradient method, is the case of
one interval and one inner iteration: its one sub-problem takes the exact
step sigma along -g, its response is z(T), so the line search makes no sweep
and its step along d is 1 up to rounding.

Only step 2's solves may run at a looser CG tolerance
(``targets.DIRECTION_CG_TOL`` = 1e-3, when the inner descent has no gradient
test), since they only shape d, and the step over d, s and the remembered
directions is flexible CG, which takes an inexact step 2 as a variable
preconditioner; sub-problem 0's at one inner iteration do not, since they
also give the head.  The state, adjoint and line-search solves stay at the
problem's ``cg_tol``, and so do J, g, the stopping test and the uphill
guard: every accepted step lowers J and the gradient stays the exact one.

The final state follows through linearity, y(T; v + a d + b s + sum_j c_j
d_j) = y(T; v) + a z(T) + b z_s(T) + sum_j c_j z_j(T), with z the
homogeneous state the line search solved for, z_s(T) the response of s,
which ``run`` carries as that combination, and z_j(T) the response each
remembered direction's own line search solved, so neither s nor a
remembered direction costs a product; the parts of d have the parts of z
as theirs, since the reflection commutes with the sweep.  Each outer
iteration costs one adjoint sweep (all its steps from one Lanczos pass: at
seed 0, 64 products against 651 for a CG solve per step on the 33 x 33
benchmark, 128 against 1365 on the 65 x 65 one), step 2's solves (about
2.0 and 4.9 products a step on the two at seed 0, against 3.2 and 10.1 with
step 2 at 1e-6) and the line search's one homogeneous forward sweep: from
the head at the first breakpoint when step 2 gives one, else from zero at
t = 0, to T (none when the head is z(T)).  That sweep is given the
breakpoints it crosses, so its first steps in each window recall the
corrections made at the same steps of the last windows, and like every
sweep's steps each takes its one test product at its corrected start
(``propagators.solve_state``): about 4.4 and 14.3 products a step on the
two at seed 0 (4.4 and 12.8 over d and s alone, 4.0 and 11.5 under the
scalar step along d).  With one inner iteration, a sub-problem costs one
homogeneous forward solve; each further inner iteration adds an adjoint and
a forward solve.  Before the first iteration a run from v = 0 needs y(T; 0)
= K^-L y0, the evolution of y0 without forcing, which
``propagators.free_evolution`` takes from one Chebyshev pass with a
certified error bound: 56 products against 357 for a CG solve per step on
the 33 x 33 benchmark, 156 against 800 on the 65 x 65 one, where the CG
sweep ends 8.3e-10 and 7.9e-10 relative from a tight sweep and the pass
4.2e-11 and 1.2e-11.  Where no degree up to 2 L certifies it (short or
stiff horizons, or a field that decays far below ||y0||) the state is the
CG sweep's, bit for bit; a run from another start solves y(T; v) by that
sweep.

A run stores no trajectory: y, z and z_s at the final step, p on the
control patch at every step, the control, the direction and the last step,
and on two or more intervals the three remembered directions with their
z(T), three controls and three fields more; the gradient is dropped once
step 2 has read it, before the line-search sweep, where a run peaks.  That
is O(n + steps m) memory for n grid nodes and m control nodes.

One ``MatvecCounter`` keeps both tallies.  The sequential tally counts every
product; the parallel tally charges step 2 at its costliest sub-problem
(``MatvecCounter.add_concurrent``), as if each sub-problem ran on its own
processor.  With one interval the two tallies agree.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import inner_omega
from .linsolve import MatvecCounter, _galerkin
from .problem import ControlProblem, _record, gradient, inner_h, norm_h
from .propagators import TimeGrid, free_evolution, solve_state
from .targets import assemble_subproblems, make_partition, solve_subproblem


# directions a run on two or more intervals remembers for its step, each with
# the z(T) its line-search sweep solved, so a remembered column costs no
# product.  At seed 0 the 65 x 65 benchmark takes 8 outer iterations with
# none, 7 with 1 or 2, and 6 with 3, 4 or 5; the 33 x 33 one takes 8, 7 with
# 1 to 3 and 6 with 4 or 5, but each direction costs the 65 x 65 run a
# control, about 1.2% of its peak memory
REMEMBERED_DIRECTIONS = 3
# a column of the step within about 5.7 degrees, in the cost's norm, of the
# span of the columns before it is left out (at 1e-3 or 1e-4 a small
# asymmetry of y0 moves the iteration count)
STEP_PIVOT = 1e-2


@dataclass(frozen=True)
class OuterConfig:
    n_intervals: int
    inner_iterations: int = 1
    inner_gradient_rtol: float | None = None
    max_outer: int = 100
    gradient_rtol: float = 1e-6

    def __post_init__(self):
        if self.n_intervals < 1:
            raise ValueError("n_intervals must be at least 1")
        if self.inner_iterations < 1:
            raise ValueError("inner_iterations must be at least 1")
        if self.max_outer < 0:
            raise ValueError("max_outer must be at least 0")
        # written so that NaN fails too
        if not self.gradient_rtol > 0:
            raise ValueError("gradient_rtol must be positive")
        if self.inner_gradient_rtol is not None and not self.inner_gradient_rtol > 0:
            raise ValueError("inner_gradient_rtol must be positive")


@dataclass(frozen=True)
class IterationMetrics:
    outer_index: int
    cost: float
    misfit: float
    penalty: float
    # coefficient of d (of its even part, where d splits) in the step taken at
    # this iterate; 0 at the last row
    theta: float
    matvec_sequential: int
    matvec_parallel: int
    wall_time: float  # seconds since the run started


@dataclass
class RunResult:
    control: np.ndarray
    history: list[IterationMetrics]
    converged: bool
    stalled: bool = False  # stopped early because the last row took no step


def line_search(
    problem: ControlProblem,
    partition: list[int],
    v: np.ndarray,
    d: np.ndarray,
    residual: np.ndarray,
    counter: MatvecCounter,
    head: np.ndarray | None = None,
    previous: tuple[np.ndarray, np.ndarray] | None = None,
    remembered: Sequence[tuple[np.ndarray, np.ndarray]] = (),
) -> tuple[float, tuple[np.ndarray, np.ndarray] | None, np.ndarray | None]:
    """Exact minimizer of J over v plus the span of d, the previous step s
    and the remembered directions, as (theta, step, z(T)): step = (s',
    z_s'(T)) with v + s' the minimizer, or None when that is v itself, and
    theta the coefficient of d in s'.

    ``residual`` is y(T; v) - y_target, ``previous`` is (s, z_s(T)), or
    None, and ``remembered`` holds earlier directions with their z(T),
    newest first, which are read only with ``previous``.  z is the
    homogeneous state driven by d, so y(T; v + s') = y(T; v) + z_s'(T) with
    z_s' the same combination of the columns' responses as s' is of the
    columns; z is None (and so is the step) when d vanishes.  z comes from
    one sweep over the steps from a start step to T, on d's rows from there
    and given the breakpoints from there on.  Without ``head`` it starts at
    step 0 from z = 0.  With it, z at ``partition[1]`` solved at ``cg_tol``
    (step 2's sub-problem 0 response), it starts at ``partition[1]`` from
    the head; with one interval that step is T, the head is z(T), and there
    is no sweep.

    Without ``previous`` the step is the exact step along d alone, theta =
    -q(d) / H(d, d) (``_coefficients``).  With it, on a patch the point
    reflection maps onto itself (``Grid.patch_is_point_symmetric``), d
    splits into its even and odd parts, which the cost does not couple, and
    each takes a coefficient of its own; theta is the even part's.  With
    one coefficient for both, a step fitted to the even part overshoots the
    odd one, which then grows from rounding or from a small asymmetry of
    the data until it holds the run back.  d stays whole when the odd or
    the even part of z is below sqrt(cg_tol) of z (``_resolved``), as the
    sweep's error would be a large share of it.  The remembered directions
    enter whole.  The columns are
    taken in the order d's parts, s, the remembered directions newest
    first, and one within about 5.7 degrees of the span of those before it
    is left out (``_coefficients``): at the second step s lies along the
    one remembered direction.  With ``previous`` the step is formed in its
    arrays, which it overwrites; d comes back whole up to rounding, and z
    and the remembered arrays as they were, as ``run`` remembers them.
    """
    grid, tg = problem.grid, problem.time_grid
    if not np.any(d):
        return 0.0, None, None
    start, zT = (0, grid.zero_field()) if head is None else (partition[1], head)
    if start < tg.step_count:
        zT = solve_state(grid, TimeGrid(tg.step_count - start, tg.dt), zT, d[start:],
                         problem.nu, problem.cg_tol, counter, keep=-1,
                         breakpoints=[b - start for b in partition if b >= start])
    if previous is None:
        theta, = _coefficients(problem, v, residual, [(d, zT)])
        return (0.0, None, zT) if theta == 0.0 else (theta, (theta * d, theta * zT), zT)
    parts = [(d, zT)]
    if grid.patch_is_point_symmetric:
        z_even = zT.copy()
        z_odd = _take_odd_part(z_even)
        if _resolved(problem, z_even, zT) and _resolved(problem, z_odd, zT):
            # d's array holds its even part while the coefficients are found:
            # a third control here would raise a run's peak memory
            d_odd = _take_odd_part(d)
            parts = [(d, z_even), (d_odd, z_odd)]
    coefficients = _coefficients(problem, v, residual, [*parts, previous, *remembered])
    theta = coefficients[0]
    if len(parts) == 2:
        # d whole again (to rounding): a_e e + a_o o = a_e d + (a_o - a_e) o
        d += d_odd
        parts = [(d, zT), (d_odd, z_odd)]
        coefficients[1] -= theta
    if not any(coefficients):
        return 0.0, None, zT
    # formed in the arrays of the previous step
    s, zs = previous
    b = coefficients.pop(len(parts))
    s *= b
    zs *= b
    for c, (x, zx) in zip(coefficients, [*parts, *remembered]):
        if c:
            s += c * x
            zs += c * zx
    return theta, previous, zT


def _take_odd_part(x: np.ndarray) -> np.ndarray:
    """The odd part (x - Rx) / 2 of a control or a field, R the reversal of
    its last axis; x is left holding the rest, its even part."""
    odd = x - x[..., ::-1]
    odd *= 0.5
    x -= odd
    return odd


def _resolved(problem: ControlProblem, part: np.ndarray, whole: np.ndarray) -> bool:
    """Whether a part of a swept response is above sqrt(cg_tol) of the whole
    (in the Omega norm): the sweep's error, about cg_tol of the whole, is
    then below sqrt(cg_tol) of the part."""
    grid = problem.grid
    return bool(inner_omega(grid, part, part) > problem.cg_tol * inner_omega(grid, whole, whole))


def _coefficients(
    problem: ControlProblem,
    v: np.ndarray,
    residual: np.ndarray,
    columns: list[tuple[np.ndarray, np.ndarray]],
) -> list[float]:
    """Coefficients c of the exact minimizer v + sum_i c_i x_i of J over
    the columns (x_i, z_i), controls and their responses.

    With H(x, y) = <z_x, z_y> + alpha <x, y>_H and q(x) = <r, z_x> +
    alpha <v, x>_H, they solve H c = -q.  One column takes the exact step
    -q(x) / H(x, x), or 0 when H(x, x) = 0.  Several are solved by
    ``linsolve._galerkin``'s pivoted Cholesky factorization in their order,
    which leaves out a column within about 5.7 degrees, in the norm of H, of
    the span of the ones it kept before it (``STEP_PIVOT``); its
    coefficient is 0.
    """
    grid, tg, alpha = problem.grid, problem.time_grid, problem.alpha

    def cost_inner(x, zx, y, zy):
        return float(inner_omega(grid, zx, zy) + alpha * inner_h(grid, tg, x, y))

    q = [-cost_inner(v, residual, x, zx) for x, zx in columns]
    if len(columns) == 1:
        h = cost_inner(*columns[0], *columns[0])
        return [q[0] / h if h else 0.0]
    gram = [[0.0] * len(columns) for _ in columns]
    for i, column in enumerate(columns):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = cost_inner(*column, *columns[j])
    return _galerkin(gram, range(len(columns)), q, STEP_PIVOT)


def targets_direction(
    problem: ControlProblem,
    partition: list[int],
    config: OuterConfig,
    g: np.ndarray,
    counter: MatvecCounter,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Steps 1-3 of the intermediate-targets method from the gradient g of
    the cost at the current control: d = v_tilde - v, and the line search's
    head, z at ``partition[1]``, or None.  Each sub-problem's update is
    written into its window of d as it comes.

    Each sub-problem counts its own products, and ``counter`` is charged
    them as concurrent solves: their sum in the sequential tally, the
    largest in the parallel one.  The head is sub-problem 0's response,
    which ``solve_subproblem`` returns when that sub-problem ran at
    ``cg_tol``: with one inner iteration or an inner gradient test, not with
    more inner iterations and no test."""
    d, counts = np.empty_like(g), []
    for sub in assemble_subproblems(problem, partition, g):
        own = MatvecCounter()
        d[sub.start:sub.end], response = solve_subproblem(
            sub, config.inner_iterations, own, config.inner_gradient_rtol)
        counts.append(own.count)
        if sub.index == 0:
            head = response
    counter.add_concurrent(counts)
    return d, head


def _sweep(
    problem: ControlProblem,
    partition: list[int],
    v: np.ndarray,
    y: np.ndarray,
    d: np.ndarray,
    head: np.ndarray | None,
    cost: float,
    counter: MatvecCounter,
    previous: tuple[np.ndarray, np.ndarray] | None,
    remembered: deque[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, float, tuple[np.ndarray, np.ndarray] | None]:
    """The step of one outer iteration from the final state y = y(T; v) and
    the cost J(v) of the control v, given the direction d and the head from
    ``targets_direction``: ``line_search``'s exact step over d, the previous
    step s, given as ``previous`` = (s, z_s(T)) or None, and the
    ``remembered`` directions, from the head when step 2 gives one.

    Returns (v_next, y_next, theta, step): the step taken is step = (s',
    z_s'(T)), the next iteration's ``previous``, with v_next = v + s' and
    y_next = y(T; v_next) = y + z_s'(T) through linearity, and theta the
    coefficient of d (of its even part, where d splits) in s'.  z_s' is
    carried as the combination of the columns' responses that s' is of the
    columns, not taken as y_next - y, which would lose the digits the two
    share.  A step taken puts d and its z(T) at the front of
    ``remembered``, a ring whose length bounds it, and which no later step
    writes.  When no descent step is found, step is None, theta is 0 and v,
    y come back unchanged.  ``previous``'s arrays are overwritten with the
    step.
    """
    theta, step, zT = line_search(problem, partition, v, d, y - problem.y_target, counter,
                                  head, previous, remembered)
    if step is None:
        return v, y, 0.0, None
    v_next, y_next = v + step[0], y + step[1]
    if _record(problem, v_next, y_next).cost <= cost:
        remembered.appendleft((d, zT))
        return v_next, y_next, theta, step
    # the exact step guarantees descent up to solver noise; keep the
    # previous iterate rather than take an uphill step
    return v, y, 0.0, None


def run(problem: ControlProblem, config: OuterConfig,
        start: np.ndarray | None = None) -> RunResult:
    """Iterate from ``start`` (v = 0 without one) until the true gradient norm
    test, a stall or max_outer.  From v = 0 the first state is
    ``free_evolution``'s.

    The stopping gradient is the one step 2 starts from, so it adds no extra
    cost; it is dropped once step 2 has read it, before the line-search
    sweep.  With two or more intervals each step after the first minimizes
    J over d (over its even and odd parts, on a point-symmetric patch), the
    previous step and the last ``REMEMBERED_DIRECTIONS`` directions, whose
    responses the loop carries; on one interval every step is the scalar
    step along d and no direction is remembered.  Row k of the history
    reports J(v^k) and the coefficient theta_k of d in the step taken at
    that iterate; matvec tallies are those accumulated when J(v^k) and its
    gradient became known.  The run stalls when ``_sweep`` takes no step.  A
    ``start`` not shaped like a control raises ValueError; a cost or
    gradient norm that overflows raises FloatingPointError.
    """
    grid, tg = problem.grid, problem.time_grid
    v = problem.zero_control()
    if start is not None:
        if np.shape(start) != v.shape:
            raise ValueError(f"start must have shape {v.shape}, got {np.shape(start)}")
        v = np.array(start, dtype=float)
    partition = make_partition(tg, config.n_intervals)
    counter = MatvecCounter()
    t0 = time.perf_counter()

    if np.any(v):
        y = solve_state(grid, tg, problem.y0, v, problem.nu, problem.cg_tol, counter, keep=-1)
    else:
        y = free_evolution(grid, tg, problem.y0, problem.nu, problem.cg_tol, counter)

    threshold = None
    history: list[IterationMetrics] = []
    converged = stalled = False
    previous = None
    # one interval keeps the scalar step, the optimal-step gradient method,
    # and so remembers nothing
    remembered = deque(maxlen=REMEMBERED_DIRECTIONS if config.n_intervals > 1 else 0)

    for k in range(config.max_outer + 1):
        g = gradient(problem, v, counter, final_state=y)
        with np.errstate(over="ignore"):
            rec = _record(problem, v, y)
            gnorm = norm_h(grid, tg, g)
        if not (np.isfinite(rec.cost) and np.isfinite(gnorm)):
            raise FloatingPointError(f"the cost or its gradient overflowed at iteration {k}")
        if threshold is None:
            threshold = config.gradient_rtol * (1.0 + gnorm)
        marks = (counter.count, counter.parallel, time.perf_counter() - t0)

        converged = gnorm <= threshold
        theta, step = 0.0, None
        if not converged and k < config.max_outer:
            d, head = targets_direction(problem, partition, config, g, counter)
            # the line-search sweep holds v, d, s and the remembered directions: the run's peak
            del g
            v, y, theta, step = _sweep(problem, partition, v, y, d, head, rec.cost, counter,
                                       previous, remembered)
            del d, head  # freed before the next adjoint sweep, unless remembered
            # no step leaves v unchanged: every later iteration would repeat this one
            stalled = step is None
        history.append(IterationMetrics(k, rec.cost, rec.misfit, rec.penalty, theta, *marks))
        if step is None:
            break
        if config.n_intervals > 1:
            previous = step

    return RunResult(v, history, converged, stalled)
