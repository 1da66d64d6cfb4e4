"""Time partitioning and the intermediate-target sub-problems.

A partition is the list of its N+1 breakpoint steps, from 0 to the step
count; breakpoint step s is at time dt * s.  In the method, sub-problem n
starts from y(t_n) and drives the state at its right breakpoint towards the
target chi_n = y(t_{n+1}) - p(t_{n+1}), with chi_N the global target.  The
code reaches the same sub-problem by linearity and forms neither chi nor y
at the inner breakpoints.  At the current control the sub-problem's misfit
is y(t_{n+1}) - chi_n = p(t_{n+1}), so its gradient is the window of the
outer gradient g; after an update u the misfit is p(t_{n+1}) plus the
response of u, the state u drives from zero, so its gradient is the window
of g plus alpha u plus the adjoint of that response
(``problem.optimal_step_gradient``).  A sub-problem therefore carries its
window of g and its step count, and nothing else of the run's state.
A sub-problem's time grid is ``TimeGrid(count, dt)``, its step count with the
outer dt, so every sub-problem steps with the outer dt by construction.

Each sub-problem is one ``ControlProblem`` and ``solve_subproblem`` solves
one of them, charging its own products to a counter of its own: the caller
loops over them and charges the counts as concurrent solves.

The sub-problems only shape the search direction d = v_tilde - v, which the
outer exact step rescales and combines with the previous step and the last
three directions, so without an inner gradient test of their own their
solves run at ``DIRECTION_CG_TOL`` = 1e-3 (or the problem's ``cg_tol``, if
looser): each forward Chebyshev pass is certified to that relative
accuracy, and each adjoint pass stops there.  An inexact step 2 is a
variable preconditioner of the outer flexible CG, and d is off by at most
about that much relative in the H-norm.  With an inner gradient test they
keep ``cg_tol``, since that test reads their gradients.  The one sub-problem of a run on one interval keeps ``cg_tol``
at one inner iteration too: it spans the whole horizon from zero, so its
one forward solve, scaled by -sigma, is the line search's z(T), and a solve
at ``cg_tol`` returns its response for that purpose.  On two or more
intervals the line search takes z(T) from a Chebyshev pass over d
(``propagators.forced_response``), and sub-problem 0 loosens like the
others.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linsolve import CGError, MatvecCounter
from .problem import ControlProblem, optimal_step_gradient
from .propagators import TimeGrid


def make_partition(time_grid: TimeGrid, n_intervals: int) -> list[int]:
    """The split of the time grid into n_intervals blocks of whole steps, as
    the list of its N+1 breakpoint steps: a list indexes the state sweep's
    step axis (``keep``) by step, where a tuple would index one axis per
    entry.

    When the step count is not divisible, leading intervals absorb one extra
    step each.
    """
    if not 1 <= n_intervals <= time_grid.step_count:
        raise ValueError(
            f"need 1 <= n_intervals <= {time_grid.step_count}, got {n_intervals}"
        )
    base, rem = divmod(time_grid.step_count, n_intervals)
    return [k * base + min(k, rem) for k in range(n_intervals + 1)]


# tolerance of step 2's solves when the inner descent has no gradient test,
# except the one sub-problem's of a run on one interval at one inner
# iteration, whose response is the line search's z(T).  d then carries an
# error of about 1e-4 relative in the H-norm (0.13e-3 and 0.17e-3 at the
# first iterate of the 33 x 33 and 65 x 65 benchmarks at seed 0), which the
# outer step absorbs: it minimizes J exactly over d, the previous step and
# the last three directions, flexible CG with step 2 as a variable
# preconditioner.  At seed 0 both benchmarks and criterion 6 take as many
# outer iterations here as at 1e-6 and at cg_tol = 1e-10, and step 2 takes
# 0.47 and 2.43 products a step on the two benchmarks, against 0.77 and 15.7
# at 1e-6 and 1.12 and 27.7 at 1e-10: at either of those no 10-step window
# of the 65 x 65 benchmark certifies its forced response, and each is left
# to the CG sweep
DIRECTION_CG_TOL = 1e-3


@dataclass(frozen=True)
class SubProblem:
    """Sub-problem ``index`` of step 2, on the steps ``start`` .. ``end``."""

    index: int
    start: int
    end: int
    # the outer problem on the window's steps, with the outer dt; its y0 and
    # y_target are the outer ones, which the inner descent does not read
    problem: ControlProblem
    # (steps, m): the outer gradient on the window, the sub-problem's gradient
    # at the current control, which the inner descent starts from
    warm_gradient: np.ndarray
    # whether the window is the whole horizon, the one interval of a run
    whole: bool = False


def assemble_subproblems(problem: ControlProblem, partition: list[int],
                         g: np.ndarray) -> list[SubProblem]:
    """Step 2's N sub-problems from the gradient g of the cost at the current
    control; each one's ``warm_gradient`` is a view of g."""
    dt = problem.time_grid.dt
    whole = len(partition) == 2
    return [SubProblem(n, a, b, replace(problem, time_grid=TimeGrid(b - a, dt)), g[a:b], whole)
            for n, (a, b) in enumerate(zip(partition, partition[1:]))]


def solve_subproblem(
    sub: SubProblem,
    inner_iterations: int,
    counter: MatvecCounter,
    gradient_rtol: float | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The inner descent of one sub-problem: the change of its local
    control, its window of d, and, when its solves ran at ``cg_tol``, its
    response (else None).

    The response is the homogeneous state driven by that change, at the
    right breakpoint (``optimal_step_gradient``).  For a sub-problem that
    spans the whole horizon it is the line search's z(T).  ``counter`` is charged the
    sub-problem's own products.  The descent reads the sub-problem's view of
    the run's g and does not write it.  A ``CGError`` names
    the sub-problem and its interval, and keeps its type: the CLI maps it to
    an exit code.

    Without ``gradient_rtol`` the solves run at ``max(cg_tol,
    DIRECTION_CG_TOL)``: only the direction depends on them, and the caller's
    line search, cost and gradient stay at ``cg_tol``.  The one sub-problem
    of a run on one interval, at one inner iteration, is the exception: its
    one forward solve also gives the line search z(T), so it runs at
    ``cg_tol``.  With
    ``gradient_rtol`` every solve runs at ``cg_tol``, so the inner stopping
    test reads accurate gradients.
    """
    local = sub.problem
    exact = gradient_rtol is not None or (sub.whole and inner_iterations == 1)
    if not exact:
        local = replace(local, cg_tol=max(local.cg_tol, DIRECTION_CG_TOL))
    try:
        update, response = optimal_step_gradient(local, sub.warm_gradient, inner_iterations,
                                                 counter, gradient_rtol=gradient_rtol)
    except CGError as exc:
        dt = local.time_grid.dt
        raise CGError(f"sub-problem {sub.index} on [{dt * sub.start:g}, {dt * sub.end:g}]: "
                      f"{exc}") from exc
    return update, response if exact else None
