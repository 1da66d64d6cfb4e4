"""Shared fixtures and independent dense oracles.

The dense helpers here build matrices directly from the stencil and step
definitions with numpy factorizations; they never call the library's
matrix-free solvers, so they can serve as independent references.  The
helpers that state the method's sub-problems and descents do call the
solvers: they are references for how the package combines them.
"""

import dataclasses

import numpy as np
import pytest

import heatctrl as hc
from heatctrl.linsolve import inverse_powers
from heatctrl.propagators import forced_response


# the desk-scale 2D instance of acceptance criteria 4 and 5
DESK_2D = """
dim = 2
nodes_per_axis = 17,17
domain_bounds = 0,1,0,1
control_bounds = 0.3333333333333333,0.6666666666666666,0.3333333333333333,0.6666666666666666
T = 1.6
dt = 0.02
alpha = 1e-2
nu = 1e-2
y0 = gaussian(0.5,0.5,0.15,1.0)
y_target = indicator(0.3333333333333333,0.6666666666666666,0.3333333333333333,0.6666666666666666)
mode = intermediate-targets
N = 8
max_outer = 40
gradient_rtol = 1e-3
"""


def dense_laplacian_1d(n: int, h: float) -> np.ndarray:
    """Dirichlet 3-point Laplacian on n interior nodes, assembled directly."""
    L = np.zeros((n, n))
    for i in range(n):
        L[i, i] = -2.0
        if i > 0:
            L[i, i - 1] = 1.0
        if i < n - 1:
            L[i, i + 1] = 1.0
    return L / h**2


def dense_laplacian(grid: hc.Grid) -> np.ndarray:
    """Dense Laplacian for a 1D or 2D grid via Kronecker assembly."""
    if grid.dim == 1:
        return dense_laplacian_1d(grid.interior_shape[0], grid.spacing[0])
    n0, n1 = grid.interior_shape
    L0 = dense_laplacian_1d(n0, grid.spacing[0])
    L1 = dense_laplacian_1d(n1, grid.spacing[1])
    return np.kron(L0, np.eye(n1)) + np.kron(np.eye(n0), L1)


def dense_injection(grid: hc.Grid) -> np.ndarray:
    B = np.zeros((grid.interior_node_count, grid.control_node_count))
    for col, node in enumerate(grid.control_mask):
        B[node, col] = 1.0
    return B


def dense_state_solve(grid, time_grid, y0, v, nu):
    """Implicit-Euler recursion with dense LU solves."""
    K = np.eye(grid.interior_node_count) - time_grid.dt * nu * dense_laplacian(grid)
    B = dense_injection(grid)
    y = [np.asarray(y0, dtype=float)]
    for j in range(time_grid.step_count):
        rhs = y[-1] + time_grid.dt * (B @ v[j])
        y.append(np.linalg.solve(K, rhs))
    return np.array(y)


def dense_adjoint_solve(grid, time_grid, terminal, nu):
    K = np.eye(grid.interior_node_count) - time_grid.dt * nu * dense_laplacian(grid)
    p = [np.asarray(terminal, dtype=float)]
    for _ in range(time_grid.step_count):
        p.append(np.linalg.solve(K, p[-1]))
    return np.array(p[::-1])


def dense_cost(grid, time_grid, y0, y_target, alpha, nu, v):
    y = dense_state_solve(grid, time_grid, y0, v, nu)
    r = y[-1] - y_target
    w = grid.node_weight
    misfit = 0.5 * w * float(r @ r)
    penalty = 0.5 * alpha * time_grid.dt * w * float(np.sum(v * v))
    return misfit + penalty


def random_tiny_problem(rng, n_interior=None, steps=None, cg_tol=1e-12):
    """Random well-conditioned 1D instance (3-8 interior nodes, 4-16 steps)."""
    if n_interior is None:
        n_interior = int(rng.integers(3, 9))
    if steps is None:
        steps = int(rng.integers(4, 17))
    lo, hi = 0.2, 0.8
    grid = hc.build_grid(1, n_interior + 2, [(0.0, 1.0)], [(lo, hi)])
    time_grid = hc.TimeGrid(steps, float(rng.uniform(0.5, 1.5)) / steps)
    problem = hc.ControlProblem(
        grid=grid,
        time_grid=time_grid,
        y0=rng.standard_normal(grid.interior_node_count),
        y_target=rng.standard_normal(grid.interior_node_count),
        alpha=float(rng.uniform(0.1, 0.5)),
        nu=float(rng.uniform(0.3, 1.0)),
        cg_tol=cg_tol,
    )
    return problem


def thirteen_step_problem(dim, rng, cg_tol):
    """A random instance with 13 steps: a 1D line of 6 interior nodes, or a
    5 x 5 interior with a 3 x 3 control patch."""
    if dim == 1:
        return random_tiny_problem(rng, n_interior=6, steps=13, cg_tol=cg_tol)
    grid = hc.build_grid(2, 7, [(0.0, 1.0)] * 2, [(0.25, 0.75)] * 2)
    return hc.ControlProblem(grid=grid, time_grid=hc.TimeGrid(13, 0.05),
                             y0=rng.standard_normal(grid.interior_node_count),
                             y_target=rng.standard_normal(grid.interior_node_count),
                             alpha=0.2, nu=0.5, cg_tol=cg_tol)


def adjoint_fields(grid, time_grid, terminal, nu, tol, counter):
    """The whole adjoint p^j = K^-(N-j) terminal for j = 0..N, of shape
    (N+1, n): the Lanczos pass of ``solve_adjoint`` with every node as its
    mask, for the tests that read p off the control patch."""
    every_node = np.arange(grid.interior_node_count)
    powers = inverse_powers(hc.step_operator(grid, time_grid.dt, nu), terminal,
                            time_grid.step_count, tol, counter, every_node)
    return powers[::-1]


def explicit_subproblems(problem, partition, v):
    """Step 2's sub-problems of the control v as the method states them, the
    reference for the package's linear form: for each window [t_n, t_n+1],
    the triple (the tracking problem on its steps from y0 = y(t_n) towards
    chi_n = y(t_n+1) - p(t_n+1), with chi_N = y_target; v on the window; and
    y(t_n+1), that problem's final state under it), from whole-field state
    and adjoint sweeps."""
    grid, tg = problem.grid, problem.time_grid
    counter = hc.MatvecCounter()
    y = hc.solve_state(grid, tg, problem.y0, v, problem.nu, problem.cg_tol, counter)
    chi = y - adjoint_fields(grid, tg, y[-1] - problem.y_target, problem.nu, problem.cg_tol,
                             counter)
    chi[-1] = problem.y_target  # exact: chi(T) = y(T) - (y(T) - y_target)
    return [(dataclasses.replace(problem, time_grid=hc.TimeGrid(b - a, tg.dt), y0=y[a],
                                 y_target=chi[b]), v[a:b], y[b])
            for a, b in zip(partition, partition[1:])]


def reference_descent(problem, g_init, iterations, counter, gradient_rtol,
                      next_gradient=None):
    """Steepest descent with the exact step as a plain loop, from a control
    whose gradient is ``g_init``; returns the update (the change of the
    control), its response (the change of the final state), the number of
    steps taken and the gradients the descent read, ``g_init`` first.

    ``next_gradient(update, response)`` is the gradient after an update.  By
    default it is the linear form the package uses, g_init + alpha update +
    B* p from the response: then the update and response are what
    ``optimal_step_gradient`` must reproduce bit for bit, and with a zero
    start the update is the control that ``run`` on one interval with one
    inner iteration, the sequential baseline, must reach up to rounding.
    No gradient is solved for after the last iteration, which no test would
    read."""
    grid, tg = problem.grid, problem.time_grid
    if next_gradient is None:
        def next_gradient(update, response):
            patch = hc.solve_adjoint(grid, tg, response, problem.nu, problem.cg_tol, counter)
            return g_init + problem.alpha * update + patch[:-1]
    g = np.array(g_init, dtype=float)
    gradients = [g]
    update, response = np.zeros_like(g), grid.zero_field()
    threshold = None
    if gradient_rtol is not None:
        threshold = gradient_rtol * (1.0 + hc.norm_h(grid, tg, g))
    steps = 0
    for it in range(iterations):
        gnorm2 = hc.inner_h(grid, tg, g, g)
        if gnorm2 == 0.0 or (threshold is not None and np.sqrt(gnorm2) <= threshold):
            break
        zT = forced_response(grid, tg, g, problem.nu, problem.cg_tol, counter)
        denom = hc.inner_omega(grid, zT, zT) + problem.alpha * gnorm2
        if denom == 0.0:
            break
        sigma = gnorm2 / denom
        update = update - sigma * g
        response = response - sigma * zT
        steps += 1
        if it == iterations - 1:
            break
        g = next_gradient(update, response)
        gradients.append(g)
    return update, response, steps, gradients


def explicit_descent(problem, v_init, iterations, counter, gradient_rtol):
    """``reference_descent`` on ``problem`` as stated, from the control
    ``v_init``: every gradient comes from a forward solve of the state from
    y0 and the adjoint from y(T) - y_target."""
    return reference_descent(problem, hc.gradient(problem, v_init, counter), iterations,
                             counter, gradient_rtol,
                             lambda update, _: hc.gradient(problem, v_init + update, counter))


def subspace_minimizer(problem, v, columns, threshold, final_state=None, responses=None):
    """The minimizer of J over v + span(kept columns) and the coefficients
    of all columns, 0 on those left out, from the final state of v and the
    responses of the columns, each solved at cg_tol = 1e-13 unless given.

    H c = -q are the normal equations of J over the columns.  A column is
    left out, in order, when its squared distance in the norm of H from the
    span of the kept columns before it is at most ``threshold`` of its
    squared norm: the outer step's rule, and a way past columns that are
    dependent up to rounding, such as a previous step along a remembered
    direction."""
    grid, tg, counter = problem.grid, problem.time_grid, hc.MatvecCounter()
    tight = dataclasses.replace(problem, cg_tol=1e-13)
    if final_state is None:
        final_state = hc.evaluate(tight, v, counter).final_state
    r = final_state - problem.y_target
    zs = responses or [hc.solve_state(grid, tg, grid.zero_field(), u, problem.nu, 1e-13,
                                      counter, keep=-1) for u in columns]
    H = np.array([[hc.inner_omega(grid, zi, zj) + problem.alpha * hc.inner_h(grid, tg, ui, uj)
                   for uj, zj in zip(columns, zs)] for ui, zi in zip(columns, zs)])
    q = np.array([hc.inner_omega(grid, r, zi) + problem.alpha * hc.inner_h(grid, tg, v, ui)
                  for ui, zi in zip(columns, zs)])
    kept = []
    for i in range(len(columns)):
        distance = H[i, i]
        if kept:
            distance -= H[i, kept] @ np.linalg.solve(H[np.ix_(kept, kept)], H[kept, i])
        if distance > threshold * H[i, i]:
            kept.append(i)
    c = np.zeros(len(columns))
    c[kept] = np.linalg.solve(H[np.ix_(kept, kept)], -q[kept])
    return v + sum(ci * u for ci, u in zip(c, columns)), c


def break_step2_solves(monkeypatch, broken):
    """Make every stencil product made while step 2's sub-problem ``broken``
    is solved raise a synthetic ``CGError``, so that its Chebyshev pass and
    the CG sweep it would fall back to both fail; the other solves run as
    before."""
    import heatctrl.driver as driver
    import heatctrl.propagators as propagators

    solving = [None]  # the index of the sub-problem being solved

    def tracked(sub, *args, real=driver.solve_subproblem, **kwargs):
        solving[0] = sub.index
        try:
            return real(sub, *args, **kwargs)
        finally:
            solving[0] = None

    def breaking(grid, u, real=propagators.laplacian_apply, **buffers):
        if solving[0] == broken:
            raise hc.CGError("synthetic breakdown")
        return real(grid, u, **buffers)

    monkeypatch.setattr(driver, "solve_subproblem", tracked)
    monkeypatch.setattr(propagators, "laplacian_apply", breaking)


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


@pytest.fixture
def tiny_problem(rng):
    return random_tiny_problem(rng, n_interior=5, steps=8)


def cg_adjoint_recursion(grid, time_grid, terminal, nu, tol, counter):
    """The adjoint as a CG solve per step, p^{j-1} = K^-1 p^j, each started
    from p^j: the per-step recursion the Krylov sweep replaces."""
    apply_k = hc.step_operator(grid, time_grid.dt, nu)
    p = [np.asarray(terminal, dtype=float)]
    for _ in range(time_grid.step_count):
        p.append(hc.cg_solve(apply_k, p[-1], tol, counter, x0=p[-1]).copy())
    return np.array(p[::-1])
