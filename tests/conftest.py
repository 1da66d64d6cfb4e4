"""Shared fixtures and independent dense oracles.

The dense helpers here build matrices directly from the stencil and step
definitions with numpy factorizations; they never call the library's
matrix-free solvers, so they can serve as independent references.
"""

import numpy as np
import pytest

import heatctrl as hc


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


def breakpoint_targets(problem, partition, v):
    """y(v) at the N+1 breakpoints, the breakpoint targets chi of v and the
    gradient alpha v + B* p at v, from one forward and one adjoint solve."""
    grid, tg = problem.grid, problem.time_grid
    counter = hc.MatvecCounter()
    y = hc.solve_state(grid, tg, problem.y0, v, problem.nu, problem.cg_tol, counter,
                       keep=partition)
    p, patch = hc.solve_adjoint(grid, tg, y[-1] - problem.y_target, problem.nu,
                                problem.cg_tol, counter, keep=partition[1:])
    g = problem.alpha * v + patch[:-1]
    return y, hc.targets_from_solutions(problem, partition, y, p), g


def step2_subproblems(problem, partition, v):
    """Step 2's sub-problems of the control v."""
    y, chi, g = breakpoint_targets(problem, partition, v)
    return hc.assemble_subproblems(problem, v, partition, y, chi, g)


def reference_descent(problem, v_init, iterations, counter, gradient_rtol, final_state,
                      gradient=None):
    """Steepest descent with the exact step as a plain 1D loop; returns the
    update (the change of the control), its response (the change of the
    final state) and the number of steps taken.

    The update and response are what ``optimal_step_gradient`` must
    reproduce bit for bit; with a zero ``v_init`` the update is the control
    that ``run`` on one interval with one inner iteration, the sequential
    baseline, must reach up to rounding.
    ``gradient``, the gradient at v_init, stands for the descent's
    ``g_init``; without it the loop solves for it.  No gradient is solved
    for after the last iteration, which no test would read."""
    grid, tg = problem.grid, problem.time_grid
    v = np.array(v_init, dtype=float, copy=True)
    update, response = np.zeros_like(v), grid.zero_field()
    g = gradient
    if g is None:
        g = hc.gradient(problem, v, counter, final_state=final_state)
    threshold = None
    if gradient_rtol is not None:
        threshold = gradient_rtol * (1.0 + hc.norm_h(grid, tg, g))
    steps = 0
    for it in range(iterations):
        gnorm2 = hc.inner_h(grid, tg, g, g)
        if gnorm2 == 0.0 or (threshold is not None and np.sqrt(gnorm2) <= threshold):
            break
        zT = hc.solve_state(grid, tg, grid.zero_field(), g, problem.nu, problem.cg_tol,
                            counter, keep=-1)
        denom = hc.inner_omega(grid, zT, zT) + problem.alpha * gnorm2
        if denom == 0.0:
            break
        sigma = gnorm2 / denom
        v = v - sigma * g
        update = update - sigma * g
        steps += 1
        final_state = final_state - sigma * zT
        response = response - sigma * zT
        if it == iterations - 1:
            break
        g = hc.gradient(problem, v, counter, final_state=final_state)
        if threshold is not None and hc.norm_h(grid, tg, g) <= threshold:
            break
    return update, response, steps


def break_step2_solves(monkeypatch, broken):
    """Make every ``cg_solve`` of step 2's sub-problem ``broken`` raise a
    synthetic ``CGError``; the other solves run as before."""
    import heatctrl.driver as driver
    import heatctrl.propagators as propagators

    solving = [None]  # the index of the sub-problem being solved

    def tracked(sub, *args, real=driver.solve_subproblem, **kwargs):
        solving[0] = sub.index
        try:
            return real(sub, *args, **kwargs)
        finally:
            solving[0] = None

    def breaking(apply_a, b, *args, real=propagators.cg_solve, **kwargs):
        if solving[0] == broken:
            raise hc.CGError("synthetic breakdown")
        return real(apply_a, b, *args, **kwargs)

    monkeypatch.setattr(driver, "solve_subproblem", tracked)
    monkeypatch.setattr(propagators, "cg_solve", breaking)


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
