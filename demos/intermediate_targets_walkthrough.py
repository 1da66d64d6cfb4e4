"""Walk through one outer sweep of the intermediate-targets method.

On a tiny 1D instance we (1) form the targets chi = y - p at the
breakpoints, (2) split the horizon into sub-intervals and solve the
independent local tracking problems one after another, each with its own
matvec count and starting from its window of the gradient the adjoint
already gave, (3) join the changes of their controls into d = v_tilde - v and
take the exact step along d.  The package never forms chi: by linearity a
sub-problem's gradient is its window of the outer gradient, plus alpha
times the change of its control, plus the adjoint of that change's
response, and the walkthrough checks that this gives the steps of a descent
on the sub-problems with the explicit targets.  Each descent step of a
sub-problem, and the line search, take the homogeneous state z(T) that a
control drives from zero from one Chebyshev pass over it, or, where no
degree up to 2 L bounds it, as on this stiff line, from a CG solve per
step.  It then runs the outer loop on three intervals, whose
later steps minimize J over d and the previous step, and on one, which is
the sequential baseline and keeps the step along d, and finally checks the
defining fixed-point property: starting from the exact optimum, the sweep
returns the optimum.
"""

import dataclasses

import numpy as np

import heatctrl as hc
from heatctrl.propagators import forced_response

rng = np.random.default_rng(42)

grid = hc.build_grid(1, 8, [(0.0, 1.0)], [(0.3, 0.7)])
time_grid = hc.TimeGrid(12, 1.2 / 12)
problem = hc.ControlProblem(
    grid=grid,
    time_grid=time_grid,
    y0=rng.standard_normal(grid.interior_node_count),
    y_target=rng.standard_normal(grid.interior_node_count),
    alpha=0.2,
    nu=0.6,
)

v_star, j_star = hc.oracle_kkt_solve(problem)
print(f"dense-oracle optimum: J* = {j_star:.8f}")

# --- one sweep by hand, starting from v = 0 -------------------------------
# a partition is the list of its breakpoint steps
partition = hc.make_partition(time_grid, 3)
print(f"partition breakpoint steps: {partition}, times: "
      f"{np.round([time_grid.dt * s for s in partition], 3)}")

# the run keeps y(T) and p on the control patch; the gradient alpha v + B* p
# is what step 2 starts from
counter = hc.MatvecCounter()
v = problem.zero_control()
y_final = hc.solve_state(grid, time_grid, problem.y0, v, problem.nu, problem.cg_tol, counter,
                         keep=-1)
g = hc.gradient(problem, v, counter, final_state=y_final)
print(f"gradient norm at v = 0: {hc.norm_h(grid, time_grid, g):.6f}")

# step 1, as the method states it: chi_n = y(t_n+1) - p(t_n+1), from the
# whole state and the whole adjoint p^(j-1) = K^-1 p^j (a side computation,
# charged to a counter of its own: the package does not form chi)
aside = hc.MatvecCounter()
y = hc.solve_state(grid, time_grid, problem.y0, v, problem.nu, problem.cg_tol, aside)
apply_k = hc.step_operator(grid, time_grid.dt, problem.nu)
p = [y[-1] - problem.y_target]
for _ in range(time_grid.step_count):
    p.append(hc.cg_solve(apply_k, p[-1], problem.cg_tol, aside))
p = np.array(p[::-1])
chi = y[partition[1:]] - p[partition[1:]]
chi[-1] = problem.y_target  # exact: chi(T) = y(T) - (y(T) - y_target)
for n, target in enumerate(chi):
    print(f"chi_{n} at t = {time_grid.dt * partition[n + 1]:g}: {np.round(target, 4)}")

# step 2: each sub-problem counts its own products; the parallel tally
# charges the costliest, as if each ran on its own processor.  Each returns
# the change of its control
subproblems = hc.assemble_subproblems(problem, partition, g)
updates, counts = [], []
for sub in subproblems:
    own = hc.MatvecCounter()
    update, _ = hc.solve_subproblem(sub, 1, own)  # one descent step
    updates.append(update)
    counts.append(own.count)
    print(f"sub-problem {sub.index} on [{time_grid.dt * sub.start:g}, "
          f"{time_grid.dt * sub.end:g}]: {own.count} matvecs")
counter.add_concurrent(counts)


def explicit_descent(local, window, iterations):
    """Steepest descent with the exact step on the sub-problem from
    y(t_n) towards chi_n: every gradient from a forward solve of its state
    and the adjoint from its misfit to chi_n."""
    control = window.copy()
    for _ in range(iterations):
        grad = hc.gradient(local, control, aside)
        z = forced_response(grid, local.time_grid, grad, local.nu, local.cg_tol, aside)
        gg = hc.inner_h(grid, local.time_grid, grad, grad)
        control = control - gg / (hc.inner_omega(grid, z, z) + local.alpha * gg) * grad
    return control - window


# two inner steps with an inner gradient test (which keeps step 2 at cg_tol)
# against two steps on the explicit targets: the same update up to rounding
for sub, target in zip(subproblems, chi):
    local = dataclasses.replace(sub.problem, y0=y[sub.start], y_target=target)
    update, _ = hc.solve_subproblem(sub, 2, hc.MatvecCounter(), gradient_rtol=1e-12)
    want = explicit_descent(local, v[sub.start:sub.end], 2)
    gap = hc.norm_h(grid, local.time_grid, update - want) / hc.norm_h(grid, local.time_grid, want)
    print(f"sub-problem {sub.index}, two inner steps: linear form against explicit "
          f"targets differs by {gap:.1e} relative")

d = np.concatenate(updates)
before = counter.count
theta, _, _ = hc.line_search(problem, v, d, y_final - problem.y_target, counter)
print(f"line search, z(T) of d from zero: {counter.count - before} matvecs")
v = v + theta * d
print(f"after one sweep: theta = {theta:.4f}, "
      f"J = {hc.evaluate(problem, v, counter).cost:.8f}")

# --- the full outer loop ---------------------------------------------------
# the first sweep is the one above; each later one minimizes J exactly over
# d and the previous step, whose response the loop carries
config = hc.OuterConfig(n_intervals=3, inner_iterations=1,
                        max_outer=100, gradient_rtol=1e-7)
result = hc.run(problem, config)
print(f"\nouter loop: converged={result.converged} "
      f"in {len(result.history) - 1} iterations, "
      f"J = {result.history[-1].cost:.8f}")
print(f"distance to oracle optimum: "
      f"{hc.norm_h(grid, time_grid, result.control - v_star):.2e}")

# the same loop on one interval with one inner iteration is the sequential
# baseline: its one sub-problem takes the optimal step along d = -g, and the
# loop keeps the scalar step along d
baseline = hc.run(problem, hc.OuterConfig(n_intervals=1, max_outer=100, gradient_rtol=1e-7))
print(f"baseline (one interval): converged={baseline.converged} "
      f"in {len(baseline.history) - 1} iterations, "
      f"matvecs {baseline.history[-1].matvec_sequential} against "
      f"{result.history[-1].matvec_parallel} (parallel tally)")

# --- fixed point -----------------------------------------------------------
# run from the optimum for one sweep; at rtol 1e-300 the gradient test
# cannot end the run before it
one_sweep = dataclasses.replace(config, max_outer=1, gradient_rtol=1e-300)
v_back = hc.run(problem, one_sweep, start=v_star).control
print(f"\nsweep from the optimum moves it by "
      f"{hc.norm_h(grid, time_grid, v_back - v_star):.2e} (fixed point)")
