"""Walk through one outer sweep of the intermediate-targets method.

On a tiny 1D instance we (1) compute the targets chi = y - p at the
breakpoints, (2) split the horizon into sub-intervals and solve the
independent local tracking problems as one batch, starting from the windows
of the gradient the adjoint already gave, (3) join their controls
into v_tilde and line-search along v_tilde - v.  It then runs the outer loop
with this rule and with the baseline's rule d = -g, and finally checks the
defining fixed-point property: starting from the exact optimum, the sweep
returns the optimum.
"""

import dataclasses

import numpy as np

import heatctrl as hc

rng = np.random.default_rng(42)

grid = hc.build_grid(1, 8, [(0.0, 1.0)], [(0.3, 0.7)])
time_grid = hc.TimeGrid(0.0, 1.2, 12)
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
partition = hc.make_partition(time_grid, 3)
print(f"partition breakpoints: {np.round(partition.breakpoints, 3)}")

# the method reads y only at the breakpoints and p at the right breakpoints
# and on the control patch, so the sweeps keep only those
at = partition.breakpoint_steps
counter = hc.MatvecCounter()
v = problem.zero_control()
y = hc.solve_state(grid, time_grid, problem.y0, v, problem.nu, problem.cg_tol, counter,
                   keep=at)
p, p_patch = hc.solve_adjoint(grid, time_grid, y[-1] - problem.y_target, problem.nu,
                              problem.cg_tol, counter, keep=at[1:])
chi = hc.targets_from_solutions(problem, partition, y, p)
print("targets chi(t_n) computed; chi(T) equals y_target:",
      np.array_equal(chi[-1], problem.y_target))
# the gradient alpha v + B* p; each sub-problem's local adjoint would
# recompute its window, so step 2 starts from it
g = problem.alpha * v + p_patch[:-1]
print(f"gradient norm at v = 0: {hc.norm_h(grid, time_grid, g):.6f}")

batches = hc.assemble_subproblems(problem, v, partition, y, chi, g)
print(f"sub-problems in batches starting at {[b.first for b in batches]}")
v_tilde = hc.solve_subproblem(batches, 1, counter)  # one descent per batch
theta, _ = hc.line_search_theta(problem, partition, v, v_tilde - v,
                                y[-1] - problem.y_target, counter)
v = v + theta * (v_tilde - v)
print(f"after one sweep: theta = {theta:.4f}, "
      f"J = {hc.evaluate(problem, v, counter).cost:.8f}")

# --- the full outer loop ---------------------------------------------------
config = hc.OuterConfig(n_intervals=3, inner_iterations=1,
                        max_outer=100, gradient_rtol=1e-7)
result = hc.run(problem, config)
print(f"\nouter loop: converged={result.converged} "
      f"in {len(result.history) - 1} iterations, "
      f"J = {result.history[-1].cost:.8f}")
print(f"distance to oracle optimum: "
      f"{hc.norm_h(grid, time_grid, result.control - v_star):.2e}")

# the same loop with the steepest rule d = -g is the sequential baseline
baseline = hc.run(problem, hc.OuterConfig(n_intervals=1, max_outer=100, gradient_rtol=1e-7),
                  hc.steepest_direction)
print(f"baseline (steepest rule): converged={baseline.converged} "
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
