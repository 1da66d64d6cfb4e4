"""Sanity-check the adjoint gradient against central finite differences.

The backward recursion is the exact transpose of the implicit-Euler forward
map, so the adjoint gradient should agree with finite differences down to
the differencing noise floor.
"""

import numpy as np

import heatctrl as hc

rng = np.random.default_rng(1)

grid = hc.build_grid(1, 9, [(0.0, 1.0)], [(0.25, 0.75)])
time_grid = hc.TimeGrid(10, 1.0 / 10)
problem = hc.ControlProblem(
    grid=grid,
    time_grid=time_grid,
    y0=rng.standard_normal(grid.interior_node_count),
    y_target=rng.standard_normal(grid.interior_node_count),
    alpha=0.1,
    nu=0.5,
    cg_tol=1e-13,
)

counter = hc.MatvecCounter()
shape = (time_grid.step_count, grid.control_node_count)

print("eps        adjoint <g,d>       finite diff         rel. error")
for eps in [1e-3, 1e-4, 1e-5, 1e-6]:
    v = rng.standard_normal(shape)
    d = rng.standard_normal(shape)
    g = hc.gradient(problem, v, counter)
    directional = hc.inner_h(grid, time_grid, g, d)
    jp = hc.evaluate(problem, v + eps * d, counter).cost
    jm = hc.evaluate(problem, v - eps * d, counter).cost
    fd = (jp - jm) / (2 * eps)
    print(f"{eps:8.0e}  {directional: .12e}  {fd: .12e}  "
          f"{abs(directional - fd) / abs(directional):.2e}")

print(f"\ntotal matrix-vector products: {counter.count}")
