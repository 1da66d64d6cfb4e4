"""Desk-scale 2D benchmark: baseline gradient descent vs. intermediate targets.

Writes two CSV traces next to this script and prints the matvec speedup at
matched final cost.  A larger version of the same experiment (33x33 grid,
640 steps) is the speedup acceptance check in tests/test_acceptance.py.
Step 2 runs its sub-problems as one batched solve in this process, so the
config sets no ``worker_count``: that key is still accepted but has no effect.
"""

from pathlib import Path

from heatctrl.cli import main

here = Path(__file__).parent
cfg = here / "speedup_benchmark.cfg"
cfg.write_text("""\
dim = 2
nodes_per_axis = 25,25
domain_bounds = 0,1,0,1
control_bounds = 0.3333333333333333,0.6666666666666666,0.3333333333333333,0.6666666666666666
T = 3.2
dt = 0.02
alpha = 1e-2
nu = 1e-2
y0 = gaussian(0.5,0.5,0.15,1.0)
y_target = indicator(0.3333333333333333,0.6666666666666666,0.3333333333333333,0.6666666666666666)
mode = both
N = 8
inner_iterations = 1
max_outer = 200
gradient_rtol = 1e-4
""")

code = main(["--config", str(cfg), "--out", str(here / "speedup.csv")])
print(f"exit code: {code}")
print(f"traces: {here / 'speedup_baseline.csv'} and "
      f"{here / 'speedup_intermediate.csv'}")
