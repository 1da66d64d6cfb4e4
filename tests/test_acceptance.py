"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the slowest entry (criterion 6, the scaled 2D speedup benchmark)
takes a couple of minutes.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import heatctrl as hc
from heatctrl.cli import EXIT_MAX_ITER, EXIT_OK, main

from conftest import DESK_2D, explicit_subproblems, random_tiny_problem


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_baseline_matches_oracle():
    with criterion(1, "sequential baseline matches dense oracle on tiny instances"):
        rng = np.random.default_rng(101)
        for _ in range(5):
            prob = random_tiny_problem(rng)
            v_star, j_star = hc.oracle_kkt_solve(prob)
            # the loop the CLI runs in mode baseline: one interval, one
            # inner iteration
            cfg = hc.OuterConfig(n_intervals=1, max_outer=20000, gradient_rtol=1e-8)
            res = hc.run(prob, cfg)
            assert res.converged
            err = hc.norm_h(prob.grid, prob.time_grid, res.control - v_star)
            assert err <= 1e-6
            assert abs(res.history[-1].cost - j_star) <= 1e-8 * max(1.0, j_star)


def test_criterion_2_gradient_consistency():
    with criterion(2, "adjoint gradient matches central finite differences"):
        rng = np.random.default_rng(202)
        eps = 1e-5
        for _ in range(3):
            prob = random_tiny_problem(rng, cg_tol=1e-13)
            grid, tg = prob.grid, prob.time_grid
            counter = hc.MatvecCounter()
            for _ in range(20):
                v = rng.standard_normal((tg.step_count, grid.control_node_count))
                d = rng.standard_normal((tg.step_count, grid.control_node_count))
                g = hc.gradient(prob, v, counter)
                directional = hc.inner_h(grid, tg, g, d)
                jp = hc.evaluate(prob, v + eps * d, counter).cost
                jm = hc.evaluate(prob, v - eps * d, counter).cost
                fd = (jp - jm) / (2.0 * eps)
                assert abs(directional - fd) <= 1e-5 * abs(directional)


def test_criterion_3_restriction_optimality_and_fixed_point():
    with criterion(3, "sub-problem optimality at the optimum and outer fixed point"):
        rng = np.random.default_rng(303)
        prob = random_tiny_problem(rng, n_interior=5, steps=8)
        v_star, _ = hc.oracle_kkt_solve(prob)
        for n_intervals in (2, 4):
            part = hc.make_partition(prob.time_grid, n_intervals)
            for local, window, _ in explicit_subproblems(prob, part, v_star):
                g = hc.gradient(local, window, hc.MatvecCounter())
                assert hc.norm_h(local.grid, local.time_grid, g) <= 1e-8
        # one sweep from v*: a gradient test at rtol 1e-300 cannot end the run first
        cfg = hc.OuterConfig(n_intervals=4, inner_iterations=1, max_outer=1,
                             gradient_rtol=1e-300)
        v1 = hc.run(prob, cfg, start=v_star).control
        assert hc.norm_h(prob.grid, prob.time_grid, v1 - v_star) <= 1e-6


SCALED_BENCH = """
dim = 2
nodes_per_axis = 33,33
domain_bounds = 0,1,0,1
control_bounds = 0.3333333333333333,0.6666666666666666,0.3333333333333333,0.6666666666666666
T = 6.4
dt = 0.01
alpha = 1e-2
nu = 1e-2
y0 = gaussian(0.5,0.5,0.15,1.0)
y_target = indicator(0.3333333333333333,0.6666666666666666,0.3333333333333333,0.6666666666666666)
mode = both
N = 8
inner_iterations = 1
max_outer = 300
gradient_rtol = 1e-4
worker_count = 4
"""


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_criterion_4_monotone_descent(tmp_path):
    with criterion(4, "intermediate-targets cost trace is non-increasing"):
        cfg = tmp_path / "desk.cfg"
        cfg.write_text(DESK_2D)
        out = tmp_path / "desk.csv"
        code = main(["--config", str(cfg), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_MAX_ITER)
        costs = [float(r["J"]) for r in _read_csv(out)]
        assert len(costs) >= 5
        assert all(b <= a for a, b in zip(costs, costs[1:]))


def test_criterion_5_determinism_across_worker_counts(tmp_path):
    with criterion(5, "identical CSV for worker_count 1 and 4 (wall clock aside)"):
        cfg = tmp_path / "desk.cfg"
        cfg.write_text(DESK_2D)
        out1 = tmp_path / "w1.csv"
        out4 = tmp_path / "w4.csv"
        main(["--config", str(cfg), "--workers", "1", "--out", str(out1)])
        main(["--config", str(cfg), "--workers", "4", "--out", str(out4)])
        # wall_ms is physical timing and can never be bit-stable; every
        # numerical column must be
        strip = lambda p: [ln.rsplit(",", 1)[0] for ln in p.read_text().splitlines()]
        assert strip(out1) == strip(out4)


def test_criterion_6_scaled_speedup(tmp_path, capsys):
    with criterion(6, "matvec speedup >= 1.5 at matched cost, fewer outer iterations"):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(SCALED_BENCH)
        out = tmp_path / "bench.csv"
        code = main(["--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        parts = dict(tok.split("=") for tok in summary.split())
        assert parts["speedup"] != "n/a"
        assert float(parts["speedup"]) >= 1.5

        base = _read_csv(tmp_path / "bench_baseline.csv")
        inter = _read_csv(tmp_path / "bench_intermediate.csv")
        matched = 1.01 * float(base[-1]["J"])
        base_iter = next(int(r["iter"]) for r in base if float(r["J"]) <= matched)
        inter_iter = next(int(r["iter"]) for r in inter if float(r["J"]) <= matched)
        assert inter_iter < base_iter


def test_criterion_7_single_interval_degeneracy():
    with criterion(7, "N=1 with exact inner solve converges in one step, theta=1"):
        rng = np.random.default_rng(707)
        prob = random_tiny_problem(rng)
        cfg = hc.OuterConfig(n_intervals=1, inner_iterations=3000,
                             inner_gradient_rtol=1e-12, max_outer=10,
                             gradient_rtol=1e-8)
        res = hc.run(prob, cfg)
        assert res.converged
        assert len(res.history) == 2  # the initial iterate and the converged one
        assert res.history[0].theta == pytest.approx(1.0, abs=1e-6)
