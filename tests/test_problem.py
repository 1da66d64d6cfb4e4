import dataclasses

import numpy as np
import pytest

import heatctrl as hc

from conftest import dense_cost, random_tiny_problem, reference_descent


def _free_evolution_problem(rng, alpha=0.2, nu=0.5):
    """Instance whose target is the uncontrolled evolution of y0 (optimum v*=0)."""
    g = hc.build_grid(1, 7, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(0.0, 1.0, 8)
    y0 = rng.standard_normal(5)
    y_free = hc.solve_state(g, tg, y0, np.zeros((8, g.control_node_count)),
                            nu, hc.problem.DEFAULT_CG_TOL, hc.MatvecCounter())
    return hc.ControlProblem(grid=g, time_grid=tg, y0=y0, y_target=y_free[-1],
                             alpha=alpha, nu=nu)


def test_evaluate_zero_control_zero_state(rng):
    g = hc.build_grid(1, 6, [(0.0, 1.0)], [(0.0, 1.0)])
    tg = hc.TimeGrid(0.0, 1.0, 5)
    target = rng.standard_normal(4)
    prob = hc.ControlProblem(grid=g, time_grid=tg, y0=np.zeros(4),
                             y_target=target, alpha=0.3, nu=0.4)
    rec = hc.evaluate(prob, prob.zero_control(), hc.MatvecCounter())
    assert rec.cost == pytest.approx(0.5 * hc.inner_omega(g, target, target), rel=1e-14)
    assert rec.penalty == 0.0


def test_evaluate_free_evolution_target_costs_nothing(rng):
    prob = _free_evolution_problem(rng)
    rec = hc.evaluate(prob, prob.zero_control(), hc.MatvecCounter())
    assert rec.cost == 0.0


def test_evaluate_matches_dense_reimplementation(rng):
    prob = random_tiny_problem(rng, n_interior=3, steps=4, cg_tol=1e-14)
    v = rng.standard_normal((4, prob.grid.control_node_count))
    rec = hc.evaluate(prob, v, hc.MatvecCounter())
    ref = dense_cost(prob.grid, prob.time_grid, prob.y0, prob.y_target,
                     prob.alpha, prob.nu, v)
    assert rec.cost == pytest.approx(ref, rel=1e-12)
    assert rec.cost == pytest.approx(rec.misfit + rec.penalty, rel=1e-15)


def test_gradient_vanishes_at_oracle_optimum(rng):
    prob = random_tiny_problem(rng)
    v_star, _ = hc.oracle_kkt_solve(prob)
    g = hc.gradient(prob, v_star, hc.MatvecCounter())
    gn = hc.norm_h(prob.grid, prob.time_grid, g)
    vn = hc.norm_h(prob.grid, prob.time_grid, v_star)
    assert gn <= 1e-8 * (1.0 + vn)


def test_gradient_zero_for_free_evolution_target(rng):
    prob = _free_evolution_problem(rng)
    g = hc.gradient(prob, prob.zero_control(), hc.MatvecCounter())
    assert np.array_equal(g, np.zeros_like(g))


def test_gradient_matches_central_differences(rng):
    prob = random_tiny_problem(rng, n_interior=4, steps=6, cg_tol=1e-13)
    grid, tg = prob.grid, prob.time_grid
    eps = 1e-5
    counter = hc.MatvecCounter()
    for _ in range(20):
        v = rng.standard_normal((tg.step_count, grid.control_node_count))
        d = rng.standard_normal((tg.step_count, grid.control_node_count))
        g = hc.gradient(prob, v, counter)
        directional = hc.inner_h(grid, tg, g, d)
        jp = hc.evaluate(prob, v + eps * d, counter).cost
        jm = hc.evaluate(prob, v - eps * d, counter).cost
        fd = (jp - jm) / (2.0 * eps)
        assert abs(directional - fd) <= 1e-6 * abs(directional)


def test_optimal_step_fixed_point_at_optimum(rng):
    prob = random_tiny_problem(rng)
    v_star, _ = hc.oracle_kkt_solve(prob)
    counter = hc.MatvecCounter()
    final = hc.evaluate(prob, v_star, counter).final_state
    g = hc.gradient(prob, v_star, counter, final_state=final)
    controls, stopped = hc.optimal_step_gradient(hc.ControlProblem.stack([prob]), v_star[None],
                                                 final[None], g[None], 5, hc.MatvecCounter(),
                                                 gradient_rtol=1e-7)
    assert stopped.tolist() == [True]
    np.testing.assert_allclose(controls[0], v_star, rtol=0, atol=1e-10)


def _steepest_run(prob, max_outer, gradient_rtol):
    """The sequential baseline: ``run`` with the steepest rule on one interval."""
    cfg = hc.OuterConfig(n_intervals=1, max_outer=max_outer, gradient_rtol=gradient_rtol)
    return hc.run(prob, cfg, hc.steepest_direction)


def test_one_step_strictly_decreases_cost(rng):
    prob = random_tiny_problem(rng)
    res = _steepest_run(prob, 1, 1e-6)
    assert len(res.history) == 2
    assert res.history[-1].cost < res.history[0].cost


def test_descent_reaches_oracle_cost(rng):
    prob = random_tiny_problem(rng)
    _, j_star = hc.oracle_kkt_solve(prob)
    res = _steepest_run(prob, 200, 1e-12)
    assert res.history[-1].cost - j_star <= 1e-6


def test_strict_descent_along_history(rng):
    prob = random_tiny_problem(rng, n_interior=6, steps=10)
    # strictness is only observable while the predicted decrease
    # sigma*||g||^2 sits above float resolution of J, so the run stops once
    # ||g||_H <= 1e-7: every step it takes starts from a larger gradient
    g0 = hc.norm_h(prob.grid, prob.time_grid,
                   hc.gradient(prob, prob.zero_control(), hc.MatvecCounter()))
    res = _steepest_run(prob, 50, 1e-7 / (1.0 + g0))
    costs = [m.cost for m in res.history]
    assert len(costs) > 2
    for a, b in zip(costs, costs[1:]):
        assert b <= a + 1e-14 * max(1.0, a)
        assert b < a


def test_convexity_witness(rng):
    prob = random_tiny_problem(rng)
    shape = (prob.time_grid.step_count, prob.grid.control_node_count)
    counter = hc.MatvecCounter()
    for _ in range(5):
        v1 = rng.standard_normal(shape)
        v2 = rng.standard_normal(shape)
        lam = float(rng.uniform(0.1, 0.9))
        j_mix = hc.evaluate(prob, lam * v1 + (1 - lam) * v2, counter).cost
        j_bound = (lam * hc.evaluate(prob, v1, counter).cost
                   + (1 - lam) * hc.evaluate(prob, v2, counter).cost)
        assert j_mix < j_bound - 1e-12


def test_oracle_free_evolution_gives_zero_control(rng):
    prob = _free_evolution_problem(rng)
    v_star, j_star = hc.oracle_kkt_solve(prob)
    assert hc.norm_h(prob.grid, prob.time_grid, v_star) <= 1e-10
    assert j_star <= 1e-20


def test_oracle_large_penalty_suppresses_control(rng):
    base = random_tiny_problem(rng, n_interior=4, steps=5)
    big = hc.ControlProblem(grid=base.grid, time_grid=base.time_grid,
                            y0=base.y0, y_target=base.y_target,
                            alpha=1e6, nu=base.nu)
    v_star, j_star = hc.oracle_kkt_solve(big)
    y_free = hc.solve_state(big.grid, big.time_grid, big.y0, big.zero_control(),
                            big.nu, big.cg_tol, hc.MatvecCounter())
    r = y_free[-1] - big.y_target
    j_free = 0.5 * hc.inner_omega(big.grid, r, r)
    assert hc.norm_h(big.grid, big.time_grid, v_star) <= 1e-5
    assert j_star == pytest.approx(j_free, rel=1e-5)


def test_oracle_dimension_cap():
    g = hc.build_grid(1, 7, [(0.0, 1.0)], [(0.0, 1.0)])
    tg = hc.TimeGrid(0.0, 1.0, 10)
    prob = hc.ControlProblem(grid=g, time_grid=tg, y0=np.zeros(5),
                             y_target=np.ones(5), alpha=0.1, nu=0.5)
    with pytest.raises(ValueError):
        hc.oracle_kkt_solve(prob, dimension_cap=10)


def test_problem_validation():
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.0, 1.0)])
    tg = hc.TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        hc.ControlProblem(grid=g, time_grid=tg, y0=np.zeros(3),
                          y_target=np.zeros(3), alpha=0.0, nu=0.5)
    with pytest.raises(ValueError):
        hc.ControlProblem(grid=g, time_grid=tg, y0=np.zeros(2),
                          y_target=np.zeros(3), alpha=0.1, nu=0.5)
    for alpha, nu in [(float("nan"), 0.5), (0.1, float("inf"))]:
        with pytest.raises(ValueError, match="finite"):
            hc.ControlProblem(grid=g, time_grid=tg, y0=np.zeros(3),
                              y_target=np.zeros(3), alpha=alpha, nu=nu)


def test_batched_descent_bitwise_equal_to_column_descents(rng):
    # three problems on consecutive windows of one time grid, with targets of
    # very different sizes, so their stopping thresholds differ and the
    # columns stop after different numbers of steps; a fourth one tracks its
    # own free final state from v = 0, so its gradient is exactly zero
    base = random_tiny_problem(rng, n_interior=6, steps=5)
    outer = hc.TimeGrid(0.0, 2.1, 15)
    problems = [dataclasses.replace(base, time_grid=outer.window(5 * i, 5),
                                    y_target=scale * rng.standard_normal(6))
                for i, scale in enumerate([1.0, 30.0, 1000.0])]
    m = base.grid.control_node_count
    v0 = np.concatenate([rng.standard_normal((3, 5, m)), np.zeros((1, 5, m))])
    free = hc.evaluate(problems[0], v0[3], hc.MatvecCounter()).final_state
    problems.append(dataclasses.replace(problems[0], y_target=free))
    finals = np.stack([hc.evaluate(p, v, hc.MatvecCounter()).final_state
                       for p, v in zip(problems, v0)])
    grads = np.stack([hc.gradient(p, v, hc.MatvecCounter(), final_state=f)
                      for p, v, f in zip(problems, v0, finals)])
    assert not grads[3].any()
    inputs = [v0, finals, grads]
    copies = [a.copy() for a in inputs]
    counter = hc.MatvecCounter(columns=4)
    controls, stopped = hc.optimal_step_gradient(hc.ControlProblem.stack(problems), *inputs, 8,
                                                 counter, gradient_rtol=1e-3)
    # the descent reads its inputs and does not write them
    for a, copy in zip(inputs, copies):
        assert np.array_equal(a.view(np.int64), copy.view(np.int64))
    steps = []
    for c, problem in enumerate(problems):
        own = hc.MatvecCounter()
        want, taken = reference_descent(problem, v0[c], 8, own, 1e-3, finals[c],
                                        gradient=grads[c])
        steps.append(taken)
        assert np.array_equal(controls[c].view(np.int64), want.view(np.int64))
        assert stopped[c] and counter.per_column[c] == own.count
    # so each column did the work of a descent of its own length, and the
    # zero-gradient column stopped before its first step: no product charged,
    # its warm start returned bit for bit
    assert steps == [2, 2, 3, 0]
    assert counter.per_column[3] == 0
    assert np.array_equal(controls[3].view(np.int64), v0[3].view(np.int64))
