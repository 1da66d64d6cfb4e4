import dataclasses

import numpy as np
import pytest

import heatctrl as hc

from conftest import random_tiny_problem, reference_descent, subproblems


def _random_control(rng, prob):
    return rng.standard_normal(
        (prob.time_grid.step_count, prob.grid.control_node_count)
    )


def _residual(prob, v, counter):
    return hc.evaluate(prob, v, counter).final_state - prob.y_target


def test_line_search_zero_direction(tiny_problem):
    v = tiny_problem.zero_control()
    counter = hc.MatvecCounter()
    theta, z = hc.line_search_theta(tiny_problem, v, np.zeros_like(v),
                                    _residual(tiny_problem, v, counter), counter)
    assert theta == 0.0 and z is None


def test_line_search_vanishes_at_optimum(rng):
    prob = random_tiny_problem(rng)
    v_star, _ = hc.oracle_kkt_solve(prob)
    d = _random_control(rng, prob)
    counter = hc.MatvecCounter()
    theta, _ = hc.line_search_theta(prob, v_star, d, _residual(prob, v_star, counter),
                                    counter)
    assert abs(theta) <= 1e-8


def test_line_search_is_the_scalar_minimizer(rng):
    from scipy.optimize import minimize_scalar

    prob = random_tiny_problem(rng, n_interior=4, steps=6)
    v = _random_control(rng, prob)
    d = _random_control(rng, prob)
    counter = hc.MatvecCounter()
    theta_star, _ = hc.line_search_theta(prob, v, d, _residual(prob, v, counter), counter)

    def j_of(theta):
        return hc.evaluate(prob, v + theta * d, counter).cost

    j_best = j_of(theta_star)
    for theta in np.linspace(-2.0, 2.0, 50):
        assert j_best <= j_of(theta) + 1e-12
    golden = minimize_scalar(
        j_of,
        bracket=(theta_star - 2.0, theta_star, theta_star + 2.0),
        method="golden",
        options={"xtol": 1e-12},
    )
    assert abs(theta_star - golden.x) <= 1e-8 * max(1.0, abs(theta_star))


def test_outer_iteration_n1_exact_inner_recovers_optimum(rng):
    prob = random_tiny_problem(rng)
    v_star, _ = hc.oracle_kkt_solve(prob)
    cfg = hc.OuterConfig(n_intervals=1, inner_iterations=3000,
                         inner_gradient_rtol=1e-12, gradient_rtol=1e-10)
    v0 = prob.zero_control()
    v1, theta, _ = hc.outer_iteration(prob, v0, cfg, hc.MatvecCounter())
    assert theta == pytest.approx(1.0, abs=1e-6)
    assert hc.norm_h(prob.grid, prob.time_grid, v1 - v_star) <= 1e-6


def test_outer_iteration_fixed_point_at_optimum(rng):
    prob = random_tiny_problem(rng)
    v_star, _ = hc.oracle_kkt_solve(prob)
    cfg = hc.OuterConfig(n_intervals=4, inner_iterations=1)
    v1, _, _ = hc.outer_iteration(prob, v_star, cfg, hc.MatvecCounter())
    assert hc.norm_h(prob.grid, prob.time_grid, v1 - v_star) <= 1e-6


def test_outer_iteration_never_increases_cost(rng):
    prob = random_tiny_problem(rng)
    cfg = hc.OuterConfig(n_intervals=4, inner_iterations=1)
    counter = hc.MatvecCounter()
    v = prob.zero_control()
    j_prev = hc.evaluate(prob, v, counter).cost
    for _ in range(5):
        v, _, _ = hc.outer_iteration(prob, v, cfg, counter)
        j = hc.evaluate(prob, v, counter).cost
        assert j <= j_prev + 1e-13 * max(1.0, j_prev)
        j_prev = j


def test_outer_iteration_is_the_first_step_of_run(rng):
    prob = random_tiny_problem(rng, n_interior=5, steps=12)
    cfg = hc.OuterConfig(n_intervals=4, max_outer=1)
    v1, theta, _ = hc.outer_iteration(prob, prob.zero_control(), cfg, hc.MatvecCounter())
    res = hc.run(prob, cfg)
    assert theta != 0.0 and theta == res.history[0].theta
    assert v1.tobytes() == res.control.tobytes()


def test_run_converges_immediately_for_free_evolution_target(rng):
    g = hc.build_grid(1, 7, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(0.0, 1.0, 8)
    y0 = rng.standard_normal(5)
    y_free = hc.solve_state(g, tg, y0, np.zeros((8, g.control_node_count)),
                            0.5, 1e-10, hc.MatvecCounter())
    prob = hc.ControlProblem(grid=g, time_grid=tg, y0=y0, y_target=y_free[-1],
                             alpha=0.2, nu=0.5)
    res = hc.run(prob, hc.OuterConfig(n_intervals=4))
    assert res.converged
    assert len(res.history) == 1
    assert res.history[0].cost == 0.0


def test_run_reaches_oracle_optimum(rng):
    prob = random_tiny_problem(rng)
    v_star, j_star = hc.oracle_kkt_solve(prob)
    res = hc.run(prob, hc.OuterConfig(n_intervals=4, max_outer=100,
                                      gradient_rtol=1e-7))
    assert res.converged
    assert hc.norm_h(prob.grid, prob.time_grid, res.control - v_star) <= 1e-4
    assert res.history[-1].cost - j_star <= 1e-8


def test_run_history_is_monotone_and_accounted(rng):
    prob = random_tiny_problem(rng, n_interior=6, steps=12)
    res = hc.run(prob, hc.OuterConfig(n_intervals=3, max_outer=40,
                                      gradient_rtol=1e-6))
    costs = [m.cost for m in res.history]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert [m.outer_index for m in res.history] == list(range(len(res.history)))
    for m in res.history:
        assert m.matvec_parallel <= m.matvec_sequential
    seqs = [m.matvec_sequential for m in res.history]
    assert all(b > a for a, b in zip(seqs, seqs[1:]))


def test_run_parallel_tally_strictly_cheaper(rng):
    prob = random_tiny_problem(rng, n_interior=5, steps=12)
    res = hc.run(prob, hc.OuterConfig(n_intervals=4, max_outer=30))
    last = res.history[-1]
    assert last.matvec_parallel < last.matvec_sequential


def test_single_interval_tallies_agree(rng):
    prob = random_tiny_problem(rng, n_interior=5, steps=12)
    res = hc.run(prob, hc.OuterConfig(n_intervals=1, max_outer=10))
    assert len(res.history) > 2
    assert all(m.matvec_parallel == m.matvec_sequential for m in res.history)


def test_worker_failure_identifies_subinterval(rng, monkeypatch):
    # 7 steps on 3 sub-intervals: batches (3 steps) and (2, 2 steps); a
    # non-finite local state breaks sub-problem 1, column 0 of the second batch
    prob = random_tiny_problem(rng, steps=7)
    cfg = hc.OuterConfig(n_intervals=3)

    import heatctrl.driver as driver

    real = driver.assemble_subproblems

    def poisoned(*args):
        batches = real(*args)
        bad = batches[1].warm_final_state.copy()
        bad[0, 0] = np.nan
        batches[1] = dataclasses.replace(batches[1], warm_final_state=bad)
        return batches

    monkeypatch.setattr(driver, "assemble_subproblems", poisoned)
    with pytest.raises(RuntimeError, match="sub-problem 1") as failure:
        hc.outer_iteration(prob, prob.zero_control(), cfg, hc.MatvecCounter())
    assert failure.value.column == 1


def test_worker_cg_failure_keeps_its_type(rng, monkeypatch):
    prob = random_tiny_problem(rng, steps=12)
    cfg = hc.OuterConfig(n_intervals=3)

    import heatctrl.propagators as propagators

    real = propagators.cg_solve

    def breaking(apply_a, b, *args, **kwargs):
        if b.ndim == 2:  # a solve of the step-2 batch: break its column 1
            raise hc.CGError("synthetic breakdown", 1)
        return real(apply_a, b, *args, **kwargs)

    monkeypatch.setattr(propagators, "cg_solve", breaking)
    with pytest.raises(hc.CGError, match="sub-problem 1 .*synthetic breakdown"):
        hc.outer_iteration(prob, prob.zero_control(), cfg, hc.MatvecCounter())


def _looped_subproblems(batches, iterations, counter, gradient_rtol=None):
    """Step 2 one sub-problem at a time, by the reference descent."""
    controls, counts = [], []
    for local, warm_start, warm_final_state in subproblems(batches):
        own = hc.MatvecCounter()
        controls.append(reference_descent(local, warm_start, iterations, own,
                                          gradient_rtol, warm_final_state))
        counts.append(own.count)
    counter.add(np.array(counts))
    return np.concatenate(controls), sum(counts) - max(counts)


# with 3 inner iterations at rtol 1e-6 the sub-problems of the first sweep
# stop after 1, 1, 2 and 3 of them
@pytest.mark.parametrize("inner, inner_rtol", [(1, None), (3, 1e-6)])
def test_batched_step2_equals_a_loop_over_subproblems(rng, monkeypatch, inner, inner_rtol):
    # 13 steps on 4 sub-intervals: step counts 4, 3, 3, 3 and local dt values
    # that differ in their last bits
    prob = random_tiny_problem(rng, n_interior=6, steps=13)
    cfg = hc.OuterConfig(n_intervals=4, inner_iterations=inner,
                         inner_gradient_rtol=inner_rtol, max_outer=6, gradient_rtol=1e-9)
    batched = hc.run(prob, cfg)

    import heatctrl.driver as driver

    monkeypatch.setattr(driver, "solve_subproblem", _looped_subproblems)
    looped = hc.run(prob, cfg)

    assert np.array_equal(batched.control.view(np.int64), looped.control.view(np.int64))
    assert len(batched.history) == len(looped.history) > 2
    for a, b in zip(batched.history, looped.history):
        assert (a.cost, a.misfit, a.penalty, a.theta, a.matvec_sequential,
                a.matvec_parallel) == (b.cost, b.misfit, b.penalty, b.theta,
                                       b.matvec_sequential, b.matvec_parallel)


def test_run_stops_at_first_rejected_step(rng):
    # cg_tol 1e-6 cannot resolve gradient_rtol 1e-12: after a few sweeps the
    # exact line search proposes an uphill step, which run rejects
    prob = random_tiny_problem(rng, n_interior=5, steps=8, cg_tol=1e-6)
    res = hc.run(prob, hc.OuterConfig(n_intervals=2, max_outer=100, gradient_rtol=1e-12))
    assert res.stalled and not res.converged
    thetas = [m.theta for m in res.history]
    assert thetas[-1] == 0.0 and all(thetas[:-1])
    assert len(res.history) < 100


def test_outer_config_validation():
    with pytest.raises(ValueError):
        hc.OuterConfig(n_intervals=0)
    with pytest.raises(ValueError):
        hc.OuterConfig(n_intervals=2, gradient_rtol=0.0)
