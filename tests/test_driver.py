import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatctrl as hc
from heatctrl.targets import DIRECTION_CG_TOL

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
    part = hc.make_partition(tiny_problem.time_grid, 2)
    theta, z = hc.line_search_theta(tiny_problem, part, v, np.zeros_like(v),
                                    _residual(tiny_problem, v, counter), counter)
    assert theta == 0.0 and z is None


def test_line_search_vanishes_at_optimum(rng):
    prob = random_tiny_problem(rng)
    v_star, _ = hc.oracle_kkt_solve(prob)
    d = _random_control(rng, prob)
    counter = hc.MatvecCounter()
    part = hc.make_partition(prob.time_grid, 2)
    theta, _ = hc.line_search_theta(prob, part, v_star, d,
                                    _residual(prob, v_star, counter), counter)
    assert abs(theta) <= 1e-8


def test_line_search_is_the_scalar_minimizer():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        prob = random_tiny_problem(rng, n_interior=4, steps=6)
        v = _random_control(rng, prob)
        d = _random_control(rng, prob)
        counter = hc.MatvecCounter()
        part = hc.make_partition(prob.time_grid, 3)
        theta_star, _ = hc.line_search_theta(prob, part, v, d, _residual(prob, v, counter),
                                             counter)

        def j_of(theta):
            return hc.evaluate(prob, v + theta * d, counter).cost

        j_best = j_of(theta_star)
        for theta in np.linspace(-2.0, 2.0, 50):
            assert j_best <= j_of(theta) + 1e-12
        # J is exactly quadratic in theta: the vertex of the parabola through
        # three of its values is its minimizer
        j_lo, j_hi = j_of(theta_star - 1.0), j_of(theta_star + 1.0)
        vertex = theta_star - 0.5 * (j_hi - j_lo) / (j_hi - 2.0 * j_best + j_lo)
        assert abs(theta_star - vertex) <= 1e-12 * max(1.0, abs(theta_star))


def _one_sweep(prob, cfg, start):
    """``run`` for one sweep from ``start``: max_outer = 1, and an rtol whose
    gradient test cannot end the run before the sweep."""
    return hc.run(prob, dataclasses.replace(cfg, max_outer=1, gradient_rtol=1e-300),
                  start=start)


def test_one_sweep_n1_exact_inner_recovers_optimum(rng):
    prob = random_tiny_problem(rng)
    v_star, _ = hc.oracle_kkt_solve(prob)
    cfg = hc.OuterConfig(n_intervals=1, inner_iterations=3000,
                         inner_gradient_rtol=1e-12, gradient_rtol=1e-10)
    res = _one_sweep(prob, cfg, prob.zero_control())
    assert res.history[0].theta == pytest.approx(1.0, abs=1e-6)
    assert hc.norm_h(prob.grid, prob.time_grid, res.control - v_star) <= 1e-6


def test_one_sweep_fixed_point_at_optimum(rng):
    prob = random_tiny_problem(rng)
    v_star, _ = hc.oracle_kkt_solve(prob)
    cfg = hc.OuterConfig(n_intervals=4, inner_iterations=1)
    v1 = _one_sweep(prob, cfg, v_star).control
    assert hc.norm_h(prob.grid, prob.time_grid, v1 - v_star) <= 1e-6


def test_one_sweep_never_increases_cost(rng):
    prob = random_tiny_problem(rng)
    cfg = hc.OuterConfig(n_intervals=4, inner_iterations=1)
    counter = hc.MatvecCounter()
    v = prob.zero_control()
    j_prev = hc.evaluate(prob, v, counter).cost
    for _ in range(5):
        v = _one_sweep(prob, cfg, v).control
        j = hc.evaluate(prob, v, counter).cost
        assert j <= j_prev + 1e-13 * max(1.0, j_prev)
        j_prev = j


def test_run_rejects_a_misshapen_start(rng):
    prob = random_tiny_problem(rng, n_interior=5, steps=12)
    cfg = hc.OuterConfig(n_intervals=4)
    for shape in [(12,), (11, prob.grid.control_node_count),
                  (12, prob.grid.control_node_count + 1)]:
        with pytest.raises(ValueError, match="start must have shape"):
            hc.run(prob, cfg, start=np.zeros(shape))


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


def test_one_adjoint_solve_per_sweep(rng, monkeypatch):
    # with one inner iteration, step 2 starts from the outer gradient and
    # takes one step: the only adjoint solves are the outer ones
    prob = random_tiny_problem(rng, n_interior=5, steps=12)
    calls = []

    import heatctrl.driver as driver
    import heatctrl.problem as problem

    for module in (driver, problem):
        def counted(*args, real=module.solve_adjoint, **kwargs):
            calls.append(args[2].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "solve_adjoint", counted)
    res = hc.run(prob, hc.OuterConfig(n_intervals=4, inner_iterations=1, max_outer=30))
    assert len(res.history) > 2
    assert calls == [prob.y0.shape] * len(res.history)


def test_worker_failure_identifies_subinterval(rng, monkeypatch):
    # 7 steps on 3 sub-intervals: batches (3 steps) and (2, 2 steps); a
    # non-finite local gradient breaks sub-problem 1, column 0 of the second batch
    prob = random_tiny_problem(rng, steps=7)
    cfg = hc.OuterConfig(n_intervals=3)

    import heatctrl.driver as driver

    real = driver.assemble_subproblems

    def poisoned(*args):
        batches = real(*args)
        bad = batches[1].warm_gradient.copy()
        bad[0, 0, 0] = np.nan
        batches[1] = dataclasses.replace(batches[1], warm_gradient=bad)
        return batches

    monkeypatch.setattr(driver, "assemble_subproblems", poisoned)
    with pytest.raises(RuntimeError, match="sub-problem 1") as failure:
        _one_sweep(prob, cfg, prob.zero_control())
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
        _one_sweep(prob, cfg, prob.zero_control())


def _looped_subproblems(batches, iterations, counter, gradient_rtol=None):
    """Step 2 one sub-problem at a time, by the reference descent, at the
    looser direction tolerance when there is no inner gradient test."""
    controls, counts = [], []
    for local, warm_start, warm_final_state, warm_gradient in subproblems(batches):
        if gradient_rtol is None:
            local = dataclasses.replace(local, cg_tol=max(local.cg_tol, DIRECTION_CG_TOL))
        own = hc.MatvecCounter()
        control, _ = reference_descent(local, warm_start, iterations, own, gradient_rtol,
                                       warm_final_state, warm_gradient)
        controls.append(control)
        counts.append(own.count)
    counter.add_concurrent(np.array(counts))
    return np.concatenate(controls)


# with 3 inner iterations at rtol 1e-6 the sub-problems of the first sweep
# stop after 1, 1, 2 and 3 of them
@pytest.mark.parametrize("inner, inner_rtol", [(1, None), (3, 1e-6)])
def test_batched_step2_equals_a_loop_over_subproblems(rng, monkeypatch, inner, inner_rtol):
    # 13 steps on 4 sub-intervals: step counts 4, 3, 3, 3
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


# cg_tol 1e-5 is looser than DIRECTION_CG_TOL, so step 2 keeps it
@pytest.mark.parametrize("cg_tol, inner, inner_rtol", [
    (1e-12, 1, None), (1e-12, 3, None), (1e-12, 3, 1e-6), (1e-5, 1, None),
])
def test_only_step2_solves_loosen_and_only_without_an_inner_test(rng, monkeypatch, cg_tol,
                                                                 inner, inner_rtol):
    # every CG solve made under solve_subproblem runs at max(cg_tol,
    # DIRECTION_CG_TOL) when the inner descent has no gradient test and at
    # cg_tol when it has one; every other solve (state, adjoint, line
    # search) runs at cg_tol
    prob = random_tiny_problem(rng, n_interior=6, steps=13, cg_tol=cg_tol)
    cfg = hc.OuterConfig(n_intervals=4, inner_iterations=inner,
                         inner_gradient_rtol=inner_rtol, max_outer=6, gradient_rtol=1e-9)

    import heatctrl.driver as driver
    import heatctrl.propagators as propagators

    calls, in_step2 = [], [False]

    def logged_cg(apply_a, b, tol, *args, real=propagators.cg_solve, **kwargs):
        calls.append((in_step2[0], tol))
        return real(apply_a, b, tol, *args, **kwargs)

    def logged_step2(*args, real=driver.solve_subproblem, **kwargs):
        in_step2[0] = True
        try:
            return real(*args, **kwargs)
        finally:
            in_step2[0] = False

    monkeypatch.setattr(propagators, "cg_solve", logged_cg)
    monkeypatch.setattr(driver, "solve_subproblem", logged_step2)
    res = hc.run(prob, cfg)
    assert len(res.history) > 2
    step2_tol = cg_tol if inner_rtol is not None else max(cg_tol, DIRECTION_CG_TOL)
    assert {tol for inside, tol in calls if inside} == {step2_tol}
    assert {tol for inside, tol in calls if not inside} == {cg_tol}


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
    # rejected when the config is built, before any solve
    for field, value in [("max_outer", -1), ("inner_iterations", 0),
                         ("gradient_rtol", -1e-6), ("gradient_rtol", float("nan")),
                         ("inner_gradient_rtol", 0.0), ("inner_gradient_rtol", -1.0),
                         ("inner_gradient_rtol", float("nan"))]:
        with pytest.raises(ValueError, match=field):
            hc.OuterConfig(n_intervals=1, **{field: value})
    hc.OuterConfig(n_intervals=1, max_outer=0)


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.integers(3, 8),
    steps=st.integers(1, 16),
    data=st.data(),
    inner=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    steepest=st.booleans(),
)
def test_run_history_invariants(nodes, steps, data, inner, seed, steepest):
    # on every row, for either rule: J never rises, both tallies never fall
    # and the parallel tally never exceeds the sequential one; the steepest
    # rule saves nothing, so its two tallies agree
    prob = random_tiny_problem(np.random.default_rng(seed), n_interior=nodes, steps=steps)
    n_intervals = data.draw(st.integers(1, steps), label="n_intervals")
    rule = hc.steepest_direction if steepest else hc.targets_direction
    res = hc.run(prob, hc.OuterConfig(n_intervals=n_intervals, inner_iterations=inner,
                                      max_outer=20, gradient_rtol=1e-9), rule)
    rows = res.history
    assert all(b.cost <= a.cost for a, b in zip(rows, rows[1:]))
    assert all(b.matvec_sequential >= a.matvec_sequential for a, b in zip(rows, rows[1:]))
    assert all(b.matvec_parallel >= a.matvec_parallel for a, b in zip(rows, rows[1:]))
    assert all(m.matvec_parallel <= m.matvec_sequential for m in rows)
    if steepest:
        assert all(m.matvec_parallel == m.matvec_sequential for m in rows)


def _tiny_2d_problem(rng):
    """Random instance on a 4 x 4 interior with a 2 x 2 control patch."""
    grid = hc.build_grid(2, 6, [(0.0, 1.0)] * 2, [(0.3, 0.7)] * 2)
    return hc.ControlProblem(grid=grid, time_grid=hc.TimeGrid(0.0, 0.6, 6),
                             y0=rng.standard_normal(grid.interior_node_count),
                             y_target=rng.standard_normal(grid.interior_node_count),
                             alpha=0.2, nu=0.5, cg_tol=1e-12)


@pytest.mark.parametrize("make", [random_tiny_problem, _tiny_2d_problem])
def test_steepest_run_matches_reference_descent(rng, make):
    # the baseline through the outer loop is the optimal-step gradient method.
    # At rtol 1e-9 a step's decrease of J can fall below J's rounding, where
    # the uphill guard (which the reference lacks) may end the run a step early
    for _ in range(3):
        prob = make(rng)
        cfg = hc.OuterConfig(n_intervals=1, max_outer=500, gradient_rtol=1e-7)
        res = hc.run(prob, cfg, hc.steepest_direction)
        counter = hc.MatvecCounter()
        v0 = prob.zero_control()
        want, steps = reference_descent(prob, v0, cfg.max_outer, counter, cfg.gradient_rtol,
                                        hc.evaluate(prob, v0, counter).final_state)
        assert res.converged
        assert len(res.history) - 1 == steps > 0
        grid, tg = prob.grid, prob.time_grid
        assert hc.norm_h(grid, tg, res.control - want) <= 1e-9 * hc.norm_h(grid, tg, want)


def test_loose_step2_run_reaches_oracle_cost_in_2d(rng):
    # with the default inner settings d is inexact, but the cost, gradient and
    # line search are not: the run still ends within criterion 1's bound of
    # the dense optimum
    for _ in range(3):
        prob = _tiny_2d_problem(rng)
        v_star, j_star = hc.oracle_kkt_solve(prob)
        res = hc.run(prob, hc.OuterConfig(n_intervals=3, max_outer=500, gradient_rtol=1e-8))
        assert res.converged
        assert hc.norm_h(prob.grid, prob.time_grid, res.control - v_star) <= 1e-6
        assert abs(res.history[-1].cost - j_star) <= 1e-8 * max(1.0, j_star)


def _run_peak_bytes(steps):
    """tracemalloc peak of ``run`` on a 15 x 15 interior with a 3 x 3 control
    patch, ``steps`` time steps, 4 sub-intervals and 3 outer iterations."""
    rng = np.random.default_rng(7)
    grid = hc.build_grid(2, 17, [(0.0, 1.0)] * 2, [(0.4, 0.6)] * 2)
    prob = hc.ControlProblem(grid=grid, time_grid=hc.TimeGrid(0.0, 0.5, steps),
                             y0=rng.standard_normal(grid.interior_node_count),
                             y_target=rng.standard_normal(grid.interior_node_count),
                             alpha=0.1, nu=0.5)
    cfg = hc.OuterConfig(n_intervals=4, max_outer=3, gradient_rtol=1e-12)
    tracemalloc.start()
    try:
        res = hc.run(prob, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.history) == 4
    return peak, grid.interior_node_count


def test_run_memory_does_not_grow_with_full_trajectories():
    # a run keeps y, z and p at the breakpoints and p on the control patch:
    # four times the steps must cost less than one more full trajectory
    short = 16
    _run_peak_bytes(short)  # first-call allocations stay out of the comparison
    small, n = _run_peak_bytes(short)
    large, _ = _run_peak_bytes(4 * short)
    assert large - small < (4 * short + 1) * n * 8
