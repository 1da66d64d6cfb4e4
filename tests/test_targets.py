import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatctrl as hc

from conftest import (
    dense_adjoint_solve, dense_state_solve, explicit_descent, explicit_subproblems,
    random_tiny_problem, reference_descent, thirteen_step_problem,
)


def _subproblems(prob, part, v):
    """The package's step-2 sub-problems of the control v."""
    return hc.assemble_subproblems(prob, part, hc.gradient(prob, v, hc.MatvecCounter()))


def _targets(prob, part, v):
    """The breakpoint targets chi_1 .. chi_N of the control v, as the method
    forms them."""
    return np.array([local.y_target for local, _, _ in explicit_subproblems(prob, part, v)])


def test_partition_single_interval():
    tg = hc.TimeGrid(6400, 6.4 / 6400)
    part = hc.make_partition(tg, 1)
    assert part == [0, 6400]


def test_partition_uniform_eight_way():
    tg = hc.TimeGrid(6400, 6.4 / 6400)
    part = hc.make_partition(tg, 8)
    assert part == [800 * k for k in range(9)]


def test_partition_remainder_to_leading_intervals():
    tg = hc.TimeGrid(10, 1.0 / 10)
    part = hc.make_partition(tg, 4)
    # a list, not a tuple: it indexes the sweeps' step axis as a list of steps
    assert type(part) is list
    assert part == [0, 3, 6, 8, 10]


def test_partition_rejects_too_many_intervals():
    tg = hc.TimeGrid(4, 1.0 / 4)
    with pytest.raises(ValueError):
        hc.make_partition(tg, 5)


@settings(max_examples=200, deadline=None)
@given(
    length=st.floats(1e-3, 100.0),
    data=st.data(),
)
def test_partition_invariants(length, data):
    step_count = data.draw(st.integers(1, 500), label="step_count")
    n_intervals = data.draw(st.integers(1, step_count), label="n_intervals")
    tg = hc.TimeGrid(step_count, length / step_count)
    part = hc.make_partition(tg, n_intervals)
    counts = [b - a for a, b in zip(part, part[1:])]
    assert len(counts) == n_intervals
    assert (part[0], part[-1]) == (0, step_count)
    assert sum(counts) == step_count
    assert min(counts) >= 1
    assert max(counts) - min(counts) <= 1
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_final_target_is_global_target_bit_for_bit(rng, tiny_problem):
    prob = tiny_problem
    part = hc.make_partition(prob.time_grid, 3)
    v = rng.standard_normal((prob.time_grid.step_count, prob.grid.control_node_count))
    chi = _targets(prob, part, v)
    assert np.array_equal(chi[-1], prob.y_target)


def test_targets_equal_states_when_adjoint_vanishes(rng):
    g = hc.build_grid(1, 7, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(8, 1.0 / 8)
    y0 = rng.standard_normal(5)
    zero_v = np.zeros((8, g.control_node_count))
    y_free = hc.solve_state(g, tg, y0, zero_v, 0.5, 1e-10, hc.MatvecCounter())
    prob = hc.ControlProblem(grid=g, time_grid=tg, y0=y0, y_target=y_free[-1],
                             alpha=0.2, nu=0.5)
    part = hc.make_partition(tg, 4)
    subs = explicit_subproblems(prob, part, zero_v)
    chi = [local.y_target for local, _, _ in subs]
    starts = [local.y0 for local, _, _ in subs]
    np.testing.assert_allclose(chi, y_free[part[1:]], atol=1e-14)
    np.testing.assert_allclose(starts, y_free[part[:-1]], atol=1e-14)


def test_targets_at_optimum_match_dense_oracle(rng):
    prob = random_tiny_problem(rng, n_interior=4, steps=8)
    v_star, _ = hc.oracle_kkt_solve(prob)
    part = hc.make_partition(prob.time_grid, 4)
    chi = _targets(prob, part, v_star)

    y_ref = dense_state_solve(prob.grid, prob.time_grid, prob.y0, v_star, prob.nu)
    p_ref = dense_adjoint_solve(prob.grid, prob.time_grid,
                                y_ref[-1] - prob.y_target, prob.nu)
    chi_ref = y_ref - p_ref
    np.testing.assert_allclose(chi[:-1], chi_ref[part[1:]][:-1], rtol=0, atol=1e-9)
    np.testing.assert_allclose(chi[-1], prob.y_target)


def test_single_interval_subproblem_is_the_global_problem(rng, tiny_problem):
    prob = tiny_problem
    tg = prob.time_grid
    part = hc.make_partition(tg, 1)
    v = rng.standard_normal((tg.step_count, prob.grid.control_node_count))
    (sub,) = _subproblems(prob, part, v)
    local = sub.problem
    assert local.time_grid == tg  # the window of all the steps is the outer grid
    assert np.array_equal(local.y0, prob.y0)
    assert np.array_equal(local.y_target, prob.y_target)
    for _ in range(3):
        w = rng.standard_normal((tg.step_count, prob.grid.control_node_count))
        j_local = hc.evaluate(local, w, hc.MatvecCounter()).cost
        j_global = hc.evaluate(prob, w, hc.MatvecCounter()).cost
        assert j_local == j_global


def test_subproblems_step_with_the_outer_dt(rng):
    # 15 steps on 5 sub-intervals of 3 steps each
    prob = dataclasses.replace(random_tiny_problem(rng, n_interior=6, steps=15),
                               time_grid=hc.TimeGrid(15, 0.7 / 15))
    part = hc.make_partition(prob.time_grid, 5)
    v = rng.standard_normal((15, prob.grid.control_node_count))
    subs = _subproblems(prob, part, v)
    assert [sub.index for sub in subs] == list(range(5))
    outer_dt = np.float64(prob.time_grid.dt).view(np.int64)
    for sub, a, b in zip(subs, part[:-1], part[1:], strict=True):
        tg = sub.problem.time_grid
        assert np.float64(tg.dt).view(np.int64) == outer_dt
        assert tg.step_count == 3
        assert (sub.start, sub.end) == (a, b)


def test_assemble_subproblems_slices_the_gradient(rng):
    prob = random_tiny_problem(rng, n_interior=6, steps=13)
    part = hc.make_partition(prob.time_grid, 4)  # step counts 4, 3, 3, 3
    g = rng.standard_normal((13, prob.grid.control_node_count))
    subs = hc.assemble_subproblems(prob, part, g)
    assert [sub.problem.time_grid.step_count for sub in subs] == [4, 3, 3, 3]
    windows = np.concatenate([sub.warm_gradient for sub in subs])
    assert np.array_equal(windows.view(np.int64), g.view(np.int64))
    # the targets enter through g alone: every other field is the outer problem's
    for sub in subs:
        assert np.shares_memory(sub.warm_gradient, g)
        assert dataclasses.replace(sub.problem, time_grid=prob.time_grid) == prob


@pytest.mark.parametrize("n_intervals", [2, 4])
def test_optimum_restrictions_are_subproblem_optima(rng, n_intervals):
    prob = random_tiny_problem(rng, n_interior=5, steps=8)
    v_star, _ = hc.oracle_kkt_solve(prob)
    part = hc.make_partition(prob.time_grid, n_intervals)
    for local, window, _ in explicit_subproblems(prob, part, v_star):
        g = hc.gradient(local, window, hc.MatvecCounter())
        assert hc.norm_h(local.grid, local.time_grid, g) <= 1e-8


def test_optimum_solves_truncated_horizon_problems(rng):
    prob = random_tiny_problem(rng, n_interior=4, steps=8)
    v_star, _ = hc.oracle_kkt_solve(prob)
    part = hc.make_partition(prob.time_grid, 4)
    chi = _targets(prob, part, v_star)
    # truncate at each interior breakpoint tau = t_n; target chi*(tau)
    for n in range(1, len(part) - 1):
        steps_to_tau = part[n]
        truncated = hc.ControlProblem(
            grid=prob.grid,
            time_grid=hc.TimeGrid(steps_to_tau, prob.time_grid.dt),
            y0=prob.y0,
            y_target=chi[n - 1],
            alpha=prob.alpha,
            nu=prob.nu,
            cg_tol=prob.cg_tol,
        )
        g = hc.gradient(truncated, v_star[:steps_to_tau], hc.MatvecCounter())
        assert hc.norm_h(truncated.grid, truncated.time_grid, g) <= 1e-8


def _tiny_2d_problem(rng, steps):
    grid = hc.build_grid(2, (7, 6), [(0.0, 1.0), (0.0, 1.0)], [(0.2, 0.7), (0.3, 0.8)])
    return hc.ControlProblem(
        grid=grid,
        time_grid=hc.TimeGrid(steps, 0.9 / steps),
        y0=rng.standard_normal(grid.interior_node_count),
        y_target=rng.standard_normal(grid.interior_node_count),
        alpha=0.2,
        nu=0.4,
        cg_tol=1e-12,
    )


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("steps, n_intervals", [(8, 1), (8, 2), (8, 4), (13, 4)])
def test_warm_gradient_is_the_local_gradient_at_the_warm_start(rng, dim, steps, n_intervals):
    # the local adjoint of the method's sub-problem starts from y - chi = p
    # at the right breakpoint and runs the outer recursion, so the outer
    # gradient's window is each sub-problem's first gradient up to rounding
    if dim == 1:
        prob = random_tiny_problem(rng, n_interior=6, steps=steps)
    else:
        prob = _tiny_2d_problem(rng, steps)
    part = hc.make_partition(prob.time_grid, n_intervals)
    v = rng.standard_normal((steps, prob.grid.control_node_count))
    subs = _subproblems(prob, part, v)
    assert len(subs) == n_intervals
    for sub, (local, window, final) in zip(subs, explicit_subproblems(prob, part, v),
                                           strict=True):
        g = hc.gradient(local, window, hc.MatvecCounter(), final_state=final)
        err = hc.norm_h(local.grid, local.time_grid, g - sub.warm_gradient)
        assert err <= 1e-12 * hc.norm_h(local.grid, local.time_grid, g)


def test_solve_subproblem_never_increases_local_cost(rng, tiny_problem):
    prob = tiny_problem
    part = hc.make_partition(prob.time_grid, 2)
    v = rng.standard_normal((prob.time_grid.step_count, prob.grid.control_node_count))
    for sub, (local, window, _) in zip(_subproblems(prob, part, v),
                                       explicit_subproblems(prob, part, v), strict=True):
        update, _ = hc.solve_subproblem(sub, 1, hc.MatvecCounter())
        control = window + update
        j_before = hc.evaluate(local, window, hc.MatvecCounter()).cost
        j_after = hc.evaluate(local, control, hc.MatvecCounter()).cost
        assert j_after <= j_before + 1e-14


def test_solve_subproblem_reaches_local_oracle(rng):
    prob = random_tiny_problem(rng, n_interior=4, steps=8)
    part = hc.make_partition(prob.time_grid, 2)
    v = rng.standard_normal((prob.time_grid.step_count, prob.grid.control_node_count))
    for sub, (local, window, _) in zip(_subproblems(prob, part, v),
                                       explicit_subproblems(prob, part, v), strict=True):
        update, _ = hc.solve_subproblem(sub, 300, hc.MatvecCounter(), gradient_rtol=1e-10)
        control = window + update
        v_local, _ = hc.oracle_kkt_solve(local)
        err = hc.norm_h(local.grid, local.time_grid, control - v_local)
        assert err <= 1e-6


def test_step2_ledger_charges_each_subproblem_its_own_products(rng, monkeypatch):
    # 13 steps on 4 sub-intervals: step counts 4, 3, 3, 3.  With 3 inner
    # iterations at rtol 1e-6 the sub-problems of the first sweep stop after
    # 1, 1, 2 and 3 of them, so their counts differ
    import heatctrl.driver as driver

    prob = random_tiny_problem(rng, n_interior=6, steps=13)
    part = hc.make_partition(prob.time_grid, 4)
    cfg = hc.OuterConfig(n_intervals=4, inner_iterations=3, inner_gradient_rtol=1e-6)
    g = hc.gradient(prob, prob.zero_control(), hc.MatvecCounter())
    solved = []

    def logged(sub, iterations, counter, gradient_rtol, real=driver.solve_subproblem):
        update, response = real(sub, iterations, counter, gradient_rtol)
        solved.append((sub, counter, update, response))
        return update, response

    monkeypatch.setattr(driver, "solve_subproblem", logged)
    counter = hc.MatvecCounter()
    d, zT = hc.targets_direction(prob, part, cfg, g, counter)
    assert [sub.index for sub, _, _, _ in solved] == [0, 1, 2, 3]
    counts = [own.count for _, own, _, _ in solved]
    assert counter.count == sum(counts)
    assert counter.parallel == max(counts)
    # sub-problem 3's descent takes all 3 steps and solves for no gradient
    # after the last, which nothing would read: that adjoint cost 6 products
    assert counts == [37, 29, 58, 81]
    updates = np.concatenate([update for _, _, update, _ in solved])
    assert np.array_equal(d.view(np.int64), updates.view(np.int64))
    # with an inner gradient test every sub-problem runs at cg_tol and
    # returns its response, but on four intervals none is z(T)
    assert zT is None and all(response is not None for _, _, _, response in solved)
    steps = []
    for (sub, own, update, response) in solved:
        ref = hc.MatvecCounter()
        want, want_response, taken, _ = reference_descent(sub.problem, sub.warm_gradient, 3,
                                                          ref, 1e-6)
        steps.append(taken)
        assert np.array_equal(update.view(np.int64), want.view(np.int64))
        assert np.array_equal(response.view(np.int64), want_response.view(np.int64))
        assert own.count == ref.count
    assert steps == [1, 1, 2, 3]


# 13 steps make uneven windows for N = 2 and 3 (7 + 6, and 5 + 4 + 4)
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_intervals", [1, 2, 3])
@pytest.mark.parametrize("inner", [2, 3])
@pytest.mark.parametrize("inner_rtol", [None, 1e-3])
def test_linear_inner_descent_is_the_descent_on_the_explicit_targets(rng, monkeypatch, dim,
                                                                     n_intervals, inner,
                                                                     inner_rtol):
    # the descent that starts from the window of g and forms each later
    # gradient by linearity takes the steps of the method's sub-problem from
    # y(t_n) towards chi_n = y(t_n+1) - p(t_n+1): the same update, response
    # and inner gradients, to 1e-10 relative
    import heatctrl.problem as problem

    prob = thirteen_step_problem(dim, rng, 1e-12)
    grid = prob.grid
    part = hc.make_partition(prob.time_grid, n_intervals)
    v = rng.standard_normal((13, grid.control_node_count))
    read = []  # the gradients the descent reads, logged where it takes their norm

    def logged(grid, time_grid, u, w, real=problem.inner_h):
        if u is w:
            read.append(u.copy())
        return real(grid, time_grid, u, w)

    subs = _subproblems(prob, part, v)
    explicit = [explicit_descent(local, window, inner, hc.MatvecCounter(), inner_rtol)
                for local, window, _ in explicit_subproblems(prob, part, v)]
    monkeypatch.setattr(problem, "inner_h", logged)
    for sub, (want, want_response, steps, gradients) in zip(subs, explicit, strict=True):
        read.clear()
        update, response = hc.optimal_step_gradient(sub.problem, sub.warm_gradient, inner,
                                                    hc.MatvecCounter(), inner_rtol)
        seen = read[:]
        assert steps >= 1 and len(seen) == len(gradients)
        tg = sub.problem.time_grid
        assert hc.norm_h(grid, tg, update - want) <= 1e-10 * hc.norm_h(grid, tg, want)
        assert (np.linalg.norm(response - want_response)
                <= 1e-10 * np.linalg.norm(want_response))
        for got, g in zip(seen, gradients, strict=True):
            assert hc.norm_h(grid, tg, got - g) <= 1e-10 * hc.norm_h(grid, tg, g)
    # a later gradient was compared, not only the window of g
    assert max(steps for _, _, steps, _ in explicit) >= 2
