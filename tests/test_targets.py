import numpy as np
import pytest

import heatctrl as hc

from conftest import dense_adjoint_solve, dense_state_solve, random_tiny_problem


def test_partition_single_interval():
    tg = hc.TimeGrid(0.0, 6.4, 6400)
    part = hc.make_partition(tg, 1)
    assert part.step_counts == (6400,)
    assert part.breakpoints == (0.0, 6.4)


def test_partition_uniform_eight_way():
    tg = hc.TimeGrid(0.0, 6.4, 6400)
    part = hc.make_partition(tg, 8)
    assert part.step_counts == (800,) * 8
    np.testing.assert_allclose(part.breakpoints, 0.8 * np.arange(9), rtol=1e-12)


def test_partition_remainder_to_leading_intervals():
    tg = hc.TimeGrid(0.0, 1.0, 10)
    part = hc.make_partition(tg, 4)
    assert part.step_counts == (3, 3, 2, 2)
    assert part.step_offsets == (0, 3, 6, 8)


def test_partition_rejects_too_many_intervals():
    tg = hc.TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        hc.make_partition(tg, 5)


def test_final_target_is_global_target_bit_for_bit(rng, tiny_problem):
    prob = tiny_problem
    part = hc.make_partition(prob.time_grid, 3)
    v = rng.standard_normal((prob.time_grid.step_count, prob.grid.control_node_count))
    targets = hc.target_trajectory(prob, v, part, hc.MatvecCounter())
    assert np.array_equal(targets.boundary_targets[-1], prob.y_target)


def test_targets_equal_states_when_adjoint_vanishes(rng):
    g = hc.build_grid(1, 7, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(0.0, 1.0, 8)
    y0 = rng.standard_normal(5)
    zero_v = np.zeros((8, g.control_node_count))
    y_free = hc.solve_state(g, tg, y0, zero_v, 0.5, 1e-10, hc.MatvecCounter())
    prob = hc.ControlProblem(grid=g, time_grid=tg, y0=y0, y_target=y_free[-1],
                             alpha=0.2, nu=0.5)
    part = hc.make_partition(tg, 4)
    targets = hc.target_trajectory(prob, zero_v, part, hc.MatvecCounter())
    ends = np.array(part.step_offsets[1:] + (tg.step_count,))
    np.testing.assert_allclose(targets.boundary_targets, y_free[ends], atol=1e-14)
    np.testing.assert_allclose(targets.boundary_states, y_free[part.step_offsets,], atol=1e-14)


def test_targets_at_optimum_match_dense_oracle(rng):
    prob = random_tiny_problem(rng, n_interior=4, steps=8)
    v_star, _ = hc.oracle_kkt_solve(prob)
    part = hc.make_partition(prob.time_grid, 4)
    targets = hc.target_trajectory(prob, v_star, part, hc.MatvecCounter())

    y_ref = dense_state_solve(prob.grid, prob.time_grid, prob.y0, v_star, prob.nu)
    p_ref = dense_adjoint_solve(prob.grid, prob.time_grid,
                                y_ref[-1] - prob.y_target, prob.nu)
    chi_ref = y_ref - p_ref
    ends = np.array(part.step_offsets[1:] + (prob.time_grid.step_count,))
    np.testing.assert_allclose(targets.boundary_targets[:-1], chi_ref[ends][:-1],
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(targets.boundary_targets[-1], prob.y_target)


def test_single_interval_subproblem_is_the_global_problem(rng, tiny_problem):
    prob = tiny_problem
    tg = prob.time_grid
    part = hc.make_partition(tg, 1)
    v = rng.standard_normal((tg.step_count, prob.grid.control_node_count))
    targets = hc.target_trajectory(prob, v, part, hc.MatvecCounter())
    (sub,) = hc.assemble_subproblems(prob, v, part, targets)
    assert np.array_equal(sub.problem.y0, prob.y0)
    assert np.array_equal(sub.problem.y_target, prob.y_target)
    for _ in range(3):
        w = rng.standard_normal((tg.step_count, prob.grid.control_node_count))
        j_local = hc.evaluate(sub.problem, w, hc.MatvecCounter()).cost
        j_global = hc.evaluate(prob, w, hc.MatvecCounter()).cost
        assert j_local == pytest.approx(j_global, rel=1e-12)


def test_warm_start_concatenation_roundtrip(rng, tiny_problem):
    prob = tiny_problem
    part = hc.make_partition(prob.time_grid, 3)
    v = rng.standard_normal((prob.time_grid.step_count, prob.grid.control_node_count))
    targets = hc.target_trajectory(prob, v, part, hc.MatvecCounter())
    subs = hc.assemble_subproblems(prob, v, part, targets)
    recon = hc.concat_controls([s.warm_start for s in subs])
    assert np.array_equal(recon, v)


@pytest.mark.parametrize("n_intervals", [2, 4])
def test_optimum_restrictions_are_subproblem_optima(rng, n_intervals):
    prob = random_tiny_problem(rng, n_interior=5, steps=8)
    v_star, _ = hc.oracle_kkt_solve(prob)
    part = hc.make_partition(prob.time_grid, n_intervals)
    targets = hc.target_trajectory(prob, v_star, part, hc.MatvecCounter())
    subs = hc.assemble_subproblems(prob, v_star, part, targets)
    for sub in subs:
        g = hc.gradient(sub.problem, sub.warm_start, hc.MatvecCounter())
        assert hc.norm_h(sub.problem.grid, sub.problem.time_grid, g) <= 1e-8


def test_optimum_solves_truncated_horizon_problems(rng):
    prob = random_tiny_problem(rng, n_interior=4, steps=8)
    v_star, _ = hc.oracle_kkt_solve(prob)
    part = hc.make_partition(prob.time_grid, 4)
    targets = hc.target_trajectory(prob, v_star, part, hc.MatvecCounter())
    # truncate at each interior breakpoint tau = t_n; target chi*(tau)
    for n in range(1, part.n_intervals):
        steps_to_tau = part.step_offsets[n]
        truncated = hc.ControlProblem(
            grid=prob.grid,
            time_grid=hc.TimeGrid(0.0, part.breakpoints[n], steps_to_tau),
            y0=prob.y0,
            y_target=targets.boundary_targets[n - 1],
            alpha=prob.alpha,
            nu=prob.nu,
            cg_tol=prob.cg_tol,
        )
        g = hc.gradient(truncated, v_star[:steps_to_tau], hc.MatvecCounter())
        assert hc.norm_h(truncated.grid, truncated.time_grid, g) <= 1e-8


def test_solve_subproblem_never_increases_local_cost(rng, tiny_problem):
    prob = tiny_problem
    part = hc.make_partition(prob.time_grid, 2)
    v = rng.standard_normal((prob.time_grid.step_count, prob.grid.control_node_count))
    targets = hc.target_trajectory(prob, v, part, hc.MatvecCounter())
    subs = hc.assemble_subproblems(prob, v, part, targets)
    for sub in subs:
        j_before = hc.evaluate(sub.problem, sub.warm_start, hc.MatvecCounter()).cost
        local = hc.solve_subproblem(sub, 1, hc.MatvecCounter())
        j_after = hc.evaluate(sub.problem, local, hc.MatvecCounter()).cost
        assert j_after <= j_before + 1e-14


def test_solve_subproblem_reaches_local_oracle(rng):
    prob = random_tiny_problem(rng, n_interior=4, steps=8)
    part = hc.make_partition(prob.time_grid, 2)
    v = rng.standard_normal((prob.time_grid.step_count, prob.grid.control_node_count))
    targets = hc.target_trajectory(prob, v, part, hc.MatvecCounter())
    subs = hc.assemble_subproblems(prob, v, part, targets)
    for sub in subs:
        local = hc.solve_subproblem(sub, 300, hc.MatvecCounter(),
                                    gradient_rtol=1e-10)
        v_local, _ = hc.oracle_kkt_solve(sub.problem)
        err = hc.norm_h(sub.problem.grid, sub.problem.time_grid, local - v_local)
        assert err <= 1e-6


def test_assemble_rejects_mismatched_targets(rng, tiny_problem):
    prob = tiny_problem
    part2 = hc.make_partition(prob.time_grid, 2)
    part4 = hc.make_partition(prob.time_grid, 4)
    v = np.zeros((prob.time_grid.step_count, prob.grid.control_node_count))
    targets = hc.target_trajectory(prob, v, part2, hc.MatvecCounter())
    with pytest.raises(ValueError):
        hc.assemble_subproblems(prob, v, part4, targets)


def test_subproblem_batches_split_by_step_count_and_width(rng, monkeypatch):
    import heatctrl.targets as targets

    prob = random_tiny_problem(rng, n_interior=6, steps=13)
    part = hc.make_partition(prob.time_grid, 4)  # step counts 4, 3, 3, 3
    v = rng.standard_normal((13, prob.grid.control_node_count))
    subs = hc.assemble_subproblems(prob, v, part, hc.target_trajectory(prob, v, part,
                                                                      hc.MatvecCounter()))
    assert list(targets._batches(subs)) == [(0, 1), (1, 4)]
    whole = hc.MatvecCounter(columns=4)
    controls = hc.solve_subproblem(subs, 2, whole)

    monkeypatch.setattr(targets, "BATCH_BYTES", 2 * 8 * prob.grid.interior_node_count)
    assert list(targets._batches(subs)) == [(0, 1), (1, 3), (3, 4)]
    narrow = hc.MatvecCounter(columns=4)
    assert all(np.array_equal(a, b) for a, b in
               zip(controls, hc.solve_subproblem(subs, 2, narrow)))
    for n, sub in enumerate(subs):
        own = hc.MatvecCounter()
        assert np.array_equal(controls[n], hc.solve_subproblem(sub, 2, own))
        assert whole.per_column[n] == narrow.per_column[n] == own.count
