import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatctrl as hc

from conftest import (
    breakpoint_targets, dense_adjoint_solve, dense_state_solve, random_tiny_problem,
    step2_batches, subproblems,
)


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


@settings(max_examples=200, deadline=None)
@given(
    t_start=st.floats(-10.0, 10.0),
    length=st.floats(1e-3, 100.0),
    data=st.data(),
)
def test_partition_invariants(t_start, length, data):
    step_count = data.draw(st.integers(1, 500), label="step_count")
    n_intervals = data.draw(st.integers(1, step_count), label="n_intervals")
    tg = hc.TimeGrid(t_start, t_start + length, step_count)
    part = hc.make_partition(tg, n_intervals)
    counts = part.step_counts
    assert part.n_intervals == n_intervals
    assert sum(counts) == step_count
    assert max(counts) - min(counts) <= 1
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert part.step_offsets == tuple(np.cumsum((0,) + counts[:-1]).tolist())
    assert part.breakpoints[:-1] == tuple(tg.t_start + tg.dt * o for o in part.step_offsets)
    assert part.breakpoints[-1] == tg.t_end


def test_final_target_is_global_target_bit_for_bit(rng, tiny_problem):
    prob = tiny_problem
    part = hc.make_partition(prob.time_grid, 3)
    v = rng.standard_normal((prob.time_grid.step_count, prob.grid.control_node_count))
    _, chi, _ = breakpoint_targets(prob, part, v)
    assert np.array_equal(chi[-1], prob.y_target)


def test_targets_equal_states_when_adjoint_vanishes(rng):
    g = hc.build_grid(1, 7, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(0.0, 1.0, 8)
    y0 = rng.standard_normal(5)
    zero_v = np.zeros((8, g.control_node_count))
    y_free = hc.solve_state(g, tg, y0, zero_v, 0.5, 1e-10, hc.MatvecCounter())
    prob = hc.ControlProblem(grid=g, time_grid=tg, y0=y0, y_target=y_free[-1],
                             alpha=0.2, nu=0.5)
    part = hc.make_partition(tg, 4)
    y, chi, g = breakpoint_targets(prob, part, zero_v)
    starts = np.concatenate([b.problem.y0 for b in
                             hc.assemble_subproblems(prob, zero_v, part, y, chi, g)])
    ends = np.array(part.step_offsets[1:] + (tg.step_count,))
    np.testing.assert_allclose(chi, y_free[ends], atol=1e-14)
    np.testing.assert_allclose(starts, y_free[part.step_offsets,], atol=1e-14)


def test_targets_at_optimum_match_dense_oracle(rng):
    prob = random_tiny_problem(rng, n_interior=4, steps=8)
    v_star, _ = hc.oracle_kkt_solve(prob)
    part = hc.make_partition(prob.time_grid, 4)
    _, chi, _ = breakpoint_targets(prob, part, v_star)

    y_ref = dense_state_solve(prob.grid, prob.time_grid, prob.y0, v_star, prob.nu)
    p_ref = dense_adjoint_solve(prob.grid, prob.time_grid,
                                y_ref[-1] - prob.y_target, prob.nu)
    chi_ref = y_ref - p_ref
    ends = np.array(part.step_offsets[1:] + (prob.time_grid.step_count,))
    np.testing.assert_allclose(chi[:-1], chi_ref[ends][:-1], rtol=0, atol=1e-9)
    np.testing.assert_allclose(chi[-1], prob.y_target)


def test_single_interval_subproblem_is_the_global_problem(rng, tiny_problem):
    prob = tiny_problem
    tg = prob.time_grid
    part = hc.make_partition(tg, 1)
    v = rng.standard_normal((tg.step_count, prob.grid.control_node_count))
    ((local, _, _, _),) = subproblems(step2_batches(prob, part, v))
    assert local.time_grid == tg  # the window of all the steps is the outer grid
    assert np.array_equal(local.y0, prob.y0)
    assert np.array_equal(local.y_target, prob.y_target)
    for _ in range(3):
        w = rng.standard_normal((tg.step_count, prob.grid.control_node_count))
        j_local = hc.evaluate(local, w, hc.MatvecCounter()).cost
        j_global = hc.evaluate(prob, w, hc.MatvecCounter()).cost
        assert j_local == j_global


def test_subproblems_step_with_the_outer_dt(rng, monkeypatch):
    import heatctrl.targets as targets

    # 15 steps on 5 sub-intervals: three of the sub-intervals' own spans over
    # their step counts miss the outer dt in the last bit
    prob = dataclasses.replace(random_tiny_problem(rng, n_interior=6, steps=15),
                               time_grid=hc.TimeGrid(0.0, 0.7, 15))
    part = hc.make_partition(prob.time_grid, 5)
    v = rng.standard_normal((15, prob.grid.control_node_count))
    monkeypatch.setattr(targets, "BATCH_BYTES", 2 * 8 * prob.grid.interior_node_count)
    batches = step2_batches(prob, part, v)
    assert [b.first for b in batches] == [0, 2, 4]
    outer_dt = np.float64(prob.time_grid.dt).view(np.int64)
    for b in batches:
        tg = b.problem.time_grid
        assert np.float64(tg.dt).view(np.int64) == outer_dt
        assert (tg.t_start, tg.step_count) == (part.breakpoints[b.first], 3)
        assert b.breakpoints == part.breakpoints[b.first : b.first + len(b.warm_start) + 1]


def test_assemble_subproblems_slices_v_y_and_targets(rng, monkeypatch):
    import heatctrl.targets as targets

    prob = random_tiny_problem(rng, n_interior=6, steps=13)
    part = hc.make_partition(prob.time_grid, 4)  # step counts 4, 3, 3, 3
    v = rng.standard_normal((13, prob.grid.control_node_count))
    monkeypatch.setattr(targets, "BATCH_BYTES", 2 * 8 * prob.grid.interior_node_count)
    y, chi, g = breakpoint_targets(prob, part, v)
    batches = hc.assemble_subproblems(prob, v, part, y, chi, g)
    # the breakpoint rows are the rows of the full trajectory, bit for bit
    y_full = hc.solve_state(prob.grid, prob.time_grid, prob.y0, v, prob.nu, prob.cg_tol,
                            hc.MatvecCounter())
    assert [b.first for b in batches] == [0, 1, 3]
    windows = np.concatenate([b.warm_start.reshape(-1, v.shape[1]) for b in batches])
    assert np.array_equal(windows.view(np.int64), v.view(np.int64))
    windows = np.concatenate([b.warm_gradient.reshape(-1, g.shape[1]) for b in batches])
    assert np.array_equal(windows.view(np.int64), g.view(np.int64))
    for b in batches:
        k = len(b.warm_start)
        left = part.step_offsets[b.first : b.first + k]
        right = [o + c for o, c in zip(left, part.step_counts[b.first : b.first + k])]
        assert np.array_equal(b.problem.y0.view(np.int64), y_full[list(left)].view(np.int64))
        assert np.array_equal(b.warm_final_state.view(np.int64), y_full[right].view(np.int64))
    assert np.array_equal(batches[-1].problem.y_target[-1].view(np.int64),
                          prob.y_target.view(np.int64))


@pytest.mark.parametrize("n_intervals", [2, 4])
def test_optimum_restrictions_are_subproblem_optima(rng, n_intervals):
    prob = random_tiny_problem(rng, n_interior=5, steps=8)
    v_star, _ = hc.oracle_kkt_solve(prob)
    part = hc.make_partition(prob.time_grid, n_intervals)
    for local, warm_start, _, _ in subproblems(step2_batches(prob, part, v_star)):
        g = hc.gradient(local, warm_start, hc.MatvecCounter())
        assert hc.norm_h(local.grid, local.time_grid, g) <= 1e-8


def test_optimum_solves_truncated_horizon_problems(rng):
    prob = random_tiny_problem(rng, n_interior=4, steps=8)
    v_star, _ = hc.oracle_kkt_solve(prob)
    part = hc.make_partition(prob.time_grid, 4)
    _, chi, _ = breakpoint_targets(prob, part, v_star)
    # truncate at each interior breakpoint tau = t_n; target chi*(tau)
    for n in range(1, part.n_intervals):
        steps_to_tau = part.step_offsets[n]
        truncated = hc.ControlProblem(
            grid=prob.grid,
            time_grid=hc.TimeGrid(0.0, part.breakpoints[n], steps_to_tau),
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
        time_grid=hc.TimeGrid(0.0, 0.9, steps),
        y0=rng.standard_normal(grid.interior_node_count),
        y_target=rng.standard_normal(grid.interior_node_count),
        alpha=0.2,
        nu=0.4,
        cg_tol=1e-12,
    )


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("steps, n_intervals", [(8, 1), (8, 2), (8, 4), (13, 4)])
def test_warm_gradient_is_the_local_gradient_at_the_warm_start(rng, dim, steps, n_intervals):
    # the local adjoint starts from y - chi = p at the right breakpoint and
    # runs the outer recursion, so the outer gradient's window is each
    # sub-problem's first gradient up to rounding
    if dim == 1:
        prob = random_tiny_problem(rng, n_interior=6, steps=steps)
    else:
        prob = _tiny_2d_problem(rng, steps)
    part = hc.make_partition(prob.time_grid, n_intervals)
    v = rng.standard_normal((steps, prob.grid.control_node_count))
    pieces = list(subproblems(step2_batches(prob, part, v)))
    assert len(pieces) == n_intervals
    for local, warm_start, warm_final_state, warm_gradient in pieces:
        g = hc.gradient(local, warm_start, hc.MatvecCounter(), final_state=warm_final_state)
        err = hc.norm_h(local.grid, local.time_grid, g - warm_gradient)
        assert err <= 1e-12 * hc.norm_h(local.grid, local.time_grid, g)


def _local_controls(part, v_tilde):
    return [v_tilde[o : o + c] for o, c in zip(part.step_offsets, part.step_counts)]


def test_solve_subproblem_never_increases_local_cost(rng, tiny_problem):
    prob = tiny_problem
    part = hc.make_partition(prob.time_grid, 2)
    v = rng.standard_normal((prob.time_grid.step_count, prob.grid.control_node_count))
    batches = step2_batches(prob, part, v)
    v_tilde = hc.solve_subproblem(batches, 1, hc.MatvecCounter())
    for (local, warm_start, _, _), control in zip(subproblems(batches),
                                               _local_controls(part, v_tilde)):
        j_before = hc.evaluate(local, warm_start, hc.MatvecCounter()).cost
        j_after = hc.evaluate(local, control, hc.MatvecCounter()).cost
        assert j_after <= j_before + 1e-14


def test_solve_subproblem_reaches_local_oracle(rng):
    prob = random_tiny_problem(rng, n_interior=4, steps=8)
    part = hc.make_partition(prob.time_grid, 2)
    v = rng.standard_normal((prob.time_grid.step_count, prob.grid.control_node_count))
    batches = step2_batches(prob, part, v)
    v_tilde = hc.solve_subproblem(batches, 300, hc.MatvecCounter(), gradient_rtol=1e-10)
    for (local, _, _, _), control in zip(subproblems(batches), _local_controls(part, v_tilde)):
        v_local, _ = hc.oracle_kkt_solve(local)
        err = hc.norm_h(local.grid, local.time_grid, control - v_local)
        assert err <= 1e-6


def test_assemble_rejects_mismatched_targets(rng, tiny_problem):
    prob = tiny_problem
    part2 = hc.make_partition(prob.time_grid, 2)
    part4 = hc.make_partition(prob.time_grid, 4)
    v = np.zeros((prob.time_grid.step_count, prob.grid.control_node_count))
    y, chi, g = breakpoint_targets(prob, part2, v)
    with pytest.raises(ValueError):
        hc.assemble_subproblems(prob, v, part4, y, chi, g)
    # full trajectories in place of the breakpoint rows
    counter = hc.MatvecCounter()
    y_full = hc.solve_state(prob.grid, prob.time_grid, prob.y0, v, prob.nu, prob.cg_tol,
                            counter)
    p_full = hc.solve_adjoint(prob.grid, prob.time_grid, y_full[-1] - prob.y_target, prob.nu,
                              prob.cg_tol, counter)
    with pytest.raises(ValueError, match="breakpoints"):
        hc.targets_from_solutions(prob, part2, y_full, p_full)
    with pytest.raises(ValueError):
        hc.assemble_subproblems(prob, v, part2, y_full, chi, g)


def test_subproblem_batches_split_by_step_count_and_width(rng, monkeypatch):
    import heatctrl.targets as targets

    prob = random_tiny_problem(rng, n_interior=6, steps=13)
    part = hc.make_partition(prob.time_grid, 4)  # step counts 4, 3, 3, 3
    v = rng.standard_normal((13, prob.grid.control_node_count))
    y, chi, g = breakpoint_targets(prob, part, v)

    def solve(columns):
        """Step 2 in batches at most ``columns`` wide (None: the default width)."""
        if columns is not None:
            monkeypatch.setattr(targets, "BATCH_BYTES",
                                columns * 8 * prob.grid.interior_node_count)
        batches = hc.assemble_subproblems(prob, v, part, y, chi, g)
        counter = hc.MatvecCounter(columns=4)
        v_tilde = hc.solve_subproblem(batches, 2, counter)
        assert counter.parallel == counter.per_column.max()
        assert counter.count == counter.per_column.sum()
        return [b.first for b in batches], v_tilde, counter.per_column

    firsts, whole, whole_counts = solve(None)
    assert firsts == [0, 1]
    # 2 columns: batches of sub-problems (0), (1, 2), (3); 1 column: each on its own
    _, narrow, narrow_counts = solve(2)
    _, own, own_counts = solve(1)
    assert np.array_equal(whole, narrow) and np.array_equal(whole, own)
    assert np.array_equal(whole_counts, narrow_counts)
    assert np.array_equal(whole_counts, own_counts)
