import collections
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatctrl as hc
from heatctrl.config import make_field
from heatctrl.driver import STEP_PIVOT
from heatctrl.problem import _record
from heatctrl.propagators import free_evolution
from heatctrl.targets import DIRECTION_CG_TOL

from conftest import (break_step2_solves, random_tiny_problem, reference_descent,
                      subspace_minimizer, thirteen_step_problem)


def _random_control(rng, prob):
    return rng.standard_normal(
        (prob.time_grid.step_count, prob.grid.control_node_count)
    )


def _untimed(history):
    """A run's history rows with the wall time, which no rerun repeats, zeroed."""
    return [dataclasses.replace(row, wall_time=0.0) for row in history]


def _residual(prob, v, counter):
    return hc.evaluate(prob, v, counter).final_state - prob.y_target


def test_line_search_zero_direction(tiny_problem):
    v = tiny_problem.zero_control()
    counter = hc.MatvecCounter()
    part = hc.make_partition(tiny_problem.time_grid, 2)
    theta, step, z = hc.line_search(tiny_problem, part, v, np.zeros_like(v),
                                    _residual(tiny_problem, v, counter), counter)
    assert theta == 0.0 and step is None and z is None


def test_line_search_vanishes_at_optimum(rng):
    prob = random_tiny_problem(rng)
    v_star, _ = hc.oracle_kkt_solve(prob)
    d = _random_control(rng, prob)
    counter = hc.MatvecCounter()
    part = hc.make_partition(prob.time_grid, 2)
    theta, _, _ = hc.line_search(prob, part, v_star, d, _residual(prob, v_star, counter),
                                 counter)
    assert abs(theta) <= 1e-8


def test_line_search_is_the_scalar_minimizer():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        prob = random_tiny_problem(rng, n_interior=4, steps=6)
        v = _random_control(rng, prob)
        d = _random_control(rng, prob)
        counter = hc.MatvecCounter()
        part = hc.make_partition(prob.time_grid, 3)
        theta_star, _, _ = hc.line_search(prob, part, v, d, _residual(prob, v, counter),
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


# 13 steps make uneven windows for N = 2, 3, 4 and 8 (7 + 6, 5 + 4 + 4,
# 4 + 3 + 3 + 3, and 2 steps five times, then 1 three times)
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_intervals", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("inner, inner_rtol", [(1, None), (3, 1e-6), (3, None)])
def test_line_search_from_the_head_matches_a_tight_full_sweep(rng, dim, n_intervals, inner,
                                                              inner_rtol):
    # with one inner iteration or an inner gradient test, step 2 hands the
    # line search sub-problem 0's response as z at the first breakpoint and
    # the sweep starts there; z(T) and theta still match a sweep of every
    # step at cg_tol = 1e-14.  More inner iterations without a test hand it
    # nothing, and it sweeps every step
    prob = thirteen_step_problem(dim, rng, 1e-10)
    grid, tg = prob.grid, prob.time_grid
    part = hc.make_partition(tg, n_intervals)
    cfg = hc.OuterConfig(n_intervals=n_intervals, inner_iterations=inner,
                         inner_gradient_rtol=inner_rtol)
    v = _random_control(rng, prob)
    scratch = hc.MatvecCounter()
    residual = _residual(prob, v, scratch)
    d, head = hc.targets_direction(prob, part, cfg, hc.gradient(prob, v, scratch), scratch)
    assert (head is None) == (inner > 1 and inner_rtol is None)
    counter = hc.MatvecCounter()
    theta, _, z = hc.line_search(prob, part, v, d, residual, counter, head)
    tight = dataclasses.replace(prob, cg_tol=1e-14)
    theta_ref, _, z_ref = hc.line_search(tight, part, v, d, residual, hc.MatvecCounter())
    assert z.shape == z_ref.shape == (grid.interior_node_count,)
    assert np.linalg.norm(z - z_ref) <= 1e-9 * np.linalg.norm(z_ref)
    assert abs(theta - theta_ref) <= 1e-9 * abs(theta_ref)
    # the head saves the steps of window 0; with one interval it is z(T),
    # and the line search makes no sweep
    full = hc.MatvecCounter()
    hc.line_search(prob, part, v, d, residual, full)
    assert (counter.count < full.count) == (head is not None)
    assert (counter.count == 0) == (n_intervals == 1 and head is not None)


def _branch_sweep(prob, part, d, head, counter):
    """z(T) as the line search once made it, one branch per case: every step
    from zero without a head, the steps after the first window from the head
    with one, and with a head and one interval the head itself."""
    grid, tg = prob.grid, prob.time_grid
    if head is None:
        return hc.solve_state(grid, tg, grid.zero_field(), d, prob.nu, prob.cg_tol, counter,
                              keep=-1, breakpoints=part)
    if len(part) > 2:
        start = part[1]
        return hc.solve_state(grid, hc.TimeGrid(tg.step_count - start, tg.dt), head, d[start:],
                              prob.nu, prob.cg_tol, counter, keep=-1,
                              breakpoints=[b - start for b in part[1:]])
    return head


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_intervals", [1, 3])
@pytest.mark.parametrize("inner", [1, 2])
def test_line_search_sweep_has_the_bits_of_each_case_s_own_sweep(rng, dim, n_intervals, inner):
    # the one sweep from a start step gives, in each case, the bits and the
    # count of that case's own solve_state call: no head (given none, or
    # with two inner iterations step 2 gives none), a head on the uneven
    # windows 5 + 4 + 4, and a head with one interval, which is z(T)
    prob = thirteen_step_problem(dim, rng, 1e-10)
    grid, tg = prob.grid, prob.time_grid
    part = hc.make_partition(tg, n_intervals)
    v = _random_control(rng, prob)
    scratch = hc.MatvecCounter()
    residual = _residual(prob, v, scratch)
    d, head = hc.targets_direction(prob, part, hc.OuterConfig(n_intervals, inner),
                                   hc.gradient(prob, v, scratch), scratch)
    assert (head is None) == (inner == 2)
    for given in [None] if head is None else [head, None]:
        counter, want_counter = hc.MatvecCounter(), hc.MatvecCounter()
        theta, _, z = hc.line_search(prob, part, v, d, residual, counter, given)
        want = _branch_sweep(prob, part, d, given, want_counter)
        num = hc.inner_omega(grid, residual, want) + prob.alpha * hc.inner_h(grid, tg, v, d)
        den = hc.inner_omega(grid, want, want) + prob.alpha * hc.inner_h(grid, tg, d, d)
        assert np.array_equal(z.view(np.int64), want.view(np.int64))
        assert np.float64(theta).view(np.int64) == np.float64(-num / den).view(np.int64)
        assert counter.count == want_counter.count
        assert (counter.count == 0) == (given is not None and n_intervals == 1)


def test_line_search_recalls_the_corrections_of_earlier_windows(monkeypatch):
    # the first line search of a scaled-down benchmark instance, in 2D over
    # four windows of 10 steps at dt nu / h^2 = 1.02: from the third window
    # on, the first steps' CG starts recall the corrections made at the same
    # steps of the last windows, which saves products; z(T) still matches a
    # sweep of every step at cg_tol = 1e-14
    import heatctrl.propagators as propagators
    from heatctrl.config import make_field

    grid = hc.build_grid(2, 17, [(0.0, 1.0)] * 2, [(1 / 3, 2 / 3)] * 2)
    patch = ",".join([repr(1 / 3), repr(2 / 3)] * 2)
    prob = hc.ControlProblem(grid=grid, time_grid=hc.TimeGrid(40, 0.02),
                             y0=make_field(grid, "gaussian(0.5,0.5,0.15,1.0)"),
                             y_target=make_field(grid, f"indicator({patch})"),
                             alpha=1e-2, nu=0.2)
    part = hc.make_partition(prob.time_grid, 4)
    v = prob.zero_control()
    scratch = hc.MatvecCounter()
    residual = _residual(prob, v, scratch)
    d, head = hc.targets_direction(prob, part, hc.OuterConfig(n_intervals=4),
                                   hc.gradient(prob, v, scratch), scratch)
    recalled = hc.MatvecCounter()
    _, _, z = hc.line_search(prob, part, v, d, residual, recalled, head)
    monkeypatch.setattr(propagators, "RECALL_STEPS", 0)
    alone = hc.MatvecCounter()
    _, _, z_alone = hc.line_search(prob, part, v, d, residual, alone, head)
    assert (recalled.count, alone.count) == (427, 453)
    tight = dataclasses.replace(prob, cg_tol=1e-14)
    _, _, z_ref = hc.line_search(tight, part, v, d, residual, hc.MatvecCounter(), head)
    for got in (z, z_alone):
        assert np.linalg.norm(got - z_ref) <= 1e-9 * np.linalg.norm(z_ref)


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
    tg = hc.TimeGrid(8, 1.0 / 8)
    y0 = rng.standard_normal(5)
    y_free = free_evolution(g, tg, y0, 0.5, 1e-10, hc.MatvecCounter())
    prob = hc.ControlProblem(grid=g, time_grid=tg, y0=y0, y_target=y_free,
                             alpha=0.2, nu=0.5)
    res = hc.run(prob, hc.OuterConfig(n_intervals=4))
    assert res.converged
    assert len(res.history) == 1
    assert res.history[0].cost == 0.0


def _probe_problem(case):
    """The CLI probes' instances: the 65-node line at nu dt / h^2 = 102.4,
    whose free evolution is the CG sweep's, and a 9 x 9 grid at nu = 0.05,
    whose is the Chebyshev pass's."""
    if case == "stiff":
        grid = hc.build_grid(1, 65, [(0.0, 1.0)], [(0.25, 0.75)])
        tg, nu, y0 = hc.TimeGrid(45, 0.05), 0.5, "gaussian(0.5,0.15,1.0)"
    else:
        grid = hc.build_grid(2, 9, [(0.0, 1.0)] * 2, [(0.25, 0.75)] * 2)
        tg, nu, y0 = hc.TimeGrid(36, 0.05), 0.05, "gaussian(0.5,0.5,0.15,1.0)"
    target = f"indicator({','.join(['0.25', '0.75'] * grid.dim)})"
    return hc.ControlProblem(grid=grid, time_grid=tg, y0=make_field(grid, y0),
                             y_target=make_field(grid, target), alpha=0.3, nu=nu)


@pytest.mark.parametrize("case", ["stiff", "smooth"])
def test_run_from_zero_takes_its_first_state_from_the_free_evolution(case):
    # row 0 of a run from v = 0, or from a zero start, has the bits of J at
    # free_evolution's state and its products; on the stiff line that state
    # is the CG sweep's, bit for bit, and on the smooth grid it is not
    prob = _probe_problem(case)
    grid, tg, v = prob.grid, prob.time_grid, prob.zero_control()
    counter = hc.MatvecCounter()
    y = free_evolution(grid, tg, prob.y0, prob.nu, prob.cg_tol, counter)
    hc.gradient(prob, v, counter, final_state=y)
    want = (_record(prob, v, y).cost, counter.count, counter.parallel)
    cfg = hc.OuterConfig(n_intervals=5, max_outer=0)
    for start in (None, v):
        row = hc.run(prob, cfg, start=start).history[0]
        assert (row.cost, row.matvec_sequential, row.matvec_parallel) == want
    sweep = hc.solve_state(grid, tg, prob.y0, v, prob.nu, prob.cg_tol, hc.MatvecCounter(),
                           keep=-1)
    assert (sweep.tobytes() == y.tobytes()) == (case == "stiff")


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

    import heatctrl.problem as problem

    def counted(*args, real=problem.solve_adjoint, **kwargs):
        calls.append(args[2].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(problem, "solve_adjoint", counted)
    res = hc.run(prob, hc.OuterConfig(n_intervals=4, inner_iterations=1, max_outer=30))
    assert len(res.history) > 2
    assert calls == [prob.y0.shape] * len(res.history)


def test_one_inner_iteration_never_reads_the_targets(rng, monkeypatch):
    # step 2 reads the targets only through the gradient: sub-problems whose
    # y0 and y_target are NaN change no bit of the run (test_problem checks
    # the descent at more inner iterations)
    prob = random_tiny_problem(rng, n_interior=6, steps=13)
    cfg = hc.OuterConfig(n_intervals=4, max_outer=8, gradient_rtol=1e-9)
    sighted = hc.run(prob, cfg)

    import heatctrl.driver as driver

    blinded = []

    def blind(*args, real=driver.assemble_subproblems):
        nan = np.full(prob.grid.interior_node_count, np.nan)
        blinded.append(1)
        return [dataclasses.replace(sub, problem=dataclasses.replace(sub.problem, y0=nan,
                                                                     y_target=nan))
                for sub in real(*args)]

    monkeypatch.setattr(driver, "assemble_subproblems", blind)
    blinded_run = hc.run(prob, cfg)
    assert len(blinded) == len(blinded_run.history) - 1 > 2
    assert np.array_equal(sighted.control.view(np.int64), blinded_run.control.view(np.int64))
    assert _untimed(sighted.history) == _untimed(blinded_run.history)


def test_worker_failure_identifies_subinterval(rng, monkeypatch):
    # 7 steps on 3 sub-intervals of 3, 2 and 2 steps; a non-finite local
    # gradient breaks sub-problem 1
    prob = random_tiny_problem(rng, steps=7)
    cfg = hc.OuterConfig(n_intervals=3)

    import heatctrl.driver as driver

    real = driver.assemble_subproblems

    def poisoned(*args):
        subs = real(*args)
        bad = subs[1].warm_gradient.copy()
        bad[0, 0] = np.nan
        subs[1] = dataclasses.replace(subs[1], warm_gradient=bad)
        return subs

    monkeypatch.setattr(driver, "assemble_subproblems", poisoned)
    with pytest.raises(hc.CGError, match="sub-problem 1") as failure:
        _one_sweep(prob, cfg, prob.zero_control())
    # its interval [t_3, t_5], at dt * step
    dt = prob.time_grid.dt
    assert str(failure.value).startswith(f"sub-problem 1 on [{dt * 3:g}, {dt * 5:g}]: ")


def test_worker_cg_failure_keeps_its_type(rng, monkeypatch):
    # 12 steps on 3 sub-intervals of 4 steps: sub-problem 1 is [t_4, t_8]
    prob = random_tiny_problem(rng, steps=12)
    cfg = hc.OuterConfig(n_intervals=3)
    break_step2_solves(monkeypatch, 1)
    with pytest.raises(hc.CGError) as failure:
        _one_sweep(prob, cfg, prob.zero_control())
    dt = prob.time_grid.dt
    assert type(failure.value) is hc.CGError
    assert str(failure.value) == f"sub-problem 1 on [{dt * 4:g}, {dt * 8:g}]: synthetic breakdown"


def _reference_subproblem(sub, iterations, counter, gradient_rtol=None):
    """One sub-problem by the reference descent, at the looser direction
    tolerance when there is no inner gradient test, except for sub-problem 0
    at one inner iteration; the response only from a descent at cg_tol."""
    local = sub.problem
    exact = gradient_rtol is not None or (sub.index == 0 and iterations == 1)
    if not exact:
        local = dataclasses.replace(local, cg_tol=max(local.cg_tol, DIRECTION_CG_TOL))
    update, response, _, _ = reference_descent(local, sub.warm_gradient, iterations, counter,
                                               gradient_rtol)
    return update, response if exact else None


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

    monkeypatch.setattr(driver, "solve_subproblem", _reference_subproblem)
    looped = hc.run(prob, cfg)

    assert np.array_equal(batched.control.view(np.int64), looped.control.view(np.int64))
    assert len(batched.history) == len(looped.history) > 2
    for a, b in zip(batched.history, looped.history):
        assert (a.cost, a.misfit, a.penalty, a.theta, a.matvec_sequential,
                a.matvec_parallel) == (b.cost, b.misfit, b.penalty, b.theta,
                                       b.matvec_sequential, b.matvec_parallel)


# cg_tol 1e-5 is tighter than DIRECTION_CG_TOL, so step 2 loosens from it;
# cg_tol 3e-3 is looser, so step 2 keeps it
@pytest.mark.parametrize("cg_tol, inner, inner_rtol", [
    (1e-12, 1, None), (1e-12, 3, None), (1e-12, 3, 1e-6), (1e-5, 1, None), (3e-3, 1, None),
])
def test_only_step2_solves_loosen_and_only_without_an_inner_test(rng, monkeypatch, cg_tol,
                                                                 inner, inner_rtol):
    # every solve made under solve_subproblem runs at max(cg_tol,
    # DIRECTION_CG_TOL) when the inner descent has no gradient test and at
    # cg_tol when it has one; every other solve (state, adjoint, line
    # search) runs at cg_tol.  Sub-problem 0 at one inner iteration runs at
    # cg_tol too: its response is the line search's z at the first breakpoint
    prob = random_tiny_problem(rng, n_interior=6, steps=13, cg_tol=cg_tol)
    cfg = hc.OuterConfig(n_intervals=4, inner_iterations=inner,
                         inner_gradient_rtol=inner_rtol, max_outer=6, gradient_rtol=1e-9)

    import heatctrl.driver as driver
    import heatctrl.propagators as propagators

    calls, in_step2 = [], [None]  # the index of the sub-problem being solved

    def logged_cg(apply_a, b, tol, *args, real=propagators.cg_solve, **kwargs):
        calls.append((in_step2[0], tol))
        return real(apply_a, b, tol, *args, **kwargs)

    def logged_adjoint(apply_a, b, count, tol, *args, real=propagators.inverse_powers):
        calls.append((in_step2[0], tol))
        return real(apply_a, b, count, tol, *args)

    def logged_step2(sub, *args, real=driver.solve_subproblem, **kwargs):
        in_step2[0] = sub.index
        try:
            return real(sub, *args, **kwargs)
        finally:
            in_step2[0] = None

    monkeypatch.setattr(propagators, "cg_solve", logged_cg)
    monkeypatch.setattr(propagators, "inverse_powers", logged_adjoint)
    monkeypatch.setattr(driver, "solve_subproblem", logged_step2)
    res = hc.run(prob, cfg)
    assert len(res.history) > 2
    step2_tol = cg_tol if inner_rtol is not None else max(cg_tol, DIRECTION_CG_TOL)
    first_tol = cg_tol if inner == 1 else step2_tol
    assert {tol for inside, tol in calls if inside == 0} == {first_tol}
    assert {tol for inside, tol in calls if inside is not None and inside > 0} == {step2_tol}
    assert {tol for inside, tol in calls if inside is None} == {cg_tol}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_intervals", [2, 3, 5])
def test_loose_direction_is_within_twice_its_tolerance_of_a_tight_one(rng, monkeypatch, dim,
                                                                       n_intervals):
    # d from step 2 at DIRECTION_CG_TOL is off the d of solves at 1e-12 by at
    # most 2 DIRECTION_CG_TOL relative in the H-norm; sub-problem 0 runs at
    # cg_tol either way, so the head has the same bits
    import heatctrl.targets as targets

    cfg = hc.OuterConfig(n_intervals=n_intervals)
    for _ in range(3):
        prob = thirteen_step_problem(dim, rng, 1e-12)
        grid, tg = prob.grid, prob.time_grid
        part = hc.make_partition(tg, n_intervals)
        g = hc.gradient(prob, _random_control(rng, prob), hc.MatvecCounter())
        d, head = hc.targets_direction(prob, part, cfg, g, hc.MatvecCounter())
        with monkeypatch.context() as patched:
            patched.setattr(targets, "DIRECTION_CG_TOL", 1e-12)
            d_ref, head_ref = hc.targets_direction(prob, part, cfg, g, hc.MatvecCounter())
        assert hc.norm_h(grid, tg, d - d_ref) <= 2 * DIRECTION_CG_TOL * hc.norm_h(grid, tg, d_ref)
        assert np.array_equal(head.view(np.int64), head_ref.view(np.int64))


def test_one_interval_never_reads_the_direction_tolerance(rng, monkeypatch):
    # with one interval and one inner iteration step 2 is sub-problem 0, which
    # runs at cg_tol: a run with DIRECTION_CG_TOL at 0.5 has the same bits
    import heatctrl.targets as targets

    prob = random_tiny_problem(rng, n_interior=6, steps=13)
    cfg = hc.OuterConfig(n_intervals=1, max_outer=30, gradient_rtol=1e-8)
    res = hc.run(prob, cfg)
    assert len(res.history) > 2
    monkeypatch.setattr(targets, "DIRECTION_CG_TOL", 0.5)
    patched = hc.run(prob, cfg)
    assert _untimed(res.history) == _untimed(patched.history)
    assert np.array_equal(res.control.view(np.int64), patched.control.view(np.int64))


def test_run_stops_at_first_rejected_step(rng):
    # cg_tol 1e-6 cannot resolve gradient_rtol 1e-12: after a few sweeps the
    # exact step proposes an uphill step, which run rejects (on 20 nodes: on
    # fewer, the step over d and the previous step can reach the test first)
    prob = random_tiny_problem(rng, n_interior=20, steps=8, cg_tol=1e-6)
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
    baseline=st.booleans(),
)
def test_run_history_invariants(nodes, steps, data, inner, seed, baseline):
    # on every row, for either method: J never rises, both tallies never
    # fall and the parallel tally never exceeds the sequential one; the
    # baseline, one interval with one inner step, saves nothing, so its two
    # tallies agree
    prob = random_tiny_problem(np.random.default_rng(seed), n_interior=nodes, steps=steps)
    n_intervals = data.draw(st.integers(1, steps), label="n_intervals")
    if baseline:
        n_intervals, inner = 1, 1
    res = hc.run(prob, hc.OuterConfig(n_intervals=n_intervals, inner_iterations=inner,
                                      max_outer=20, gradient_rtol=1e-9))
    rows = res.history
    assert all(b.cost <= a.cost for a, b in zip(rows, rows[1:]))
    assert all(b.matvec_sequential >= a.matvec_sequential for a, b in zip(rows, rows[1:]))
    assert all(b.matvec_parallel >= a.matvec_parallel for a, b in zip(rows, rows[1:]))
    assert all(m.matvec_parallel <= m.matvec_sequential for m in rows)
    if baseline:
        assert all(m.matvec_parallel == m.matvec_sequential for m in rows)


def _tiny_2d_problem(rng):
    """Random instance on a 4 x 4 interior with a 2 x 2 control patch."""
    grid = hc.build_grid(2, 6, [(0.0, 1.0)] * 2, [(0.3, 0.7)] * 2)
    return hc.ControlProblem(grid=grid, time_grid=hc.TimeGrid(6, 0.6 / 6),
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
        res = hc.run(prob, cfg)
        counter = hc.MatvecCounter()
        want, _, steps, _ = reference_descent(prob, hc.gradient(prob, prob.zero_control(),
                                                                counter),
                                              cfg.max_outer, counter, cfg.gradient_rtol)
        assert res.converged
        assert len(res.history) - 1 == steps > 0
        grid, tg = prob.grid, prob.time_grid
        assert hc.norm_h(grid, tg, res.control - want) <= 1e-9 * hc.norm_h(grid, tg, want)


def test_every_charged_product_is_one_stencil_call_on_one_field(rng, monkeypatch):
    # a whole intermediate-targets run, whose step 2 solves 3 sub-problems
    # forward and, with a second inner iteration, backward: the stencil is
    # called once per product the run charges, on one field
    import heatctrl.propagators as propagators

    shapes = []

    def logged(grid, u, **buffers):
        shapes.append(u.shape)
        return real(grid, u, **buffers)

    real = propagators.laplacian_apply
    monkeypatch.setattr(propagators, "laplacian_apply", logged)
    prob = _tiny_2d_problem(rng)
    res = hc.run(prob, hc.OuterConfig(n_intervals=3, inner_iterations=2, max_outer=3,
                                      gradient_rtol=1e-12))
    assert len(res.history) == 4 and not res.stalled
    assert len(shapes) == res.history[-1].matvec_sequential
    assert set(shapes) == {(prob.grid.interior_node_count,)}


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


def _run_peak_bytes(steps, max_outer=3):
    """tracemalloc peak of ``run`` on a 15 x 15 interior with a 3 x 3 control
    patch, ``steps`` time steps, 4 sub-intervals and ``max_outer`` outer
    iterations."""
    rng = np.random.default_rng(7)
    grid = hc.build_grid(2, 17, [(0.0, 1.0)] * 2, [(0.4, 0.6)] * 2)
    prob = hc.ControlProblem(grid=grid, time_grid=hc.TimeGrid(steps, 0.5 / steps),
                             y0=rng.standard_normal(grid.interior_node_count),
                             y_target=rng.standard_normal(grid.interior_node_count),
                             alpha=0.1, nu=0.5)
    cfg = hc.OuterConfig(n_intervals=4, max_outer=max_outer, gradient_rtol=1e-12)
    tracemalloc.start()
    try:
        res = hc.run(prob, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.history) == max_outer + 1
    return peak, grid.interior_node_count


def test_run_memory_does_not_grow_with_full_trajectories():
    # a run keeps y(T), z(T) and p on the control patch: four times the
    # steps must cost less than one more full trajectory
    short = 16
    _run_peak_bytes(short)  # first-call allocations stay out of the comparison
    small, n = _run_peak_bytes(short)
    large, _ = _run_peak_bytes(4 * short)
    assert large - small < (4 * short + 1) * n * 8


def test_remembered_directions_cost_at_most_three_controls_and_fields(monkeypatch):
    # a run whose ring fills (five steps, the last three remembered) peaks
    # at most three controls and three fields above the same run remembering
    # none, plus 1 KiB a direction for the array and tuple objects (about
    # 0.6 KiB); one more control or field a direction would pass the bound
    import heatctrl.driver as driver

    steps = 16
    _run_peak_bytes(steps, max_outer=5)
    full, n = _run_peak_bytes(steps, max_outer=5)
    monkeypatch.setattr(driver, "REMEMBERED_DIRECTIONS", 0)
    none, _ = _run_peak_bytes(steps, max_outer=5)
    assert full - none <= 3 * ((steps * 9 + n) * 8 + 1024)


def _logged_run(monkeypatch, prob, cfg):
    """``run``, and per outer iteration k its control v_k, the final state
    y(T; v_k) it carries and step 2's direction d_k."""
    import heatctrl.driver as driver

    iterates, directions = [], []

    def logged_gradient(problem, v, counter, final_state, real=driver.gradient):
        iterates.append((v.copy(), final_state.copy()))
        return real(problem, v, counter, final_state=final_state)

    def logged_direction(*args, real=driver.targets_direction):
        d, head = real(*args)
        directions.append(d.copy())
        return d, head

    monkeypatch.setattr(driver, "gradient", logged_gradient)
    monkeypatch.setattr(driver, "targets_direction", logged_direction)
    return hc.run(prob, cfg), iterates, directions


def _parity_parts(u):
    """The even and odd parts of a control under the point reflection."""
    return (u + u[:, ::-1]) / 2, (u - u[:, ::-1]) / 2


def _off_centre(prob):
    """The instance with its control patch moved off the box's centre."""
    dim = prob.grid.dim
    grid = hc.build_grid(dim, prob.grid.nodes_per_axis, [(0.0, 1.0)] * dim,
                         [(0.1, 0.6)] * dim)
    assert not grid.patch_is_point_symmetric
    return dataclasses.replace(prob, grid=grid)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_intervals", [2, 3])
@pytest.mark.parametrize("centred", [True, False])
def test_step_minimizes_the_cost_over_d_and_the_previous_step(rng, monkeypatch, dim,
                                                              n_intervals, centred):
    # from the second outer iteration on, v_{k+1} is the exact minimizer of J
    # over v_k plus the span of the step's columns, d_k, s_k = v_k - v_{k-1}
    # the last step, and d_{k-1}, d_{k-2}, d_{k-3} as far as they exist,
    # less each column within 5.7 degrees of the span of the ones kept
    # before it, to 1e-10 of the step.  The s part of that minimizer is far
    # larger, so the exact step along d alone would fail.  On a centred
    # patch d_k enters as its even and odd parts, and the minimizer is off
    # the one with d_k whole by far more.  At the third iteration the
    # remembered directions move the step far off the plane step over d_k
    # and s_k (at the second, s_k lies along d_{k-1}).  (From the fourth
    # iteration on these instances' steps near the rounding of v; in 1D the
    # line has 15 nodes, since on 6 the split steps reach it by the third.)
    if dim == 1:
        prob = random_tiny_problem(rng, n_interior=15, steps=13, cg_tol=1e-12)
    else:
        prob = thirteen_step_problem(dim, rng, 1e-12)
    if not centred:
        prob = _off_centre(prob)
    assert prob.grid.patch_is_point_symmetric == centred
    cfg = hc.OuterConfig(n_intervals=n_intervals, max_outer=3, gradient_rtol=1e-300)
    res, iterates, directions = _logged_run(monkeypatch, prob, cfg)
    assert len(res.history) == 4 and not res.stalled
    controls = [v for v, _ in iterates] + [res.control]
    grid, tg = prob.grid, prob.time_grid
    for k in (1, 2):
        v_prev, v, v_next = controls[k - 1:k + 2]
        d, s = directions[k], v - v_prev
        parts = list(_parity_parts(d)) if centred else [d]
        remembered = directions[k - 1::-1][:3]
        want, c = subspace_minimizer(prob, v, [*parts, s, *remembered], STEP_PIVOT)
        whole, _ = subspace_minimizer(prob, v, [d, s, *remembered], STEP_PIVOT)
        plane, _ = subspace_minimizer(prob, v, [*parts, s], STEP_PIVOT)
        step = hc.norm_h(grid, tg, v_next - v)
        assert abs(c[len(parts)]) * hc.norm_h(grid, tg, s) >= 1e-6 * step
        if centred:
            assert hc.norm_h(grid, tg, v_next - whole) >= 1e-6 * step
        if k == 2:
            assert hc.norm_h(grid, tg, v_next - plane) >= 1e-6 * step
        assert hc.norm_h(grid, tg, v_next - want) <= 1e-10 * step


@settings(max_examples=30, deadline=None)
@given(
    nodes=st.integers(3, 8),
    steps=st.integers(2, 16),
    data=st.data(),
    inner=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_is_no_worse_than_the_scalar_step_along_d(nodes, steps, data, inner, seed):
    # J after each step over d and the previous step is at most J after the
    # exact scalar step along d from the same iterate (both J at a tight
    # tolerance)
    prob = random_tiny_problem(np.random.default_rng(seed), n_interior=nodes, steps=steps)
    n_intervals = data.draw(st.integers(2, steps), label="n_intervals")
    cfg = hc.OuterConfig(n_intervals=n_intervals, inner_iterations=inner, max_outer=6,
                         gradient_rtol=1e-9)
    with pytest.MonkeyPatch.context() as monkeypatch:
        res, iterates, directions = _logged_run(monkeypatch, prob, cfg)
    part = hc.make_partition(prob.time_grid, n_intervals)
    tight = dataclasses.replace(prob, cg_tol=1e-14)
    counter = hc.MatvecCounter()
    controls = [v for v, _ in iterates] + [res.control]
    for k, d in enumerate(directions):
        (v, y), v_next = iterates[k], controls[k + 1]
        theta, _, _ = hc.line_search(prob, part, v, d, y - prob.y_target, counter)
        j_scalar = hc.evaluate(tight, v + theta * d, counter).cost
        assert hc.evaluate(tight, v_next, counter).cost <= j_scalar + 1e-12 * j_scalar


_LineSearch = collections.namedtuple("_LineSearch",
                                     "v d residual head previous remembered z d_left")


def _logged_line_searches(monkeypatch):
    """Per ``line_search`` call of a run, a ``_LineSearch``: its arguments v,
    d, residual, head and previous as they came (copies), its remembered
    pairs (the objects themselves), the z(T) it returned and d as it left it
    (copies)."""
    import heatctrl.driver as driver

    calls = []

    def logged(problem, partition, v, d, residual, counter, head, previous, remembered,
               real=driver.line_search):
        copies = [None if x is None else x.copy() for x in (v, d, residual, head)]
        copies.append(None if previous is None else tuple(x.copy() for x in previous))
        result = real(problem, partition, v, d, residual, counter, head, previous, remembered)
        calls.append(_LineSearch(*copies, list(remembered),
                                 None if result[2] is None else result[2].copy(), d.copy()))
        return result

    monkeypatch.setattr(driver, "line_search", logged)
    return calls


@settings(max_examples=30, deadline=None)
@given(
    nodes=st.integers(3, 8),
    steps=st.integers(2, 16),
    data=st.data(),
    inner=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_is_no_worse_than_the_plane_step_over_d_and_the_previous_step(nodes, steps, data,
                                                                           inner, seed):
    # J after each step over d, the previous step and the remembered
    # directions is at most J after the step over d (its parts) and the
    # previous step alone from the same iterate (both J at a tight tolerance)
    prob = random_tiny_problem(np.random.default_rng(seed), n_interior=nodes, steps=steps)
    n_intervals = data.draw(st.integers(2, steps), label="n_intervals")
    cfg = hc.OuterConfig(n_intervals=n_intervals, inner_iterations=inner, max_outer=6,
                         gradient_rtol=1e-9)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _logged_line_searches(monkeypatch)
        res, iterates, _ = _logged_run(monkeypatch, prob, cfg)
    part = hc.make_partition(prob.time_grid, n_intervals)
    tight = dataclasses.replace(prob, cg_tol=1e-14)
    counter = hc.MatvecCounter()
    controls = [v for v, _ in iterates] + [res.control]
    for k, (v, d, residual, head, previous, *_) in enumerate(calls):
        if previous is None:
            continue
        _, plane, _ = hc.line_search(prob, part, v, d, residual, counter, head, previous)
        j_plane = hc.evaluate(tight, v if plane is None else v + plane[0], counter).cost
        assert hc.evaluate(tight, controls[k + 1], counter).cost <= j_plane + 1e-12 * j_plane


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_intervals", [1, 3])
def test_remembered_directions_are_the_last_three_as_they_were_solved(rng, monkeypatch, dim,
                                                                      n_intervals):
    # each step sees the directions of the last three steps, newest first,
    # each with the z(T) its line search returned, bit for bit as that line
    # search left them and unwritten to the end of the run; a line search
    # gives d back whole up to its rounding, at most about 2 eps in norm (it
    # holds d's even part while it splits d); one interval remembers none
    prob = thirteen_step_problem(dim, rng, 1e-10)
    calls = _logged_line_searches(monkeypatch)
    res = hc.run(prob, hc.OuterConfig(n_intervals=n_intervals, max_outer=5,
                                      gradient_rtol=1e-300))
    if n_intervals == 1:  # the steepest descent here reaches rounding by its fifth step
        assert len(calls) >= 3 and all(call.remembered == [] for call in calls)
        return
    assert len(calls) == 5 and not res.stalled

    def bits(x):
        return x.view(np.int64).tolist()

    for k, call in enumerate(calls):
        assert np.linalg.norm(call.d_left - call.d) <= 4e-16 * np.linalg.norm(call.d)
        assert len(call.remembered) == min(k, 3)
        for j, (d, zT) in enumerate(call.remembered):
            earlier = calls[k - 1 - j]
            assert bits(d) == bits(earlier.d_left) and bits(zT) == bits(earlier.z)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_intervals", [2, 3])
def test_carried_final_state_matches_a_fresh_sweep(rng, monkeypatch, dim, n_intervals):
    # y(T) is carried through linearity, y + a z + b z_s: at every iterate of
    # a run to convergence it still matches a sweep of v_k to cg_tol
    prob = thirteen_step_problem(dim, rng, 1e-10)
    cfg = hc.OuterConfig(n_intervals=n_intervals, max_outer=20, gradient_rtol=1e-9)
    res, iterates, _ = _logged_run(monkeypatch, prob, cfg)
    assert res.converged and len(iterates) >= 5
    grid, tg = prob.grid, prob.time_grid
    for v, y in iterates:
        fresh = hc.solve_state(grid, tg, prob.y0, v, prob.nu, 1e-14, hc.MatvecCounter(),
                               keep=-1)
        assert np.linalg.norm(y - fresh) <= prob.cg_tol * np.linalg.norm(fresh)


def _shifted_gaussian_problem(shift):
    """A 7 x 7 interior with a centred 5 x 5 control patch, tracking the
    patch's indicator from a Gaussian whose centre is moved by ``shift``."""
    grid = hc.build_grid(2, 9, [(0.0, 1.0)] * 2, [(0.25, 0.75)] * 2)
    y0 = make_field(grid, f"gaussian({0.5 + shift!r},{0.5 - 0.6 * shift!r},0.15,1.0)")
    return hc.ControlProblem(grid=grid, time_grid=hc.TimeGrid(36, 0.05), y0=y0,
                             y_target=make_field(grid, "indicator(0.25,0.75,0.25,0.75)"),
                             alpha=0.01, nu=0.05)


def test_a_small_asymmetry_does_not_move_the_iteration_count():
    # a moved initial state brings in an odd part, small against the even
    # one; with a coefficient of its own in each step it stays small, and
    # the run takes as many iterations as on the symmetric instance (with
    # one coefficient for both parities: 14, 15, 15 and 16)
    cfg = hc.OuterConfig(n_intervals=4, max_outer=100, gradient_rtol=1e-4)
    counts = [len(hc.run(_shifted_gaussian_problem(shift), cfg).history)
              for shift in (0.0, 1e-4, 3e-4, 1e-3)]
    assert counts == [counts[0]] * 4


def test_parts_the_sweep_does_not_resolve_are_not_split(rng, monkeypatch):
    # with point-symmetric data the odd part of z is rounding and solver
    # error, below sqrt(cg_tol) of z: every step is the plane step over d and
    # s themselves, bit for bit
    def symmetric_problem():
        grid = hc.build_grid(2, 7, [(0.0, 1.0)] * 2, [(0.25, 0.75)] * 2)
        y0, target = rng.standard_normal((2, grid.interior_node_count))
        return hc.ControlProblem(grid=grid, time_grid=hc.TimeGrid(13, 0.05),
                                 y0=y0 + y0[::-1], y_target=target + target[::-1],
                                 alpha=0.2, nu=0.5)

    def rows(res):
        return [(m.cost, m.theta, m.matvec_sequential, m.matvec_parallel)
                for m in res.history]

    prob = symmetric_problem()
    assert prob.grid.patch_is_point_symmetric
    cfg = hc.OuterConfig(n_intervals=3, max_outer=20, gradient_rtol=1e-9)
    res = hc.run(prob, cfg)
    assert len(res.history) > 3
    monkeypatch.setattr(hc.Grid, "patch_is_point_symmetric", False)
    plain = hc.run(dataclasses.replace(prob, grid=hc.build_grid(
        2, 7, [(0.0, 1.0)] * 2, [(0.25, 0.75)] * 2)), cfg)
    assert rows(res) == rows(plain)
    assert np.array_equal(res.control.view(np.int64), plain.control.view(np.int64))


def _scalar_step_run(prob, cfg):
    """``run`` with the exact step along d alone at every iteration, written
    out: the optimal-step gradient method on one interval."""
    grid, tg = prob.grid, prob.time_grid
    part = hc.make_partition(tg, cfg.n_intervals)
    counter = hc.MatvecCounter()
    v = prob.zero_control()
    y = free_evolution(grid, tg, prob.y0, prob.nu, prob.cg_tol, counter)
    threshold, rows = None, []
    for k in range(cfg.max_outer + 1):
        g = hc.gradient(prob, v, counter, final_state=y)
        rec, gnorm = _record(prob, v, y), hc.norm_h(grid, tg, g)
        threshold = cfg.gradient_rtol * (1.0 + gnorm) if threshold is None else threshold
        row = [k, rec.cost, rec.misfit, rec.penalty, 0.0, counter.count, counter.parallel]
        rows.append(row)
        if gnorm <= threshold or k == cfg.max_outer:
            break
        d, head = hc.targets_direction(prob, part, cfg, g, counter)
        theta, _, zT = hc.line_search(prob, part, v, d, y - prob.y_target, counter, head)
        if theta == 0.0 or _record(prob, v + theta * d, y + theta * zT).cost > rec.cost:
            break
        v, y, row[4] = v + theta * d, y + theta * zT, theta
    return v, rows


@pytest.mark.parametrize("make", [random_tiny_problem, _tiny_2d_problem])
def test_one_interval_and_the_first_row_keep_the_scalar_step_bit_for_bit(rng, make):
    # the baseline, one interval, takes the exact step along d alone: every
    # row but its wall time, and the control, have the bits of the
    # scalar-step loop; with more intervals so does row 0, whose step has no
    # previous one
    for _ in range(2):
        prob = make(rng)
        for n_intervals, inner in [(1, 1), (2, 1), (3, 2)]:
            cfg = hc.OuterConfig(n_intervals=n_intervals, inner_iterations=inner,
                                 max_outer=60, gradient_rtol=1e-8)
            res = hc.run(prob, cfg)
            want_v, want = _scalar_step_run(prob, cfg)
            got = [[m.outer_index, m.cost, m.misfit, m.penalty, m.theta, m.matvec_sequential,
                    m.matvec_parallel] for m in res.history]
            assert np.array(got[0]).view(np.int64).tolist() == \
                np.array(want[0]).view(np.int64).tolist()
            if n_intervals == 1:
                assert got == want
                assert np.array_equal(res.control.view(np.int64), want_v.view(np.int64))
