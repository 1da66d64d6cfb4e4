import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatctrl as hc
import heatctrl.linsolve as linsolve
import heatctrl.propagators as propagators
from heatctrl.linsolve import CHECK, inverse_powers

from conftest import (adjoint_fields, cg_adjoint_recursion, dense_adjoint_solve,
                      dense_laplacian, dense_state_solve)


def test_time_grid_validation():
    for step_count, dt in [(0, 0.25), (-1, 0.25), (4, 0.0), (4, -1.0), (4, float("nan")),
                           (4, float("inf"))]:
        with pytest.raises(ValueError, match="step_count" if step_count < 1 else "dt"):
            hc.TimeGrid(step_count, dt)
    tg = hc.TimeGrid(6400, 6.4 / 6400)
    assert tg.dt == pytest.approx(1e-3)
    assert tg == hc.TimeGrid(6400, tg.dt)
    assert [f.name for f in dataclasses.fields(tg)] == ["step_count", "dt"]


def test_state_zero_dynamics():
    g = hc.build_grid(1, 6, [(0.0, 1.0)], [(0.0, 1.0)])
    tg = hc.TimeGrid(5, 1.0 / 5)
    c = hc.MatvecCounter()
    y = hc.solve_state(g, tg, np.zeros(4), np.zeros((5, 4)), 1.0, 1e-10, c)
    assert np.array_equal(y, np.zeros((6, 4)))


def test_state_no_diffusion_constant_source_is_exact():
    # nu = 0 allowed only here: implicit Euler integrates a constant source exactly
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.0, 1.0)])
    tg = hc.TimeGrid(4, 1.0 / 4)
    y0 = np.array([0.5, -1.0, 2.0])
    y = hc.solve_state(g, tg, y0, np.ones((4, 3)), 0.0, 1e-12, hc.MatvecCounter())
    for j in range(5):
        np.testing.assert_allclose(y[j], y0 + j * tg.dt, rtol=1e-14)


def test_state_matches_dense_recursion(rng):
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(2, 0.4 / 2)
    y0 = rng.standard_normal(3)
    v = rng.standard_normal((2, g.control_node_count))
    y = hc.solve_state(g, tg, y0, v, 0.7, 1e-12, hc.MatvecCounter())
    y_ref = dense_state_solve(g, tg, y0, v, 0.7)
    np.testing.assert_allclose(y, y_ref, rtol=1e-10, atol=1e-12)


def test_adjoint_zero_terminal():
    g = hc.build_grid(1, 6, [(0.0, 1.0)], [(0.0, 1.0)])
    tg = hc.TimeGrid(6, 1.0 / 6)
    p = hc.solve_adjoint(g, tg, np.zeros(4), 1.0, 1e-10, hc.MatvecCounter())
    assert np.array_equal(p, np.zeros((7, 4)))


def test_adjoint_single_step_matches_dense(rng):
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.0, 1.0)])
    tg = hc.TimeGrid(1, 0.1)
    terminal = rng.standard_normal(3)
    p = hc.solve_adjoint(g, tg, terminal, 1.0, 1e-12, hc.MatvecCounter())
    p_ref = dense_adjoint_solve(g, tg, terminal, 1.0)
    np.testing.assert_allclose(p, p_ref, rtol=1e-10, atol=1e-12)


def test_step_inverse_is_symmetric(rng):
    g = hc.build_grid(1, 8, [(0.0, 1.0)], [(0.0, 1.0)])
    apply_k = hc.step_operator(g, 0.05, 1.0)
    w = rng.standard_normal(6)
    q = rng.standard_normal(6)
    counter = hc.MatvecCounter()
    kw = hc.cg_solve(apply_k, w, 1e-13, counter)
    kq = hc.cg_solve(apply_k, q, 1e-13, counter)
    lhs = hc.inner_omega(g, kw, q)
    rhs = hc.inner_omega(g, w, kq)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_unconditional_stability_per_step(rng):
    g = hc.build_grid(1, 9, [(0.0, 1.0)], [(0.3, 0.7)])
    tg = hc.TimeGrid(10, 1.0 / 10)
    y0 = rng.standard_normal(7)
    v = rng.standard_normal((10, g.control_node_count))
    y = hc.solve_state(g, tg, y0, v, 0.8, 1e-12, hc.MatvecCounter())
    for j in range(1, 11):
        bound = hc.norm_omega(g, y[j - 1]) + tg.dt * hc.norm_omega(g, hc.inject(g, v[j - 1]))
        assert hc.norm_omega(g, y[j]) <= bound + 1e-12


def test_free_decay_monotone(rng):
    g = hc.build_grid(2, (7, 7), [(0.0, 1.0), (0.0, 1.0)], [(0.3, 0.7), (0.3, 0.7)])
    tg = hc.TimeGrid(8, 0.5 / 8)
    y0 = rng.standard_normal(g.interior_node_count)
    v = np.zeros((8, g.control_node_count))
    y = hc.solve_state(g, tg, y0, v, 0.5, 1e-12, hc.MatvecCounter())
    norms = [hc.norm_omega(g, yj) for yj in y]
    assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))


def test_counter_audited_against_laplacian_call_log(rng, monkeypatch):
    g = hc.build_grid(1, 7, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(6, 1.0 / 6)
    calls = []
    real = propagators.laplacian_apply

    def logged(grid, u, **buffers):
        calls.append(1)
        return real(grid, u, **buffers)

    monkeypatch.setattr(propagators, "laplacian_apply", logged)
    counter = hc.MatvecCounter()
    hc.solve_state(g, tg, rng.standard_normal(5),
                   rng.standard_normal((6, g.control_node_count)),
                   0.6, 1e-11, counter)
    assert counter.count == len(calls)


def test_control_field_shape_rejected():
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.0, 1.0)])
    tg = hc.TimeGrid(3, 1.0 / 3)
    with pytest.raises(ValueError):
        hc.solve_state(g, tg, np.zeros(3), np.zeros((4, 3)), 1.0, 1e-10,
                       hc.MatvecCounter())


def _window():
    # the third of the five sub-problems make_partition cuts from 15 steps on
    # [0, 0.7]: 3 steps with the outer dt
    return hc.TimeGrid(3, hc.TimeGrid(15, 0.7 / 15).dt)


def test_windows_keep_the_parent_dt_bit_for_bit():
    parent = hc.TimeGrid(15, 0.7 / 15)
    part = hc.make_partition(parent, 5)
    counts = [b - a for a, b in zip(part, part[1:])]
    windows = [hc.TimeGrid(c, parent.dt) for c in counts]
    # a window's own span, dt * 3, over its 3 steps can miss the outer dt
    spans = [(parent.dt * b - parent.dt * a) / c for a, b, c in zip(part, part[1:], counts)]
    assert len(set(spans)) > 1
    for w, count in zip(windows, counts):
        assert w.step_count == count
        assert np.float64(w.dt).view(np.int64) == np.float64(parent.dt).view(np.int64)
    assert hc.TimeGrid(15, parent.dt) == parent


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    nodes=st.integers(4, 12),
    columns=st.integers(1, 5),
    dt=st.floats(1e-3, 0.5),
    nu=st.floats(1e-2, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverse_step_adjoint_identity(dim, nodes, columns, dt, nu, seed):
    # <K^-1 a, b> = <a, K^-1 b> up to what cg_tol allows: K >= Id, so each
    # solve's error is at most cg_tol times its right-hand side's norm
    rng = np.random.default_rng(seed)
    g = hc.build_grid(dim, nodes, [(0.0, 1.0)] * dim, [(0.0, 1.0)] * dim)
    a = rng.standard_normal((columns, g.interior_node_count))
    b = rng.standard_normal((columns, g.interior_node_count))
    tol = 1e-10
    apply_k = hc.step_operator(g, dt, nu)
    for a_c, b_c in zip(a, b):
        ka = hc.cg_solve(apply_k, a_c, tol, hc.MatvecCounter()).copy()
        kb = hc.cg_solve(apply_k, b_c, tol, hc.MatvecCounter())
        lhs = hc.inner_omega(g, ka, b_c)
        rhs = hc.inner_omega(g, a_c, kb)
        bound = 2.5 * tol * hc.norm_omega(g, a_c) * hc.norm_omega(g, b_c)
        assert abs(lhs - rhs) <= bound


def _extrapolation(history):
    """The polynomial extrapolation through the last (up to four) entries of
    ``history``, oldest first: h1, 2h2 - h1, 3h3 - 3h2 + h1, then
    4h[j-1] - 6h[j-2] + 4h[j-3] - h[j-4]."""
    h = history[-4:][::-1]  # newest first
    if len(h) == 1:
        return h[0]
    if len(h) == 2:
        return 2 * h[0] - h[1]
    if len(h) == 3:
        return 3 * h[0] - 3 * h[1] + h[2]
    return 4 * h[0] - 6 * h[1] + 4 * h[2] - h[3]


def _expected_starts(first, rhs, solved, omega):
    """The CG starts of a sweep from the right-hand sides it solved and their
    solutions, in order: first, then omega b_j + E_j(x - omega b)."""
    offsets = [x - omega * b for b, x in zip(rhs, solved)]
    return [first] + [omega * rhs[j] + _extrapolation(offsets[:j])
                      for j in range(1, len(solved))]


# the steps of 0..7 that each storage mode keeps (None: every step); the
# batch modes run three sweeps, one after another, on a sub-problem's grid
KEPT = {"state": None, "state_final_only": -1, "state_breakpoints": [0, 3, 5, 7],
        "state_batch": None, "state_batch_breakpoints": [0, 2, 7]}


@pytest.mark.parametrize("sweep", list(KEPT))
def test_sweeps_start_cg_from_extrapolated_states(rng, monkeypatch, sweep):
    g = hc.build_grid(2, (7, 8), [(0.0, 1.0), (0.0, 1.0)], [(0.3, 0.7), (0.2, 0.9)])
    n, m = g.interior_node_count, g.control_node_count
    if sweep.startswith("state_batch"):
        tg = hc.TimeGrid(7, hc.TimeGrid(21, 0.7 / 21).dt)
        columns = 3
    else:
        tg = hc.TimeGrid(7, 0.7 / 7)
        columns = 1
    calls = []
    real = propagators.cg_solve

    def recording(apply_a, b, tol, counter, x0=None, space=None):
        rhs = b.copy()
        x = real(apply_a, b, tol, counter, x0=x0, space=space)
        calls.append((x0.copy(), rhs, x.copy()))
        return x

    monkeypatch.setattr(propagators, "cg_solve", recording)
    # omega is the inverse of K's diagonal, one number at every node
    omega = propagators.inverse_step_diagonal(g, tg.dt, 0.6)
    k_dense = np.eye(n) - tg.dt * 0.6 * dense_laplacian(g)
    np.testing.assert_allclose(1.0 / np.diag(k_dense), omega, rtol=1e-14)
    keep = KEPT[sweep]
    for _ in range(columns):
        first = rng.standard_normal(n)
        v = rng.standard_normal((7, m))
        calls.clear()
        out = hc.solve_state(g, tg, first, v, 0.6, 1e-11, hc.MatvecCounter(), keep=keep)
        starts, rhs, solved = zip(*calls)
        assert len(starts) == 7
        # the trajectory of the solved fields, in time order
        trajectory = np.array((first,) + solved)
        if keep is None:
            assert np.array_equal(out, trajectory)
        else:
            assert np.array_equal(out, trajectory[keep])
        for got, want in zip(starts, _expected_starts(first, rhs, solved, omega), strict=True):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sweep_without_diffusion_costs_one_product_a_step(rng):
    # nu = 0: K = Id and omega = 1, so every start after the first is b_j
    # itself and only its test product is charged; the first solve, from
    # x = 0, takes one CG iteration
    g = hc.build_grid(2, 9, [(0.0, 1.0)] * 2, [(0.3, 0.7)] * 2)
    tg = hc.TimeGrid(12, 0.05)
    v = rng.standard_normal((12, g.control_node_count))
    counter = hc.MatvecCounter()
    y = hc.solve_state(g, tg, g.zero_field(), v, 0.0, 1e-11, counter)
    assert counter.count == 12
    np.testing.assert_allclose(y[1:], np.cumsum([hc.inject(g, tg.dt * vj) for vj in v], axis=0),
                               rtol=1e-14, atol=1e-15)


def _extrapolated_state_sweep(g, tg, y0, v, nu, tol, counter):
    """The sweep with CG started from E_j(x), the extrapolated states alone:
    the start rule without the Jacobi term."""
    apply_k = hc.step_operator(g, tg.dt, nu)
    solved = [y0]
    for j in range(tg.step_count):
        b = solved[-1] + hc.inject(g, tg.dt * v[j])
        x0 = _extrapolation(solved[1:]) if j else (y0 if np.any(y0) else None)
        solved.append(hc.cg_solve(apply_k, b, tol, counter, x0=x0).copy())
    return np.array(solved)


def test_start_follows_a_forcing_that_jumps_between_windows():
    # the shape of a line-search direction: constant in time on each of two
    # windows, with a jump at the breakpoint between them
    g = hc.build_grid(2, 17, [(0.0, 1.0)] * 2, [(1 / 3, 2 / 3)] * 2)
    nu, steps = 1e-2, 40
    tg = hc.TimeGrid(steps, 0.1 * g.spacing[0] ** 2 / nu)  # dt nu / h^2 = 0.1
    pattern = np.random.default_rng(7).standard_normal((2, g.control_node_count))
    v = np.repeat(pattern, steps // 2, axis=0)
    y0 = g.zero_field()
    new, old = hc.MatvecCounter(), hc.MatvecCounter()
    y = hc.solve_state(g, tg, y0, v, nu, 1e-10, new)
    y_old = _extrapolated_state_sweep(g, tg, y0, v, nu, 1e-10, old)
    assert new.count <= 0.95 * old.count  # 244 against 369
    np.testing.assert_allclose(y, y_old, rtol=0, atol=1e-9 * np.max(np.abs(y)))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("columns", [None, 3], ids=["single", "batch"])
@pytest.mark.parametrize("stiffness", [0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_every_sweep_step_meets_its_true_residual(monkeypatch, dim, columns, stiffness, tol):
    # the corrected starts' residuals come from recursions, never from a
    # product: every step's true residual ||b - K x|| must still meet tol.
    # The forcing jumps between three windows of 8 steps, from a random
    # state and from zero, at nu dt / h^2 = stiffness
    g = hc.build_grid(dim, 65 if dim == 1 else 17, [(0.0, 1.0)] * dim, [(0.25, 0.75)] * dim)
    nu = 1e-2
    tg = hc.TimeGrid(24, stiffness * g.spacing[0] ** 2 / nu)
    rng = np.random.default_rng(5)
    apply_k = hc.step_operator(g, tg.dt, nu)
    real = propagators.cg_solve
    ratios = []

    def audited(apply_a, b, tol, counter, x0=None, space=None):
        rhs = b.copy()
        x = real(apply_a, b, tol, counter, x0=x0, space=space)
        ratios.append(np.linalg.norm(rhs - apply_k(x)) / (tol * np.linalg.norm(rhs)))
        return x

    monkeypatch.setattr(propagators, "cg_solve", audited)
    # a batch is that many sweeps, one after another
    for _ in range(columns or 1):
        y0 = rng.standard_normal(g.interior_node_count)
        v = np.repeat(rng.standard_normal((3, g.control_node_count)), 8, axis=0)
        for first in (y0, np.zeros_like(y0)):
            hc.solve_state(g, tg, first, v, nu, tol, hc.MatvecCounter(), keep=-1)
    assert len(ratios) == 2 * 24 * (columns or 1)
    # measured: at most 0.9997 over these 32 cases; 1.0 is the solve's own bound
    assert max(ratios) <= 1.0


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("stiffness", [0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_every_sweep_step_meets_its_true_residual_with_the_recall(monkeypatch, dim, stiffness,
                                                                  tol):
    # the same audit for a sweep given its breakpoints: the forcing jumps
    # between five windows of 9 steps, so every one of the RECALL_STEPS
    # positions fills, and from the third window on it recalls
    # RECALL_WINDOWS windows.  The recalled corrections' images carry the
    # rounding of older residuals: the same joint correction applied after
    # the test product, with the residual updated by the images, ends 3 of
    # these cases above tol, at up to 16 tol
    assert propagators.RECALL_STEPS < 9 and propagators.RECALL_WINDOWS < 4
    g = hc.build_grid(dim, 65 if dim == 1 else 17, [(0.0, 1.0)] * dim, [(0.25, 0.75)] * dim)
    nu = 1e-2
    tg = hc.TimeGrid(45, stiffness * g.spacing[0] ** 2 / nu)
    rng = np.random.default_rng(5)
    apply_k = hc.step_operator(g, tg.dt, nu)
    real = propagators.cg_solve
    ratios = []

    def audited(apply_a, b, tol, counter, x0=None, space=None):
        rhs = b.copy()
        x = real(apply_a, b, tol, counter, x0=x0, space=space)
        ratios.append(np.linalg.norm(rhs - apply_k(x)) / (tol * np.linalg.norm(rhs)))
        return x

    monkeypatch.setattr(propagators, "cg_solve", audited)
    y0 = rng.standard_normal(g.interior_node_count)
    v = np.repeat(rng.standard_normal((5, g.control_node_count)), 9, axis=0)
    for first in (y0, np.zeros_like(y0)):
        hc.solve_state(g, tg, first, v, nu, tol, hc.MatvecCounter(), keep=-1,
                       breakpoints=hc.make_partition(tg, 5))
    assert len(ratios) == 2 * 45
    # measured: at most 0.9988 over these 16 cases; 1.0 is the solve's own bound
    assert max(ratios) <= 1.0


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("stiffness", [0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_every_sweep_step_without_breakpoints_meets_its_true_residual(monkeypatch, dim,
                                                                     stiffness, tol):
    # the same audit for sweeps without breakpoints, over seeds 0-19: the
    # forcing jumps between five windows of 9 steps, and every start is
    # corrected over the sweep's last corrections alone.  A correction
    # applied after the test product, with the residual updated by the
    # stored images, ended 8 of these seeds above tol, at up to 2.03 tol.
    # On the line at stiffness 100 and tol 1e-12 a solve takes about as
    # many products as there are unknowns, and CG's own recursion drifts
    # from the true residual: sweeps whose solves have no space end above
    # tol there too, so that cell's bound is their worst ratio
    g = hc.build_grid(dim, 65 if dim == 1 else 17, [(0.0, 1.0)] * dim, [(0.25, 0.75)] * dim)
    nu = 1e-2
    tg = hc.TimeGrid(45, stiffness * g.spacing[0] ** 2 / nu)
    apply_k = hc.step_operator(g, tg.dt, nu)
    real = propagators.cg_solve

    def worst(corrected):
        ratios = []

        def audited(apply_a, b, tol, counter, x0=None, space=None):
            rhs = b.copy()
            x = real(apply_a, b, tol, counter, x0=x0, space=space if corrected else None)
            ratios.append(np.linalg.norm(rhs - apply_k(x)) / (tol * np.linalg.norm(rhs)))
            return x

        monkeypatch.setattr(propagators, "cg_solve", audited)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y0 = rng.standard_normal(g.interior_node_count)
            v = np.repeat(rng.standard_normal((5, g.control_node_count)), 9, axis=0)
            for first in (y0, np.zeros_like(y0)):
                hc.solve_state(g, tg, first, v, nu, tol, hc.MatvecCounter(), keep=-1)
        assert len(ratios) == 20 * 2 * 45
        return max(ratios)

    # measured: at most 1.0000 in every other cell; in that one, 1.0015
    # against 1.0072 without a space.  1.0 is the solve's own bound
    bound = worst(False) if (dim, stiffness, tol) == (1, 100.0, 1e-12) else 1.0
    assert worst(True) <= bound


def test_recall_charges_exactly_its_stencil_calls(rng, monkeypatch):
    # the recalled corrections and their images cost no product: a sweep
    # with breakpoints charges one product per stencil call, on four
    # windows of uneven length, from a nonzero start
    g = hc.build_grid(2, 9, [(0.0, 1.0)] * 2, [(0.3, 0.7)] * 2)
    tg = hc.TimeGrid(38, 0.05)
    calls = []
    real = propagators.laplacian_apply

    def logged(grid, u, **buffers):
        calls.append(1)
        return real(grid, u, **buffers)

    monkeypatch.setattr(propagators, "laplacian_apply", logged)
    v = np.repeat(rng.standard_normal((4, g.control_node_count)), [11, 9, 9, 9], axis=0)
    counter = hc.MatvecCounter()
    hc.solve_state(g, tg, rng.standard_normal(g.interior_node_count), v, 0.5, 1e-11, counter,
                   keep=-1, breakpoints=[0, 11, 20, 29, 38])
    assert counter.count == len(calls) > 0


def test_step_operators_own_their_stencil_buffers_and_sweeps_give_their_bits_apart(rng):
    # each step operator holds its own stencil buffers, even beside another
    # of the same grid, dt and nu: two sweeps on one grid, a forward one and
    # the adjoint, give the bits and counts each gives on a grid of its own
    def grid():
        return hc.build_grid(2, (9, 8), [(0.0, 1.0), (0.0, 1.0)], [(0.3, 0.7), (0.2, 0.9)])

    g = grid()
    mine, other = ((w.field, w.second, w.total, w.result)
                   for w in (hc.step_operator(g, 0.05, 0.6).keywords["work"] for _ in range(2)))
    assert not any(np.shares_memory(a, b) for a in mine for b in other)
    tg = hc.TimeGrid(12, 0.05)
    y0 = rng.standard_normal(g.interior_node_count)
    v = rng.standard_normal((12, g.control_node_count))

    def sweeps(first, second):
        counters = hc.MatvecCounter(), hc.MatvecCounter()
        y = hc.solve_state(first, tg, y0, v, 0.6, 1e-11, counters[0],
                           breakpoints=[0, 6, 12])
        p = hc.solve_adjoint(second, tg, y[-1], 0.6, 1e-11, counters[1])
        return y, p, [c.count for c in counters]

    y, p, counts = sweeps(g, g)
    y_apart, p_apart, counts_apart = sweeps(grid(), grid())
    assert np.array_equal(_bits(y), _bits(y_apart))
    assert np.array_equal(_bits(p), _bits(p_apart))
    assert counts == counts_apart


@pytest.mark.parametrize("nodes", [4, 5])
def test_sweep_on_two_or_three_nodes_with_dependent_corrections(rng, nodes):
    # two or three unknowns: the space's four corrections span at most two
    # or three directions, so its Gram matrix is singular; the factorization
    # leaves the dependent ones out (warnings are errors here).  On one node
    # the Jacobi start is already exact and no correction is made
    g = hc.build_grid(1, nodes, [(0.0, 1.0)], [(0.0, 1.0)])
    tg = hc.TimeGrid(12, 0.05)
    y0 = rng.standard_normal(g.interior_node_count)
    v = rng.standard_normal((12, g.control_node_count))
    y = hc.solve_state(g, tg, y0, v, 0.7, 1e-12, hc.MatvecCounter())
    np.testing.assert_allclose(y, dense_state_solve(g, tg, y0, v, 0.7), rtol=1e-11, atol=1e-13)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _patch_rounding(terminal):
    """How far the adjoint's patch may lie from the whole fields' patch
    columns: the same Lanczos coefficients and vectors, combined by
    matrix-vector products over a different number of nodes, whose sums
    may round in another order: about m^1.5 eps ||terminal|| for m <= 100
    Lanczos vectors, within this bound."""
    return 1e-12 * np.linalg.norm(terminal)


@pytest.mark.parametrize("case", ["1d", "2d", "batch"])
def test_kept_steps_bitwise_equal_to_full_sweeps(rng, case):
    # the rows a state sweep keeps are the rows of the full sweep, bit for
    # bit, with the same products, whatever the form of the index; the
    # adjoint's patch costs the products of the whole fields' pass and
    # matches its patch columns up to the rounding of their combination.  A
    # batch is five sweeps on a sub-problem's grid, one after another
    if case == "1d":
        g = hc.build_grid(1, 12, [(0.0, 1.0)], [(0.2, 0.6)])
    else:
        g = hc.build_grid(2, (9, 8), [(0.0, 1.0), (0.0, 1.0)], [(0.3, 0.7), (0.2, 0.9)])
    tg = _window() if case == "batch" else hc.TimeGrid(13, 0.9 / 13)
    steps = tg.step_count
    n, m = g.interior_node_count, g.control_node_count
    at = hc.make_partition(hc.TimeGrid(steps, 1.0 / steps), 2)
    for _ in range(5 if case == "batch" else 1):
        y0 = rng.standard_normal(n)
        v = rng.standard_normal((steps, m))
        full = hc.MatvecCounter()
        y = hc.solve_state(g, tg, y0, v, 0.6, 1e-11, full)
        p = adjoint_fields(g, tg, y0, 0.6, 1e-11, full)
        for keep in (at, at[1:], -1, 0, [], [steps, 0, 2, 2], slice(1, None, 2)):
            reduced = hc.MatvecCounter()
            y_kept = hc.solve_state(g, tg, y0, v, 0.6, 1e-11, reduced, keep=keep)
            p_patch = hc.solve_adjoint(g, tg, y0, 0.6, 1e-11, reduced)
            assert reduced.count == full.count
            assert y_kept.shape == y[keep].shape
            assert np.array_equal(_bits(y_kept), _bits(y[keep]))
            assert np.array_equal(_bits(p_patch[-1]), _bits(y0[g.control_mask]))
            assert np.max(np.abs(p_patch - p[:, g.control_mask])) <= _patch_rounding(y0)


def test_adjoint_from_a_rough_terminal_converges():
    # the rough terminal as CG's first guess leaves ||b - K x0|| >> ||b||, and
    # with it CG's attainable residual, about eps * ||b - K x0||, above tol * ||b||
    g = hc.build_grid(1, 10, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(8, 2.0 / 8)
    terminal = np.random.default_rng(54).standard_normal(8)
    p = adjoint_fields(g, tg, terminal, 2.0, 1e-13, hc.MatvecCounter())
    p_ref = dense_adjoint_solve(g, tg, terminal, 2.0)
    np.testing.assert_allclose(p, p_ref, rtol=1e-10, atol=1e-12)


def _cumulative_error_bound(tol, rhs_norms):
    # K >= Id, so a step's CG error is at most tol times its right-hand
    # side's norm, and K^-1 does not amplify earlier errors; the factor 2
    # covers the gap between CG's updated and its true residual
    return 2.0 * tol * np.cumsum(rhs_norms)


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.integers(4, 10),
    steps=st.integers(1, 12),
    stiffness=st.floats(1e-2, 100.0),  # nu * dt / h^2
    tol=st.sampled_from([1e-10, 1e-12, 1e-13]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweeps_converge_on_stiff_problems_with_rough_controls(nodes, steps, stiffness,
                                                                tol, seed):
    rng = np.random.default_rng(seed)
    g = hc.build_grid(1, nodes, [(0.0, 1.0)], [(0.2, 0.8)])
    nu = 1.0
    tg = hc.TimeGrid(steps, (steps * stiffness * g.spacing[0] ** 2 / nu) / steps)
    n, m = g.interior_node_count, g.control_node_count
    # rough in time: every step has its own scale and sign
    v = (rng.standard_normal((steps, m)) * 10.0 ** rng.uniform(-1, 3, (steps, 1))
         * rng.choice([-1.0, 1.0], (steps, 1)))
    y0, terminal = rng.standard_normal(n), rng.standard_normal(n)
    counter = hc.MatvecCounter()
    y = hc.solve_state(g, tg, y0, v, nu, tol, counter)
    p = adjoint_fields(g, tg, terminal, nu, tol, counter)
    assert np.array_equal(hc.solve_state(g, tg, y0, v, nu, tol, counter, keep=-1), y[-1])
    assert (np.max(np.abs(hc.solve_adjoint(g, tg, terminal, nu, tol, counter)
                          - p[:, g.control_mask])) <= _patch_rounding(terminal))
    y_ref = dense_state_solve(g, tg, y0, v, nu)
    p_ref = dense_adjoint_solve(g, tg, terminal, nu)
    rhs = y_ref[:-1] + tg.dt * np.array([hc.inject(g, vj) for vj in v])
    y_err = np.linalg.norm(y[1:] - y_ref[1:], axis=1)
    assert np.all(y_err <= _cumulative_error_bound(tol, np.linalg.norm(rhs, axis=1)))
    p_err = np.linalg.norm(p[:-1] - p_ref[:-1], axis=1)[::-1]
    p_rhs = np.linalg.norm(p_ref[1:], axis=1)[::-1]
    assert np.all(p_err <= _cumulative_error_bound(tol, p_rhs))


def _sine_mode(g, k):
    """The k-th discrete sine mode of a 1D grid and its eigenvalue under -Lap."""
    n, h = g.interior_node_count, g.spacing[0]
    mode = np.sin(np.pi * k * np.arange(1, n + 1) / (n + 1))
    return mode, 4.0 / h**2 * np.sin(np.pi * k / (2 * (n + 1))) ** 2


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    nodes=st.integers(3, 60),
    steps=st.integers(1, 12),
    stiffness=st.floats(1e-2, 100.0),  # nu * dt / h^2
    tol=st.sampled_from([1e-10, 1e-12, 1e-13]),
    seed=st.integers(0, 2**32 - 1),
)
def test_krylov_adjoint_matches_dense_in_every_keep_form(dim, nodes, steps, stiffness, tol,
                                                          seed):
    # the whole fields, and the patch ``solve_adjoint`` returns
    rng = np.random.default_rng(seed)
    if dim == 2:
        nodes = 3 + nodes % 8  # up to 8 x 8 interior nodes
    g = hc.build_grid(dim, nodes, [(0.0, 1.0)] * dim, [(0.2, 0.8)] * dim)
    nu = 1.0
    tg = hc.TimeGrid(steps, stiffness * g.spacing[0] ** 2 / nu)
    terminal = rng.standard_normal(g.interior_node_count)
    p_ref = dense_adjoint_solve(g, tg, terminal, nu)
    bound = _cumulative_error_bound(tol, np.linalg.norm(p_ref[1:], axis=1)[::-1])[::-1]
    whole, patched = hc.MatvecCounter(), hc.MatvecCounter()
    p = adjoint_fields(g, tg, terminal, nu, tol, whole)
    assert np.array_equal(p[-1], terminal)
    assert np.all(np.linalg.norm(p[:-1] - p_ref[:-1], axis=1) <= bound)
    patch = hc.solve_adjoint(g, tg, terminal, nu, tol, patched)
    assert patched.count == whole.count
    assert np.array_equal(_bits(patch[-1]), _bits(terminal[g.control_mask]))
    assert np.max(np.abs(patch - p[:, g.control_mask])) <= _patch_rounding(terminal)


def _lanczos_lengths(monkeypatch):
    """A list that receives each Krylov column's Lanczos vector count m: the
    size of T_m at its last check."""
    lengths = []
    real = linsolve._tridiagonal_powers

    def logged(diag, off, count):
        if len(diag) == 1:  # the first check of a new column
            lengths.append(0)
        lengths[-1] = len(diag)
        return real(diag, off, count)

    monkeypatch.setattr(linsolve, "_tridiagonal_powers", logged)
    return lengths


def test_krylov_counter_audited_against_laplacian_rows(rng, monkeypatch):
    # every field the stencil receives is one product, and a sweep with m
    # Lanczos vectors costs m
    g = hc.build_grid(2, 12, [(0.0, 1.0)] * 2, [(0.3, 0.7)] * 2)
    tg = hc.TimeGrid(9, 0.02)
    rows = []
    real = propagators.laplacian_apply

    def logged(grid, u, **buffers):
        assert u.shape == (g.interior_node_count,)
        rows.append(1)
        return real(grid, u, **buffers)

    monkeypatch.setattr(propagators, "laplacian_apply", logged)
    lengths = _lanczos_lengths(monkeypatch)
    terminal = rng.standard_normal((4, g.interior_node_count))
    terminal[1] = 0.0
    terminal[2] = np.outer(*[np.sin(np.pi * np.arange(1, 11) / 11)] * 2).ravel()
    counts = []
    for column in terminal:
        rows.clear()
        counter = hc.MatvecCounter()
        adjoint_fields(g, tg, column, 1.0, 1e-10, counter)
        assert counter.count == sum(rows)
        counts.append(counter.count)
    assert counts[1] == 0
    assert [counts[0], counts[2], counts[3]] == lengths
    # the smooth terminal is the lowest sine mode, an eigenvector of K: the
    # error bound proves it converged at the check at m = 1
    assert counts == [48, 0, 1, 48]
    rows.clear()
    single = hc.MatvecCounter()
    hc.solve_adjoint(g, tg, terminal[0], 1.0, 1e-10, single)
    assert single.count == sum(rows) == counts[0]


def test_patch_only_adjoint_keeps_no_whole_lanczos_vector(monkeypatch):
    # the 65 x 65 benchmark's grid and steps, from the indicator of its control
    # patch: the Lanczos vectors are kept on the patch only, so the sweep's
    # peak stays below the m n floats of its whole basis
    g = hc.build_grid(2, 65, [(0.0, 1.0)] * 2, [(1 / 3, 2 / 3)] * 2)
    tg = hc.TimeGrid(160, 0.02)
    terminal = g.zero_field()
    terminal[g.control_mask] = 1.0
    lengths = _lanczos_lengths(monkeypatch)
    counter = hc.MatvecCounter()
    tracemalloc.start()
    try:
        hc.solve_adjoint(g, tg, terminal, 1e-2, 1e-10, counter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (m,) = lengths
    assert counter.count == m == 128
    assert peak < m * g.interior_node_count * 8


@pytest.mark.parametrize("k", [1, 7])
def test_krylov_adjoint_of_a_sine_mode_stops_at_the_first_check(k):
    # K maps the k-th sine mode to lam times itself, so p^j = lam^-(N-j) p^N,
    # and the Krylov space holds nothing more: beta_1 is rounding.  At k = 1
    # the error bound proves convergence at the check at m = 1.  At k = 7,
    # lam is 3.4, and the bound, which lets an error pass through K^-1
    # undamped, multiplies beta_1 by sum_k lam^(s-k), about 6e4 at s = 10:
    # the first check that proves it is at m = CHECK
    g = hc.build_grid(1, 52, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(10, 0.01)
    terminal, eig = _sine_mode(g, k)
    lam = 1.0 + tg.dt * 0.5 * eig
    counter = hc.MatvecCounter()
    p = adjoint_fields(g, tg, terminal, 0.5, 1e-10, counter)
    want = lam ** -np.arange(10, -1, -1.0)[:, None] * terminal
    assert np.max(np.abs(p - want)) <= 1e-12 * np.max(np.abs(terminal))
    assert g.interior_node_count > CHECK and counter.count == {1: 1, 7: CHECK}[k]


def test_krylov_adjoint_on_one_node_stops_at_the_whole_space():
    g = hc.build_grid(1, 3, [(0.0, 1.0)], [(0.0, 1.0)])
    tg = hc.TimeGrid(6, 0.1)
    counter = hc.MatvecCounter()
    p = hc.solve_adjoint(g, tg, np.array([2.0]), 0.3, 1e-12, counter)
    np.testing.assert_allclose(p, dense_adjoint_solve(g, tg, np.array([2.0]), 0.3),
                               rtol=1e-14)
    assert counter.count == 1  # m = n = 1: one product


def test_krylov_adjoint_zero_and_non_finite_terminals():
    g = hc.build_grid(1, 9, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(5, 0.1)
    counter = hc.MatvecCounter()
    p, patch = (adjoint_fields(g, tg, np.zeros(7), 1.0, 1e-10, counter),
                hc.solve_adjoint(g, tg, np.zeros(7), 1.0, 1e-10, counter))
    assert not p.any() and not patch.any() and counter.count == 0
    bad = np.ones(7)
    bad[4] = np.nan
    for terminal in (bad, np.full(7, np.inf)):
        with pytest.raises(hc.CGError, match="not finite"):
            hc.solve_adjoint(g, tg, terminal, 1.0, 1e-10, counter)
    assert counter.count == 0


@pytest.mark.parametrize("poison, message", [(np.nan, "alpha = nan"), (-1.0, "alpha = -1.0")])
def test_lanczos_breakdown_names_its_column(poison, message):
    # the columns of a batch are separate solves, one after another, as step
    # 2 solves its sub-problems (whose errors name them: see test_driver).
    # An operator that is not positive definite (or not finite) on the last
    # node breaks down a column that reaches it, and not one that does not;
    # each is charged the products it made, up to the breakdown too
    def apply_a(u):
        out = u.copy()
        out[-1] = poison * u[-1] if u[-1] != 0.0 else 0.0
        return out

    b = np.zeros((2, 6))
    b[0, 0] = 1.0
    b[1, -1] = 1.0
    counter = hc.MatvecCounter()
    inverse_powers(apply_a, b[0], 4, 1e-10, counter, np.arange(2))
    assert counter.count == 1  # an eigenvector: an invariant subspace at m = 1
    counter = hc.MatvecCounter()
    with pytest.raises(hc.CGError, match=message):
        inverse_powers(apply_a, b[1], 4, 1e-10, counter, np.arange(2))
    assert counter.count == 1  # charged up to the breakdown


def test_krylov_sweep_costs_a_third_of_per_step_cg_on_a_rough_2d_terminal():
    # 40 steps at nu * dt / h^2 = 1 on a 31 x 31 interior
    g = hc.build_grid(2, 33, [(0.0, 1.0)] * 2, [(1 / 3, 2 / 3)] * 2)
    tg = hc.TimeGrid(40, g.spacing[0] ** 2)
    terminal = np.random.default_rng(33).standard_normal(g.interior_node_count)
    krylov, cg = hc.MatvecCounter(), hc.MatvecCounter()
    p = adjoint_fields(g, tg, terminal, 1.0, 1e-10, krylov)
    p_cg = cg_adjoint_recursion(g, tg, terminal, 1.0, 1e-10, cg)
    p_ref = dense_adjoint_solve(g, tg, terminal, 1.0)
    assert 3 * krylov.count <= cg.count
    assert np.max(np.abs(p - p_ref)) <= np.max(np.abs(p_cg - p_ref))


def test_sweep_from_the_zero_field_pays_no_start_product(rng, monkeypatch):
    # K 0 = 0, so the first solve starts from x = 0, r = b with no product:
    # the sweep charges exactly its CG iterations, one operator call each
    g = hc.build_grid(2, 9, [(0.0, 1.0)] * 2, [(0.3, 0.7)] * 2)
    tg = hc.TimeGrid(6, 0.05)
    v = rng.standard_normal((6, g.control_node_count))
    calls, starts = [], []
    real_apply, real_cg = propagators.laplacian_apply, propagators.cg_solve

    def logged_apply(grid, u, **buffers):
        calls.append(1)
        return real_apply(grid, u, **buffers)

    def logged_cg(apply_a, b, tol, counter, x0=None, space=None):
        starts.append(x0 is None)
        return real_cg(apply_a, b, tol, counter, x0=x0, space=space)

    monkeypatch.setattr(propagators, "laplacian_apply", logged_apply)
    monkeypatch.setattr(propagators, "cg_solve", logged_cg)
    counter = hc.MatvecCounter()
    y = hc.solve_state(g, tg, g.zero_field(), v, 0.4, 1e-11, counter, keep=[1, 6])
    assert starts == [True] + [False] * 5
    assert counter.count == len(calls)
    # the first step alone: its cold CG iterations, as a solve of its own
    first = hc.MatvecCounter()
    monkeypatch.setattr(propagators, "cg_solve", real_cg)
    y1 = hc.cg_solve(hc.step_operator(g, tg.dt, 0.4), hc.inject(g, tg.dt * v[0]), 1e-11,
                     first)
    assert np.array_equal(_bits(y[0]), _bits(y1))
    calls.clear()
    one = hc.MatvecCounter()
    hc.solve_state(g, hc.TimeGrid(1, tg.dt), g.zero_field(), v[:1], 0.4, 1e-11, one)
    assert one.count == first.count == len(calls)


def test_adjoint_is_the_transpose_of_the_forward_map_at_benchmark_scale(rng):
    # the 33 x 33 benchmark's grid, steps and nu at cg_tol = 1e-10, with a
    # rough random control d and final-state weight w:
    # |<G d, w>_Omega - <d, G* w>_H| / |<G d, w>_Omega| measured 1.5e-11
    # here and 4e-11 to 5.5e-10 for six other random pairs; the bound 1e-9
    # leaves 65 times the measured value.  Almost all of the mismatch is the
    # forward sweep's, whose per-step errors add up
    g = hc.build_grid(2, 33, [(0.0, 1.0)] * 2, [(1 / 3, 2 / 3)] * 2)
    tg = hc.TimeGrid(160, 0.01)
    d = rng.standard_normal((tg.step_count, g.control_node_count))
    w = rng.standard_normal(g.interior_node_count)
    counter = hc.MatvecCounter()
    gd = hc.solve_state(g, tg, g.zero_field(), d, 1e-2, 1e-10, counter, keep=-1)
    patch = hc.solve_adjoint(g, tg, w, 1e-2, 1e-10, counter)
    forward = hc.inner_omega(g, gd, w)
    assert abs(forward - hc.inner_h(g, tg, d, patch[:-1])) <= 1e-9 * abs(forward)
