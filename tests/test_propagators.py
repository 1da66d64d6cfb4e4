import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heatctrl as hc
import heatctrl.linsolve as linsolve
import heatctrl.propagators as propagators
from heatctrl.config import make_field
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


def test_sweep_without_diffusion_sums_its_forcing(rng):
    # nu = 0: K = Id, and each step adds its forcing
    g = hc.build_grid(2, 9, [(0.0, 1.0)] * 2, [(0.3, 0.7)] * 2)
    tg = hc.TimeGrid(12, 0.05)
    v = rng.standard_normal((12, g.control_node_count))
    y = hc.solve_state(g, tg, g.zero_field(), v, 0.0, 1e-11, hc.MatvecCounter())
    np.testing.assert_allclose(y[1:], np.cumsum([hc.inject(g, tg.dt * vj) for vj in v], axis=0),
                               rtol=1e-14, atol=1e-15)


# the steps of 0..7 that each storage mode keeps (None: every step); the
# batch modes run three sweeps, one after another, on a sub-problem's grid
KEPT = {"state": None, "state_final_only": -1, "state_breakpoints": [0, 3, 5, 7],
        "state_batch": None, "state_batch_breakpoints": [0, 2, 7]}


@pytest.mark.parametrize("sweep", list(KEPT))
def test_sweeps_start_cg_from_the_previous_state(rng, monkeypatch, sweep):
    # step j solves K x_j = x_{j-1} + dt B v^j by CG from x_{j-1}, the first
    # step from y0, whatever steps the sweep keeps
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

    def recording(apply_a, b, tol, counter, x0=None):
        rhs = b.copy()
        x = real(apply_a, b, tol, counter, x0=x0)
        calls.append((None if x0 is None else x0.copy(), rhs, x.copy()))
        return x

    monkeypatch.setattr(propagators, "cg_solve", recording)
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
        assert np.array_equal(_bits(out), _bits(trajectory if keep is None else trajectory[keep]))
        for j, (start, b) in enumerate(zip(starts, rhs)):
            assert np.array_equal(_bits(start), _bits(trajectory[j]))
            want = hc.inject(g, tg.dt * v[j])
            want += trajectory[j]
            assert np.array_equal(_bits(b), _bits(want))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("columns", [None, 3], ids=["single", "batch"])
@pytest.mark.parametrize("stiffness", [0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_every_sweep_step_meets_its_true_residual(monkeypatch, dim, columns, stiffness, tol):
    # CG's residual comes from a recursion, not from a product: every step's
    # true residual ||b - K x|| must still meet tol.  The forcing jumps
    # between three windows of 8 steps, from a random state and from zero,
    # at nu dt / h^2 = stiffness
    g = hc.build_grid(dim, 65 if dim == 1 else 17, [(0.0, 1.0)] * dim, [(0.25, 0.75)] * dim)
    nu = 1e-2
    tg = hc.TimeGrid(24, stiffness * g.spacing[0] ** 2 / nu)
    rng = np.random.default_rng(5)
    apply_k = hc.step_operator(g, tg.dt, nu)
    real = propagators.cg_solve
    ratios = []

    def audited(apply_a, b, tol, counter, x0=None):
        rhs = b.copy()
        x = real(apply_a, b, tol, counter, x0=x0)
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
    # measured: at most 0.9993 over these 32 cases; 1.0 is the solve's own bound
    assert max(ratios) <= 1.0


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("stiffness", [0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_every_sweep_step_without_breakpoints_meets_its_true_residual(monkeypatch, dim,
                                                                     stiffness, tol):
    # the same audit over seeds 0-19, the forcing jumping between five
    # windows of 9 steps.  On the line at stiffness 100 and tol 1e-12 a
    # solve takes about as many products as there are unknowns, and CG's
    # recursion drifts from the true residual: solves that stopped on the
    # recursion alone ended at up to 1.0082 tol there
    g = hc.build_grid(dim, 65 if dim == 1 else 17, [(0.0, 1.0)] * dim, [(0.25, 0.75)] * dim)
    nu = 1e-2
    tg = hc.TimeGrid(45, stiffness * g.spacing[0] ** 2 / nu)
    apply_k = hc.step_operator(g, tg.dt, nu)
    real = propagators.cg_solve
    ratios = []

    def audited(apply_a, b, tol, counter, x0=None):
        rhs = b.copy()
        x = real(apply_a, b, tol, counter, x0=x0)
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
    # measured: at most 1.0000 in every cell; 1.0 is the solve's own bound
    assert max(ratios) <= 1.0


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
        y = hc.solve_state(first, tg, y0, v, 0.6, 1e-11, counters[0])
        p = hc.solve_adjoint(second, tg, y[-1], 0.6, 1e-11, counters[1])
        return y, p, [c.count for c in counters]

    y, p, counts = sweeps(g, g)
    y_apart, p_apart, counts_apart = sweeps(grid(), grid())
    assert np.array_equal(_bits(y), _bits(y_apart))
    assert np.array_equal(_bits(p), _bits(p_apart))
    assert counts == counts_apart


@pytest.mark.parametrize("nodes", [4, 5])
def test_sweep_on_two_or_three_nodes_matches_the_dense_recursion(rng, nodes):
    # two or three unknowns, where CG ends in as many iterations (warnings
    # are errors here)
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

    def logged_cg(apply_a, b, tol, counter, x0=None):
        starts.append(x0 is None)
        return real_cg(apply_a, b, tol, counter, x0=x0)

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


def _free_evolution_case(dim, nodes, stiffness, steps, y0_kind, rng):
    """(grid, time grid, nu, y0) with nu dt / h^2 = ``stiffness`` on the unit
    box: a Gaussian y0 or a random one."""
    g = hc.build_grid(dim, nodes, [(0.0, 1.0)] * dim, [(0.25, 0.75)] * dim)
    nu = 0.5
    tg = hc.TimeGrid(steps, stiffness * g.spacing[0] ** 2 / nu)
    if y0_kind == "gaussian":
        y0 = make_field(g, f"gaussian({','.join(['0.5'] * dim)},0.15,1.0)")
    else:
        y0 = rng.standard_normal(g.interior_node_count)
    return g, tg, nu, y0


def _spy_stencil_and_fallback(monkeypatch):
    """The stencil calls a Chebyshev pass's caller (``free_evolution`` or
    ``forced_response``) makes, and the calls it makes of ``solve_state``,
    each given as the number of stencil calls before it: one call when it
    leaves the result to the CG sweep."""
    stencil, fallback = [], []
    real_stencil, real_sweep = propagators.laplacian_apply, propagators.solve_state

    def stencil_spy(grid, u, **buffers):
        stencil.append(1)
        return real_stencil(grid, u, **buffers)

    def sweep_spy(*args, **kwargs):
        fallback.append(len(stencil))
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(propagators, "laplacian_apply", stencil_spy)
    monkeypatch.setattr(propagators, "solve_state", sweep_spy)
    return stencil, fallback


# (dim, nodes, nu dt / h^2, steps, y0, the path free_evolution takes at
# tol = 1e-8 and at 1e-10): the Chebyshev pass, or the sweep, where no
# degree up to 2 L can certify (after a pass that did not, were there one)
FREE_EVOLUTION_CASES = [
    (1, 17, 0.1, 40, "gaussian", "chebyshev", "chebyshev"),
    (1, 17, 1.0, 40, "gaussian", "chebyshev", "chebyshev"),
    (1, 17, 0.1, 60, "random", "chebyshev", "chebyshev"),
    (1, 17, 10.0, 8, "gaussian", "sweep", "sweep"),
    (1, 65, 102.4, 45, "gaussian", "sweep", "sweep"),
    (2, 9, 0.2, 36, "gaussian", "chebyshev", "chebyshev"),
    (2, 9, 0.2, 24, "random", "chebyshev", "chebyshev"),
    (2, 9, 0.5, 24, "random", "sweep", "sweep"),
    (2, 9, 10.0, 5, "random", "sweep", "sweep"),
]


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("dim, nodes, stiffness, steps, y0_kind, path_8, path_10",
                         FREE_EVOLUTION_CASES)
def test_free_evolution_matches_the_dense_recursion(rng, monkeypatch, dim, nodes, stiffness,
                                                    steps, y0_kind, path_8, path_10, tol):
    # where the Chebyshev pass certifies, K^-L y0 is within tol ||y(T)|| of
    # the dense recursion; where it does not, the state is the CG sweep's,
    # bit for bit, and costs its products plus those of a pass that ran
    path = path_8 if tol == 1e-8 else path_10
    g, tg, nu, y0 = _free_evolution_case(dim, nodes, stiffness, steps, y0_kind, rng)
    stencil, fallback = _spy_stencil_and_fallback(monkeypatch)
    counter = hc.MatvecCounter()
    x = propagators.free_evolution(g, tg, y0, nu, tol, counter)
    degrees = propagators.CHEBYSHEV_DEGREES_PER_STEP * steps
    assert counter.count == len(stencil)
    if path == "chebyshev":
        assert not fallback
        ref = dense_state_solve(g, tg, y0, np.zeros((steps, g.control_node_count)), nu)[-1]
        assert np.linalg.norm(x - ref) <= tol * np.linalg.norm(ref)
        assert counter.count <= degrees
    else:
        [passed] = fallback
        assert (passed > 0) == (path == "pass, then sweep") and passed <= degrees
        sweep = hc.MatvecCounter()
        want = hc.solve_state(g, tg, y0, np.zeros((steps, g.control_node_count)), nu, tol,
                              sweep, keep=-1)
        assert x.tobytes() == want.tobytes()
        assert counter.count == sweep.count + passed


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.integers(3, 12),
    steps=st.integers(1, 60),
    stiffness=st.floats(1e-3, 30.0),  # nu * dt / h^2
    share=st.floats(0.0, 1.0),  # of the 2 L degrees the series is made for
)
@example(nodes=4, steps=1, stiffness=1.0, share=0.0)  # one degree from three nodes aliases most
def test_inverse_power_series_bound_holds_on_the_dense_spectrum(nodes, steps, stiffness, share):
    # every bound the series yields holds at each eigenvalue of the dense K
    # and at the ends of the interval it is made for, and no bound lies below
    # an earlier degree's floor, up to the rounding of this check: an
    # eigenvalue within 10 eps (1 + spread) moves lambda^-L by L times that,
    # and the check's own sum rounds by a few eps a term.  A series made for
    # fewer degrees, on fewer nodes, aliases more.
    g = hc.build_grid(1, nodes, [(0.0, 1.0)], [(0.2, 0.8)])
    dt, nu = stiffness * g.spacing[0] ** 2, 1.0
    spread = 4.0 * dt * nu / g.spacing[0] ** 2
    k_dense = np.eye(g.interior_node_count) - dt * nu * dense_laplacian(g)
    lam = np.concatenate(([1.0, 1.0 + spread], np.linalg.eigvalsh(k_dense)))
    s = np.clip((1.0 + spread / 2 - lam) / (spread / 2), -1.0, 1.0)
    exact = lam ** -float(steps)
    partial = np.zeros_like(lam)
    degrees = max(1, round(share * propagators.CHEBYSHEV_DEGREES_PER_STEP * steps))
    floor = 0.0
    for k, (a, bound, next_floor) in enumerate(
            propagators._inverse_power_series(steps, spread, degrees)):
        partial += a * np.cos(k * np.arccos(s))
        slack = (10.0 * steps * (1.0 + spread) + 4 * k + 8) * np.finfo(float).eps
        assert np.max(np.abs(exact - partial)) <= bound + slack
        assert floor <= bound + slack
        floor = next_floor


def test_free_evolution_charges_exactly_its_stencil_calls(monkeypatch):
    # a pass that certifies; and two fallbacks that make no pass, where
    # y(T; 0), at 0.15 of ||y0||, asks for a bound that no series up to
    # 72 degrees reaches, and where no series up to 10 degrees has one; a
    # pass that does not certify is charged on top of the sweep
    # (test_forced_response_charges_the_passes_that_do_not_certify)
    stencil, fallback = _spy_stencil_and_fallback(monkeypatch)
    g = hc.build_grid(2, 17, [(0.0, 1.0)] * 2, [(0.25, 0.75)] * 2)
    y0 = make_field(g, "gaussian(0.5,0.5,0.15,1.0)")
    zero = np.zeros((36, g.control_node_count))
    for nu, tg, passed in [(0.02, hc.TimeGrid(36, 0.05), 46), (0.05, hc.TimeGrid(36, 0.05), 0),
                           (0.5, hc.TimeGrid(5, 0.05), 0)]:
        stencil.clear()
        fallback.clear()
        counter = hc.MatvecCounter()
        x = propagators.free_evolution(g, tg, y0, nu, 1e-10, counter)
        assert counter.count == counter.parallel == len(stencil)
        if nu == 0.02:
            assert not fallback and counter.count == passed
        else:
            sweep = hc.MatvecCounter()
            want = hc.solve_state(g, tg, y0, zero[:tg.step_count], nu, 1e-10, sweep, keep=-1)
            assert x.tobytes() == want.tobytes()
            assert fallback == [passed] and counter.count == sweep.count + passed


def test_free_evolution_gives_up_on_a_field_that_decays_below_its_bound(monkeypatch):
    # a unit field on a 9-node line decays over 400 steps to about 1e-9 of
    # its norm, below what any degree up to 2 L bounds relative to it, and
    # its lowest mode shows it before any product: no pass is made, and the
    # state is the sweep's
    g = hc.build_grid(1, 9, [(0.0, 1.0)], [(0.2, 0.8)])
    tg, nu, tol = hc.TimeGrid(400, 0.01), 0.5, 1e-10
    y0 = np.ones(7)
    stencil, fallback = _spy_stencil_and_fallback(monkeypatch)
    counter = hc.MatvecCounter()
    x = propagators.free_evolution(g, tg, y0, nu, tol, counter)
    sweep = hc.MatvecCounter()
    want = hc.solve_state(g, tg, y0, np.zeros((400, g.control_node_count)), nu, tol, sweep,
                          keep=-1)
    assert x.tobytes() == want.tobytes()
    assert fallback == [0] and counter.count == sweep.count


@pytest.mark.parametrize("stiffness, steps, tol, most", [
    (0.32, 2000, 1e-12, 20),  # the rounding of the node sums bars a bound at 1e-12
    (10.0, 8, 1e-8, 1),  # the series beyond 2 L degrees sums to more than tol
])
def test_free_evolution_forms_few_coefficients_where_no_degree_can_certify(
        monkeypatch, stiffness, steps, tol, most):
    # the floor stops the series long before 2 L degrees, at no product, and
    # the state is the sweep's
    formed = []
    real = propagators._inverse_power_series

    def counted(*args):
        for term in real(*args):
            formed.append(term)
            yield term

    monkeypatch.setattr(propagators, "_inverse_power_series", counted)
    g = hc.build_grid(1, 9, [(0.0, 1.0)], [(0.2, 0.8)])
    tg, nu = hc.TimeGrid(steps, stiffness * g.spacing[0] ** 2 / 0.5), 0.5
    y0 = make_field(g, "gaussian(0.5,0.15,1.0)")
    counter, sweep = hc.MatvecCounter(), hc.MatvecCounter()
    x = propagators.free_evolution(g, tg, y0, nu, tol, counter)
    want = hc.solve_state(g, tg, y0, np.zeros((steps, g.control_node_count)), nu, tol, sweep,
                          keep=-1)
    assert x.tobytes() == want.tobytes() and counter.count == sweep.count
    assert 0 < len(formed) <= most


def test_free_evolution_of_a_zero_or_underflowing_field_costs_no_product(monkeypatch):
    # as the sweep gives them: zeros, at no product and no stencil call, on
    # a grid where a unit field takes the Chebyshev pass
    g = hc.build_grid(2, 9, [(0.0, 1.0)] * 2, [(0.25, 0.75)] * 2)
    tg = hc.TimeGrid(12, 0.01)
    unit = hc.MatvecCounter()
    propagators.free_evolution(g, tg, np.ones(49), 0.05, 1e-10, unit)
    assert 0 < unit.count <= 24

    def forbidden(*args, **kwargs):
        raise AssertionError("a stencil call")

    monkeypatch.setattr(propagators, "laplacian_apply", forbidden)
    zero = np.zeros((12, g.control_node_count))
    for y0 in (np.zeros(49), np.full(49, 1e-170), np.full(49, -0.0)):
        assert float(y0.dot(y0)) == 0.0
        counter = hc.MatvecCounter()
        x = propagators.free_evolution(g, tg, y0, 0.05, 1e-10, counter)
        want = hc.solve_state(g, tg, y0, zero, 0.05, 1e-10, counter, keep=-1)
        assert x.tobytes() == want.tobytes() == np.zeros(49).tobytes()
        assert counter.count == 0


def test_free_evolution_without_diffusion_is_y0_at_no_product(rng):
    # K = Id: the series is the constant 1, degree 0 certifies it
    g = hc.build_grid(1, 9, [(0.0, 1.0)], [(0.2, 0.8)])
    y0 = rng.standard_normal(7)
    counter = hc.MatvecCounter()
    x = propagators.free_evolution(g, hc.TimeGrid(20, 0.05), y0, 0.0, 1e-10, counter)
    assert x.tobytes() == y0.tobytes() and x is not y0
    assert counter.count == 0


def test_free_evolution_on_an_interval_that_overflows_fails_as_the_sweep_does():
    # nu = 1e308 makes K's interval infinite: the sweep runs, with no
    # coefficient formed on that interval, and its products overflow into
    # the same CGError
    g = hc.build_grid(1, 9, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(8, 0.05)
    y0 = make_field(g, "gaussian(0.5,0.15,1.0)")
    with np.errstate(over="ignore"):
        with pytest.raises(hc.CGError) as sweep:
            hc.solve_state(g, tg, y0, np.zeros((8, g.control_node_count)), 1e308, 1e-10,
                           hc.MatvecCounter(), keep=-1)
        with pytest.raises(hc.CGError) as free:
            propagators.free_evolution(g, tg, y0, 1e308, 1e-10, hc.MatvecCounter())
    assert str(free.value) == str(sweep.value)
    for nu, tol, message in [(-1.0, 1e-10, "nu"), (0.5, 0.0, "tol"), (0.5, float("nan"), "tol")]:
        for field in (y0, np.zeros(7)):
            with pytest.raises(ValueError, match=message):
                hc.solve_state(g, tg, field, np.zeros((8, g.control_node_count)), nu, tol,
                               hc.MatvecCounter(), keep=-1)
            with pytest.raises(ValueError, match=message):
                propagators.free_evolution(g, tg, field, nu, tol, hc.MatvecCounter())


def _forced_case(dim, nodes, stiffness, steps, kind):
    """(grid, time grid, nu, v) with nu dt / h^2 = ``stiffness`` on the unit
    box: a control smooth in time and on the patch, a random one, or a
    random one odd under the point reflection, whose lowest mode is 0."""
    rng = np.random.default_rng(5)
    g = hc.build_grid(dim, nodes, [(0.0, 1.0)] * dim, [(0.25, 0.75)] * dim)
    nu = 0.5
    tg = hc.TimeGrid(steps, stiffness * g.spacing[0] ** 2 / nu)
    m = g.control_node_count
    if kind == "smooth":
        t = np.linspace(0.0, 1.0, steps)[:, None]
        v = np.cos(3 * t) + 0.5 * np.sin(np.pi * np.arange(m) / m)[None, :]
    else:
        v = rng.standard_normal((steps, m))
        if kind == "odd":
            v -= v[:, ::-1]
    return g, tg, nu, v


def _spy_passes(monkeypatch):
    """The degrees of the Clenshaw passes ``forced_response`` makes."""
    degrees, real = [], propagators._clenshaw

    def spy(grid, apply_k, rows, *args):
        degrees.append(len(rows) - 1)
        return real(grid, apply_k, rows, *args)

    monkeypatch.setattr(propagators, "_clenshaw", spy)
    return degrees


# (dim, nodes, nu dt / h^2, steps, control, the passes forced_response makes
# at tol = 1e-8 and at 1e-10): one pass that certifies, its degree chosen
# from the lowest mode of z(T), or from a share of its upper bound where a
# control odd under the reflection has no lowest mode; two, where no
# series up to 2 L reaches that first guess and the first pass is sized
# from the upper bound, the second from its result (44 + 48 products, where
# the sweep takes 385); or none, where no degree up to 2 L can certify and
# z(T) is the CG sweep's
FORCED_RESPONSE_CASES = [
    (1, 17, 0.1, 40, "smooth", 1, 1),
    (1, 17, 1.0, 40, "random", 1, 1),
    (1, 17, 1.0, 40, "odd", 1, 1),
    (1, 33, 0.3, 30, "odd", 1, 1),
    (2, 9, 0.2, 36, "smooth", 1, 1),
    (2, 9, 0.2, 24, "random", 1, 1),
    (2, 9, 0.5, 24, "random", 2, 0),
    (1, 17, 10.0, 8, "smooth", 0, 0),
    (1, 65, 102.4, 45, "smooth", 0, 0),
    (2, 9, 10.0, 5, "random", 0, 0),
]


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("dim, nodes, stiffness, steps, kind, passes_8, passes_10",
                         FORCED_RESPONSE_CASES)
def test_forced_response_matches_the_dense_recursion(monkeypatch, dim, nodes, stiffness, steps,
                                                     kind, passes_8, passes_10, tol):
    # where a Chebyshev pass certifies, z(T) is within tol ||z(T)|| of the
    # dense recursion from zero; where none can, it is the CG sweep's from
    # zero, bit for bit, at that sweep's products.  Every charged product is
    # one stencil call, none of them on the zero b_{D+1}
    passes = passes_8 if tol == 1e-8 else passes_10
    g, tg, nu, v = _forced_case(dim, nodes, stiffness, steps, kind)
    stencil, fallback = _spy_stencil_and_fallback(monkeypatch)
    degrees = _spy_passes(monkeypatch)
    counter = hc.MatvecCounter()
    z = propagators.forced_response(g, tg, v, nu, tol, counter)
    assert len(degrees) == passes
    assert counter.count == counter.parallel == len(stencil)
    if passes:
        assert not fallback and counter.count == sum(degrees)
        assert all(0 < d <= propagators.CHEBYSHEV_DEGREES_PER_STEP * steps for d in degrees)
        ref = dense_state_solve(g, tg, g.zero_field(), v, nu)[-1]
        assert np.linalg.norm(z - ref) <= tol * np.linalg.norm(ref)
    else:
        assert fallback == [0]
        sweep = hc.MatvecCounter()
        want = hc.solve_state(g, tg, g.zero_field(), v, nu, tol, sweep, keep=-1)
        assert z.tobytes() == want.tobytes() and counter.count == sweep.count


def test_forced_response_charges_the_passes_that_do_not_certify(monkeypatch):
    # a first degree chosen from a guess of ||z(T)|| 16 times too large: the
    # pass does not certify, a second pass from ||x_D|| less its bound does,
    # and both are charged.  Where no series reaches the second pass's bound,
    # z(T) is the sweep's, at the first pass's products on top
    g, tg, nu, v = _forced_case(1, 17, 1.0, 40, "smooth")
    ref = dense_state_solve(g, tg, g.zero_field(), v, nu)[-1]

    def too_large(*args, real=propagators._lowest_mode):
        phi, decay = real(*args)
        return phi, decay * (16 * np.linalg.norm(ref) / abs(decay.dot(v.dot(phi)) * tg.dt))

    monkeypatch.setattr(propagators, "_lowest_mode", too_large)
    stencil, fallback = _spy_stencil_and_fallback(monkeypatch)
    degrees = _spy_passes(monkeypatch)
    counter = hc.MatvecCounter()
    z = propagators.forced_response(g, tg, v, nu, 1e-10, counter)
    assert len(degrees) == 2 and degrees[0] < degrees[1] and not fallback
    assert counter.count == len(stencil) == sum(degrees)
    assert np.linalg.norm(z - ref) <= 1e-10 * np.linalg.norm(ref)
    first = degrees[0]
    stencil.clear()
    degrees.clear()
    sized = []

    def first_only(*args, real=propagators._sized_series):
        sized.append(args[2])
        return (None, np.inf) if len(sized) > 1 else real(*args)

    monkeypatch.setattr(propagators, "_sized_series", first_only)
    counter = hc.MatvecCounter()
    z = propagators.forced_response(g, tg, v, nu, 1e-10, counter)
    assert degrees == [first] and fallback == [first] and sized[1] < sized[0]
    assert counter.count == len(stencil)
    sweep = hc.MatvecCounter()
    want = hc.solve_state(g, tg, g.zero_field(), v, nu, 1e-10, sweep, keep=-1)
    assert z.tobytes() == want.tobytes() and counter.count == sweep.count + first


def test_forced_response_follows_a_forcing_that_jumps_between_windows(monkeypatch):
    # the shape of a line-search direction: constant in time on each of two
    # windows, with a jump at the breakpoint between them.  One pass
    # certifies z(T) at a sixteenth of the CG sweep's products (29 against
    # 492), and lies nearer the dense recursion than the sweep
    g = hc.build_grid(2, 17, [(0.0, 1.0)] * 2, [(1 / 3, 2 / 3)] * 2)
    nu, steps = 1e-2, 40
    tg = hc.TimeGrid(steps, 0.1 * g.spacing[0] ** 2 / nu)  # dt nu / h^2 = 0.1
    pattern = np.random.default_rng(7).standard_normal((2, g.control_node_count))
    v = np.repeat(pattern, steps // 2, axis=0)
    _, fallback = _spy_stencil_and_fallback(monkeypatch)
    degrees = _spy_passes(monkeypatch)
    counter = hc.MatvecCounter()
    z = propagators.forced_response(g, tg, v, nu, 1e-10, counter)
    assert not fallback and len(degrees) == 1
    monkeypatch.undo()
    sweep = hc.MatvecCounter()
    z_sweep = hc.solve_state(g, tg, g.zero_field(), v, nu, 1e-10, sweep, keep=-1)
    assert 16 * counter.count <= sweep.count
    ref = dense_state_solve(g, tg, g.zero_field(), v, nu)[-1]
    error = np.linalg.norm(z - ref)
    assert error <= 1e-10 * np.linalg.norm(ref)
    assert error <= np.linalg.norm(z_sweep - ref)


def _sized_series_log(monkeypatch):
    """Per ``_sized_series`` call of a pass, (target, what it returned)."""
    log, real = [], propagators._sized_series

    def logged(powers, spread, target, *args):
        out = real(powers, spread, target, *args)
        log.append((target, out))
        return out

    monkeypatch.setattr(propagators, "_sized_series", logged)
    return log


def _upper_bound(g, tg, nu, v):
    """sum_j ||dt v^j|| lambda^-(L-j+1), lambda K's least eigenvalue: an
    upper bound on ||z(T)||."""
    lowest = sum(4.0 / (h * h) * np.sin(np.pi / (2 * (n - 1))) ** 2
                 for n, h in zip(g.nodes_per_axis, g.spacing))
    powers = tg.step_count - np.arange(tg.step_count)
    return float((1.0 + tg.dt * nu * lowest) ** -powers @ (tg.dt * np.sqrt(np.vecdot(v, v))))


# (case, tol, whether the pass sizes a series from the upper bound): on
# the 9 x 9 box at nu dt / h^2 = 0.5 no series up to 2 L reaches the
# lowest-mode guess; at tol = 1e-8 the floor of the sizes tried (2.5e-10)
# lies under the upper bound's target (4.9e-9), at 1e-10 above it (4.9e-11)
@pytest.mark.parametrize("case, tol, retried", [
    ((2, 9, 0.5, 24, "random"), 1e-8, True),
    ((2, 9, 0.5, 24, "random"), 1e-10, False),
    ((1, 17, 10.0, 8, "smooth"), 1e-8, False),
], ids=["retried", "floor_above_the_upper_target", "stiff_and_short"])
def test_pass_sizes_from_the_upper_bound_once_unless_the_floor_rules_it_out(monkeypatch, case,
                                                                           tol, retried):
    g, tg, nu, v = _forced_case(*case)
    upper_target = tol * _upper_bound(g, tg, nu, v) / (1.0 + tol)
    log = _sized_series_log(monkeypatch)
    _, fallback = _spy_stencil_and_fallback(monkeypatch)
    counter = hc.MatvecCounter()
    z = propagators.forced_response(g, tg, v, nu, tol, counter)
    (first_target, (kept, floor)), *rest = log
    assert kept is None and first_target < upper_target
    assert (floor <= upper_target) == retried
    if retried:
        # the second series is sized from the upper bound, and a third from
        # the second pass's result, which lies below it; that one certifies
        (target, (kept, _)), (third, _) = rest
        assert kept is not None and target == pytest.approx(upper_target, rel=1e-12)
        assert third < target and not fallback
        ref = dense_state_solve(g, tg, g.zero_field(), v, nu)[-1]
        assert np.linalg.norm(z - ref) <= tol * np.linalg.norm(ref)
    else:
        # no retry and no product: the result is the CG sweep's
        assert rest == [] and fallback == [0]


# (powers, spread, cap, the sizes with a bound that the series tries): the
# first size has none (q >= 1); every size up to the cap; sizes that stop
# where the floor no longer falls; a cap that is not 16 times a power of two
SIZED_SERIES_CASES = {
    "unbounded_first_size": (np.arange(1.0, 25.0), 20.0, 48, [32, 48]),
    "up_to_the_cap": (np.arange(1.0, 41.0), 4.0, 80, [16, 32, 64, 80]),
    "floor_stops_falling": (np.arange(1.0, 41.0), 0.4, 80, [16, 32, 64]),
    "odd_cap": (np.arange(5.0, 13.0), 2.0, 24, [16, 24]),
}


@pytest.mark.parametrize("case", list(SIZED_SERIES_CASES))
def test_sized_series_gives_the_least_floor_of_the_sizes_it_tried(monkeypatch, case):
    # where no size reaches the target, the series gives the least first
    # floor of the sizes it tried, and no bound of those sizes, at any
    # degree, lies below it (up to the rounding of its sum)
    powers, spread, cap, sizes = SIZED_SERIES_CASES[case]
    weights = np.random.default_rng(1).random(len(powers))
    firsts, real = {}, propagators._inverse_power_series

    def logged(power, spread, degrees, weights=None):
        for i, term in enumerate(real(power, spread, degrees, weights)):
            if not i:
                firsts[degrees] = term[2]
            yield term

    monkeypatch.setattr(propagators, "_inverse_power_series", logged)
    kept, floor = propagators._sized_series(powers, spread, 1e-300, cap, weights, None)
    monkeypatch.undo()
    assert kept is None and list(firsts) == sizes and floor == min(firsts.values())
    for degrees in firsts:
        bounds = [bound for _, bound, _ in real(powers, spread, degrees, weights)]
        assert min(bounds) >= (1.0 - 1e-12) * floor


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 2),
    nodes=st.integers(4, 12),
    steps=st.integers(1, 40),
    stiffness=st.floats(1e-3, 5.0),  # nu * dt / h^2
    tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
    seed=st.integers(0, 2**32 - 1),
)
def test_forced_response_is_within_its_certified_bound(dim, nodes, steps, stiffness, tol, seed):
    # a pass that certifies has z(T) within tol ||z(T)|| of the dense
    # recursion from zero, up to the rounding of the recurrence: D products
    # of forcing terms of at most sum_j ||dt v^j||, a few eps each.  Where no
    # pass certifies, z(T) is the sweep's, whose per-step residual test bounds
    # no such error
    rng = np.random.default_rng(seed)
    g = hc.build_grid(dim, nodes, [(0.0, 1.0)] * dim, [(0.25, 0.75)] * dim)
    tg = hc.TimeGrid(steps, stiffness * g.spacing[0] ** 2 / 0.5)
    v = rng.standard_normal((steps, g.control_node_count))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _, fallback = _spy_stencil_and_fallback(monkeypatch)
        counter = hc.MatvecCounter()
        z = propagators.forced_response(g, tg, v, 0.5, tol, counter)
    if fallback:
        want = hc.solve_state(g, tg, g.zero_field(), v, 0.5, tol, hc.MatvecCounter(), keep=-1)
        assert z.tobytes() == want.tobytes()
        return
    ref = dense_state_solve(g, tg, g.zero_field(), v, 0.5)[-1]
    total = tg.dt * np.sum(np.sqrt(np.vecdot(v, v)))
    slack = 16 * (counter.count + 1) ** 2 * np.finfo(float).eps * total
    assert np.linalg.norm(z - ref) <= tol * np.linalg.norm(ref) + slack


def test_forced_response_of_a_zero_or_underflowing_control_costs_no_product(monkeypatch):
    # as the sweep gives them: zeros, at no product and no stencil call
    g = hc.build_grid(2, 9, [(0.0, 1.0)] * 2, [(0.25, 0.75)] * 2)
    tg = hc.TimeGrid(12, 0.01)
    m = g.control_node_count

    def forbidden(*args, **kwargs):
        raise AssertionError("a stencil call")

    monkeypatch.setattr(propagators, "laplacian_apply", forbidden)
    for v in (np.zeros((12, m)), np.full((12, m), 1e-170), np.full((12, m), -0.0)):
        counter = hc.MatvecCounter()
        z = propagators.forced_response(g, tg, v, 0.05, 1e-10, counter)
        want = hc.solve_state(g, tg, g.zero_field(), v, 0.05, 1e-10, counter, keep=-1)
        assert z.tobytes() == want.tobytes() == np.zeros(49).tobytes()
        assert counter.count == 0


def test_forced_response_fails_and_rejects_as_the_sweep_does():
    # nu = 1e308 makes K's interval infinite: the sweep runs and its products
    # overflow into the same CGError; a bad nu, tol or shape is rejected
    g = hc.build_grid(1, 9, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(8, 0.05)
    v = np.full((8, g.control_node_count), 100.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(hc.CGError) as sweep:
            hc.solve_state(g, tg, g.zero_field(), v, 1e308, 1e-10, hc.MatvecCounter(), keep=-1)
        with pytest.raises(hc.CGError) as forced:
            propagators.forced_response(g, tg, v, 1e308, 1e-10, hc.MatvecCounter())
    assert str(forced.value) == str(sweep.value)
    for nu, tol, control, message in [(-1.0, 1e-10, v, "nu"), (0.5, 0.0, v, "tol"),
                                      (0.5, float("nan"), v, "tol"), (0.5, 1e-10, v[1:], "shape")]:
        with pytest.raises(ValueError, match=message):
            propagators.forced_response(g, tg, control, nu, tol, hc.MatvecCounter())


def _series_sizes(monkeypatch):
    """Per ``_inverse_power_series`` call, [degrees, coefficients it yielded]."""
    sizes, real = [], propagators._inverse_power_series

    def counted(power, spread, degrees, weights=None):
        sizes.append([degrees, 0])
        for term in real(power, spread, degrees, weights):
            sizes[-1][1] += 1
            yield term

    monkeypatch.setattr(propagators, "_inverse_power_series", counted)
    return sizes


@pytest.mark.parametrize("steps, dt", [(160, 0.01), (2000, 0.001)])
def test_a_pass_forms_nodes_and_coefficients_in_the_degree_it_uses(monkeypatch, steps, dt):
    # the series of a pass is sized from the degree the pass uses, D, not
    # from its cap of 2 L: over every size it tries it forms at most 4 (D +
    # 32) coefficients, on at most 4 (D + 16) degrees, where the cap is 320
    # and 4000, and it holds its nodes and one block of coefficients a
    # power: its traced peak stays within 64 floats a step and 128 KiB,
    # where one (L x 2 L) table would take 400 KB and 64 MB
    g = hc.build_grid(1, 9, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(steps, dt)
    v = np.outer(np.cos(np.linspace(0.0, 3.0, steps)), np.ones(g.control_node_count))
    sizes = _series_sizes(monkeypatch)
    degrees = _spy_passes(monkeypatch)
    tracemalloc.start()
    try:
        propagators.forced_response(g, tg, v, 0.5, 1e-10, hc.MatvecCounter())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [used] = degrees
    assert sum(n for _, n in sizes) <= 4 * (used + 32)
    assert max(d for d, _ in sizes) <= 4 * (used + 16)
    assert peak <= 8 * (64 * steps + 16384)
