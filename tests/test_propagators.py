import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatctrl as hc
import heatctrl.propagators as propagators

from conftest import dense_adjoint_solve, dense_state_solve


def test_time_grid_validation():
    with pytest.raises(ValueError):
        hc.TimeGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        hc.TimeGrid(1.0, 1.0, 4)
    with pytest.raises(ValueError, match="finite"):
        hc.TimeGrid(0.0, float("inf"), 4)
    tg = hc.TimeGrid(0.0, 6.4, 6400)
    assert tg.dt == pytest.approx(1e-3)
    assert tg.times().shape == (6401,)


def test_state_zero_dynamics():
    g = hc.build_grid(1, 6, [(0.0, 1.0)], [(0.0, 1.0)])
    tg = hc.TimeGrid(0.0, 1.0, 5)
    c = hc.MatvecCounter()
    y = hc.solve_state(g, tg, np.zeros(4), np.zeros((5, 4)), 1.0, 1e-10, c)
    assert np.array_equal(y, np.zeros((6, 4)))


def test_state_no_diffusion_constant_source_is_exact():
    # nu = 0 allowed only here: implicit Euler integrates a constant source exactly
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.0, 1.0)])
    tg = hc.TimeGrid(0.0, 1.0, 4)
    y0 = np.array([0.5, -1.0, 2.0])
    y = hc.solve_state(g, tg, y0, np.ones((4, 3)), 0.0, 1e-12, hc.MatvecCounter())
    for j in range(5):
        np.testing.assert_allclose(y[j], y0 + j * tg.dt, rtol=1e-14)


def test_state_matches_dense_recursion(rng):
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(0.0, 0.4, 2)
    y0 = rng.standard_normal(3)
    v = rng.standard_normal((2, g.control_node_count))
    y = hc.solve_state(g, tg, y0, v, 0.7, 1e-12, hc.MatvecCounter())
    y_ref = dense_state_solve(g, tg, y0, v, 0.7)
    np.testing.assert_allclose(y, y_ref, rtol=1e-10, atol=1e-12)


def test_adjoint_zero_terminal():
    g = hc.build_grid(1, 6, [(0.0, 1.0)], [(0.0, 1.0)])
    tg = hc.TimeGrid(0.0, 1.0, 6)
    p = hc.solve_adjoint(g, tg, np.zeros(4), 1.0, 1e-10, hc.MatvecCounter())
    assert np.array_equal(p, np.zeros((7, 4)))


def test_adjoint_single_step_matches_dense(rng):
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.0, 1.0)])
    tg = hc.TimeGrid(0.0, 0.1, 1)
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
    tg = hc.TimeGrid(0.0, 1.0, 10)
    y0 = rng.standard_normal(7)
    v = rng.standard_normal((10, g.control_node_count))
    y = hc.solve_state(g, tg, y0, v, 0.8, 1e-12, hc.MatvecCounter())
    for j in range(1, 11):
        bound = hc.norm_omega(g, y[j - 1]) + tg.dt * hc.norm_omega(g, hc.inject(g, v[j - 1]))
        assert hc.norm_omega(g, y[j]) <= bound + 1e-12


def test_free_decay_monotone(rng):
    g = hc.build_grid(2, (7, 7), [(0.0, 1.0), (0.0, 1.0)], [(0.3, 0.7), (0.3, 0.7)])
    tg = hc.TimeGrid(0.0, 0.5, 8)
    y0 = rng.standard_normal(g.interior_node_count)
    v = np.zeros((8, g.control_node_count))
    y = hc.solve_state(g, tg, y0, v, 0.5, 1e-12, hc.MatvecCounter())
    norms = [hc.norm_omega(g, yj) for yj in y]
    assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))


def test_counter_audited_against_laplacian_call_log(rng, monkeypatch):
    g = hc.build_grid(1, 7, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(0.0, 1.0, 6)
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
    tg = hc.TimeGrid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        hc.solve_state(g, tg, np.zeros(3), np.zeros((4, 3)), 1.0, 1e-10,
                       hc.MatvecCounter())


def _column_grids():
    # local time grids as make_partition cuts them: dt differs in the last bits
    part = hc.make_partition(hc.TimeGrid(0.0, 0.7, 15), 5)
    return tuple(hc.TimeGrid(a, b, n) for a, b, n in
                 zip(part.breakpoints, part.breakpoints[1:], part.step_counts))


def test_batched_sweeps_bitwise_equal_to_single_solves(rng):
    g = hc.build_grid(2, (7, 8), [(0.0, 1.0), (0.0, 1.0)], [(0.3, 0.7), (0.2, 0.9)])
    grids = _column_grids()
    assert len({tg.dt for tg in grids}) > 1
    k, n, m = len(grids), g.interior_node_count, g.control_node_count
    y0 = rng.standard_normal((k, n))
    v = rng.standard_normal((k, 3, m))
    counter = hc.MatvecCounter(columns=k)
    y = hc.solve_state(g, grids, y0, v, 0.6, 1e-11, counter)
    p = hc.solve_adjoint(g, grids, y0, 0.6, 1e-11, counter)
    assert y.shape == p.shape == (k, 4, n)
    y_final = hc.solve_state(g, grids, y0, v, 0.6, 1e-11, hc.MatvecCounter(), final_only=True)
    p_patch = hc.solve_adjoint(g, grids, y0, 0.6, 1e-11, hc.MatvecCounter(), patch_only=True)
    assert np.array_equal(y_final, y[:, -1])
    assert np.array_equal(p_patch, p[..., g.control_mask])
    for c, tg in enumerate(grids):
        own = hc.MatvecCounter()
        want_y = hc.solve_state(g, tg, y0[c], v[c], 0.6, 1e-11, own)
        want_p = hc.solve_adjoint(g, tg, y0[c], 0.6, 1e-11, own)
        assert np.array_equal(y[c].view(np.int64), want_y.view(np.int64))
        assert np.array_equal(p[c].view(np.int64), want_p.view(np.int64))
        assert counter.per_column[c] == own.count


def test_batch_with_two_step_counts_rejected():
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.0, 1.0)])
    grids = (hc.TimeGrid(0.0, 0.5, 3), hc.TimeGrid(0.5, 1.0, 2))
    with pytest.raises(ValueError, match="one step count"):
        hc.solve_adjoint(g, grids, np.ones((2, 3)), 1.0, 1e-10, hc.MatvecCounter())
    with pytest.raises(ValueError, match="time grids"):
        hc.solve_adjoint(g, grids[:1] * 3, np.ones((2, 3)), 1.0, 1e-10, hc.MatvecCounter())


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
    dts = dt * rng.uniform(0.5, 1.5, columns)
    a = rng.standard_normal((columns, g.interior_node_count))
    b = rng.standard_normal((columns, g.interior_node_count))
    tol = 1e-10
    apply_k = hc.step_operator(g, dts, nu)
    ka = hc.cg_solve(apply_k, a, tol, hc.MatvecCounter())
    kb = hc.cg_solve(apply_k, b, tol, hc.MatvecCounter())
    lhs = hc.inner_omega(g, ka, b)
    rhs = hc.inner_omega(g, a, kb)
    bound = 2.5 * tol * hc.norm_omega(g, a) * hc.norm_omega(g, b)
    assert np.all(np.abs(lhs - rhs) <= bound)
