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


def _window():
    # the third of the five sub-intervals make_partition cuts from 15 steps:
    # its own span over its 3 steps misses the outer dt in the last bit
    return hc.TimeGrid(0.0, 0.7, 15).window(6, 3)


def test_windows_keep_the_parent_dt_bit_for_bit():
    parent = hc.TimeGrid(0.0, 0.7, 15)
    part = hc.make_partition(parent, 5)
    windows = [parent.window(o, c) for o, c in zip(part.step_offsets, part.step_counts)]
    spans = [hc.TimeGrid(w.t_start, w.t_end, w.step_count) for w in windows]
    assert len({tg.dt for tg in spans}) > 1
    for w, start, end, count in zip(windows, part.breakpoints, part.breakpoints[1:],
                                    part.step_counts):
        assert (w.t_start, w.t_end, w.step_count) == (start, end, count)
        assert np.float64(w.dt).view(np.int64) == np.float64(parent.dt).view(np.int64)
    assert windows[2].window(1, 2).dt == parent.dt
    assert parent.window(0, 15) == parent
    for first, count in [(-1, 3), (14, 2), (3, 0)]:
        with pytest.raises(ValueError, match="not a window"):
            parent.window(first, count)


def test_batched_sweeps_bitwise_equal_to_single_solves(rng):
    g = hc.build_grid(2, (7, 8), [(0.0, 1.0), (0.0, 1.0)], [(0.3, 0.7), (0.2, 0.9)])
    tg = _window()
    k, n, m = 5, g.interior_node_count, g.control_node_count
    y0 = rng.standard_normal((k, n))
    v = rng.standard_normal((k, 3, m))
    counter = hc.MatvecCounter(columns=k)
    y = hc.solve_state(g, tg, y0, v, 0.6, 1e-11, counter)
    p = hc.solve_adjoint(g, tg, y0, 0.6, 1e-11, counter)
    assert y.shape == p.shape == (k, 4, n)
    y_final = hc.solve_state(g, tg, y0, v, 0.6, 1e-11, hc.MatvecCounter(), keep=-1)
    _, p_patch = hc.solve_adjoint(g, tg, y0, 0.6, 1e-11, hc.MatvecCounter(), keep=[])
    assert np.array_equal(y_final, y[:, -1])
    assert np.array_equal(p_patch, p[..., g.control_mask])
    for c in range(k):
        own = hc.MatvecCounter()
        want_y = hc.solve_state(g, tg, y0[c], v[c], 0.6, 1e-11, own)
        want_p = hc.solve_adjoint(g, tg, y0[c], 0.6, 1e-11, own)
        assert np.array_equal(y[c].view(np.int64), want_y.view(np.int64))
        assert np.array_equal(p[c].view(np.int64), want_p.view(np.int64))
        assert counter.per_column[c] == own.count


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
    ka = hc.cg_solve(apply_k, a, tol, hc.MatvecCounter())
    kb = hc.cg_solve(apply_k, b, tol, hc.MatvecCounter())
    lhs = hc.inner_omega(g, ka, b)
    rhs = hc.inner_omega(g, a, kb)
    bound = 2.5 * tol * hc.norm_omega(g, a) * hc.norm_omega(g, b)
    assert np.all(np.abs(lhs - rhs) <= bound)


def _expected_starts(first, solved):
    """The CG starts of a sweep from the states it solved, in order: first,
    y1, 2y2 - y1, 3y3 - 3y2 + y1, then 4y[j-1] - 6y[j-2] + 4y[j-3] - y[j-4]."""
    starts = [first, solved[0]]
    if len(solved) > 2:
        starts.append(2 * solved[1] - solved[0])
    if len(solved) > 3:
        starts.append(3 * solved[2] - 3 * solved[1] + solved[0])
    for j in range(4, len(solved)):
        starts.append(4 * solved[j - 1] - 6 * solved[j - 2] + 4 * solved[j - 3] - solved[j - 4])
    return starts


# the steps of 0..7 that each storage mode keeps (None: every step)
KEPT = {"state": None, "state_final_only": -1, "state_breakpoints": [0, 3, 5, 7],
        "state_batch": None, "state_batch_breakpoints": [0, 2, 7],
        "adjoint": None, "adjoint_patch_only": [], "adjoint_breakpoints": [3, 5, 7]}


@pytest.mark.parametrize("sweep", list(KEPT))
def test_sweeps_start_cg_from_extrapolated_states(rng, monkeypatch, sweep):
    g = hc.build_grid(2, (7, 8), [(0.0, 1.0), (0.0, 1.0)], [(0.3, 0.7), (0.2, 0.9)])
    n, m = g.interior_node_count, g.control_node_count
    if sweep.startswith("state_batch"):
        tg = hc.TimeGrid(0.0, 0.7, 21).window(14, 7)
        first = rng.standard_normal((3, n))
        v = rng.standard_normal((3, 7, m))
    else:
        tg = hc.TimeGrid(0.0, 0.7, 7)
        first = rng.standard_normal(n)
        v = rng.standard_normal((7, m))
    calls = []
    real = propagators.cg_solve

    def recording(apply_a, b, tol, counter, x0=None):
        x = real(apply_a, b, tol, counter, x0=x0)
        calls.append((x0.copy(), x.copy()))
        return x

    monkeypatch.setattr(propagators, "cg_solve", recording)
    counter = hc.MatvecCounter()
    keep = KEPT[sweep]
    if sweep.startswith("state"):
        out = hc.solve_state(g, tg, first, v, 0.6, 1e-11, counter, keep=keep)
    else:
        out = hc.solve_adjoint(g, tg, first, 0.6, 1e-11, counter, keep=keep)
    starts, solved = zip(*calls)
    assert len(starts) == 7
    # the trajectory of the solved fields, in time order
    trajectory = np.moveaxis(np.array((first,) + solved), 0, -2)
    if sweep.startswith("adjoint"):
        trajectory = np.flip(trajectory, axis=-2)
    if keep is None:
        assert np.array_equal(out, trajectory)
    elif sweep.startswith("adjoint"):
        assert np.array_equal(out[0], trajectory[..., keep, :])
        assert np.array_equal(out[1], trajectory[..., g.control_mask])
    else:
        assert np.array_equal(out, trajectory[..., keep, :])
    for got, want in zip(starts, _expected_starts(first, solved), strict=True):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("case", ["1d", "2d", "batch"])
def test_kept_steps_bitwise_equal_to_full_sweeps(rng, case):
    # the rows a sweep keeps are the rows of the full sweep, bit for bit, with
    # the same products, whatever the form of the index
    if case == "1d":
        g = hc.build_grid(1, 12, [(0.0, 1.0)], [(0.2, 0.6)])
    else:
        g = hc.build_grid(2, (9, 8), [(0.0, 1.0), (0.0, 1.0)], [(0.3, 0.7), (0.2, 0.9)])
    tg = _window() if case == "batch" else hc.TimeGrid(0.0, 0.9, 13)
    batch = (5,) if case == "batch" else ()
    steps = tg.step_count
    n, m = g.interior_node_count, g.control_node_count
    y0 = rng.standard_normal(batch + (n,))
    v = rng.standard_normal(batch + (steps, m))
    full = hc.MatvecCounter()
    y = hc.solve_state(g, tg, y0, v, 0.6, 1e-11, full)
    p = hc.solve_adjoint(g, tg, y0, 0.6, 1e-11, full)
    at = hc.make_partition(hc.TimeGrid(0.0, 1.0, steps), 2).breakpoint_steps
    for keep in (at, at[1:], -1, 0, [], [steps, 0, 2, 2], slice(1, None, 2)):
        reduced = hc.MatvecCounter()
        y_kept = hc.solve_state(g, tg, y0, v, 0.6, 1e-11, reduced, keep=keep)
        p_kept, p_patch = hc.solve_adjoint(g, tg, y0, 0.6, 1e-11, reduced, keep=keep)
        assert reduced.count == full.count
        assert y_kept.shape == y[..., keep, :].shape
        assert np.array_equal(_bits(y_kept), _bits(y[..., keep, :]))
        assert np.array_equal(_bits(p_kept), _bits(p[..., keep, :]))
        assert np.array_equal(_bits(p_patch), _bits(p[..., g.control_mask]))


def test_adjoint_from_a_rough_terminal_converges():
    # the rough terminal as CG's first guess leaves ||b - K x0|| >> ||b||, and
    # with it CG's attainable residual, about eps * ||b - K x0||, above tol * ||b||
    g = hc.build_grid(1, 10, [(0.0, 1.0)], [(0.2, 0.8)])
    tg = hc.TimeGrid(0.0, 2.0, 8)
    terminal = np.random.default_rng(54).standard_normal(8)
    p = hc.solve_adjoint(g, tg, terminal, 2.0, 1e-13, hc.MatvecCounter())
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
    tg = hc.TimeGrid(0.0, steps * stiffness * g.spacing[0] ** 2 / nu, steps)
    n, m = g.interior_node_count, g.control_node_count
    # rough in time: every step has its own scale and sign
    v = (rng.standard_normal((steps, m)) * 10.0 ** rng.uniform(-1, 3, (steps, 1))
         * rng.choice([-1.0, 1.0], (steps, 1)))
    y0, terminal = rng.standard_normal(n), rng.standard_normal(n)
    counter = hc.MatvecCounter()
    y = hc.solve_state(g, tg, y0, v, nu, tol, counter)
    p = hc.solve_adjoint(g, tg, terminal, nu, tol, counter)
    assert np.array_equal(hc.solve_state(g, tg, y0, v, nu, tol, counter, keep=-1), y[-1])
    assert np.array_equal(hc.solve_adjoint(g, tg, terminal, nu, tol, counter, keep=[])[1],
                          p[:, g.control_mask])
    y_ref = dense_state_solve(g, tg, y0, v, nu)
    p_ref = dense_adjoint_solve(g, tg, terminal, nu)
    rhs = y_ref[:-1] + tg.dt * np.array([hc.inject(g, vj) for vj in v])
    y_err = np.linalg.norm(y[1:] - y_ref[1:], axis=1)
    assert np.all(y_err <= _cumulative_error_bound(tol, np.linalg.norm(rhs, axis=1)))
    p_err = np.linalg.norm(p[:-1] - p_ref[:-1], axis=1)[::-1]
    p_rhs = np.linalg.norm(p_ref[1:], axis=1)[::-1]
    assert np.all(p_err <= _cumulative_error_bound(tol, p_rhs))
