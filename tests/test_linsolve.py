import numpy as np
import pytest

import heatctrl as hc

from conftest import dense_laplacian


def test_zero_rhs_returns_zero_without_work():
    counter = hc.MatvecCounter()
    x = hc.cg_solve(lambda u: u, np.zeros(5), 1e-10, counter)
    assert np.array_equal(x, np.zeros(5))
    assert counter.count == 0


def test_identity_converges_in_one_iteration(rng):
    counter = hc.MatvecCounter()
    b = rng.standard_normal(8)
    x = hc.cg_solve(lambda u: u, b, 1e-12, counter)
    np.testing.assert_allclose(x, b, rtol=1e-12)
    assert counter.count == 1


def test_step_system_matches_dense_factorization(rng):
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.0, 1.0)])
    dt, nu = 0.1, 1.0
    K = np.eye(3) - dt * nu * dense_laplacian(g)
    apply_k = hc.step_operator(g, dt, nu)
    b = rng.standard_normal(3)
    x = hc.cg_solve(apply_k, b, 1e-12, hc.MatvecCounter())
    np.testing.assert_allclose(x, np.linalg.solve(K, b), rtol=1e-10, atol=1e-12)


def test_counter_matches_number_of_operator_calls(rng):
    calls = []

    def apply_a(u):
        calls.append(1)
        return 3.0 * u + np.roll(u, 1) * 0.0  # SPD diagonal

    counter = hc.MatvecCounter()
    hc.cg_solve(apply_a, rng.standard_normal(12), 1e-12, counter)
    assert counter.count == len(calls)


def test_warm_start_costs_one_extra_matvec(rng):
    b = rng.standard_normal(6)
    counter = hc.MatvecCounter()
    x = hc.cg_solve(lambda u: u, b, 1e-12, counter, x0=b.copy())
    assert np.array_equal(x, b)
    assert counter.count == 1  # residual check only, no iterations


def test_guess_worse_than_zero_restarts_from_zero(rng):
    # x0 = -b leaves ||b + K b|| >= 2 ||b||; the restarted column repeats the
    # cold solve bit for bit, and the product that tested the guess is charged
    g = hc.build_grid(1, 12, [(0.0, 1.0)], [(0.0, 1.0)])
    apply_k = hc.step_operator(g, 0.5, 1.0)
    b = rng.standard_normal(10)
    cold, warm = hc.MatvecCounter(), hc.MatvecCounter()
    want = hc.cg_solve(apply_k, b, 1e-12, cold)
    got = hc.cg_solve(apply_k, b, 1e-12, warm, x0=-b)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert warm.count == cold.count + 1


def test_overflowing_start_residual_restarts_from_zero(rng):
    # with nu = 1e200, ||b - K x0||^2 overflows: that start is worse than
    # zero, without a warning, and the restarted solve is the cold one
    g = hc.build_grid(1, 9, [(0.0, 1.0)], [(0.0, 1.0)])
    apply_k = hc.step_operator(g, 0.01, 1e200)
    b = rng.standard_normal(7)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.vecdot(b - apply_k(b), b - apply_k(b)))
    cold, warm = hc.MatvecCounter(), hc.MatvecCounter()
    want = hc.cg_solve(apply_k, b, 1e-12, cold)
    got = hc.cg_solve(apply_k, b, 1e-12, warm, x0=b.copy())
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert warm.count == cold.count + 1


def test_nonconvergence_raises(rng):
    g = hc.build_grid(1, 34, [(0.0, 1.0)], [(0.0, 1.0)])
    apply_k = hc.step_operator(g, 1.0, 1.0)  # stiff: condition number ~ 4/h^2
    with pytest.raises(hc.CGError):
        hc.cg_solve(apply_k, rng.standard_normal(32), 1e-14,
                    hc.MatvecCounter(), max_iter=3)


def test_invalid_tolerance_rejected():
    with pytest.raises(ValueError):
        hc.cg_solve(lambda u: u, np.ones(3), 0.0, hc.MatvecCounter())


def _reference_cg(apply_a, b, tol, x0):
    """The allocating CG loop the in-place one must reproduce bit for bit."""
    x = x0.copy()
    r = b - apply_a(x)
    if np.linalg.norm(r) > np.linalg.norm(b):  # a guess worse than zero
        x = np.zeros_like(b)
        r = b.copy()
    target = tol * np.linalg.norm(b)
    if np.linalg.norm(r) <= target:
        return x
    p = r.copy()
    rs = float(r @ r)
    while True:
        ap = apply_a(p)
        alpha = rs / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= target:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new


def test_step_operator_bitwise_equal_to_reference_formula(rng):
    nu = 0.3
    for nodes, domain, dt in [
        # h^2 = 1/121 (divided) and 1/16 (multiplied by 16)
        ((12, 9), [(0.0, 1.0), (0.0, 2.0)], 0.01),
        # a batch of 4 fields; h^2 = 1/4096
        ((65, 65), [(0.0, 1.0), (0.0, 1.0)], 0.0125),
    ]:
        g = hc.build_grid(2, nodes, domain, domain)
        apply_k = hc.step_operator(g, dt, nu)
        shape = (4, g.interior_node_count) if nodes == (65, 65) else (g.interior_node_count,)
        for _ in range(10):
            u = rng.standard_normal(shape)
            u[rng.random(shape) < 0.1] = -0.0
            want = u - dt * nu * hc.laplacian_apply(g, u)
            assert np.array_equal(apply_k(u).view(np.int64), want.view(np.int64))


def test_cg_bitwise_equal_to_reference_loop(rng):
    # random guesses are worse than zero for this K and restart from zero;
    # guesses near the solution are kept
    g = hc.build_grid(2, (12, 9), [(0.0, 1.0), (0.0, 2.0)], [(0.2, 0.8), (0.5, 1.5)])
    apply_k = hc.step_operator(g, 0.05, 1.0)
    for near in [False] * 5 + [True] * 5:
        b = rng.standard_normal(g.interior_node_count)
        x0 = rng.standard_normal(g.interior_node_count)
        if near:
            x0 = hc.cg_solve(apply_k, b, 1e-3, hc.MatvecCounter()) + 1e-3 * x0
        worse = np.linalg.norm(b - apply_k(x0)) > np.linalg.norm(b)
        assert worse != near
        got = hc.cg_solve(apply_k, b, 1e-12, hc.MatvecCounter(), x0=x0)
        want = _reference_cg(apply_k, b, 1e-12, x0)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_inputs_left_untouched(rng):
    g = hc.build_grid(1, 20, [(0.0, 1.0)], [(0.0, 1.0)])
    apply_k = hc.step_operator(g, 0.1, 1.0)
    b = rng.standard_normal(18)
    x0 = rng.standard_normal(18)
    b_copy, x0_copy = b.copy(), x0.copy()
    x = hc.cg_solve(apply_k, b, 1e-12, hc.MatvecCounter(), x0=x0)
    assert np.array_equal(b, b_copy) and np.array_equal(x0, x0_copy)
    assert x is not b and x is not x0


def test_operator_returning_its_argument(rng):
    b = rng.standard_normal(8)
    x0 = rng.standard_normal(8)
    x0_copy = x0.copy()
    x = hc.cg_solve(lambda u: u, b, 1e-12, hc.MatvecCounter(), x0=x0)
    np.testing.assert_allclose(x, b, rtol=1e-12)
    assert np.array_equal(x0, x0_copy)


def test_operator_returning_a_reused_buffer(rng):
    diag = 1.0 + rng.random(15)
    buffer = np.empty(15)

    def reusing(u):
        np.multiply(diag, u, out=buffer)
        return buffer

    b = rng.standard_normal(15)
    x = hc.cg_solve(reusing, b, 1e-12, hc.MatvecCounter())
    fresh = hc.cg_solve(lambda u: diag * u, b, 1e-12, hc.MatvecCounter())
    assert np.array_equal(x, fresh)
    np.testing.assert_allclose(x, b / diag, rtol=1e-10)


@pytest.mark.parametrize("apply_a, b", [
    (lambda u: -u, np.ones(4)),  # negative definite: p.Ap < 0
    (lambda u: 0.0 * u, np.ones(4)),  # singular: p.Ap = 0
    (lambda u: u, np.array([1.0, np.nan, 0.0])),
    (lambda u: u, np.array([1.0, np.inf, 0.0])),
    (lambda u: u * np.array([1.0, np.nan, 1.0]), np.ones(3)),  # non-finite iterate
])
def test_breakdown_raises(apply_a, b):
    with pytest.raises(hc.CGError, match="breakdown|not finite"):
        hc.cg_solve(apply_a, b, 1e-10, hc.MatvecCounter())


def _batch(rng, x0):
    """Five right-hand sides at different scales (one of them zero, one an
    eigenvector of the step operator) on a 2D grid."""
    g = hc.build_grid(2, (12, 9), [(0.0, 1.0), (0.0, 2.0)], [(0.2, 0.8), (0.5, 1.5)])
    n = g.interior_node_count
    b = rng.standard_normal((5, n)) * np.array([[1.0], [1e-3], [1e3], [1.0], [1.0]])
    b[3] = 0.0
    b[4] = np.outer(*(np.sin(np.pi * np.arange(1, k + 1) / (k + 1))
                      for k in g.interior_shape)).ravel()
    guess = rng.standard_normal((5, n)) if x0 else None
    return g, b, guess


@pytest.mark.parametrize("x0", [False, True])
def test_batched_cg_bitwise_equal_to_column_solves(rng, x0):
    g, b, guess = _batch(rng, x0)
    apply_k = hc.step_operator(g, 0.3 / 7.0, 0.7)
    counter = hc.MatvecCounter(columns=len(b))
    got = hc.cg_solve(apply_k, b, 1e-11, counter, x0=guess)
    counts = []
    for c in range(len(b)):
        own = hc.MatvecCounter()
        want = hc.cg_solve(apply_k, b[c], 1e-11, own,
                           x0=None if guess is None else guess[c])
        assert np.array_equal(got[c].view(np.int64), want.view(np.int64))
        counts.append(own.count)
    assert counter.per_column.tolist() == counts
    assert counter.count == sum(counts)
    assert counts[3] == 0  # the zero column costs nothing
    assert len({n for n in counts if n}) > 1  # columns leave the batch at different iterations


def test_batched_cg_breakdown_names_its_column():
    # an indefinite diagonal: only a right-hand side on its last node sees p.Ap < 0
    signs = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
    b = np.zeros((4, 6))
    b[1:, 0] = 1.0
    b[2] = 0.0
    b[2, -1] = 1.0
    # column 0 is zero and leaves the batch at once, so the failing column is
    # found through the active set
    with pytest.raises(hc.CGError, match="breakdown") as failure:
        hc.cg_solve(lambda u: signs * u, b, 1e-10, hc.MatvecCounter())
    assert failure.value.column == 2
    with pytest.raises(hc.CGError, match="not finite") as failure:
        hc.cg_solve(lambda u: u, np.array([[1.0, 2.0], [np.inf, 0.0]]), 1e-10,
                    hc.MatvecCounter())
    assert failure.value.column == 1
    with pytest.raises(hc.CGError) as failure:
        hc.cg_solve(lambda u: -u, np.ones(3), 1e-10, hc.MatvecCounter())
    assert failure.value.column is None  # one field is no batch


def test_counter_charges_concurrent_solves_at_their_maximum():
    counter = hc.MatvecCounter(columns=3)
    counter.add(2)
    counter.add(np.array([1, 1, 1]))
    assert (counter.count, counter.parallel) == (5, 5)
    counter.add_concurrent(np.array([4, 9, 6]))
    assert counter.count == 5 + 19  # the sequential tally charges the sum
    assert counter.parallel == 5 + 9  # the parallel one the slowest column
    assert counter.per_column.tolist() == [5, 10, 7]
    plain = hc.MatvecCounter()
    plain.add_concurrent(np.array([3, 1]))
    assert (plain.count, plain.parallel, plain.per_column) == (4, 3, None)
