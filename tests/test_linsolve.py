import numpy as np
import pytest

import heatctrl as hc
import heatctrl.linsolve as linsolve
from heatctrl.linsolve import CHECK, CorrectionSpace, inverse_powers

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
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            hc.cg_solve(lambda u: u, np.ones(3), tol, hc.MatvecCounter())


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
        # h^2 = 1/4096, four fields in a row through one operator
        ((65, 65), [(0.0, 1.0), (0.0, 1.0)], 0.0125),
        # one weight 1/h^2 = 1024 on both axes, but w * -(dt*nu) overflows
        # (dt*nu ~ 1e306): each axis weighs its own term; small fields keep
        # the result finite
        ((33, 33), [(0.0, 1.0), (0.0, 1.0)], 1e306 / nu),
        # h^2 = 16 on both axes: 1/h^2 = 1/16 < 1 is weighed per axis
        ((5, 5), [(0.0, 16.0), (0.0, 16.0)], 0.01),
    ]:
        g = hc.build_grid(2, nodes, domain, domain)
        apply_k = hc.step_operator(g, dt, nu)
        shape = (4 if nodes == (65, 65) else 1, g.interior_node_count)
        for _ in range(10):
            fields = rng.standard_normal(shape) * (1e-10 if dt > 1.0 else 1.0)
            fields[rng.random(shape) < 0.1] = -0.0
            for u in fields:
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


def test_batched_cg_breakdown_names_its_column():
    # the columns of a batch are separate solves, one after another, as step
    # 2 solves its sub-problems (whose errors name them: see test_driver).
    # An indefinite diagonal: only a right-hand side on its last node sees
    # p.Ap < 0.  The zero column costs nothing, column 1 converges, column 2
    # fails, and each is charged the products it made, up to a failure too
    signs = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
    b = np.zeros((3, 6))
    b[1, 0] = 1.0
    b[2, 0] = b[2, -1] = 1.0
    counts = []
    for column in b[:2]:
        counter = hc.MatvecCounter()
        hc.cg_solve(lambda u: signs * u, column, 1e-10, counter)
        counts.append(counter.count)
    assert counts[0] == 0 and counts[1] > 0
    counter = hc.MatvecCounter()
    with pytest.raises(hc.CGError, match="breakdown"):
        hc.cg_solve(lambda u: signs * u, b[2], 1e-10, counter)
    assert counter.count > 0
    counter = hc.MatvecCounter()
    with pytest.raises(hc.CGError, match="not finite"):
        hc.cg_solve(lambda u: u, np.array([np.inf, 0.0]), 1e-10, counter)
    assert counter.count == 0
    counter = hc.MatvecCounter()
    with pytest.raises(hc.CGError, match="did not reach"):
        hc.cg_solve(lambda u: u, np.ones(3), 1e-10, counter, max_iter=0)
    assert counter.count == 0


def test_counter_charges_concurrent_solves_at_their_maximum():
    counter = hc.MatvecCounter()
    counter.add(2)
    counter.add(3)
    assert (counter.count, counter.parallel) == (5, 5)
    counter.add_concurrent([4, 9, 6])
    assert counter.count == 5 + 19  # the sequential tally charges the sum
    assert counter.parallel == 5 + 9  # the parallel one the costliest solve
    assert type(counter.count) is int and type(counter.parallel) is int


def _spd(rng, n):
    q = rng.standard_normal((n, n))
    return q @ q.T + n * np.eye(n)


def _galerkin(a, corrections, r):
    """The correction C^T y with (C A C^T) y = C r, by a dense solve."""
    c = np.array(corrections)
    y = np.linalg.solve(c @ a @ c.T, c @ r)
    return c.T @ y


def _same_bits(got, want):
    return all(np.array_equal(g.view(np.int64), w.view(np.int64)) for g, w in zip(got, want))


def test_correction_space_gives_the_galerkin_correction_of_its_last_corrections(rng):
    # the correction of a start x0 of A x = b solves A c = b - A x0 over the
    # last four corrections, its image is A c, and an empty recall at the
    # space's position changes no bit of either
    n = 12
    a = _spd(rng, n)
    corrections = [rng.standard_normal(n) for _ in range(6)]
    space = CorrectionSpace(n, 4)
    recalling = CorrectionSpace(n, 4, positions=2, depth=2)
    b, x0 = rng.standard_normal(n), rng.standard_normal(n)
    assert space.correct(b, x0) is None  # an empty space
    assert recalling.correct(b, x0) is None
    for count, c in enumerate(corrections, start=1):
        # A c as the difference of two residuals, as a solve records it
        r_end = rng.standard_normal(n)
        space.record(c, a @ c + r_end, r_end)
        recalling.position = 1
        recalling.record(c, a @ c + r_end, r_end)
        got, image = space.correct(b, x0)
        want = _galerkin(a, corrections[max(0, count - 4):count], b - a @ x0)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(image, a @ want, rtol=1e-10, atol=1e-12)
        for position in (None, 0):  # nothing is recalled at position 0
            recalling.position = position
            assert _same_bits(recalling.correct(b, x0), (got, image))


def test_correction_space_recalls_the_corrections_kept_at_its_position(rng):
    # the last two corrections kept at the position and the last four
    # recorded span the correction jointly
    n = 12
    a = _spd(rng, n)
    corrections = [rng.standard_normal(n) for _ in range(7)]
    space = CorrectionSpace(n, 4, positions=3, depth=2)
    for k, c in enumerate(corrections):
        space.position = 2 if k < 3 else None
        r_end = rng.standard_normal(n)
        space.record(c, a @ c + r_end, r_end)
    b, x0 = rng.standard_normal(n), rng.standard_normal(n)
    space.position = 2
    got, image = space.correct(b, x0)
    want = _galerkin(a, corrections[1:], b - a @ x0)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(image, a @ want, rtol=1e-10, atol=1e-12)


def test_correction_space_leaves_out_zero_and_collinear_corrections(rng):
    # warnings are errors here: no division by zero and no exception
    n = 8
    a = _spd(rng, n)
    c = rng.standard_normal(n)
    space = CorrectionSpace(n, 4)
    zero = np.zeros(n)
    space.record(zero, zero, zero)
    b, x0 = rng.standard_normal(n), rng.standard_normal(n)
    assert _same_bits(space.correct(b, x0), (zero, zero))
    for scale in (1.0, 2.0, -1.0):  # one direction, recorded three times
        space.record(scale * c, a @ (scale * c), zero)
    want = (c @ (b - a @ x0)) / (c @ a @ c) * c
    got, image = space.correct(b, x0)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    np.testing.assert_allclose(image, a @ want, rtol=1e-12)


def test_space_records_a_solve_from_an_accepted_start_only(rng):
    g = hc.build_grid(1, 20, [(0.0, 1.0)], [(0.0, 1.0)])
    apply_k = hc.step_operator(g, 0.1, 1.0)
    n = g.interior_node_count
    b = rng.standard_normal(n)
    space = CorrectionSpace(n, 4)
    rhs, start = rng.standard_normal(n), rng.standard_normal(n)
    # from zero, from a guess worse than zero and from a converged guess: nothing
    for x0 in (None, -b, hc.cg_solve(apply_k, b, 1e-14, hc.MatvecCounter())):
        x = hc.cg_solve(apply_k, b, 1e-12, hc.MatvecCounter(), x0=x0, space=space)
        assert space.correct(rhs, start) is None
    # from an accepted start: the correction x - x0 and its image
    x0 = x + 1e-3 * rng.standard_normal(n)
    x = hc.cg_solve(apply_k, b, 1e-12, hc.MatvecCounter(), x0=x0, space=space)
    correction = x - x0
    r = rhs - apply_k(start)
    want = (correction @ r) / (correction @ apply_k(correction)) * correction
    np.testing.assert_allclose(space.correct(rhs, start)[0], want, rtol=1e-8)
    # a corrected start costs no product: the counter holds the operator calls
    calls = []

    def counted(u):
        calls.append(1)
        return apply_k(u)

    b2 = b + 1e-2 * rng.standard_normal(n)
    counter = hc.MatvecCounter()
    x2 = hc.cg_solve(counted, b2, 1e-12, counter, x0=x, space=space)
    assert counter.count == len(calls)
    assert np.linalg.norm(b2 - apply_k(x2)) <= 1e-12 * np.linalg.norm(b2)


# on the default schedule the 2D passes lose orthogonality: their Lanczos
# vectors end with |V^T V - I| of 0.66 and 0.38 (the grid's repeated
# eigenvalues come back as copies the pass cannot tell apart)
@pytest.mark.parametrize("check", [1, CHECK])
@pytest.mark.parametrize("dim, nodes, stiffness, count, tol", [
    (1, 42, 0.5, 8, 1e-10), (1, 66, 1.0, 10, 1e-12), (2, 8, 1.0, 6, 1e-10),
    (2, 12, 2.0, 10, 1e-12),
])
def test_inverse_powers_are_within_tol_of_each_dense_power(rng, monkeypatch, check, dim, nodes,
                                                           stiffness, count, tol):
    # the pass stops on beta_m sum_{k<=s} |[T_m^-k e1]_m| <= tol ||T_m^-s e1||,
    # which bounds each power's error because K >= Id: every power lies
    # within tol ||K^-s b|| of a dense solve, and the bound, not the whole
    # space, ended the pass.  Tested at every Lanczos step (check = 1), the
    # pass stops at the first m the bound allows, where the errors measured
    # up to 0.29 tol; a bound 1e4 times looser let them reach 83-2700 tol
    monkeypatch.setattr(linsolve, "CHECK", check)
    g = hc.build_grid(dim, nodes, [(0.0, 1.0)] * dim, [(0.2, 0.8)] * dim)
    n = g.interior_node_count
    dt = stiffness * g.spacing[0] ** 2  # nu = 1
    K = np.eye(n) - dt * dense_laplacian(g)
    apply_k = hc.step_operator(g, dt, 1.0)
    basis = []

    def logged(u):
        basis.append(u.copy())  # each product is taken of one Lanczos vector
        return apply_k(u)

    b = rng.standard_normal(n)
    counter = hc.MatvecCounter()
    fields = inverse_powers(logged, b, count, tol, counter, np.arange(n))
    want = [b]
    for _ in range(count):
        want.append(np.linalg.solve(K, want[-1]))
    want = np.array(want)
    assert np.all(np.linalg.norm(fields - want, axis=1) <= tol * np.linalg.norm(want, axis=1))
    assert len(basis) == counter.count < n
    # on the control patch alone: the same products, and the patch columns of
    # the whole fields up to the rounding of their combination, which sums
    # over the m Lanczos vectors in another order
    on_patch = hc.MatvecCounter()
    patches = inverse_powers(apply_k, b, count, tol, on_patch, g.control_mask)
    assert on_patch.count == counter.count
    assert np.array_equal(patches[0], b[g.control_mask])
    assert np.max(np.abs(patches - fields[:, g.control_mask])) <= 1e-12 * np.linalg.norm(b)
    if check == CHECK:
        basis = np.array(basis)
        lost = np.max(np.abs(basis @ basis.T - np.eye(len(basis))))
        assert (lost > 0.1) == (dim == 2)
