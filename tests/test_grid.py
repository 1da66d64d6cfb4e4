import numpy as np
import pytest

import heatctrl as hc

from conftest import dense_laplacian


def test_build_grid_1d_full_control_patch():
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.0, 1.0)])
    assert g.interior_node_count == 3
    assert list(g.control_mask) == [0, 1, 2]
    assert g.spacing == (0.25,)


def test_build_grid_2d_4x4_center_patch():
    g = hc.build_grid(2, (4, 4), [(0.0, 1.0), (0.0, 1.0)],
                      [(1 / 3, 2 / 3), (1 / 3, 2 / 3)])
    # interior nodes sit at 1/3 and 2/3 per axis, all inside the patch
    assert g.interior_node_count == 4
    assert list(g.control_mask) == [0, 1, 2, 3]


def test_build_grid_31x31_patch_size_by_enumeration():
    g = hc.build_grid(2, (31, 31), [(0.0, 1.0), (0.0, 1.0)],
                      [(1 / 3, 2 / 3), (1 / 3, 2 / 3)])
    h = 1.0 / 30.0
    expected = 0
    for i in range(1, 30):
        for j in range(1, 30):
            if 1 / 3 <= i * h <= 2 / 3 and 1 / 3 <= j * h <= 2 / 3:
                expected += 1
    assert g.control_node_count == expected
    assert expected == 11 * 11


@pytest.mark.parametrize("dim, nodes, domain, patch, centred", [
    (1, 9, [(0.0, 1.0)], [(0.25, 0.75)], True),
    (1, 9, [(0.0, 1.0)], [(0.25, 0.6)], False),
    (1, 10, [(-1.0, 3.0)], [(0.0, 2.0)], True),
    (2, (9, 7), [(0.0, 1.0), (0.0, 2.0)], [(0.25, 0.75), (0.5, 1.5)], True),
    (2, (9, 7), [(0.0, 1.0), (0.0, 2.0)], [(0.25, 0.75), (0.5, 1.2)], False),
    (2, 33, [(0.0, 1.0)] * 2, [(1 / 3, 2 / 3)] * 2, True),
])
def test_patch_is_point_symmetric(dim, nodes, domain, patch, centred):
    g = hc.build_grid(dim, nodes, domain, patch)
    assert g.patch_is_point_symmetric == centred


def test_reversal_commutes_with_the_state_sweep_on_a_centred_patch(rng):
    # reversing the interior numbering and the control slices is the point
    # reflection, which the heat equation with zero Dirichlet values keeps
    g = hc.build_grid(2, (9, 7), [(0.0, 1.0), (0.0, 2.0)], [(0.25, 0.75), (0.5, 1.5)])
    assert g.patch_is_point_symmetric
    tg = hc.TimeGrid(6, 0.05)
    y0 = rng.standard_normal(g.interior_node_count)
    u = rng.standard_normal((tg.step_count, g.control_node_count))
    counter = hc.MatvecCounter()
    y = hc.solve_state(g, tg, y0, u, 0.7, 1e-13, counter, keep=-1)
    y_reflected = hc.solve_state(g, tg, y0[::-1], u[:, ::-1], 0.7, 1e-13, counter, keep=-1)
    assert np.abs(y_reflected - y[::-1]).max() <= 1e-11 * np.abs(y).max()


@pytest.mark.parametrize("bad", [0, 3, -1])
def test_build_grid_rejects_bad_dim(bad):
    with pytest.raises(ValueError):
        hc.build_grid(bad, 5, [(0.0, 1.0)], [(0.0, 1.0)])


def test_build_grid_rejects_empty_control_patch():
    # nodes at 0.25, 0.5, 0.75; the patch [0.26, 0.49] contains none
    with pytest.raises(ValueError):
        hc.build_grid(1, 5, [(0.0, 1.0)], [(0.26, 0.49)])


def test_build_grid_rejects_non_nested_bounds():
    with pytest.raises(ValueError):
        hc.build_grid(1, 5, [(0.0, 1.0)], [(0.5, 1.2)])


def test_laplacian_zero():
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.0, 1.0)])
    assert np.array_equal(hc.laplacian_apply(g, np.zeros(3)), np.zeros(3))


def test_laplacian_1d_stencil_by_hand():
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.0, 1.0)])
    out = hc.laplacian_apply(g, np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out, [16.0, -32.0, 16.0])


def test_laplacian_discrete_eigenvector():
    g = hc.build_grid(1, 18, [(0.0, 1.0)], [(0.0, 1.0)])
    h = g.spacing[0]
    x = g.interior_coordinates()[0]
    u = np.sin(np.pi * x)
    lam = -(2.0 / h**2) * (1.0 - np.cos(np.pi * h))
    np.testing.assert_allclose(hc.laplacian_apply(g, u), lam * u, rtol=1e-13, atol=1e-13)


def test_laplacian_symmetry_and_negative_semidefinite(rng):
    g = hc.build_grid(2, (7, 6), [(0.0, 1.0), (0.0, 2.0)],
                      [(0.2, 0.8), (0.5, 1.5)])
    for _ in range(20):
        u = rng.standard_normal(g.interior_node_count)
        w = rng.standard_normal(g.interior_node_count)
        lhs = hc.inner_omega(g, hc.laplacian_apply(g, u), w)
        rhs = hc.inner_omega(g, u, hc.laplacian_apply(g, w))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        assert hc.inner_omega(g, hc.laplacian_apply(g, u), u) <= 0.0


def test_laplacian_eigenvalues_match_formula():
    n = 16
    g = hc.build_grid(1, n + 2, [(0.0, 1.0)], [(0.0, 1.0)])
    h = g.spacing[0]
    A = np.column_stack([hc.laplacian_apply(g, e) for e in np.eye(n)])
    computed = np.sort(np.linalg.eigvalsh(A))
    expected = np.sort([-(2.0 / h**2) * (1.0 - np.cos(k * np.pi * h))
                        for k in range(1, n + 1)])
    np.testing.assert_allclose(computed, expected, rtol=1e-10)


def test_laplacian_matches_dense_assembly(rng):
    g = hc.build_grid(2, (6, 8), [(0.0, 1.0), (0.0, 1.0)], [(0.3, 0.7), (0.3, 0.7)])
    L = dense_laplacian(g)
    u = rng.standard_normal(g.interior_node_count)
    np.testing.assert_allclose(hc.laplacian_apply(g, u), L @ u, rtol=1e-12, atol=1e-12)


def _reference_laplacian(grid, u):
    """The original np.pad + np.diff stencil: the evaluation order every run's
    numbers depend on, kept here as the bit-for-bit reference."""
    a = u.reshape(grid.interior_shape)
    out = np.zeros_like(a)
    padded = np.pad(a, [(1, 1)] * grid.dim)
    for ax, h in enumerate(grid.spacing):
        sl = tuple(slice(None) if i == ax else slice(1, -1) for i in range(grid.dim))
        out += np.diff(padded[sl], n=2, axis=ax) / h**2
    return out.ravel()


@pytest.mark.parametrize("dim, nodes, domain", [
    (1, (35,), [(0.0, 1.0)]),
    (2, (33, 33), [(0.0, 1.0), (0.0, 1.0)]),
    (2, (9, 14), [(0.0, 1.0), (0.0, 1.0)]),
    (2, (11, 7), [(-0.3, 1.1), (0.0, 2.5)]),
    (2, (65, 65), [(0.0, 1.0), (0.0, 1.0)]),
    (2, (3, 17), [(0.0, 1.0), (0.0, 1.0)]),  # one interior row
    (2, (5, 9), [(0.0, 16.0), (0.0, 16.0)]),  # h = 4 and 2: h^2 = 16 and 4
    (2, (9, 9), [(0.0, 16.0), (0.0, 16.0)]),  # one 1/h^2 = 1/4 < 1 on both axes
])
def test_laplacian_bitwise_equal_to_reference(rng, dim, nodes, domain):
    # 1/h^2 is a power of two on some of these grids (a multiply) and not on
    # others (a division); both must give the reference's bits
    g = hc.build_grid(dim, nodes, domain, domain)
    for _ in range(10):
        u = rng.standard_normal(g.interior_node_count) * 10.0 ** rng.integers(-3, 4)
        # signed zeros tell a zero start apart from starting at the first term
        u[rng.random(u.size) < 0.2] = -0.0
        u[rng.random(u.size) < 0.2] = 0.0
        # subnormals, where a weighting that rounds differently would show
        tiny = rng.random(u.size) < 0.2
        u[tiny] = rng.standard_normal(tiny.sum()) * 2.0 ** -1060
        got = hc.laplacian_apply(g, u)
        want = _reference_laplacian(g, u)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_inject_restrict_basics():
    g = hc.build_grid(1, 7, [(0.0, 1.0)], [(0.3, 0.7)])
    m = g.control_node_count
    assert np.array_equal(hc.inject(g, np.zeros(m)), np.zeros(5))
    indicator = hc.inject(g, np.ones(m))
    assert indicator.sum() == m
    assert set(np.flatnonzero(indicator)) == set(g.control_mask)


def test_restrict_inject_roundtrip(rng):
    g = hc.build_grid(2, (8, 8), [(0.0, 1.0), (0.0, 1.0)], [(0.2, 0.6), (0.4, 0.9)])
    # B* reads a field on the control mask
    c = rng.standard_normal(g.control_node_count)
    assert np.array_equal(hc.inject(g, c)[g.control_mask], c)
    assert np.array_equal(np.zeros(g.interior_node_count)[g.control_mask],
                          np.zeros(g.control_node_count))


def test_adjoint_identity_random_pairs(rng):
    g = hc.build_grid(2, (9, 7), [(0.0, 1.0), (0.0, 1.0)], [(0.25, 0.75), (0.1, 0.5)])
    for _ in range(100):
        c = rng.standard_normal(g.control_node_count)
        u = rng.standard_normal(g.interior_node_count)
        lhs = hc.inner_omega(g, hc.inject(g, c), u)
        rhs = g.node_weight * np.vecdot(c, u[g.control_mask])
        norm_c = np.sqrt(g.node_weight * np.vecdot(c, c))
        assert abs(lhs - rhs) <= 1e-14 * norm_c * hc.norm_omega(g, u) + 1e-300


def test_inner_omega_hand_sum():
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.0, 1.0)])
    ones = np.ones(3)
    assert hc.inner_omega(g, ones, ones) == pytest.approx(0.75)


def test_inner_omega_definiteness(rng):
    g = hc.build_grid(1, 6, [(0.0, 1.0)], [(0.0, 1.0)])
    u = rng.standard_normal(g.interior_node_count)
    assert hc.inner_omega(g, u, u) > 0
    assert hc.inner_omega(g, np.zeros(4), np.zeros(4)) == 0.0


def test_inner_control_equals_injected_inner_omega(rng):
    # the control inner product <c, d>_c that inner_h sums over the steps
    g = hc.build_grid(1, 9, [(0.0, 1.0)], [(0.3, 0.8)])
    c = rng.standard_normal(g.control_node_count)
    d = rng.standard_normal(g.control_node_count)
    assert hc.inner_h(g, hc.TimeGrid(1, 1.0), c[None], d[None]) == pytest.approx(
        hc.inner_omega(g, hc.inject(g, c), hc.inject(g, d)), rel=1e-14
    )


def test_grid_mismatch_rejected():
    g = hc.build_grid(1, 5, [(0.0, 1.0)], [(0.0, 1.0)])
    with pytest.raises(ValueError):
        hc.laplacian_apply(g, np.zeros(4))
    with pytest.raises(ValueError):
        hc.inject(g, np.zeros(7))
    with pytest.raises(ValueError):
        hc.inner_omega(g, np.zeros(3), np.zeros(5))


def test_laplacian_rejects_a_batch_of_fields(rng):
    # the stencil and the step operator built on it take one field at a time
    g = hc.build_grid(2, (11, 7), [(-0.3, 1.1), (0.0, 2.5)], [(-0.3, 1.1), (0.0, 2.5)])
    u = rng.standard_normal((3, g.interior_node_count))
    with pytest.raises(ValueError, match="not one field"):
        hc.laplacian_apply(g, u)
    with pytest.raises(ValueError, match="not one field"):
        hc.step_operator(g, 0.1, 1.0)(u[:1])


def test_grid_operators_reject_a_batch(rng):
    # B and the inner product take one field or control slice at a time
    g = hc.build_grid(2, (8, 8), [(0.0, 1.0), (0.0, 1.0)], [(0.2, 0.6), (0.4, 0.9)])
    c = rng.standard_normal((3, g.control_node_count))
    u = rng.standard_normal((3, g.interior_node_count))
    with pytest.raises(ValueError, match="control slice of shape"):
        hc.inject(g, c)
    with pytest.raises(ValueError, match="field of shape"):
        hc.inner_omega(g, u, u)
    # one row of each is accepted
    assert np.array_equal(hc.inject(g, c[0])[g.control_mask], c[0])
