"""Uniform finite-difference grids on a box with a marked control patch.

Unknowns live on interior nodes only; boundary nodes carry homogeneous
Dirichlet values and are never stored.  Fields are plain 1D numpy arrays of
length ``interior_node_count`` (C order over the interior shape); control
slices are 1D arrays of length ``control_node_count``.

The Laplacian takes one field at a time.  It copies it into a flat,
zero-padded buffer (``StencilWork``), where every difference along an axis
is one pass over a contiguous range, and reads the interior back once at
the end; the step operator's ``* -(dt*nu)`` and ``+ u`` ride on that read.
Where every axis shares one weight w = 1/h^2 that is a power of two >= 1
(a unit box with 2^k + 1 nodes per axis), the axes' differences are summed
unweighted and the read multiplies by w, or by w * -(dt*nu) where that
product is exact: a multiply by such a w is exact below overflow, so no bit
moves.  A 2D step product is then 9 numpy passes, a 1D one 6.

Each operator owns its ``StencilWork``, so the result of a product is a
buffer that only the next call of the operator that made it overwrites.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Interval = tuple[float, float]

# slack for deciding node membership in the closed control patch
_BOUND_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    dim: int
    nodes_per_axis: tuple[int, ...]
    domain_bounds: tuple[Interval, ...]
    spacing: tuple[float, ...]
    interior_shape: tuple[int, ...]
    control_mask: np.ndarray  # sorted flat indices into the interior numbering

    # cached: every field check in the inner solves reads these sizes
    @cached_property
    def interior_node_count(self) -> int:
        return int(np.prod(self.interior_shape))

    @cached_property
    def control_node_count(self) -> int:
        return int(self.control_mask.size)

    @cached_property
    def patch_is_point_symmetric(self) -> bool:
        """Whether the point reflection of the box, x -> lo + hi - x on every
        axis, maps the control patch onto itself.

        That reflection reverses the interior numbering, and the Laplacian
        with zero Dirichlet values commutes with it.  On such a patch it
        also reverses a control slice, so the control-to-state map and its
        adjoint send the even and the odd parts of a control (x + Rx and
        x - Rx, R the reversal of the last axis) to fields of the same
        parity: the two parts never couple in the cost."""
        n = self.interior_node_count
        return bool(np.array_equal(self.control_mask[::-1], n - 1 - self.control_mask))

    @property
    def node_weight(self) -> float:
        """Quadrature weight h^dim shared by every interior node."""
        return float(np.prod(self.spacing))

    def interior_coordinates(self) -> list[np.ndarray]:
        """1D coordinate array per axis, interior nodes only."""
        coords = []
        for n, (lo, _), h in zip(self.nodes_per_axis, self.domain_bounds, self.spacing):
            coords.append(lo + h * np.arange(1, n - 1))
        return coords

    def zero_field(self) -> np.ndarray:
        return np.zeros(self.interior_node_count)


def build_grid(
    dim: int,
    nodes_per_axis,
    domain_bounds,
    control_bounds,
) -> Grid:
    """Build a uniform grid with its control patch resolved by node membership.

    ``nodes_per_axis`` counts nodes including the two boundary nodes of each
    axis.  The control mask collects exactly the interior nodes whose
    coordinates lie in the closed ``control_bounds`` box.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    nodes = tuple(int(n) for n in np.atleast_1d(nodes_per_axis))
    if len(nodes) == 1:
        nodes = nodes * dim
    if len(nodes) != dim:
        raise ValueError("nodes_per_axis must give one entry per axis")
    if any(n < 3 for n in nodes):
        raise ValueError("need at least 3 nodes per axis (one interior node)")

    dbounds = tuple((float(lo), float(hi)) for lo, hi in domain_bounds)
    cbounds = tuple((float(lo), float(hi)) for lo, hi in control_bounds)
    if len(dbounds) != dim or len(cbounds) != dim:
        raise ValueError("bounds must give one interval per axis")
    for (dlo, dhi), (clo, chi) in zip(dbounds, cbounds):
        if not dlo < dhi:
            raise ValueError("domain bounds must be non-degenerate intervals")
        if not (dlo <= clo <= chi <= dhi):
            raise ValueError("control bounds must be nested inside domain bounds")

    spacing = tuple((hi - lo) / (n - 1) for (lo, hi), n in zip(dbounds, nodes))
    interior_shape = tuple(n - 2 for n in nodes)

    inside_per_axis = []
    for n, (lo, _), h, (clo, chi) in zip(nodes, dbounds, spacing, cbounds):
        x = lo + h * np.arange(1, n - 1)
        tol = _BOUND_TOL * max(1.0, abs(clo), abs(chi))
        inside_per_axis.append((x >= clo - tol) & (x <= chi + tol))
    if dim == 1:
        inside = inside_per_axis[0]
    else:
        inside = np.logical_and.outer(inside_per_axis[0], inside_per_axis[1])
    mask = np.flatnonzero(inside.ravel())
    if mask.size == 0:
        raise ValueError("control patch contains no interior node")

    return Grid(
        dim=dim,
        nodes_per_axis=nodes,
        domain_bounds=dbounds,
        spacing=spacing,
        interior_shape=interior_shape,
        control_mask=mask,
    )


def _check_field(grid: Grid, u: np.ndarray) -> None:
    """Accept one field (n,)."""
    if u.shape != (grid.interior_node_count,):
        raise ValueError(
            f"field of shape {u.shape} does not belong to a grid with "
            f"{grid.interior_node_count} interior nodes"
        )


def _check_control(grid: Grid, c: np.ndarray) -> None:
    """Accept one control slice (m,)."""
    if c.shape != (grid.control_node_count,):
        raise ValueError(
            f"control slice of shape {c.shape} does not belong to a grid with "
            f"{grid.control_node_count} control nodes"
        )


def _weighting(h2: float):
    """(ufunc, factor) that divides by h2.

    When h2 is a power of two with a finite reciprocal, x * (1/h2) and x / h2
    are the same correctly rounded number, so the cheaper multiply moves no
    bit; otherwise it is the division itself.
    """
    if math.frexp(h2)[0] == 0.5 and math.isfinite(1.0 / h2):
        return np.multiply, 1.0 / h2
    return np.divide, h2


class StencilWork:
    """Buffers of ``laplacian_apply`` for one operator on one field, reused
    from call to call.

    The operator is the Laplacian, or with ``scale``, a number, Lap(u) *
    scale + u (the implicit-Euler step K u for scale = -(dt*nu)).  The field
    is copied into a flat, zero-padded buffer.  A neighbour along an axis is
    then a fixed offset away, that axis's stride in the padded field (1 for
    the last axis, the padded row length for the first), so every difference
    is one subtraction of two contiguous ranges.  The values this leaves on
    the padding are never read.  The padding of the padded copy is never
    written, so it is never cleared.  The buffers, their views and the factor
    the interior is read back with are built once, here.
    """

    def __init__(self, grid: Grid, scale: float | None = None):
        self.grid = grid
        self.scale = scale
        padded_shape = tuple(n + 2 for n in grid.interior_shape)
        size = math.prod(padded_shape)
        strides = tuple(math.prod(padded_shape[ax + 1:]) for ax in range(grid.dim))
        weights = tuple(_weighting(h**2) for h in grid.spacing)
        # every axis divides by one h^2 whose reciprocal w is a power of two
        # >= 1: multiplying by such a w is exact below overflow, so the sum
        # may be weighted once at the end, (0 + d_0 + d_1) * w, with the bits
        # of 0 + d_0 * w + d_1 * w; None where the axes must weigh their own
        weigh, w = weights[0]
        self.factor = _read_factor(w if len(set(weights)) == 1 and weigh is np.multiply
                                   and w >= 1.0 else None, scale)
        # every sum is formed on the flat positions [m, size - m), which hold
        # all interior nodes; m is the largest stride
        m = strides[0]
        inner = (slice(1, -1),) * grid.dim
        padded, first, total = np.zeros(size), np.empty(size), np.empty(size)
        self.field = padded.reshape(padded_shape)[inner]
        self.axes = []
        for s, (weigh, factor) in zip(strides, weights):
            # first differences a[i+s] - a[i] at the positions [m - s, size - m)
            diff = first[:size - 2 * m + s]
            self.axes.append((padded[m:size - m + s], padded[m - s:size - m],
                              diff, diff[s:], diff[:-s], weigh, factor))
        self.second = np.empty(size - 2 * m)
        self.total = total[m:size - m]
        self.interior = total.reshape(padded_shape)[inner]
        self.result = np.empty(grid.interior_node_count)
        self.result_grid = self.result.reshape(grid.interior_shape)


def _read_factor(w: float | None, scale: float | None) -> float | None:
    """The one factor the interior is read back with, w or w * scale, or None
    when each axis weighs its own term (w None).

    w * scale serves only where it is exact: finite, normal and with
    (w * scale) / w == scale.
    """
    if w is None or scale is None:
        return w
    ws = w * scale
    if math.isfinite(ws) and abs(ws) >= sys.float_info.min and ws / w == scale:
        return ws
    return None


def laplacian_apply(grid: Grid, u: np.ndarray, work: StencilWork | None = None) -> np.ndarray:
    """Second-order central-difference Laplacian with zero Dirichlet boundary.

    Per axis, ``((a[i+1] - a[i]) - (a[i] - a[i-1])) / h**2`` on the
    zero-padded field, summed over the axes in order onto a zero start.  That
    order is part of the contract: every run's numbers depend on it bit for bit.
    (The division is a multiply by 1/h**2 where that is exact, which gives
    the same bits.  Where every axis shares one such w = 1/h**2 >= 1, the sum
    is weighted once as it is read back: (0 + d_0 + d_1) * w has the bits of
    0 + d_0 * w + d_1 * w, as a multiply by a power of two >= 1 is exact
    below overflow; with ``scale`` the read multiplies by w * scale where
    that product is exact.)

    ``u`` is one field (n,); anything else raises ``ValueError``.  With
    ``work`` built for a ``scale``, the result is ``Lap(u) * scale + u``
    instead, formed in the same read of the interior: the implicit-Euler step
    K u for scale = -(dt*nu).  The result is a fresh array, or with ``work`` a
    buffer of it that the next call with the same ``work`` overwrites.
    """
    if u.shape != (grid.interior_node_count,):
        raise ValueError(
            f"array of shape {u.shape} is not one field of a grid with "
            f"{grid.interior_node_count} interior nodes"
        )
    work = work or StencilWork(grid)
    scale, factor, total, second = work.scale, work.factor, work.total, work.second
    work.field[...] = u.reshape(work.field.shape)
    for ax, (upper, lower, first, first_upper, first_lower, weigh, h2) in enumerate(work.axes):
        np.subtract(upper, lower, out=first)
        term = second if ax else total
        np.subtract(first_upper, first_lower, out=term)
        if factor is None:
            weigh(term, h2, out=term)
        # the zero start: 0.0 + x is x, except that -0.0 becomes 0.0
        total += term if ax else 0.0
    result = work.result_grid
    if factor is not None:
        np.multiply(work.interior, factor, out=result)
    elif scale is None:
        result[...] = work.interior
    else:
        np.multiply(work.interior, scale, out=result)
    if scale is not None:
        work.result += u
    return work.result


def inject(grid: Grid, c: np.ndarray) -> np.ndarray:
    """Operator B: extend a control slice by zero to the whole domain.  Its
    adjoint B* reads a field on ``grid.control_mask``."""
    _check_control(grid, c)
    u = np.zeros(grid.interior_node_count)
    u[grid.control_mask] = c
    return u


def inner_omega(grid: Grid, u: np.ndarray, w: np.ndarray):
    """Weighted inner product of two fields."""
    _check_field(grid, u)
    _check_field(grid, w)
    return grid.node_weight * np.vecdot(u, w)


def norm_omega(grid: Grid, u: np.ndarray):
    return np.sqrt(inner_omega(grid, u, u))
