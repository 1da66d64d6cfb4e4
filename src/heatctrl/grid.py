"""Uniform finite-difference grids on a box with a marked control patch.

Unknowns live on interior nodes only; boundary nodes carry homogeneous
Dirichlet values and are never stored.  Fields are plain 1D numpy arrays of
length ``interior_node_count`` (C order over the interior shape); control
slices are 1D arrays of length ``control_node_count``.  A batch of fields or
slices stacks them as the rows of a 2D array.

The Laplacian copies its input into a flat, zero-padded buffer
(``StencilWork``), where every difference along an axis is one pass over a
contiguous range, and reads the interior back once at the end; the step
operator's ``* -(dt*nu)`` and ``+ u`` ride on that read.
"""

from __future__ import annotations

import math
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
    control_bounds: tuple[Interval, ...]
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
        control_bounds=cbounds,
        spacing=spacing,
        interior_shape=interior_shape,
        control_mask=mask,
    )


def _check_field(grid: Grid, u: np.ndarray) -> None:
    """Accept one field (n,) or a batch (k, n) of fields."""
    if u.ndim not in (1, 2) or u.shape[-1] != grid.interior_node_count:
        raise ValueError(
            f"field of shape {u.shape} does not belong to a grid with "
            f"{grid.interior_node_count} interior nodes"
        )


def _check_control(grid: Grid, c: np.ndarray) -> None:
    """Accept one control slice (m,) or a batch (k, m) of them."""
    if c.ndim not in (1, 2) or c.shape[-1] != grid.control_node_count:
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
    """Buffers of ``laplacian_apply``, reused from call to call.

    A batch of k fields is laid out flat: the k zero-padded fields end to end
    in one array.  A neighbour along an axis is then a fixed offset away, that
    axis's stride in the padded field (1 for the last axis, the padded row
    length for the first), so every difference is one subtraction of two
    contiguous ranges.  The values this leaves on the padding are never read.

    Sized for the largest batch seen so far; a smaller batch uses the leading
    part of every buffer.  The padding of the padded copy is never written, so
    it is never cleared.  The views of every batch size are built once.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._padded_shape = tuple(n + 2 for n in grid.interior_shape)
        self._padded_size = math.prod(self._padded_shape)
        self._strides = tuple(math.prod(self._padded_shape[ax + 1:]) for ax in range(grid.dim))
        self._weights = tuple(_weighting(h**2) for h in grid.spacing)
        self._columns = 0
        self._plans: dict[int, tuple] = {}

    def plan(self, k: int) -> tuple:
        """(padded interior, per-axis views and weighting, second difference,
        sum, interior of the sum, result) for k fields."""
        plan = self._plans.get(k)
        if plan is None:
            if k > self._columns:
                self._allocate(k)
            plan = self._plans[k] = self._views(k)
        return plan

    def _allocate(self, k: int) -> None:
        size = k * self._padded_size
        self._padded = np.zeros(size)
        self._first = np.empty(size)
        self._second = np.empty(size)
        self._total = np.empty(size)
        self._result = np.empty((k, self.grid.interior_node_count))
        self._columns = k
        self._plans.clear()

    def _views(self, k: int) -> tuple:
        # every sum is formed on the flat positions [m, size - m), which hold
        # all interior nodes; m is the largest stride
        size, m = k * self._padded_size, self._strides[0]
        inner = (slice(None),) + (slice(1, -1),) * self.grid.dim
        padded = self._padded[:size]
        axes = []
        for s, (weigh, factor) in zip(self._strides, self._weights):
            # first differences a[i+s] - a[i] at the positions [m - s, size - m)
            first = self._first[:size - 2 * m + s]
            axes.append((padded[m:size - m + s], padded[m - s:size - m],
                         first, first[s:], first[:-s], weigh, factor))
        fields = (k,) + self._padded_shape
        return (padded.reshape(fields)[inner], axes, self._second[:size - 2 * m],
                self._total[m:size - m], self._total[:size].reshape(fields)[inner],
                self._result[:k])


def laplacian_apply(grid: Grid, u: np.ndarray, work: StencilWork | None = None,
                    scale: float | None = None) -> np.ndarray:
    """Second-order central-difference Laplacian with zero Dirichlet boundary.

    Per axis, ``((a[i+1] - a[i]) - (a[i] - a[i-1])) / h**2`` on the
    zero-padded field, summed over the axes in order onto a zero start.  That
    order is part of the contract: every run's numbers depend on it bit for bit.
    (The division is a multiply by 1/h**2 where that is exact, which gives
    the same bits.)

    ``u`` is one field (n,) or a batch (k, n) whose rows are transformed
    alike.  With ``scale``, a number, the result is ``Lap(u) * scale + u``
    instead, formed in the same read of the interior: the implicit-Euler
    step K u for scale = -(dt*nu).  The result is a fresh array, or with
    ``work`` a buffer of it that the next call with the same ``work``
    overwrites.
    """
    _check_field(grid, u)
    fields, axes, second, total, interior, result = (work or StencilWork(grid)).plan(
        1 if u.ndim == 1 else len(u))
    fields[...] = u.reshape(fields.shape)
    for ax, (upper, lower, first, first_upper, first_lower, weigh, factor) in enumerate(axes):
        np.subtract(upper, lower, out=first)
        term = second if ax else total
        np.subtract(first_upper, first_lower, out=term)
        weigh(term, factor, out=term)
        # the zero start: 0.0 + x is x, except that -0.0 becomes 0.0
        total += term if ax else 0.0
    out = result.reshape(u.shape)
    if scale is None:
        out.reshape(interior.shape)[...] = interior
    else:
        np.multiply(interior, scale, out=out.reshape(interior.shape))
        out += u
    return out


def inject(grid: Grid, c: np.ndarray) -> np.ndarray:
    """Operator B: extend a control slice (or a batch of them) by zero to the whole domain."""
    _check_control(grid, c)
    u = np.zeros(c.shape[:-1] + (grid.interior_node_count,))
    u[..., grid.control_mask] = c
    return u


def restrict(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Operator B*: read a field (or a batch of them) off the control patch nodes."""
    _check_field(grid, u)
    return u[..., grid.control_mask]


def inner_omega(grid: Grid, u: np.ndarray, w: np.ndarray):
    """Weighted inner product; one value per row for batches."""
    _check_field(grid, u)
    _check_field(grid, w)
    return grid.node_weight * np.vecdot(u, w)


def inner_control(grid: Grid, c: np.ndarray, d: np.ndarray):
    _check_control(grid, c)
    _check_control(grid, d)
    return grid.node_weight * np.vecdot(c, d)


def norm_omega(grid: Grid, u: np.ndarray):
    return np.sqrt(inner_omega(grid, u, u))


def norm_control(grid: Grid, c: np.ndarray):
    return np.sqrt(inner_control(grid, c, c))
