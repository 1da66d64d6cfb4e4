"""Uniform finite-difference grids on a box with a marked control patch.

Unknowns live on interior nodes only; boundary nodes carry homogeneous
Dirichlet values and are never stored.  Fields are plain 1D numpy arrays of
length ``interior_node_count`` (C order over the interior shape); control
slices are 1D arrays of length ``control_node_count``.
"""

from __future__ import annotations

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

    def zero_control(self) -> np.ndarray:
        return np.zeros(self.control_node_count)


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
    if u.shape != (grid.interior_node_count,):
        raise ValueError(
            f"field of shape {u.shape} does not belong to a grid with "
            f"{grid.interior_node_count} interior nodes"
        )


def _check_control(grid: Grid, c: np.ndarray) -> None:
    if c.shape != (grid.control_node_count,):
        raise ValueError(
            f"control slice of shape {c.shape} does not belong to a grid with "
            f"{grid.control_node_count} control nodes"
        )


def laplacian_apply(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Second-order central-difference Laplacian with zero Dirichlet boundary.

    Per axis, ``((a[i+1] - a[i]) - (a[i] - a[i-1])) / h**2`` on the
    zero-padded field, summed over the axes in order onto a zero start.  That
    order is part of the contract: every run's numbers depend on it bit for bit.
    The result is a fresh array; callers may overwrite it.
    """
    _check_field(grid, u)
    shape = grid.interior_shape
    inner = (slice(1, -1),) * grid.dim
    padded = np.zeros(tuple(n + 2 for n in shape))
    padded[inner] = u.reshape(shape)
    out = np.zeros(shape)
    for ax, h in enumerate(grid.spacing):
        x = padded[inner[:ax] + (slice(None),) + inner[ax + 1:]]
        keep = (slice(None),) * ax
        upper, lower = keep + (slice(1, None),), keep + (slice(None, -1),)
        d1 = x[upper] - x[lower]
        d2 = d1[upper] - d1[lower]
        d2 /= h**2
        out += d2
    return out.ravel()


def inject(grid: Grid, c: np.ndarray) -> np.ndarray:
    """Operator B: extend a control slice by zero to the whole domain."""
    _check_control(grid, c)
    u = grid.zero_field()
    u[grid.control_mask] = c
    return u


def restrict(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Operator B*: read a field off the control patch nodes."""
    _check_field(grid, u)
    return u[grid.control_mask].copy()


def inner_omega(grid: Grid, u: np.ndarray, w: np.ndarray) -> float:
    _check_field(grid, u)
    _check_field(grid, w)
    return grid.node_weight * float(u @ w)


def inner_control(grid: Grid, c: np.ndarray, d: np.ndarray) -> float:
    _check_control(grid, c)
    _check_control(grid, d)
    return grid.node_weight * float(c @ d)


def norm_omega(grid: Grid, u: np.ndarray) -> float:
    return np.sqrt(inner_omega(grid, u, u))


def norm_control(grid: Grid, c: np.ndarray) -> float:
    return np.sqrt(inner_control(grid, c, c))
