"""Hexagonal multicell layout and uniform random user placement.

Cells are regular hexagons (radius measured center to vertex) tiled edge to
edge, so neighboring base stations sit at distance sqrt(3) * radius.  Users
are dropped uniformly over their hexagon minus an inner exclusion disk around
the base station.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import make_rng

SQRT3 = np.sqrt(3.0)

SUPPORTED_CELL_COUNTS = (1, 3, 7)


@dataclass(frozen=True)
class CellLayout:
    """Base-station positions for a cluster of hexagonal cells."""

    num_cells: int
    radius_m: float
    centers: np.ndarray  # (num_cells, 2), meters; cell 0 at the origin


@dataclass(frozen=True)
class UserPositions:
    """Per-cell user coordinates, shape (num_cells, users_per_cell, 2)."""

    pos: np.ndarray


def build_hex_layout(num_cells: int, radius_m: float) -> CellLayout:
    """Place ``num_cells`` hexagonal cells with the evaluated cell at the origin.

    The six first-ring neighbors of an edge-to-edge hexagonal tiling lie at
    distance sqrt(3) * radius_m, at 60 degree spacing starting from 30 degrees.
    A 3-cell layout keeps the first two neighbors (mutually adjacent triple).
    """
    if radius_m <= 0:
        raise ValueError(f"radius_m must be positive, got {radius_m}")
    if num_cells not in SUPPORTED_CELL_COUNTS:
        raise ValueError(
            f"unsupported num_cells={num_cells}; supported: {SUPPORTED_CELL_COUNTS}"
        )
    centers = np.zeros((num_cells, 2))
    spacing = SQRT3 * radius_m
    angles = np.deg2rad(30.0 + 60.0 * np.arange(num_cells - 1))
    centers[1:, 0] = spacing * np.cos(angles)
    centers[1:, 1] = spacing * np.sin(angles)
    return CellLayout(num_cells=num_cells, radius_m=float(radius_m), centers=centers)


def hexagon_contains(points, center, radius_m):
    """Vectorized point-in-hexagon test (vertices at 0, 60, ..., 300 degrees).

    ``points`` is (..., 2).  A point is inside iff its projections onto the
    three edge-normal axes all stay within the apothem sqrt(3)/2 * radius.
    """
    p = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)
    apothem = SQRT3 / 2.0 * radius_m
    x, y = p[..., 0], p[..., 1]
    return (
        (np.abs(y) <= apothem)
        & (np.abs(SQRT3 / 2.0 * x + 0.5 * y) <= apothem)
        & (np.abs(SQRT3 / 2.0 * x - 0.5 * y) <= apothem)
    )


def drop_users(
    layout: CellLayout,
    users_per_cell: int,
    exclusion_radius_m: float,
    rng_seed,
) -> UserPositions:
    """Drop users uniformly over each hexagon minus the inner exclusion disk.

    One rejection loop over the hexagon bounding box serves all cells: it
    draws the N*K offsets from a cell centre, which then fill the cells in
    order and are shifted onto their centres.  The acceptance probability is
    about 0.75, so the expected number of draws per accepted user is below 2.
    """
    if users_per_cell < 1:
        raise ValueError(f"users_per_cell must be >= 1, got {users_per_cell}")
    if exclusion_radius_m >= layout.radius_m:
        raise ValueError(
            f"exclusion_radius_m={exclusion_radius_m} must be smaller than "
            f"cell radius {layout.radius_m}"
        )
    rng = make_rng(rng_seed)
    r = layout.radius_m
    apothem = SQRT3 / 2.0 * r
    total = layout.num_cells * users_per_cell
    offsets = np.empty((total, 2))
    accepted = 0
    while accepted < total:
        n = 2 * (total - accepted) + 8
        xy = rng.uniform((-r, -apothem), (r, apothem), (n, 2))
        keep = hexagon_contains(xy, (0.0, 0.0), r) & (
            np.hypot(xy[:, 0], xy[:, 1]) >= exclusion_radius_m
        )
        xy = xy[keep][: total - accepted]
        offsets[accepted : accepted + len(xy)] = xy
        accepted += len(xy)
    pos = offsets.reshape(layout.num_cells, users_per_cell, 2) + layout.centers[:, None]
    return UserPositions(pos=pos)


def distance_m(a, b):
    """Euclidean distance between planar coordinates (meters)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.linalg.norm(a - b, axis=-1)
    return float(d) if d.ndim == 0 else d
