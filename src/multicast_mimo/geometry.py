"""Hexagonal multicell layout and uniform random user placement.

Cells are regular hexagons (radius measured center to vertex) tiled edge to
edge, so neighboring base stations sit at distance sqrt(3) * radius.  Users
are dropped uniformly over their hexagon minus an inner exclusion disk around
the base station; ``drop_users`` tests the first round of a whole batch of
realizations at once, and only the generator draws stay per realization.
The engine gives realization t the positions generator
``np.random.default_rng([master_seed, 1, t])``.
"""

from dataclasses import dataclass

import numpy as np

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
    """Per-cell user coordinates, shape (..., num_cells, users_per_cell, 2)."""

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

    ``rng_seed`` is one int seed or generator, as ``np.random.default_rng``
    takes it, giving (N, K, 2) positions, or a sequence of T of them, giving
    (T, N, K, 2) positions whose row t is what seed t alone gives.  Each
    realization draws its first round from its own generator; the rounds
    are stacked and tested at once, and only a realization still short of
    users draws again, alone.
    """
    if users_per_cell < 1:
        raise ValueError(f"users_per_cell must be >= 1, got {users_per_cell}")
    if exclusion_radius_m >= layout.radius_m:
        raise ValueError(
            f"exclusion_radius_m={exclusion_radius_m} must be smaller than "
            f"cell radius {layout.radius_m}"
        )
    single = np.ndim(rng_seed) == 0
    rngs = [np.random.default_rng(seed) for seed in ([rng_seed] if single else rng_seed)]
    r = layout.radius_m
    total = layout.num_cells * users_per_cell
    # Offsets are Generator.uniform(low, high) draws, low + (high - low) * u,
    # with u drawn into one block for all realizations.
    low = np.array((-r, -SQRT3 / 2.0 * r))
    span = -low - low

    def admissible(xy):
        return hexagon_contains(xy, (0.0, 0.0), r) & (
            np.hypot(xy[..., 0], xy[..., 1]) >= exclusion_radius_m
        )

    u = np.empty((len(rngs), 2 * total + 8, 2))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    xy = low + span * u
    keep = admissible(xy)
    rank = np.cumsum(keep, axis=1)  # users accepted up to each candidate
    keep &= rank <= total
    offsets = np.empty((len(rngs), total, 2))
    offsets[np.nonzero(keep)[0], rank[keep] - 1] = xy[keep]
    for t in np.flatnonzero(rank[:, -1] < total):
        accepted = rank[t, -1]
        while accepted < total:
            more = low + span * rngs[t].random((2 * (total - accepted) + 8, 2))
            more = more[admissible(more)][: total - accepted]
            offsets[t, accepted : accepted + len(more)] = more
            accepted += len(more)
    pos = offsets.reshape(-1, layout.num_cells, users_per_cell, 2) + layout.centers[:, None]
    return UserPositions(pos=pos[0] if single else pos)


def distance_m(a, b):
    """Euclidean distance between planar coordinates (meters)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dx, dy = a[..., 0] - b[..., 0], a[..., 1] - b[..., 1]
    d = np.sqrt(dx * dx + dy * dy)  # as np.linalg.norm sums the two squares
    return float(d) if d.ndim == 0 else d
