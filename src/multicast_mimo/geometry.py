"""Hexagonal multicell layout and uniform random user placement.

Cells are regular hexagons (radius measured center to vertex) tiled edge to
edge, so neighboring base stations sit at distance sqrt(3) * radius.  Users
are dropped uniformly over their hexagon minus an inner exclusion disk around
the base station.  The disk may be at most as wide as the hexagon's inscribed
circle (``inscribed_radius``, the one bound that ``drop_users`` and
``config.validate_config`` both read).  ``drop_users`` takes a sequence of
T generators, as ``seeding.make_rngs`` returns them, and returns the (T, N,
K, 2) positions as one plain array, row t being what generator t alone
gives; it tests the first round of every realization at once, and only the
generator draws stay per realization.  The engine gives realization t the
positions generator ``np.random.default_rng([master_seed, 1, t])``.  A
layout is the plain (N, 2) array of base-station centres that
``build_hex_layout`` returns; both functions take the cell radius itself
and reject one that is not positive or above ``MAX_RADIUS_M``, the one
bound on it that ``config.validate_config`` reads too.
"""

import numpy as np

SQRT3 = np.sqrt(3.0)

SUPPORTED_CELL_COUNTS = (1, 3, 7)

# The largest cell radius: the user drop's bounding box spans 2 * radius_m,
# and above this that span overflows to inf and no candidate is admissible.
MAX_RADIUS_M = float(np.finfo(float).max) / 2.0


def _check_radius(radius_m) -> None:
    if not 0 < radius_m <= MAX_RADIUS_M:  # a NaN fails both comparisons
        raise ValueError(f"radius_m must be positive and finite, 2 * radius_m too, got {radius_m}")


def build_hex_layout(num_cells: int, radius_m: float) -> np.ndarray:
    """(num_cells, 2) centres [m] of hexagonal cells, the evaluated cell 0 at
    the origin.

    The six first-ring neighbors of an edge-to-edge hexagonal tiling lie at
    distance sqrt(3) * radius_m, at 60 degree spacing starting from 30 degrees.
    A 3-cell layout keeps the first two neighbors (mutually adjacent triple).
    """
    _check_radius(radius_m)
    if num_cells not in SUPPORTED_CELL_COUNTS:
        raise ValueError(
            f"unsupported num_cells={num_cells}; supported: {SUPPORTED_CELL_COUNTS}"
        )
    centers = np.zeros((num_cells, 2))
    spacing = SQRT3 * radius_m
    angles = np.deg2rad(30.0 + 60.0 * np.arange(num_cells - 1))
    centers[1:, 0] = spacing * np.cos(angles)
    centers[1:, 1] = spacing * np.sin(angles)
    return centers


def inscribed_radius(radius_m):
    """Radius sqrt(3)/2 * radius_m of a hexagon's inscribed circle, its
    apothem: the widest exclusion disk a user drop takes.  A wider disk
    leaves only the hexagon's corners, and the rejection rounds grow
    without bound as it nears the radius; at the inscribed radius about 7%
    of the candidates are admissible."""
    return SQRT3 / 2.0 * radius_m


def hexagon_contains(points, center, radius_m):
    """Vectorized point-in-hexagon test (vertices at 0, 60, ..., 300 degrees).

    ``points`` is (..., 2).  A point is inside iff its projections onto the
    three edge-normal axes all stay within the apothem sqrt(3)/2 * radius.
    """
    p = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)
    apothem = inscribed_radius(radius_m)
    x, y = p[..., 0], p[..., 1]
    return (
        (np.abs(y) <= apothem)
        & (np.abs(SQRT3 / 2.0 * x + 0.5 * y) <= apothem)
        & (np.abs(SQRT3 / 2.0 * x - 0.5 * y) <= apothem)
    )


def drop_users(
    centers: np.ndarray,
    radius_m: float,
    users_per_cell: int,
    exclusion_radius_m: float,
    rngs,
) -> np.ndarray:
    """Drop users uniformly over each hexagon of radius ``radius_m`` around
    the (N, 2) ``centers`` minus the inner exclusion disk.

    One rejection loop over the hexagon bounding box serves all cells: it
    draws the N*K offsets from a cell centre, which then fill the cells in
    order and are shifted onto their centres.  The acceptance probability is
    about 0.75, so the expected number of draws per accepted user is below 2.

    The T generators ``rngs`` give (T, N, K, 2) positions whose row t is
    what generator t alone gives.  Each realization draws its first round
    from its own generator; the rounds are stacked and tested at once, and
    only a realization still short of users draws again, alone.  A disk
    wider than ``inscribed_radius`` is rejected.
    """
    _check_radius(radius_m)
    if users_per_cell < 1:
        raise ValueError(f"users_per_cell must be >= 1, got {users_per_cell}")
    if not exclusion_radius_m <= inscribed_radius(radius_m):
        raise ValueError(
            f"exclusion_radius_m={exclusion_radius_m} must not exceed the inscribed "
            f"radius sqrt(3)/2 * {radius_m} of the cell"
        )
    total = len(centers) * users_per_cell
    # Offsets are Generator.uniform(low, high) draws, low + (high - low) * u,
    # with u drawn into one block for all realizations.
    low = np.array((-radius_m, -inscribed_radius(radius_m)))
    span = -low - low

    def admissible(xy):
        return hexagon_contains(xy, (0.0, 0.0), radius_m) & (
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
    return offsets.reshape(-1, len(centers), users_per_cell, 2) + centers[:, None]


def distance_m(a, b):
    """Euclidean distance between planar coordinates (meters)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dx, dy = a[..., 0] - b[..., 0], a[..., 1] - b[..., 1]
    d = np.sqrt(dx * dx + dy * dy)  # as np.linalg.norm sums the two squares
    return float(d) if d.ndim == 0 else d
