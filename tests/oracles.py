"""Brute-force grid oracles that the closed-form rules are checked against,
and the one-realization large-scale route that the engine's batch is.

Each grid oracle searches a fixed grid exhaustively, one broadcast axis per
user, so the cost stays a few array passes over the grid whatever the user
count.
"""

from functools import lru_cache, reduce

import numpy as np

from multicast_mimo import engine
from multicast_mimo.geometry import build_hex_layout, drop_users
from multicast_mimo.pilots import optimal_pilot_powers
from reference_route import large_scale_tensor


def scalar_large_scale(config, t):
    """(N, N, K) gains of realization ``t`` of ``config.master_seed``, on the
    reference route's one-realization form: ``drop_users`` with the generator
    ``default_rng([master_seed, POSITIONS, t])``, then ``large_scale_tensor``
    with ``default_rng([master_seed, SHADOWING, t])``."""
    layout = build_hex_layout(config.cells, config.radius_m)
    seed = config.master_seed
    positions = drop_users(
        layout,
        config.users_per_cell,
        config.exclusion_m,
        np.random.default_rng([seed, engine._POSITIONS_STREAM, t]),
    )
    shadowing = np.random.default_rng([seed, engine._SHADOWING_STREAM, t])
    return large_scale_tensor(layout, positions, config.fading, shadowing)


@lru_cache(maxsize=None)
def _simplex_columns(k: int, step: float) -> tuple:
    """Columns of the grid of share vectors with step ``step`` on the
    k-simplex (k = 2 or 3), each a contiguous read-only array."""
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    if k == 2:
        columns = ticks, 1.0 - ticks
    elif k == 3:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        keep = a + b <= 1.0 + 1e-12
        columns = a[keep], b[keep], 1.0 - a[keep] - b[keep]
    else:
        raise ValueError("simplex grid oracle supports 2 or 3 users")
    for column in columns:
        column.flags.writeable = False  # cached: shared by every caller
    return columns


def simplex_grid_best(betas, step: float = 1e-3) -> float:
    """Largest min_k lambda_k beta_k over the share grid of ``_simplex_columns``."""
    betas = np.asarray(betas, dtype=float)
    if betas.size == 1:
        return float(betas[0])
    columns = _simplex_columns(betas.size, step)
    return reduce(np.minimum, (lam * beta for lam, beta in zip(columns, betas))).max()


def maxmin_pilot_powers_oracle(
    betas,
    peak_power: float,
    sigma_p2: float,
    omega: int,
    grid_step: float,
) -> np.ndarray:
    """Brute-force reference solver for the max-min pilot power problem.

    Exhaustive search over a multiplicative grid on [grid_step, peak_power]
    per user (12 points per decade, so consecutive candidates differ by about
    21%), maximizing min_k beta_k^2 p_k / (sum_k' beta_k' p_k' + sigma_p2 /
    omega).  The closed-form candidate powers are injected into each axis so
    the comparison against the analytic rule is not limited by grid
    resolution.  User k's powers lie along axis k of the objective, and the
    first maximum in C order wins.  Exponential cost limits this to K <= 4.
    """
    betas = np.asarray(betas, dtype=float)
    k = betas.shape[0]
    if k > 4:
        raise ValueError("oracle grid search supports at most 4 users")
    if grid_step <= 0 or grid_step > peak_power:
        raise ValueError("grid_step must lie in (0, peak_power]")
    decades = np.log10(peak_power / grid_step)
    n_points = max(2, int(np.ceil(12 * decades)) + 1)
    base = np.geomspace(grid_step, peak_power, n_points)
    analytic = optimal_pilot_powers(betas, peak_power)
    axes = [np.unique(np.append(base, analytic[j])) for j in range(k)]
    shaped = [a.reshape([-1 if i == j else 1 for i in range(k)]) for j, a in enumerate(axes)]
    squared = betas**2
    kernel = reduce(np.minimum, (squared[j] * p for j, p in enumerate(shaped)))
    denom = reduce(np.add, (betas[j] * p for j, p in enumerate(shaped))) + sigma_p2 / omega
    best = np.unravel_index(np.argmax(kernel / denom), kernel.shape)
    return np.array([axes[j][i] for j, i in enumerate(best)])
