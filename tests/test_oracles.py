"""The broadcast grid oracles against the stacked-grid searches they replace.

Each reference below materializes every grid point as one row and takes the
row-wise objective, so it shares no broadcasting or reduction order with the
oracle.  The oracles must return the very same numbers.
"""

import numpy as np
import pytest

from multicast_mimo.pilots import optimal_pilot_powers
from oracles import _simplex_columns, maxmin_pilot_powers_oracle, simplex_grid_best


def stacked_simplex_best(betas, step):
    grid = np.stack(_simplex_columns(len(betas), step), axis=1)  # (points, K)
    return np.min(grid * betas, axis=1).max()


def stacked_pilot_search(betas, peak_power, sigma_p2, omega, grid_step):
    k = betas.shape[0]
    n_points = max(2, int(np.ceil(12 * np.log10(peak_power / grid_step))) + 1)
    base = np.geomspace(grid_step, peak_power, n_points)
    analytic = optimal_pilot_powers(betas, peak_power)
    axes = [np.unique(np.append(base, analytic[j])) for j in range(k)]
    mesh = np.meshgrid(*axes, indexing="ij")
    p = np.stack([m.ravel() for m in mesh], axis=-1)  # (points, K), C order
    objective = np.min(betas**2 * p, axis=1) / (p @ betas + sigma_p2 / omega)
    return p[np.argmax(objective)]


class TestSimplexGridBest:
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_a_row_wise_minimum(self, k):
        rng = np.random.default_rng(500 + k)
        for _ in range(40):
            betas = rng.lognormal(0.0, 1.5, k)
            assert simplex_grid_best(betas, step=1e-2) == stacked_simplex_best(betas, 1e-2)

    def test_single_user_is_its_gain(self):
        assert simplex_grid_best([0.37]) == 0.37

    def test_rejects_four_users(self):
        with pytest.raises(ValueError):
            simplex_grid_best(np.ones(4))

    def test_cached_columns_are_read_only(self):
        # every caller shares the cached columns, so none may write to them
        for column in _simplex_columns(3, 0.1):
            with pytest.raises(ValueError):
                column[0] = 2.0


class TestPilotPowerOracle:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_the_stacked_grid_search(self, k):
        rng = np.random.default_rng(600 + k)
        for _ in range(25):
            betas = 10.0 ** rng.uniform(-0.75, 0.75, k)
            p_u = float(10.0 ** rng.uniform(-0.5, 0.5))
            sigma_p2 = float(rng.uniform(0.01, 0.3))
            grid_step = p_u * (1e-2 if k <= 3 else 0.1)
            got = maxmin_pilot_powers_oracle(betas, p_u, sigma_p2, 8, grid_step)
            expected = stacked_pilot_search(betas, p_u, sigma_p2, 8, grid_step)
            assert np.array_equal(got, expected)
