import numpy as np
import pytest
from scipy import stats

from multicast_mimo.geometry import (
    MAX_RADIUS_M,
    build_hex_layout,
    distance_m,
    drop_users,
    hexagon_contains,
)

SQRT3 = np.sqrt(3.0)


class TestBuildHexLayout:
    def test_single_cell_at_origin(self):
        assert np.array_equal(build_hex_layout(1, 1000.0), [[0.0, 0.0]])

    def test_seven_cell_hand_computed_coordinates(self):
        # hand-derived: neighbors at sqrt(3)*1000 on angles 30, 90, ..., 330
        centers = build_hex_layout(7, 1000.0)
        d = SQRT3 * 1000.0
        expected = np.array(
            [
                [0.0, 0.0],
                [1500.0, d / 2.0],  # d*cos(30), d*sin(30)
                [0.0, d],
                [-1500.0, d / 2.0],
                [-1500.0, -d / 2.0],
                [0.0, -d],
                [1500.0, -d / 2.0],
            ]
        )
        assert np.allclose(centers, expected, atol=1e-9)
        dists = np.linalg.norm(centers[1:], axis=1)
        assert np.allclose(dists, 1000.0 * SQRT3)

    def test_three_cell_mutually_adjacent(self):
        centers = build_hex_layout(3, 500.0)
        for a in range(3):
            for b in range(a + 1, 3):
                assert distance_m(centers[a], centers[b]) == pytest.approx(
                    500.0 * SQRT3
                )

    def test_radius_scaling_doubles_distances(self):
        small = build_hex_layout(7, 700.0)
        big = build_hex_layout(7, 1400.0)
        for a in range(7):
            for b in range(7):
                assert distance_m(big[a], big[b]) == pytest.approx(
                    2 * distance_m(small[a], small[b])
                )

    def test_rejects_unsupported_counts_and_radius(self):
        with pytest.raises(ValueError):
            build_hex_layout(5, 1000.0)
        for radius_m in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="radius_m must be positive and finite"):
                build_hex_layout(7, radius_m)
            # an infinite radius would draw users without end
            with pytest.raises(ValueError, match="radius_m must be positive and finite"):
                rngs = [np.random.default_rng(0)]
                drop_users(build_hex_layout(1, 1000.0), radius_m, 3, 100.0, rngs)

    def test_radius_bound_keeps_the_drop_box_finite(self):
        # the drop's bounding box spans 2 * radius_m: finite at the bound,
        # inf just past it, where no candidate was admissible and the drop
        # never returned
        assert np.isfinite(2 * MAX_RADIUS_M)
        assert np.isfinite(build_hex_layout(7, MAX_RADIUS_M)).all()
        rngs = [np.random.default_rng(0)]
        pos = drop_users(build_hex_layout(1, MAX_RADIUS_M), MAX_RADIUS_M, 3, 100.0, rngs)
        assert np.isfinite(pos).all()
        for radius_m in (np.nextafter(MAX_RADIUS_M, np.inf), 9e307):
            with pytest.raises(ValueError, match="radius_m must be positive and finite"):
                build_hex_layout(7, radius_m)


def uniform_rejection_drop(centers, r, users_per_cell, exclusion_m, seed):
    """(N, K, 2) positions of the rejection loop one round at a time, each
    round a ``Generator.uniform`` draw over the hexagon's bounding box."""
    rng = np.random.default_rng(seed)
    apothem = SQRT3 / 2.0 * r
    total = len(centers) * users_per_cell
    accepted = np.empty((0, 2))
    while len(accepted) < total:
        xy = rng.uniform((-r, -apothem), (r, apothem), (2 * (total - len(accepted)) + 8, 2))
        keep = hexagon_contains(xy, (0.0, 0.0), r) & (np.hypot(xy[:, 0], xy[:, 1]) >= exclusion_m)
        accepted = np.concatenate([accepted, xy[keep][: total - len(accepted)]])
    return accepted.reshape(len(centers), users_per_cell, 2) + centers[:, None]


class TestDropUsers:
    # At 866 m, the widest disk a 1000 m cell takes, about 7% of the
    # candidates are admissible, so most drops need more than one round.
    @pytest.mark.parametrize("exclusion_m", [100.0, 866.0])
    @pytest.mark.parametrize("cells, users", [(1, 1), (3, 4), (7, 10)])
    def test_is_the_uniform_rejection_loop(self, cells, users, exclusion_m):
        centers = build_hex_layout(cells, 1000.0)
        for seed in (0, 5, 2**63 + 11):
            rngs = [np.random.default_rng(seed)]
            got = drop_users(centers, 1000.0, users, exclusion_m, rngs)[0]
            expected = uniform_rejection_drop(centers, 1000.0, users, exclusion_m, seed)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("exclusion_m", [100.0, 866.0])
    @pytest.mark.parametrize("cells, users", [(1, 1), (3, 4), (7, 10)])
    def test_rows_of_a_seed_sequence_are_the_single_seed_drops(self, cells, users, exclusion_m):
        centers = build_hex_layout(cells, 1000.0)
        seeds = [0, 5, 2**63 + 11, 5]
        stacked = drop_users(
            centers, 1000.0, users, exclusion_m, [np.random.default_rng(s) for s in seeds]
        )
        assert stacked.shape == (len(seeds), cells, users, 2)
        for row, seed in zip(stacked, seeds):
            alone = drop_users(centers, 1000.0, users, exclusion_m, [np.random.default_rng(seed)])
            assert np.array_equal(row, alone[0])

    def test_same_seed_is_bit_identical(self):
        centers = build_hex_layout(7, 1000.0)
        a = drop_users(centers, 1000.0, 3, 100.0, [np.random.default_rng(123)])
        b = drop_users(centers, 1000.0, 3, 100.0, [np.random.default_rng(123)])
        assert np.array_equal(a, b)

    def test_respects_hexagon_and_exclusion_disk(self):
        centers = build_hex_layout(7, 1000.0)
        users = drop_users(centers, 1000.0, 200, 100.0, [np.random.default_rng(5)])[0]
        for i, center in enumerate(centers):
            inside = hexagon_contains(users[i], center, 1000.0)
            assert np.all(inside)
            radii = np.linalg.norm(users[i] - center, axis=1)
            assert np.all(radii >= 100.0)

    def test_halves_are_balanced(self):
        centers = build_hex_layout(1, 1000.0)
        users = drop_users(centers, 1000.0, 100_000, 100.0, [np.random.default_rng(17)])[0]
        xy = users[0]
        assert np.mean(xy[:, 0] > 0) == pytest.approx(0.5, abs=0.01)
        assert np.mean(xy[:, 1] > 0) == pytest.approx(0.5, abs=0.01)

    def test_spatial_uniformity_chi_square(self):
        # expected bin masses from a midpoint quadrature of the admissible
        # region indicator; independent of the sampler under test
        radius, r0, n = 1000.0, 100.0, 100_000
        centers = build_hex_layout(1, radius)
        pts = drop_users(centers, radius, n, r0, [np.random.default_rng(29)])[0, 0]
        apothem = SQRT3 / 2 * radius
        bins = 10
        xs = np.linspace(-radius, radius, 2001)
        ys = np.linspace(-apothem, apothem, 2001)
        gx, gy = np.meshgrid(
            (xs[:-1] + xs[1:]) / 2, (ys[:-1] + ys[1:]) / 2, indexing="ij"
        )
        grid = np.stack([gx, gy], axis=-1)
        admissible = hexagon_contains(grid, (0, 0), radius) & (
            np.hypot(gx, gy) >= r0
        )
        cell_x = np.digitize(gx[admissible], np.linspace(-radius, radius, bins + 1)) - 1
        cell_y = np.digitize(gy[admissible], np.linspace(-apothem, apothem, bins + 1)) - 1
        expected = np.zeros((bins, bins))
        np.add.at(expected, (cell_x, cell_y), 1.0)
        expected *= n / expected.sum()

        observed, _, _ = np.histogram2d(
            pts[:, 0],
            pts[:, 1],
            bins=[np.linspace(-radius, radius, bins + 1), np.linspace(-apothem, apothem, bins + 1)],
        )
        mask = expected.ravel() > 20
        assert np.all(observed.ravel()[~mask] <= 25)  # near-empty bins stay near-empty
        obs, exp = observed.ravel()[mask], expected.ravel()[mask]
        exp *= obs.sum() / exp.sum()
        result = stats.chisquare(obs, exp)
        assert result.pvalue > 0.01

    @pytest.mark.parametrize("exclusion_m", [867.0, 900.0, 1000.0, np.nan])
    def test_exclusion_must_fit_inside_the_hexagon(self, exclusion_m):
        # the inscribed radius of a 1000 m hexagon is 866.03 m; a wider disk
        # leaves only the corners, and the rejection rounds grow without bound
        centers = build_hex_layout(1, 1000.0)
        with pytest.raises(ValueError, match="inscribed radius"):
            drop_users(centers, 1000.0, 3, exclusion_m, [np.random.default_rng(0)])
        widest = drop_users(centers, 1000.0, 3, 866.0, [np.random.default_rng(0)])
        assert widest.shape == (1, 1, 3, 2)


class TestDistance:
    def test_zero_and_pythagorean(self):
        assert distance_m((2.0, -1.0), (2.0, -1.0)) == 0.0
        assert distance_m((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = rng.normal(size=(3, 2)) * 100
            assert distance_m(a, b) == pytest.approx(distance_m(b, a))
            assert distance_m(a, c) <= distance_m(a, b) + distance_m(b, c) + 1e-9

    def test_broadcasts_over_arrays(self):
        pts = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert np.allclose(distance_m((0.0, 0.0), pts), [5.0, 0.0])

    def test_is_the_euclidean_norm_bit_for_bit(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(-3000.0, 3000.0, (2, 5, 1, 4, 2))
        assert np.array_equal(distance_m(a, b), np.linalg.norm(a - b, axis=-1))
