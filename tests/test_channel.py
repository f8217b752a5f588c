import numpy as np
import pytest
from scipy import stats

from multicast_mimo.channel import (
    beam_gains,
    complex_gaussian,
    draw_beam_fading,
    shadowing_db,
)
from multicast_mimo.config import NetworkConfig
from multicast_mimo.geometry import build_hex_layout, drop_users
from reference_route import ChannelState, large_scale_tensor

NO_SHADOW = NetworkConfig(shadow_sigma_db=0.0, penetration_loss_db=0.0)


def single_link_gain(distance_m, config=NO_SHADOW):
    """Gain from a one-cell layout's BS to one user ``distance_m`` away."""
    user = np.array([[[distance_m, 0.0]]])
    gain = large_scale_tensor(build_hex_layout(1, 1000.0), user, config, np.random.default_rng(0))
    return gain[0, 0, 0]


def path_gain(distance_m, config=NO_SHADOW):
    """Closed-form path gain without shadowing."""
    loss_db = (
        config.pathloss_intercept_db
        + config.pathloss_slope * np.log10(distance_m / 1000.0)
        + config.penetration_loss_db
    )
    return 10.0 ** (-loss_db / 10.0)


class TestPathLoss:
    def test_reference_distance_one_km(self):
        # 128.1 dB loss at 1 km with shadowing and penetration disabled
        assert single_link_gain(1000.0) == pytest.approx(10 ** (-12.81), rel=1e-12)

    def test_one_decade_adds_slope(self):
        # 10 km -> 128.1 + 37.6 dB
        assert single_link_gain(10_000.0) == pytest.approx(10 ** (-16.57), rel=1e-12)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError, match="distances must be positive"):
            single_link_gain(0.0)


class TestShadowing:
    """The N x N shadowing draw of ``large_scale_tensor``.

    Thresholds were fixed before the first run.  With T = 2000 realizations
    of 7 x 7 pairs (n = 98000 samples) the sample standard deviation has a
    relative standard error of about 1/sqrt(2n) = 0.23%, so the 2% band is
    about 9 standard errors wide; the mean band is 5 standard errors.  Each
    pairwise correlation over T realizations has a standard error of about
    1/sqrt(T); the 5/sqrt(T) bound gives a two-sided p of 6e-7 per pair, and
    below 1e-3 over all 1176 pairs.
    """

    T = 2000
    SD_BAND = 0.02
    MEAN_Z = 5.0
    CORR_Z = 5.0

    def shadow_db(self, config):
        centers = build_hex_layout(7, 1000.0)
        users = drop_users(centers, 1000.0, 3, 100.0, [np.random.default_rng(5)])[0]
        d = np.linalg.norm(users[None] - centers[:, None, None], axis=-1)
        path_db = (
            config.pathloss_intercept_db
            + config.pathloss_slope * np.log10(d / 1000.0)
            + config.penetration_loss_db
        )
        rngs = [np.random.default_rng(seed) for seed in range(self.T)]
        gains = np.stack([large_scale_tensor(centers, users, config, rng) for rng in rngs])
        return -10 * np.log10(gains) - path_db  # (T, N, N, K)

    def test_shared_by_a_cells_users(self):
        shadow = self.shadow_db(NetworkConfig())
        assert np.allclose(shadow, shadow[..., :1], rtol=0, atol=1e-9)

    def test_spread_matches_sigma_and_pairs_are_uncorrelated(self):
        sigma = NetworkConfig().shadow_sigma_db
        pairs = self.shadow_db(NetworkConfig())[..., 0].reshape(self.T, -1)
        n = pairs.size
        assert abs(pairs.mean()) < self.MEAN_Z * sigma / np.sqrt(n)
        assert abs(pairs.std(ddof=1) / sigma - 1.0) < self.SD_BAND
        corr = np.corrcoef(pairs, rowvar=False)
        off_diagonal = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert np.max(np.abs(off_diagonal)) < self.CORR_Z / np.sqrt(self.T)

    def test_follows_the_configured_sigma(self):
        pairs = self.shadow_db(NetworkConfig(shadow_sigma_db=3.0))[..., 0]
        assert abs(pairs.std(ddof=1) / 3.0 - 1.0) < self.SD_BAND

    def test_without_shadowing_matches_the_single_link_gain(self):
        centers = build_hex_layout(3, 1000.0)
        users = drop_users(centers, 1000.0, 2, 100.0, [np.random.default_rng(1)])[0]
        beta = large_scale_tensor(centers, users, NO_SHADOW, np.random.default_rng(2))
        for i in range(3):
            for j in range(3):
                d = np.linalg.norm(users[j] - centers[i], axis=-1)
                assert np.allclose(beta[i, j], path_gain(d), rtol=1e-12)

    @pytest.mark.parametrize("seeds", [[1, 2, 3], [1, 2, 3, 4, 5, 6, 7]])
    def test_rejects_anything_but_one_drop_of_the_layout(self, seeds):
        rngs = [np.random.default_rng(seed) for seed in seeds]
        users = drop_users(build_hex_layout(7, 1000.0), 1000.0, 2, 100.0, rngs)
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="not one drop of 7 cells"):
            large_scale_tensor(build_hex_layout(7, 1000.0), users, NetworkConfig(), rng)
        with pytest.raises(ValueError, match="not one drop of 3 cells"):
            large_scale_tensor(build_hex_layout(3, 1000.0), users[0], NO_SHADOW, rng)

    def test_rejects_a_user_on_a_base_station(self):
        centers = build_hex_layout(1, 1000.0)
        users = drop_users(centers, 1000.0, 2, 100.0, [np.random.default_rng(1)])[0]
        users[0, 1] = centers[0]
        with pytest.raises(ValueError, match="distances must be positive"):
            large_scale_tensor(centers, users, NetworkConfig(), np.random.default_rng(3))


def fading_vector(antennas, seed):
    return complex_gaussian([np.random.default_rng(seed)], (antennas,))[0]


class TestSmallScale:
    def test_norm_concentrates(self):
        h = fading_vector(100_000, 1)
        assert np.vdot(h, h).real / 100_000 == pytest.approx(1.0, abs=0.02)

    def test_independent_draws_nearly_orthogonal(self):
        x = fading_vector(100_000, 2)
        y = fading_vector(100_000, 3)
        assert abs(np.vdot(x, y)) / 100_000 < 0.02

    def test_deterministic_per_seed(self):
        assert np.array_equal(fading_vector(64, 9), fading_vector(64, 9))

    def test_component_variances(self):
        h = fading_vector(200_000, 4)
        assert h.real.var() == pytest.approx(0.5, rel=0.02)
        assert h.imag.var() == pytest.approx(0.5, rel=0.02)


# Beam-gain sampler checks: significance and bands fixed before the first run.
KS_ALPHA = 1e-3  # per two-sample KS test
MOMENT_SE = 5.0  # standard errors allowed per moment
AMPLITUDE_DRAWS = 20_000
AMPLITUDE_USERS = 3  # p = K + 1 = 4
# five schemes have real beam directions, composite-async complex ones
DIRECTIONS = pytest.mark.parametrize("real", [True, False], ids=["real-u", "complex-u"])


def unit_direction(shape, real, seed=7):
    """Unit directions of ``shape`` along the last axis, real or complex."""
    u = complex_gaussian([np.random.default_rng(seed)], shape)[0]
    if real:
        u = np.abs(u)
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


def sample_gains(rng, m, u, count):
    """``(count, *u.shape[:-1], p - 1)`` beam gains of ``u`` over m: the
    squared normalized amplitudes of its users, from the raw draws."""
    g, z = draw_beam_fading([rng], m, u.shape, count)
    return beam_gains(u, g[0], z[0]) / m


def explicit_amplitudes(rng, m, u, count, chunk=2_000):
    """``count`` amplitudes ``X^H X u / ||X u|| / sqrt(m)`` of explicit m x p
    CN(0, 1) matrices X."""
    out = []
    for start in range(0, count, chunk):
        x = complex_gaussian([rng], (min(chunk, count - start), m, u.size))[0]
        xu = x @ u
        t = (x.conj().swapaxes(-1, -2) @ xu[..., None])[..., 0]
        out.append(t / np.linalg.norm(xu, axis=-1, keepdims=True) / np.sqrt(m))
    return np.concatenate(out)


def read_only_draws(u, m, seed):
    """Six raw draws of ``u``'s shape, all three inputs read-only."""
    g, z = draw_beam_fading([np.random.default_rng(seed)], m, u.shape[-2:], 6)
    inputs = (u, g[0], z[0])
    for a in inputs:
        a.flags.writeable = False
    return inputs


class TestSampleBeamAmplitudes:
    def test_shape_and_deterministic(self):
        u = unit_direction((2, 3, 4), real=False, seed=1)
        a = sample_gains(np.random.default_rng(1), 16, u, 5)
        assert a.shape == (5, 2, 3, 3)
        assert np.array_equal(a, sample_gains(np.random.default_rng(1), 16, u, 5))

    def test_rejects_fewer_than_one_antenna(self):
        for m in (0, -1):
            with pytest.raises(ValueError):
                draw_beam_fading([np.random.default_rng(0)], m, (4,), 1)

    def test_draws_do_not_depend_on_the_beam(self):
        g, z = draw_beam_fading([np.random.default_rng(3)], 16, (2, 4), 5)
        assert g.shape == (1, 5, 2) and z.shape == (1, 5, 2, 4)
        again = draw_beam_fading([np.random.default_rng(3)], 16, (2, 4), 5)
        assert np.array_equal(g, again[0]) and np.array_equal(z, again[1])

    @DIRECTIONS
    def test_stacked_gains_equal_gains_row_by_row(self, real):
        # the engine evaluates a block of realizations at once; each row must
        # be bit-identical to evaluating that realization alone
        u = unit_direction((3, 1, 2, 4), real, seed=2)
        g, z = draw_beam_fading([np.random.default_rng(4)], 16, (3, 5, 2, 4), 1)
        stacked = beam_gains(u, g[0, 0], z[0, 0])
        for t in range(3):
            alone = beam_gains(u[t, 0], g[0, 0, t], z[0, 0, t])
            assert np.array_equal(stacked[t], alone)

    @DIRECTIONS
    def test_gains_are_the_written_formula_bit_for_bit(self, real):
        u = unit_direction((3, 1, 2, 4), real, seed=8)
        inputs = read_only_draws(u, 16, 9)
        copies = [a.copy() for a in inputs]
        got = beam_gains(*inputs)
        u, g, z = copies
        c = np.sqrt(g) - np.einsum("...p,...p->...", u.conj(), z)
        t = z[..., :-1] + u[..., :-1] * c[..., None]
        expected = t.real**2 + t.imag**2
        assert got.shape == expected.shape == (3, 6, 2, 3)
        assert got.dtype == expected.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
        for a, copy in zip(inputs, copies):
            assert a.tobytes() == copy.tobytes()

    @DIRECTIONS
    def test_gains_are_m_times_the_written_projection(self, real):
        # the projection t / sqrt(m) = (sqrt(g) u + (I - u u^H) z) / sqrt(m)
        # as written, squared along the user columns
        m = 16
        u, g, z = read_only_draws(unit_direction((3, 1, 2, 4), real, seed=8), m, 9)
        projected = z - u * np.sum(u.conj() * z, axis=-1, keepdims=True)
        amplitudes = (np.sqrt(g)[..., None] * u + projected) / np.sqrt(m)
        expected = m * np.abs(amplitudes[..., :-1]) ** 2
        got = beam_gains(u, g, z)
        assert np.max(np.abs(got - expected) / expected) <= 1e-12

    @DIRECTIONS
    @pytest.mark.parametrize("m", [1, 2, AMPLITUDE_USERS + 1, 16, 300])
    def test_moments(self, m, real):
        # E|t_k|^2 / M = |u_k|^2 + (1 - |u_k|^2) / M, user by user
        u = unit_direction((AMPLITUDE_USERS + 1,), real)
        gains = sample_gains(np.random.default_rng(100 + m), m, u, AMPLITUDE_DRAWS)
        share = np.abs(u[:-1]) ** 2
        target = share + (1.0 - share) / m
        se = gains.std(axis=0) / np.sqrt(AMPLITUDE_DRAWS)
        assert np.all(np.abs(gains.mean(axis=0) - target) <= MOMENT_SE * se)

    @DIRECTIONS
    @pytest.mark.parametrize("m", [1, 2, AMPLITUDE_USERS + 1, 16, 300])
    def test_beam_gains_match_explicit_vectors(self, m, real):
        u = unit_direction((AMPLITUDE_USERS + 1,), real)
        sampled = sample_gains(np.random.default_rng(200 + m), m, u, AMPLITUDE_DRAWS)
        explicit = explicit_amplitudes(np.random.default_rng(300 + m), m, u, AMPLITUDE_DRAWS)
        gains = [sampled, np.abs(explicit[:, :-1]) ** 2]
        for f in (lambda g: g[:, 0], lambda g: g.min(axis=-1)):
            assert stats.ks_2samp(*(f(g) for g in gains)).pvalue > KS_ALPHA


def identical(a, b):
    """Same dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGeneratorSequences:
    """A sequence of T generators stacks one row per generator, bit for bit
    the one-row stack of that generator alone; a one-row stack holds what
    the plain numpy draws give."""

    SEEDS = (3, 1, 4, 1)

    @pytest.mark.parametrize("shape", [(4, 5), 6])
    def test_complex_gaussian_of_one_generator(self, shape):
        rng, reference = np.random.default_rng(8), np.random.default_rng(8)
        expected = np.sqrt(0.3 / 2.0) * (
            reference.standard_normal(shape) + 1j * reference.standard_normal(shape)
        )
        got = complex_gaussian([rng], shape, 0.3)
        assert identical(got, np.asarray(expected)[None])
        assert rng.random() == reference.random()

    def test_complex_gaussian_rows_are_the_per_generator_draws(self):
        stacked = complex_gaussian([np.random.default_rng(s) for s in self.SEEDS], (4, 5), 0.3)
        assert stacked.shape == (len(self.SEEDS), 4, 5)
        for row, seed in zip(stacked, self.SEEDS):
            assert identical(row, complex_gaussian([np.random.default_rng(seed)], (4, 5), 0.3)[0])

    def test_draw_beam_fading_of_one_generator(self):
        rng, reference = np.random.default_rng(8), np.random.default_rng(8)
        g = reference.standard_gamma(16, (5, 2))
        z = np.sqrt(0.5) * (
            reference.standard_normal((5, 2, 4)) + 1j * reference.standard_normal((5, 2, 4))
        )
        got = draw_beam_fading([rng], 16, (2, 4), 5)
        assert identical(got[0], g[None]) and identical(got[1], z[None])
        assert rng.random() == reference.random()

    def test_draw_beam_fading_rows_are_the_per_generator_draws(self):
        rngs = tuple(np.random.default_rng(s) for s in self.SEEDS)
        g, z = draw_beam_fading(rngs, 16, (2, 4), 5)
        assert g.shape == (len(self.SEEDS), 5, 2) and z.shape == (len(self.SEEDS), 5, 2, 4)
        for t, seed in enumerate(self.SEEDS):
            alone = np.random.default_rng(seed)
            g_t, z_t = draw_beam_fading([alone], 16, (2, 4), 5)
            assert identical(g[t], g_t[0]) and identical(z[t], z_t[0])
            assert rngs[t].random() == alone.random()

    @pytest.mark.parametrize("sigma_db", [8.0, -0.0])
    def test_shadowing_db_of_one_generator(self, sigma_db):
        rng, reference = np.random.default_rng(8), np.random.default_rng(8)
        got = shadowing_db(sigma_db, 3, [rng])
        assert identical(got, reference.normal(0.0, abs(sigma_db), (3, 3))[None])
        assert rng.random() == reference.random()

    def test_shadowing_db_rows_are_the_per_generator_draws(self):
        rngs = tuple(np.random.default_rng(s) for s in self.SEEDS)
        stacked = shadowing_db(8.0, 3, rngs)
        assert stacked.shape == (len(self.SEEDS), 3, 3)
        for t, seed in enumerate(self.SEEDS):
            alone = np.random.default_rng(seed)
            assert identical(stacked[t], shadowing_db(8.0, 3, [alone])[0])
            assert rngs[t].random() == alone.random()

    def test_shadowing_db_row_does_not_depend_on_the_other_rows(self):
        # the same generator at row 0 of a one-row stack, row 1 of a
        # three-row stack and row 0 of a two-row stack gives one row
        def stack(seeds):
            return shadowing_db(8.0, 7, [np.random.default_rng(s) for s in seeds])

        rows = stack([5])[0], stack([9, 5, 2])[1], stack([5, 11])[0]
        for row in rows[1:]:
            assert identical(row, rows[0])


class TestChannelState:
    def channel_state(self, cells, users, antennas, drop_seed, shadowing_seed, small_seed):
        centers = build_hex_layout(cells, 1000.0)
        positions = drop_users(centers, 1000.0, users, 100.0, [np.random.default_rng(drop_seed)])
        shadowing = np.random.default_rng(shadowing_seed)
        beta = large_scale_tensor(centers, positions[0], NetworkConfig(), shadowing)
        h = complex_gaussian([np.random.default_rng(small_seed)], beta.shape + (antennas,))[0]
        return ChannelState(beta=beta, h=h)

    def test_single_cell_single_user_shapes(self):
        state = self.channel_state(1, 1, 16, 0, 1, 2)
        assert state.beta.shape == (1, 1, 1)
        assert state.h.shape == (1, 1, 1, 16)
        assert (state.num_cells, state.users_per_cell, state.antennas) == (1, 1, 16)
        assert np.allclose(state.vector(0, 0, 0), np.sqrt(state.beta[0, 0, 0]) * state.h[0, 0, 0])

    def test_gains_positive_and_finite(self):
        centers = build_hex_layout(7, 1000.0)
        users = drop_users(centers, 1000.0, 3, 100.0, [np.random.default_rng(11)])[0]
        beta = large_scale_tensor(centers, users, NetworkConfig(), np.random.default_rng(12))
        assert np.all(beta > 0)
        assert np.all(np.isfinite(beta))

    def test_channel_energy_matches_gain(self):
        state = self.channel_state(1, 1, 10_000, 3, 5, 6)
        g = state.vector(0, 0, 0)
        assert np.vdot(g, g).real / 10_000 == pytest.approx(
            state.beta[0, 0, 0], rel=0.02
        )

    def test_law_of_large_numbers_samples(self):
        rng = np.random.default_rng(0)
        n = 100_000
        for _ in range(10):
            var_x, var_y = rng.uniform(0.5, 2.0, size=2)
            x = complex_gaussian([rng], (n,), var_x)[0]
            y = complex_gaussian([rng], (n,), var_y)[0]
            assert abs(np.vdot(x, x).real / n - var_x) < 0.02 * var_x
            assert abs(np.vdot(x, y)) / n < 0.02 * np.sqrt(var_x * var_y)
