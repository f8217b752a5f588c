import numpy as np
import pytest
from scipy import stats

from multicast_mimo.channel import (
    FadingConfig,
    complex_gaussian,
    draw_beam_fading,
    noise_power,
    pilot_noise_power,
    project_beam_fading,
)
from multicast_mimo.geometry import UserPositions, build_hex_layout, drop_users
from reference_route import ChannelState, large_scale_tensor

NO_SHADOW = FadingConfig(shadow_sigma_db=0.0, penetration_loss_db=0.0)


def single_link_gain(distance_m, fading=NO_SHADOW):
    """Gain from a one-cell layout's BS to one user ``distance_m`` away."""
    user = UserPositions(pos=np.array([[[distance_m, 0.0]]]))
    return large_scale_tensor(build_hex_layout(1, 1000.0), user, fading, 0)[0, 0, 0]


def path_gain(distance_m, fading=NO_SHADOW):
    """Closed-form path gain without shadowing."""
    loss_db = (
        fading.pathloss_intercept_db
        + fading.pathloss_slope * np.log10(distance_m / 1000.0)
        + fading.penetration_loss_db
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

    def shadow_db(self, fading):
        layout = build_hex_layout(7, 1000.0)
        users = drop_users(layout, 3, 100.0, 5)
        d = np.linalg.norm(users.pos[None] - layout.centers[:, None, None], axis=-1)
        path_db = (
            fading.pathloss_intercept_db
            + fading.pathloss_slope * np.log10(d / 1000.0)
            + fading.penetration_loss_db
        )
        return np.stack(
            [
                -10 * np.log10(large_scale_tensor(layout, users, fading, seed)) - path_db
                for seed in range(self.T)
            ]
        )  # (T, N, N, K)

    def test_shared_by_a_cells_users(self):
        shadow = self.shadow_db(FadingConfig())
        assert np.allclose(shadow, shadow[..., :1], rtol=0, atol=1e-9)

    def test_spread_matches_sigma_and_pairs_are_uncorrelated(self):
        sigma = FadingConfig().shadow_sigma_db
        pairs = self.shadow_db(FadingConfig())[..., 0].reshape(self.T, -1)
        n = pairs.size
        assert abs(pairs.mean()) < self.MEAN_Z * sigma / np.sqrt(n)
        assert abs(pairs.std(ddof=1) / sigma - 1.0) < self.SD_BAND
        corr = np.corrcoef(pairs, rowvar=False)
        off_diagonal = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert np.max(np.abs(off_diagonal)) < self.CORR_Z / np.sqrt(self.T)

    def test_follows_the_configured_sigma(self):
        fading = FadingConfig(shadow_sigma_db=3.0)
        pairs = self.shadow_db(fading)[..., 0]
        assert abs(pairs.std(ddof=1) / 3.0 - 1.0) < self.SD_BAND

    def test_without_shadowing_matches_the_single_link_gain(self):
        layout = build_hex_layout(3, 1000.0)
        users = drop_users(layout, 2, 100.0, 1)
        beta = large_scale_tensor(layout, users, NO_SHADOW, 2)
        for i in range(3):
            for j in range(3):
                d = np.linalg.norm(users.pos[j] - layout.centers[i], axis=-1)
                assert np.allclose(beta[i, j], path_gain(d), rtol=1e-12)

    @pytest.mark.parametrize("seeds", [[1, 2, 3], [1, 2, 3, 4, 5, 6, 7]])
    def test_rejects_anything_but_one_drop_of_the_layout(self, seeds):
        users = drop_users(build_hex_layout(7, 1000.0), 2, 100.0, seeds)
        with pytest.raises(ValueError, match="not one drop of 7 cells"):
            large_scale_tensor(build_hex_layout(7, 1000.0), users, FadingConfig(), 3)
        one_drop = UserPositions(pos=users.pos[0])
        with pytest.raises(ValueError, match="not one drop of 3 cells"):
            large_scale_tensor(build_hex_layout(3, 1000.0), one_drop, NO_SHADOW, 3)

    def test_rejects_a_user_on_a_base_station(self):
        layout = build_hex_layout(1, 1000.0)
        users = drop_users(layout, 2, 100.0, 1)
        users.pos[0, 1] = layout.centers[0]
        with pytest.raises(ValueError, match="distances must be positive"):
            large_scale_tensor(layout, users, FadingConfig(), 3)


def fading_vector(antennas, seed):
    return complex_gaussian(np.random.default_rng(seed), (antennas,))


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


# Amplitude-sampler checks: significance and bands fixed before the first run.
KS_ALPHA = 1e-3  # per two-sample KS test
MOMENT_SE = 5.0  # standard errors allowed per moment
AMPLITUDE_DRAWS = 20_000
AMPLITUDE_USERS = 3  # p = K + 1 = 4


def unit_direction(p, seed=7):
    u = complex_gaussian(np.random.default_rng(seed), (p,))
    return u / np.linalg.norm(u)


def sample_amplitudes(rng, m, u, count):
    """``(count, *u.shape)`` amplitudes: the raw draws, projected onto ``u``."""
    g, z = draw_beam_fading(rng, m, u.shape, count)
    return project_beam_fading(m, u, g, z)


def explicit_amplitudes(rng, m, u, count, chunk=2_000):
    """``count`` amplitudes ``X^H X u / ||X u|| / sqrt(m)`` of explicit m x p
    CN(0, 1) matrices X."""
    out = []
    for start in range(0, count, chunk):
        x = complex_gaussian(rng, (min(chunk, count - start), m, u.size))
        xu = x @ u
        t = (x.conj().swapaxes(-1, -2) @ xu[..., None])[..., 0]
        out.append(t / np.linalg.norm(xu, axis=-1, keepdims=True) / np.sqrt(m))
    return np.concatenate(out)


class TestSampleBeamAmplitudes:
    def test_shape_and_deterministic(self):
        u = complex_gaussian(np.random.default_rng(1), (2, 3, 4))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        a = sample_amplitudes(np.random.default_rng(1), 16, u, 5)
        assert a.shape == (5, 2, 3, 4)
        assert np.array_equal(a, sample_amplitudes(np.random.default_rng(1), 16, u, 5))

    def test_rejects_fewer_than_one_antenna(self):
        for m in (0, -1):
            with pytest.raises(ValueError):
                draw_beam_fading(np.random.default_rng(0), m, unit_direction(4).shape, 1)

    def test_draws_do_not_depend_on_the_beam(self):
        g, z = draw_beam_fading(np.random.default_rng(3), 16, (2, 4), 5)
        assert g.shape == (5, 2) and z.shape == (5, 2, 4)
        again = draw_beam_fading(np.random.default_rng(3), 16, (2, 4), 5)
        assert np.array_equal(g, again[0]) and np.array_equal(z, again[1])

    def test_stacked_projection_equals_projection_row_by_row(self):
        # the engine projects a block of realizations at once; each row must
        # be bit-identical to projecting that realization alone
        u = complex_gaussian(np.random.default_rng(2), (3, 1, 2, 4))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        g, z = draw_beam_fading(np.random.default_rng(4), 16, (3, 5, 2, 4), 1)
        stacked = project_beam_fading(16, u, g[0], z[0])
        for t in range(3):
            assert np.array_equal(stacked[t], project_beam_fading(16, u[t, 0], g[0, t], z[0, t]))

    @pytest.mark.parametrize("real", [True, False], ids=["real-u", "complex-u"])
    def test_projection_is_the_written_formula_bit_for_bit(self, real):
        # five schemes have real beam directions, composite-async complex ones
        m = 16
        u = complex_gaussian(np.random.default_rng(8), (3, 1, 2, 4))
        if real:
            u = np.abs(u)
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        g, z = draw_beam_fading(np.random.default_rng(9), m, (2, 4), 6)
        inputs = (u, g, z)
        copies = [a.copy() for a in inputs]
        for a in inputs:
            a.flags.writeable = False
        got = project_beam_fading(m, u, g, z)
        projected = z - u * np.sum(u.conj() * z, axis=-1, keepdims=True)
        expected = (np.sqrt(g)[..., None] * u + projected) / np.sqrt(m)
        assert got.shape == expected.shape == (3, 6, 2, 4)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        for a, copy in zip(inputs, copies):
            assert a.tobytes() == copy.tobytes()

    @pytest.mark.parametrize("m", [1, 2, AMPLITUDE_USERS + 1, 16, 300])
    def test_moments(self, m):
        # E|t_k|^2 / M = |u_k|^2 + (1 - |u_k|^2) / M, entry by entry
        u = unit_direction(AMPLITUDE_USERS + 1)
        a = sample_amplitudes(np.random.default_rng(100 + m), m, u, AMPLITUDE_DRAWS)
        power = np.abs(a) ** 2
        target = np.abs(u) ** 2 + (1.0 - np.abs(u) ** 2) / m
        se = power.std(axis=0) / np.sqrt(AMPLITUDE_DRAWS)
        assert np.all(np.abs(power.mean(axis=0) - target) <= MOMENT_SE * se)

    @pytest.mark.parametrize("m", [1, 2, AMPLITUDE_USERS + 1, 16, 300])
    def test_beam_gains_match_explicit_vectors(self, m):
        u = unit_direction(AMPLITUDE_USERS + 1)
        sampled = sample_amplitudes(np.random.default_rng(200 + m), m, u, AMPLITUDE_DRAWS)
        explicit = explicit_amplitudes(np.random.default_rng(300 + m), m, u, AMPLITUDE_DRAWS)
        gains = [np.abs(a[:, :-1]) ** 2 for a in (sampled, explicit)]
        for f in (lambda g: g[:, 0], lambda g: g.min(axis=-1)):
            assert stats.ks_2samp(*(f(g) for g in gains)).pvalue > KS_ALPHA


def identical(a, b):
    """Same dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGeneratorSequences:
    """A sequence of generators stacks one row per generator, bit for bit
    what that generator alone gives; one generator gives what it always did."""

    SEEDS = (3, 1, 4, 1)

    @pytest.mark.parametrize("shape", [(4, 5), 6])
    def test_complex_gaussian_of_one_generator(self, shape):
        rng, reference = np.random.default_rng(8), np.random.default_rng(8)
        expected = np.sqrt(0.3 / 2.0) * (
            reference.standard_normal(shape) + 1j * reference.standard_normal(shape)
        )
        got = complex_gaussian(rng, shape, 0.3)
        assert identical(np.asarray(got), np.asarray(expected))
        assert rng.random() == reference.random()

    def test_complex_gaussian_rows_are_the_per_generator_draws(self):
        stacked = complex_gaussian([np.random.default_rng(s) for s in self.SEEDS], (4, 5), 0.3)
        assert stacked.shape == (len(self.SEEDS), 4, 5)
        for row, seed in zip(stacked, self.SEEDS):
            assert identical(row, complex_gaussian(np.random.default_rng(seed), (4, 5), 0.3))

    def test_draw_beam_fading_of_one_generator(self):
        rng, reference = np.random.default_rng(8), np.random.default_rng(8)
        g = reference.standard_gamma(16, (5, 2))
        z = np.sqrt(0.5) * (
            reference.standard_normal((5, 2, 4)) + 1j * reference.standard_normal((5, 2, 4))
        )
        got = draw_beam_fading(rng, 16, (2, 4), 5)
        assert identical(got[0], g) and identical(got[1], z)
        assert rng.random() == reference.random()

    def test_draw_beam_fading_rows_are_the_per_generator_draws(self):
        rngs = tuple(np.random.default_rng(s) for s in self.SEEDS)
        g, z = draw_beam_fading(rngs, 16, (2, 4), 5)
        assert g.shape == (len(self.SEEDS), 5, 2) and z.shape == (len(self.SEEDS), 5, 2, 4)
        for t, seed in enumerate(self.SEEDS):
            alone = np.random.default_rng(seed)
            g_t, z_t = draw_beam_fading(alone, 16, (2, 4), 5)
            assert identical(g[t], g_t) and identical(z[t], z_t)
            assert rngs[t].random() == alone.random()


class TestNoisePower:
    def test_twenty_mhz_reference(self):
        # -174 dBm/Hz over 20 MHz: -100.99 dBm
        assert noise_power(FadingConfig()) == pytest.approx(
            7.96214341106994e-14, rel=1e-12
        )

    def test_one_hz_is_psd(self):
        f = FadingConfig(bandwidth_hz=1.0)
        assert 10 * np.log10(noise_power(f) * 1000) == pytest.approx(-174.0)

    def test_doubling_bandwidth_adds_3db(self):
        a = noise_power(FadingConfig(bandwidth_hz=1e7))
        b = noise_power(FadingConfig(bandwidth_hz=2e7))
        assert 10 * np.log10(b / a) == pytest.approx(10 * np.log10(2), rel=1e-12)

    def test_pilot_noise_ratio(self):
        f = FadingConfig()
        assert pilot_noise_power(f) == pytest.approx(0.1 * noise_power(f), rel=1e-12)


class TestFadingConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FadingConfig(bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            FadingConfig(pilot_noise_ratio=0.0)
        with pytest.raises(ValueError):
            FadingConfig(shadow_sigma_db=float("nan"))


class TestChannelState:
    def channel_state(self, cells, users, antennas, drop_seed, shadowing_seed, small_seed):
        layout = build_hex_layout(cells, 1000.0)
        positions = drop_users(layout, users, 100.0, drop_seed)
        beta = large_scale_tensor(layout, positions, FadingConfig(), shadowing_seed)
        h = complex_gaussian(np.random.default_rng(small_seed), beta.shape + (antennas,))
        return ChannelState(beta=beta, h=h)

    def test_single_cell_single_user_shapes(self):
        state = self.channel_state(1, 1, 16, 0, 1, 2)
        assert state.beta.shape == (1, 1, 1)
        assert state.h.shape == (1, 1, 1, 16)
        assert (state.num_cells, state.users_per_cell, state.antennas) == (1, 1, 16)
        assert np.allclose(state.vector(0, 0, 0), np.sqrt(state.beta[0, 0, 0]) * state.h[0, 0, 0])

    def test_gains_positive_and_finite(self):
        layout = build_hex_layout(7, 1000.0)
        users = drop_users(layout, 3, 100.0, 11)
        beta = large_scale_tensor(layout, users, FadingConfig(), 12)
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
            x = complex_gaussian(rng, (n,), var_x)
            y = complex_gaussian(rng, (n,), var_y)
            assert abs(np.vdot(x, x).real / n - var_x) < 0.02 * var_x
            assert abs(np.vdot(x, y)) / n < 0.02 * np.sqrt(var_x * var_y)
