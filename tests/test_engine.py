from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import closed_forms as asymptotic
import multicast_mimo.channel as channel
import multicast_mimo.engine as engine
from closed_forms import optimal_lambdas
from oracles import scalar_large_scale
from multicast_mimo.channel import beam_gains, complex_gaussian, draw_beam_fading
from multicast_mimo.config import SCHEMES, ConfigError, NetworkConfig
from multicast_mimo.engine import (
    SinrReport,
    empirical_cdf,
    large_scale_batch,
    run_experiment,
    sinr_from_gains,
)
from multicast_mimo.geometry import build_hex_layout, drop_users
from multicast_mimo.pilots import async_kappas, optimal_pilot_powers
from reference_route import (
    AsyncProfile,
    ChannelState,
    beamformer_from_estimate,
    downlink_sinr,
    estimate_composite,
    estimate_individual,
    large_scale_tensor,
    make_pilot_book,
    optimal_beamformer_perfect,
    uplink_rx,
)


class TestEmpiricalCdf:
    def test_single_sample(self):
        assert np.allclose(empirical_cdf([5.0]), [[5.0, 1.0]])

    def test_quartiles(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(cdf[:, 1], [0.25, 0.5, 0.75, 1.0])
        assert np.allclose(cdf[:, 0], [1, 2, 3, 4])

    def test_permutation_invariant(self):
        a = empirical_cdf([3.0, 1.0, 2.0])
        b = empirical_cdf([2.0, 3.0, 1.0])
        assert np.array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])


class TestDownlinkSinr:
    def make_state(self, rng, n=3, k=2, m=24):
        beta = rng.lognormal(0, 1, (n, n, k)) * 1e-12
        h = complex_gaussian([rng], (n, n, k, m))[0]
        return ChannelState(beta=beta, h=h)

    def test_single_cell_formula(self):
        rng = np.random.default_rng(0)
        cs = self.make_state(rng, n=1)
        bf = optimal_beamformer_perfect(
            np.stack([cs.vector(0, 0, k) for k in range(2)]), cs.beta[0, 0]
        )
        sigma2 = 1e-13
        value = downlink_sinr(cs, [bf], [0.5], sigma2, 0, 1)
        expect = 0.5 * abs(np.vdot(cs.vector(0, 0, 1), bf)) ** 2 / sigma2
        assert value == pytest.approx(expect, rel=1e-12)

    def test_orthogonal_beam_gives_zero(self):
        rng = np.random.default_rng(1)
        cs = self.make_state(rng, n=1, k=1, m=8)
        g = cs.vector(0, 0, 0)
        w = np.zeros_like(g)
        w[0], w[1] = g[1].conj(), -g[0].conj()
        w /= np.linalg.norm(w)
        bf = beamformer_from_estimate(w)
        assert downlink_sinr(cs, [bf], [1.0], 1e-13, 0, 0) < 1e-12

    def test_matches_explicit_sum_reimplementation(self):
        rng = np.random.default_rng(2)
        cs = self.make_state(rng)
        beams = [
            beamformer_from_estimate(
                rng.uniform(0.1, 1, 2) @ np.stack([cs.vector(j, j, k) for k in range(2)])
            )
            for j in range(3)
        ]
        powers = rng.uniform(0.1, 1.0, 3)
        sigma2 = 3e-13
        for user in range(2):
            value = downlink_sinr(cs, beams, powers, sigma2, 0, user)
            num = 0.0
            den = sigma2
            for j in range(3):
                dot = 0.0 + 0.0j
                for t in range(cs.antennas):
                    dot += np.conj(cs.vector(j, 0, user)[t]) * beams[j][t]
                term = powers[j] * abs(dot) ** 2
                if j == 0:
                    num = term
                else:
                    den += term
            assert value == pytest.approx(num / den, rel=1e-12)


def pilot_setup(config, scheme, beta):
    """Pilot book and delay profile of a pilot scheme on the reference route."""
    n, k, length = config.cells, config.users_per_cell, config.pilot_length
    p_u = config.peak_pilot_power_w
    if scheme == "individual-pilot":
        return make_pilot_book("per-user", n, k, length, p_u), None
    profile = None
    controlled = scheme == "composite-power-controlled"
    if scheme == "composite-async":
        offsets = np.asarray(config.async_offsets_s).reshape(n, k)
        profile = AsyncProfile.from_user_offsets(offsets, config.pilot_symbol_s)
        controlled = config.async_power_control
    powers = optimal_pilot_powers(np.einsum("jjk->jk", beta), p_u) if controlled else None
    return make_pilot_book("per-cell", n, k, length, p_u, powers=powers), profile


def route_directions(config, scheme, cs, sigma_p2, rng):
    """Every BS's beam direction before normalization on the reference route:
    its pilot estimate, or with perfect CSI the combination of its own users'
    channels.  Pilot noise comes from ``rng``, one block per BS in cell order;
    ``sigma_p2 = 0`` sends noiseless pilots."""
    n, k = cs.num_cells, cs.users_per_cell
    if scheme == "perfect-optimal":
        return [sum(cs.vector(j, j, u) / cs.beta[j, j, u] for u in range(k)) for j in range(n)]
    if scheme == "perfect-equal":
        return [sum(cs.vector(j, j, u) for u in range(k)) for j in range(n)]
    book, profile = pilot_setup(config, scheme, cs.beta)
    estimates = []
    for j in range(n):
        y = uplink_rx(cs, book, j, sigma_p2, rng, async_profile=profile)
        if scheme == "individual-pilot":
            estimates.append(sum(estimate_individual(y, book, u) for u in range(k)))
        else:
            estimates.append(estimate_composite(y, book, j))
    return estimates


def public_route(config, scheme, t, small_seed):
    """Per-user linear SINRs of cell 0 on the reference vector route
    (ChannelState -> uplink_rx -> estimator -> beam -> downlink_sinr), on
    large-scale realization ``t``.

    ``np.random.default_rng(small_seed)`` draws the (N, N, K, M) fading
    tensor and then each BS's pilot noise, in the order of ``fading_draw``.
    Also returns the channels and the beam directions before normalization.
    """
    beta = scalar_large_scale(config, t)
    n, k, m = config.cells, config.users_per_cell, config.antennas
    rng = np.random.default_rng(small_seed)
    cs = ChannelState(beta=beta, h=complex_gaussian([rng], (n, n, k, m))[0])
    directions = route_directions(config, scheme, cs, config.pilot_noise_power_w, rng)
    if scheme == "perfect-optimal":
        beams = [
            optimal_beamformer_perfect(np.stack([cs.vector(j, j, u) for u in range(k)]), beta[j, j])
            for j in range(n)
        ]
    else:
        beams = [beamformer_from_estimate(d) for d in directions]
    powers = np.full(n, config.bs_power_w[0] / m)
    sigma2 = config.noise_power_w
    sinrs = np.array([downlink_sinr(cs, beams, powers, sigma2, 0, u) for u in range(k)])
    return sinrs, cs, directions


def residual_scale(ctx):
    """(..., N) standard deviation per antenna s_j of each BS's residual: its
    other-cell channel terms and its combined pilot noise."""
    others = np.arange(ctx.weights.shape[-3]) != engine._EVAL_CELL
    variance = np.sum(np.abs(ctx.weights[..., others, :]) ** 2, axis=(-2, -1))
    if ctx.noise_combiner is not None:
        variance = variance + ctx.sigma_p2 * np.sum(np.abs(ctx.noise_combiner) ** 2, axis=-1)
    return np.sqrt(variance)


def amplitudes_of(ctx, channels, residual):
    """(N, K+1) amplitudes ``X_j^H X_j u_j / ||X_j u_j|| / sqrt(M)`` of
    ``X_j = [channels[j], residual[j] / s_j]``: per BS, its (K, M) small-scale
    channels to the evaluated cell's users and its (M,) residual over s_j (a
    zero column where s_j = 0), under the engine's beam direction u_j."""
    s = residual_scale(ctx)[:, None]
    column = np.divide(residual, s, out=np.zeros_like(residual), where=s > 0)
    x = np.concatenate([channels, column[:, None]], axis=1)  # (N, K+1, M)
    xu = np.einsum("jpm,jp->jm", x, engine._beam_directions(ctx))
    t = np.einsum("jpm,jm->jp", x.conj(), xu) / np.linalg.norm(xu, axis=-1, keepdims=True)
    return t / np.sqrt(x.shape[-1])


def route_amplitudes(config, scheme, ctx, cs, directions):
    """(N, K+1) amplitudes of the reference route's vectors: per BS, its
    small-scale channels to cell 0's users and the rest of its beam direction
    over s_j.  The rest is what the same route gives minus what it gives with
    noiseless pilots and every other cell's channels set to zero."""
    own = cs.h.copy()
    own[:, 1:] = 0
    evaluated = route_directions(config, scheme, ChannelState(beta=cs.beta, h=own), 0.0, None)
    return amplitudes_of(ctx, cs.h[:, 0], np.stack(directions) - np.stack(evaluated))


def context(config, scheme, beta):
    """The engine's context of ``scheme`` on ``beta``."""
    return engine._build_trial_context(replace(config, scheme=scheme), beta)


def user_gains(amplitudes):
    """``|amplitude|^2`` of the users' columns of (..., K+1) normalized beam
    amplitudes."""
    return np.abs(amplitudes[..., :-1]) ** 2


def sinrs(config, beta, gains, antennas=1):
    """The engine's evaluator on beam ``gains``, M times the squared
    normalized amplitudes for M = ``antennas``, as one experiment of
    ``config`` on large-scale gains ``beta`` calls it: toward the evaluated
    cell's users, at the config's BS power over M and its noise power."""
    eval_amp = np.sqrt(beta[..., :, engine._EVAL_CELL, :])
    power = config.bs_power_w[0] / antennas
    return sinr_from_gains(gains, eval_amp, power, config.noise_power_w)


def limit_sinrs(config, beta, ctx):
    """The engine's large-antenna SINRs: its evaluator at the beam directions."""
    return sinrs(config, beta, user_gains(engine._beam_directions(ctx)))


def fading_draw(ctx, m, small_seed):
    """Explicit fast fading of one M-antenna draw: the (N, N, K, M)
    small-scale tensor, then each BS's (M, L) pilot noise block in cell
    order, combined by its estimator into an (N, M) array (None for perfect
    CSI)."""
    n, _, k = ctx.weights.shape
    rng = np.random.default_rng(small_seed)
    h = complex_gaussian([rng], (n, n, k, m))[0]
    if ctx.noise_combiner is None:
        return h, None
    length = ctx.noise_combiner.shape[1]
    noise = [
        complex_gaussian([rng], (m, length), ctx.sigma_p2)[0] @ ctx.noise_combiner[i]
        for i in range(n)
    ]
    return h, np.stack(noise)


def explicit_residual(ctx, m, small_seed):
    """One explicit ``fading_draw`` split per BS into its (N, K, M) channels
    to the evaluated cell's users and its (N, M) residual."""
    h, noise = fading_draw(ctx, m, small_seed)
    others = np.arange(h.shape[0]) != engine._EVAL_CELL
    residual = np.einsum("jlk,jlkm->jm", ctx.weights[:, others], h[:, others])
    if noise is not None:
        residual = residual + noise
    return h[:, engine._EVAL_CELL], residual


def explicit_amplitudes(ctx, m, small_seed):
    """(N, K+1) amplitudes of one explicit ``fading_draw``."""
    return amplitudes_of(ctx, *explicit_residual(ctx, m, small_seed))


class TestReferenceRoute:
    def test_single_user_single_cell_near_asymptote(self):
        config = NetworkConfig(cells=1, users_per_cell=1, antennas=10_000, E_dbw=(10.0,))
        beta = scalar_large_scale(config, 3)
        asym_db = 10 * np.log10(
            config.bs_power_w[0] * beta[0, 0, 0] / config.noise_power_w
        )
        sinrs, _, _ = public_route(config, "perfect-optimal", 3, 4)
        assert 10 * np.log10(sinrs.min()) == pytest.approx(asym_db, abs=0.5)

    def test_clean_composite_matches_perfect_on_same_seeds(self):
        # near-noiseless pilots at high peak power reproduce the perfect-CSI beam
        config = NetworkConfig(
            antennas=10_000, pilot_noise_ratio=1e-12, p_u_dbw=40.0, cells=3
        )
        perfect, _, _ = public_route(config, "perfect-optimal", 7, 8)
        composite, _, _ = public_route(config, "composite-power-controlled", 7, 8)
        assert 10 * np.log10(composite.min()) == pytest.approx(
            10 * np.log10(perfect.min()), abs=0.5
        )


def gram_route_config(antennas):
    rng = np.random.default_rng(0)
    offsets = tuple(float(x) for x in rng.uniform(0, 1e-6, 12))
    return NetworkConfig(
        antennas=antennas,
        cells=3,
        users_per_cell=4,
        async_offsets_s=offsets,
        pilot_symbol_s=1e-6,
    )


class TestGramRoute:
    """The amplitude route against amplitudes built from explicit vectors X:
    their Gram matrix applied to the beam direction, ``X^H X u / ||X u|| /
    sqrt(M)``."""

    @pytest.mark.parametrize("antennas", [1, 4, 5, 16, 100])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_reproduces_the_public_route_on_its_vectors(self, scheme, antennas):
        config = gram_route_config(antennas)
        beta = scalar_large_scale(config, 11)
        ctx = context(config, scheme, beta)
        for small_seed in (21, 22, 23):
            expected, cs, directions = public_route(config, scheme, 11, small_seed)
            amplitudes = route_amplitudes(config, scheme, ctx, cs, directions)
            got = sinrs(config, beta, user_gains(amplitudes))
            assert np.allclose(got, expected, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("antennas", [1, 2, 4, 16, 300])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_projection_is_the_gram_route_on_explicit_vectors(self, scheme, antennas):
        # given explicit X, g = ||X u||^2 and z = t - sqrt(g) u with
        # t = X^H X u / ||X u|| are draws that beam_gains turns into the
        # users' |t_k|^2; the KS tests then check only the law of (g, z)
        config = replace(gram_route_config(antennas), num_large=3)
        u = engine._beam_directions(context(config, scheme, large_scale_batch(config)))
        rng = np.random.default_rng(antennas)
        x = complex_gaussian([rng], u.shape[:-1] + (antennas, u.shape[-1]))[0]  # (T, N, M, K+1)
        xu = np.einsum("...mp,...p->...m", x, u)
        norm = np.linalg.norm(xu, axis=-1)
        t = np.einsum("...mp,...m->...p", x.conj(), xu) / norm[..., None]
        g = norm**2
        z = t - np.sqrt(g)[..., None] * u
        expected = user_gains(t)
        got = beam_gains(u, g, z)
        assert np.max(np.abs(got - expected) / expected) <= 1e-12

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_residual_column_has_unit_variance(self, scheme):
        # s_j must be the residual's standard deviation, or the sampled
        # amplitudes would not have the explicit draws' distribution
        m = 20_000
        config = gram_route_config(m)
        ctx = context(config, scheme, scalar_large_scale(config, 11))
        _, residual = explicit_residual(ctx, m, 31)
        s = residual_scale(ctx)
        has_residual = s > 0
        power = np.sum(np.abs(residual[has_residual]) ** 2, axis=-1) / s[has_residual] ** 2 / m
        assert np.all(np.abs(power - 1.0) <= 5.0 / np.sqrt(m))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sampled_draws_match_explicit_draws_in_distribution(self, scheme):
        draws = 3_000
        config = gram_route_config(16)
        beta = scalar_large_scale(config, 11)
        ctx = context(config, scheme, beta)
        amplitudes = np.stack([explicit_amplitudes(ctx, 16, 40_000 + s) for s in range(draws)])
        explicit = sinrs(config, beta, user_gains(amplitudes))
        directions = engine._beam_directions(ctx)
        g, z = draw_beam_fading([np.random.default_rng(41)], 16, directions.shape, draws)
        sampled = sinrs(config, beta, beam_gains(directions, g[0], z[0]), 16)
        assert stats.ks_2samp(sampled.min(axis=-1), explicit.min(axis=-1)).pvalue > 1e-3

    @settings(max_examples=60, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        bs=st.integers(0, 2),
        modulus=st.floats(1e-3, 1e3),
        phase=st.floats(0.0, 2 * np.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_beam_scale_does_not_change_the_sinrs(self, scheme, bs, modulus, phase, seed):
        # scaling BS bs's whole beam (every channel term and its pilot noise)
        # by a complex number scales its coefficients c_j, not its direction
        config = gram_route_config(16)
        beta = scalar_large_scale(config, 7)
        ctx = context(config, scheme, beta)
        weights = ctx.weights.astype(complex)
        weights[bs] *= modulus * np.exp(1j * phase)
        combiner = ctx.noise_combiner
        if combiner is not None:
            combiner = np.array(combiner)
            combiner[bs] *= modulus * np.exp(1j * phase)
        scaled = replace(ctx, weights=weights, noise_combiner=combiner)
        assert np.allclose(
            limit_sinrs(config, beta, scaled), limit_sinrs(config, beta, ctx), rtol=1e-9, atol=0
        )
        expected = sinrs(config, beta, user_gains(explicit_amplitudes(ctx, 16, seed)))
        got = sinrs(config, beta, user_gains(explicit_amplitudes(scaled, 16, seed)))
        assert np.allclose(got, expected, rtol=1e-9, atol=0)


class TestRunExperiment:
    def test_report_holds_its_read_only_samples_and_fingerprint(self):
        # the CDF and the mean are computed from the samples, so a write to
        # the samples could make a report contradict itself
        assert [f.name for f in fields(SinrReport)] == ["samples_db", "fingerprint"]
        config = NetworkConfig(num_large=4)
        reports = engine.run_experiments([config, replace(config, E_dbw=(20.0,))])
        for report in reports + [run_experiment(replace(config, antennas=16, num_small=2))]:
            samples = report.samples_db.copy()
            with pytest.raises(ValueError):
                report.samples_db[0] = 100.0
            with pytest.raises(ValueError):
                report.samples_db.flags.writeable = True
            assert report.samples_db.tobytes() == samples.tobytes()
            assert report.cdf.tobytes() == empirical_cdf(samples).tobytes()
            assert report.mean_min_sinr_db == float(samples.mean())

    def test_reports_and_contexts_compare_and_hash_by_identity(self):
        # equality over an array field was ambiguous and hashing it failed
        config = NetworkConfig(num_large=3)
        a, b = run_experiment(config), run_experiment(config)
        assert np.array_equal(a.samples_db, b.samples_db)
        assert a.fingerprint == b.fingerprint
        assert a == a and a != b
        assert a in [b, a] and a not in [b]
        assert {a: 1, b: 2}[a] == 1
        beta = large_scale_batch(config)
        composite = replace(config, scheme="composite")
        c, d = (engine._build_trial_context(composite, beta) for _ in range(2))
        assert c == c and c != d
        assert len({c, d}) == 2

    def test_reproducible_and_seed_sensitive(self):
        config = NetworkConfig(antennas=None, num_large=20)
        a = run_experiment(config, scheme="perfect-optimal")
        b = run_experiment(config, scheme="perfect-optimal")
        c = run_experiment(replace(config, master_seed=2), scheme="perfect-optimal")
        assert np.array_equal(a.samples_db, b.samples_db)
        assert a.fingerprint == b.fingerprint
        assert not np.array_equal(a.samples_db, c.samples_db)
        assert a.fingerprint != c.fingerprint

    def test_finite_mode_reproducible_and_seed_sensitive(self):
        config = NetworkConfig(antennas=16, cells=3, num_large=4, num_small=3)
        a = run_experiment(config, scheme="composite-power-controlled")
        b = run_experiment(config, scheme="composite-power-controlled")
        c = run_experiment(replace(config, master_seed=2), scheme="composite-power-controlled")
        assert np.array_equal(a.samples_db, b.samples_db)
        assert np.all(np.isfinite(a.samples_db))
        assert not np.any(np.isin(a.samples_db, c.samples_db))

    def test_fingerprint_hashes_the_version(self, monkeypatch):
        config = NetworkConfig(antennas=None, num_large=3)
        before = run_experiment(config, scheme="perfect-optimal")
        monkeypatch.setattr(engine, "__version__", "0.0.0-other-streams")
        after = run_experiment(config, scheme="perfect-optimal")
        assert np.array_equal(before.samples_db, after.samples_db)
        assert before.fingerprint != after.fingerprint

    @pytest.mark.parametrize("antennas", [None, 16])
    def test_fingerprint_depends_only_on_the_resolved_config(self, antennas):
        config = NetworkConfig(antennas=antennas, cells=3, num_large=4, num_small=2)
        resolved = replace(config, scheme="composite")
        reports = [
            run_experiment(config, scheme="composite"),
            run_experiment(resolved),
            run_experiment(resolved, scheme="composite"),
        ]
        for report in reports[1:]:
            assert np.array_equal(report.samples_db, reports[0].samples_db)
            assert report.fingerprint == reports[0].fingerprint

    def test_cdf_endpoints(self):
        config = NetworkConfig(antennas=None, num_large=40)
        report = run_experiment(config, scheme="perfect-optimal")
        assert report.cdf[0, 0] == report.samples_db.min()
        assert report.cdf[0, 1] == pytest.approx(1 / 40)
        assert report.cdf[-1, 0] == report.samples_db.max()
        assert report.cdf[-1, 1] == 1.0

    def test_small_count_ignored_in_asymptotic_mode(self):
        config = NetworkConfig(antennas=None, num_large=10)
        a = run_experiment(replace(config, num_small=1), scheme="perfect-optimal")
        b = run_experiment(replace(config, num_small=50), scheme="perfect-optimal")
        c = run_experiment(replace(config, num_small=7), scheme="perfect-optimal")
        assert np.array_equal(a.samples_db, b.samples_db)
        assert np.array_equal(a.samples_db, c.samples_db)
        assert a.fingerprint == b.fingerprint == c.fingerprint

    def test_fewer_users_stochastically_dominate(self):
        report3 = run_experiment(
            NetworkConfig(antennas=None, users_per_cell=3, num_large=300),
            scheme="perfect-optimal",
        )
        report10 = run_experiment(
            NetworkConfig(antennas=None, users_per_cell=10, num_large=300),
            scheme="perfect-optimal",
        )
        deciles = np.arange(0.1, 1.0, 0.1)
        q3 = np.quantile(report3.samples_db, deciles)
        q10 = np.quantile(report10.samples_db, deciles)
        assert np.all(q3 > q10)

    def test_finite_mode_averages_linear_minimum_over_draws(self):
        config = NetworkConfig(antennas=16, cells=3, num_large=2, num_small=3)
        report = run_experiment(config, scheme="composite")
        for t in range(2):
            beta = scalar_large_scale(config, t)
            ctx = context(config, "composite", beta)
            directions = engine._beam_directions(ctx)
            rng = np.random.default_rng([config.master_seed, engine._FADING_STREAM, t])
            g, z = draw_beam_fading([rng], 16, directions.shape, 3)
            gains = beam_gains(directions, g[0], z[0])
            acc = sum(sinrs(config, beta, gains[s], 16).min() for s in range(3))
            assert report.samples_db[t] == pytest.approx(
                10 * np.log10(acc / 3), rel=1e-9
            )

    def test_finite_realizations_do_not_depend_on_the_count(self):
        config = NetworkConfig(antennas=16, cells=3, num_small=4)
        short = run_experiment(replace(config, num_large=2), scheme="composite")
        longer = run_experiment(replace(config, num_large=4), scheme="composite")
        assert np.array_equal(short.samples_db, longer.samples_db[:2])

    @pytest.mark.parametrize("antennas", [1, 3, 4])
    def test_finite_mode_runs_with_few_antennas(self, antennas):
        # K = 3: fewer antennas than users, as many, and one more
        config = NetworkConfig(antennas=antennas, cells=3, num_large=3, num_small=5)
        for scheme in ("perfect-optimal", "composite", "individual-pilot"):
            report = run_experiment(config, scheme=scheme)
            assert np.all(np.isfinite(report.samples_db))

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(NetworkConfig(antennas=None, num_large=0))

    @pytest.mark.parametrize("key", ["num_large", "num_small"])
    def test_zero_count_names_its_key(self, key):
        with pytest.raises(ConfigError) as err:
            run_experiment(replace(NetworkConfig(antennas=16), **{key: 0}))
        assert err.value.key == key

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(NetworkConfig(antennas=None), scheme="zero-forcing")

    @pytest.mark.parametrize("antennas", [None, 16])
    @pytest.mark.parametrize(
        "key, value", [("exclusion_m", 0.0), ("exclusion_m", -50.0), ("cells", 4)]
    )
    def test_invalid_config_names_its_key(self, key, value, antennas):
        config = replace(NetworkConfig(antennas=antennas, num_large=3, num_small=2), **{key: value})
        with pytest.raises(ConfigError) as err:
            run_experiment(config)
        assert err.value.key == key

    def test_validates_the_called_scheme_not_the_configured_one(self):
        # composite-async needs delay offsets, which this config lacks
        config = NetworkConfig(antennas=None, num_large=2, scheme="composite-async")
        run_experiment(config, scheme="perfect-optimal")
        with pytest.raises(ConfigError) as err:
            run_experiment(replace(config, scheme="perfect-optimal"), scheme="composite-async")
        assert err.value.key == "async_offsets_s"


def record_make_rngs(monkeypatch):
    """Record every generator the engine builds, one ``(master_seed, stream,
    t)`` of ints per element of each ``make_rngs`` call, in call order."""
    keys = []
    original = engine.make_rngs

    def recording(master_seed, stream, indices):
        keys.extend((int(master_seed), int(stream), int(t)) for t in np.ravel(indices))
        return original(master_seed, stream, indices)

    monkeypatch.setattr(engine, "make_rngs", recording)
    return keys


def async_config(**overrides):
    rng = np.random.default_rng(0)
    offsets = tuple(float(x) for x in rng.uniform(0, 1e-6, 21))
    return NetworkConfig(async_offsets_s=offsets, pilot_symbol_s=1e-6, **overrides)


def scalar_closed_forms(config, scheme, beta, kappas):
    """Per-user limit SINRs of one (N, N, K) realization from the scalar
    closed forms, one user at a time where a formula takes a user index."""
    n, _, k = beta.shape
    own = beta[0, 0]
    e = config.bs_power_w[0]
    sigma2 = config.noise_power_w
    sigma_p2 = config.pilot_noise_power_w
    length, p_u = config.pilot_length, config.peak_pilot_power_w
    if scheme == "perfect-optimal":
        return asymptotic.sinr_perfect_csi(optimal_lambdas(own), own, e, sigma2)
    if scheme == "perfect-equal":
        return asymptotic.sinr_perfect_csi(own / own.sum(), own, e, sigma2)
    if scheme == "individual-pilot":
        xis = np.ones((n, k))
        return np.array(
            [
                asymptotic.sinr_contaminated(beta, xis, e, p_u, length, sigma_p2, sigma2, 0, u)
                for u in range(k)
            ]
        )
    if scheme == "composite":
        return asymptotic.sinr_composite(own, np.full(k, p_u), e, length, sigma_p2, sigma2)
    if scheme == "composite-power-controlled":
        value = asymptotic.sinr_composite_optimal(own, p_u, e, length, sigma_p2, sigma2)
        assert isinstance(value, float)
        return np.full(k, value)
    powers = np.stack([optimal_pilot_powers(beta[j, j], p_u) for j in range(n)])
    return np.array(
        [
            asymptotic.sinr_async(beta, powers, kappas, e, length, sigma_p2, sigma2, 0, u)
            for u in range(k)
        ]
    )


class TestAsymptoticBatch:
    # At 866 m, the widest disk a 1000 m cell takes, about 7% of the
    # candidates are admissible, so most realizations are still short of
    # users after the batched first round of the user drop and go on drawing
    # alone.
    @pytest.mark.parametrize("exclusion_m", [100.0, 866.0])
    @pytest.mark.parametrize("users", [1, 10])
    @pytest.mark.parametrize("cells", [1, 3, 7])
    def test_rows_are_the_per_trial_realizations(self, cells, users, exclusion_m):
        config = NetworkConfig(
            cells=cells,
            users_per_cell=users,
            radius_m=1000.0,
            exclusion_m=exclusion_m,
            num_large=4,
            master_seed=9,
        )
        beta = large_scale_batch(config)
        assert beta.shape == (4, cells, cells, users)
        for t in range(4):
            assert np.array_equal(beta[t], scalar_large_scale(config, t))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("exclusion_m", 867.0),
            ("exclusion_m", 900.0),
            ("cells", 4),
            ("shadow_sigma_db", -1.0),
            ("num_large", 2.5),
            ("master_seed", -1),
        ],
    )
    def test_invalid_config_names_its_key(self, key, value):
        # the public batch validates: an exclusion disk wider than the
        # hexagon's inscribed circle would draw users without end
        with pytest.raises(ConfigError) as err:
            large_scale_batch(replace(NetworkConfig(num_large=10), **{key: value}))
        assert err.value.key == key

    def test_builds_two_generators_per_realization(self, monkeypatch):
        keys = record_make_rngs(monkeypatch)
        large_scale_batch(NetworkConfig(num_large=5, master_seed=3))
        streams = (engine._POSITIONS_STREAM, engine._SHADOWING_STREAM)
        assert keys == [(3, s, t) for s in streams for t in range(5)]

    def test_prefix_of_a_longer_batch(self):
        config = NetworkConfig(num_large=3)
        longer = large_scale_batch(replace(config, num_large=8))
        assert np.array_equal(large_scale_batch(config), longer[:3])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_batched_sinrs_equal_scalar_closed_forms(self, scheme):
        # the engine's limit is held to the paper's closed forms, which the
        # acceptance criteria test
        config = async_config(num_large=5, master_seed=4)
        beta = large_scale_batch(config)
        offsets = np.reshape(config.async_offsets_s, (config.cells, config.users_per_cell))
        kappas = async_kappas(offsets, config.pilot_symbol_s, config.pilot_length)
        batched = limit_sinrs(config, beta, context(config, scheme, beta))
        assert batched.shape == (5, config.users_per_cell)
        for t in range(5):
            expected = scalar_closed_forms(config, scheme, beta[t], kappas)
            assert np.allclose(batched[t], expected, rtol=1e-12, atol=0)
            single = limit_sinrs(config, beta[t], context(config, scheme, beta[t]))
            assert np.allclose(single, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_context_rows_are_the_per_realization_contexts(self, scheme):
        config = async_config(num_large=4, master_seed=8)
        beta = large_scale_batch(config)
        batched = context(config, scheme, beta)
        for t in range(4):
            row = replace(batched, weights=batched.weights[t])
            single = context(config, scheme, beta[t])
            for field in fields(single):
                got, want = getattr(row, field.name), getattr(single, field.name)
                assert np.asarray(got).dtype == np.asarray(want).dtype, field.name
                assert np.array_equal(got, want), field.name

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_limit_is_the_gram_route_at_the_identity(self, scheme):
        # on vectors X whose Gram matrix X^H X / M is the identity, the
        # amplitudes X^H X u / ||X u|| / sqrt(M) are u, the limit's
        config = async_config(num_large=5, master_seed=4)
        beta = large_scale_batch(config)
        ctx = context(config, scheme, beta)
        u = engine._beam_directions(ctx)
        m = 8
        x = complex_gaussian([np.random.default_rng(5)], u.shape[:-1] + (m, u.shape[-1]))[0]
        q, _ = np.linalg.qr(x)
        xu = np.sqrt(m) * (q @ u[..., None])
        amplitudes = np.sqrt(m) * (q.conj().swapaxes(-1, -2) @ xu)[..., 0]
        amplitudes /= np.linalg.norm(xu[..., 0], axis=-1, keepdims=True) * np.sqrt(m)
        assert np.allclose(
            limit_sinrs(config, beta, ctx),
            sinrs(config, beta, user_gains(amplitudes)),
            rtol=1e-12,
            atol=0,
        )


# One alternative value per NetworkConfig field, valid under every scheme
# (with one offset per user under composite-async); every key and cache test
# reads it through ``vary``.  Each field is either reset by the experiment
# key, and then cannot change a sample, or kept, and then changes the
# fingerprint.
KEY_ALTERNATIVES = {
    "cells": 3,
    "users_per_cell": 2,
    "antennas": 8,
    "radius_m": 800.0,
    "exclusion_m": 600.0,
    "pathloss_intercept_db": 130.0,
    "pathloss_slope": 35.0,
    "shadow_sigma_db": 6.0,
    "penetration_loss_db": 10.0,
    "noise_psd_dbm_hz": -170.0,
    "bandwidth_hz": 10e6,
    "pilot_noise_ratio": 0.2,
    "E_dbw": (20.0,),
    "p_u_dbw": 5.0,
    "pilot_length": 12,
    "scheme": None,  # the next scheme of SCHEMES
    "async_offsets_s": (1e-7,) * 21,
    "pilot_symbol_s": 2e-6,
    "async_power_control": False,
    "antennas_sweep": (10, 20),
    "num_large": 3,
    "num_small": 7,
    "master_seed": 2,
    "output_dir": "elsewhere",
}


def vary(config, name):
    """``config`` with field ``name`` set to its alternative value."""
    value = KEY_ALTERNATIVES[name]
    if name == "scheme":
        value = SCHEMES[(SCHEMES.index(config.scheme) + 1) % len(SCHEMES)]
    varied = replace(config, **{name: value})
    users = varied.cells * varied.users_per_cell
    if varied.scheme == "composite-async" and len(varied.async_offsets_s) != users:
        varied = replace(varied, async_offsets_s=varied.async_offsets_s[:users])
    return varied


# NetworkConfig fields that select another large-scale batch; every other
# field shares the cached one.
GEOMETRY_FIELDS = (
    "cells",
    "users_per_cell",
    "radius_m",
    "exclusion_m",
    "pathloss_intercept_db",
    "pathloss_slope",
    "shadow_sigma_db",
    "penetration_loss_db",
    "num_large",
    "master_seed",
)


class TestSharedBatch:
    def test_batch_is_read_only(self):
        beta = large_scale_batch(NetworkConfig(num_large=2))
        with pytest.raises(ValueError):
            beta[0, 0, 0, 0] = 1.0

    def test_key_is_exactly_the_geometry(self):
        names = [f.name for f in fields(NetworkConfig)]
        assert sorted(names) == sorted(KEY_ALTERNATIVES)
        assert set(GEOMETRY_FIELDS) <= set(names)
        base = NetworkConfig(num_large=2)
        for name in names:
            varied = vary(base, name)
            assert getattr(base, name) != getattr(varied, name), name
            first = large_scale_batch(base)
            other = large_scale_batch(varied)
            if name in GEOMETRY_FIELDS:
                assert other is not first, name
                assert other.shape != first.shape or not np.array_equal(other, first), name
            else:
                assert other is first, name

    @pytest.mark.parametrize("antennas", [None, 16])
    def test_reports_equal_with_cold_and_warm_cache(self, antennas):
        config = async_config(antennas=antennas, num_large=4, num_small=3, master_seed=3)
        for scheme in SCHEMES:
            engine._cached_batch.cache_clear()
            cold = run_experiment(config, scheme=scheme)
            for other in SCHEMES:
                run_experiment(config, scheme=other)
            warm = run_experiment(config, scheme=scheme)
            assert engine._cached_batch.cache_info().hits == len(SCHEMES) + 1
            assert np.array_equal(cold.samples_db, warm.samples_db)
            assert cold.fingerprint == warm.fingerprint

    def test_scheme_sweep_draws_each_realization_once(self, monkeypatch):
        keys = record_make_rngs(monkeypatch)
        config = async_config(antennas=16, num_large=5, num_small=2, master_seed=7)
        for scheme in SCHEMES:
            run_experiment(config, scheme=scheme)
        large = [key for key in keys if key[1] != engine._FADING_STREAM]
        streams = (engine._POSITIONS_STREAM, engine._SHADOWING_STREAM)
        assert large == [(7, s, t) for s in streams for t in range(5)]

    @pytest.mark.parametrize("per_block", [1, 2])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_block_edges_change_no_sample(self, monkeypatch, scheme, per_block):
        # the default block holds all 5 realizations; per_block = 2 leaves a
        # short last block
        config = async_config(antennas=16, num_large=5, num_small=3, master_seed=2)
        whole = run_experiment(config, scheme=scheme)
        per_realization = 3 * config.cells * (config.users_per_cell + 1)
        assert engine._BLOCK_AMPLITUDES >= 5 * per_realization
        monkeypatch.setattr(engine, "_BLOCK_AMPLITUDES", per_block * per_realization)
        blocked = run_experiment(config, scheme=scheme)
        assert np.array_equal(whole.samples_db, blocked.samples_db)
        assert whole.fingerprint == blocked.fingerprint


# NetworkConfig fields that select another block of raw finite-M draws.
DRAW_FIELDS = ("antennas", "cells", "users_per_cell", "num_small", "master_seed")


def two_realization_blocks(monkeypatch, config):
    """Shrink the finite-M block to two realizations of ``config``."""
    per_realization = config.num_small * config.cells * (config.users_per_cell + 1)
    monkeypatch.setattr(engine, "_BLOCK_AMPLITUDES", 2 * per_realization)


class TestSharedDraws:
    def test_draws_are_read_only(self):
        g, z = engine._draw_block(NetworkConfig(antennas=4, num_small=2), 0, 2)
        with pytest.raises(ValueError):
            g[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            z[0, 0, 0, 0] = 1.0

    def test_fast_fading_is_drawn_through_the_hooked_name(self, monkeypatch):
        # perfbench's tracer counts the finite-M normals by wrapping
        # channel.complex_gaussian and engine's binding of it
        assert engine.complex_gaussian is channel.complex_gaussian
        calls = []
        original = channel.complex_gaussian

        def counting(rngs, shape, variance=1.0):
            calls.append(len(rngs))
            return original(rngs, shape, variance)

        monkeypatch.setattr(channel, "complex_gaussian", counting)
        run_experiment(NetworkConfig(antennas=8, num_large=3, num_small=2))
        assert calls == [3]

    def test_key_is_exactly_the_draw_fields(self):
        names = [f.name for f in fields(NetworkConfig)]
        assert sorted(names) == sorted(KEY_ALTERNATIVES)
        base = NetworkConfig(antennas=16, num_small=2)
        for name in names:
            varied = vary(base, name)
            assert getattr(base, name) != getattr(varied, name), name
            first = engine._draw_block(base, 0, 2)
            other = engine._draw_block(varied, 0, 2)
            if name in DRAW_FIELDS:
                assert other is not first, name
                assert not all(
                    a.shape == b.shape and np.array_equal(a, b) for a, b in zip(other, first)
                ), name
            else:
                assert other is first, name
        head = engine._draw_block(base, 0, 1)
        assert head is not engine._draw_block(base, 0, 2)
        for part, whole in zip(head, engine._draw_block(base, 0, 2)):
            assert np.array_equal(part, whole[:1])

    @pytest.mark.parametrize("split", [False, True])
    def test_reports_equal_with_cold_and_warm_draws(self, monkeypatch, split):
        # split: blocks of two realizations leave a one-realization last block
        config = async_config(antennas=16, num_large=5, num_small=3, master_seed=3)
        if split:
            two_realization_blocks(monkeypatch, config)
        blocks = 3 if split else 1
        for scheme in SCHEMES:
            engine._cached_draws.cache_clear()
            cold = run_experiment(config, scheme=scheme)
            for other in SCHEMES:
                run_experiment(config, scheme=other)
            warm = run_experiment(config, scheme=scheme)
            info = engine._cached_draws.cache_info()
            assert (info.misses, info.hits) == (blocks, (len(SCHEMES) + 1) * blocks)
            assert np.array_equal(cold.samples_db, warm.samples_db)
            assert cold.fingerprint == warm.fingerprint

    def test_scheme_sweep_builds_each_fading_generator_once(self, monkeypatch):
        keys = record_make_rngs(monkeypatch)
        config = async_config(antennas=16, num_large=5, num_small=2, master_seed=7)
        two_realization_blocks(monkeypatch, config)
        for scheme in SCHEMES:
            run_experiment(config, scheme=scheme)
        fading = [key for key in keys if key[1] == engine._FADING_STREAM]
        assert fading == [(7, engine._FADING_STREAM, t) for t in range(5)]

    @pytest.mark.parametrize("num_large, hits", [(20, 4), (21, 0)])
    def test_keeps_the_last_blocks_of_any_experiment(self, monkeypatch, num_large, hits):
        # 2800 amplitudes per realization: five per block, so 20 realizations
        # fill the kept blocks and 21 need one more, which evicts each block
        # before the second scheme reaches it
        config = NetworkConfig(antennas=16, num_large=num_large, num_small=100)
        schemes = ("composite", "perfect-equal")
        cold = {}
        for scheme in schemes:
            engine._cached_draws.cache_clear()
            cold[scheme] = run_experiment(config, scheme=scheme)
        engine._cached_draws.cache_clear()
        sizes = []
        original = engine._draw_block

        def recording(config, lo, hi):
            g, z = original(config, lo, hi)
            sizes.append(z.size)
            return g, z

        monkeypatch.setattr(engine, "_draw_block", recording)
        for scheme in schemes:
            report = run_experiment(config, scheme=scheme)
            assert np.array_equal(report.samples_db, cold[scheme].samples_db)
            assert report.fingerprint == cold[scheme].fingerprint
        assert max(sizes) <= engine._BLOCK_AMPLITUDES
        info = engine._cached_draws.cache_info()
        assert info.maxsize == engine._DRAW_CACHE_SIZE
        assert (info.currsize, info.hits) == (engine._DRAW_CACHE_SIZE, hits)

    def test_oversized_realization_is_not_kept(self, monkeypatch):
        config = async_config(antennas=16, num_large=3, num_small=3, master_seed=3)
        reference = {s: run_experiment(config, scheme=s) for s in ("composite", "composite-async")}
        engine._cached_draws.cache_clear()
        # 84 amplitudes per realization: each realization is a block too large to keep
        monkeypatch.setattr(engine, "_BLOCK_AMPLITUDES", 50)
        for scheme, expected in reference.items():
            report = run_experiment(config, scheme=scheme)
            assert np.array_equal(report.samples_db, expected.samples_db)
            assert report.fingerprint == expected.fingerprint
        info = engine._cached_draws.cache_info()
        assert (info.currsize, info.misses, info.hits) == (0, 0, 0)


def record_contexts(monkeypatch):
    """Record the config of every trial context the engine builds."""
    built = []
    original = engine._build_trial_context

    def recording(config, beta):
        built.append(config)
        return original(config, beta)

    monkeypatch.setattr(engine, "_build_trial_context", recording)
    return built


class TestRunExperiments:
    def test_reports_equal_solo_runs_in_input_order(self, monkeypatch):
        finite = async_config(antennas=16, num_large=5, num_small=2, master_seed=3)
        # three finite-M blocks of at most two realizations, two limit blocks
        two_realization_blocks(monkeypatch, finite)
        asym = replace(finite, antennas=None, num_large=6)
        configs = [
            replace(base, scheme=scheme, E_dbw=(e,))
            for scheme in SCHEMES
            for base in (asym, finite)
            for e in (0.0, 20.0, 40.0)
        ]
        order = np.random.default_rng(0).permutation(len(configs))
        configs = [configs[i] for i in order] + [configs[order[0]], configs[order[5]]]
        built = record_contexts(monkeypatch)
        reports = engine.run_experiments(configs)
        assert len(built) == 2 * len(SCHEMES)
        assert len(reports) == len(configs)
        for config, report in zip(configs, reports):
            solo = run_experiment(config)
            assert report.samples_db.tobytes() == solo.samples_db.tobytes()
            assert report.cdf.tobytes() == solo.cdf.tobytes()
            assert report.fingerprint == solo.fingerprint
            assert report.mean_min_sinr_db == solo.mean_min_sinr_db

    def test_mixed_zero_signs_in_a_group_keep_the_solo_fingerprints(self):
        # -0.0 == 0.0, so these configs form one power group, whose key is
        # written from the first config
        configs = [
            NetworkConfig(num_large=2, pathloss_slope=-0.0),
            NetworkConfig(num_large=2, pathloss_slope=0.0, E_dbw=(20.0,)),
        ]
        grouped = engine.run_experiments(configs)
        for config, report in zip(configs, grouped):
            solo = run_experiment(config)
            assert report.samples_db.tobytes() == solo.samples_db.tobytes()
            assert report.fingerprint == solo.fingerprint

    def test_power_axis_keeps_the_solo_arithmetic(self):
        # each power's SINRs, bit for bit, as one scalar power computes them
        config = NetworkConfig(num_large=5, scheme="composite")
        beta = large_scale_batch(config)
        ctx = engine._build_trial_context(config, beta)
        gains = user_gains(engine._beam_directions(ctx)[:, None])
        eval_amp = np.sqrt(beta[..., :, 0, :])[:, None]
        powers = np.array([0.3, 10.0, 1e3])
        sigma2 = config.noise_power_w
        got = sinr_from_gains(gains, eval_amp, powers.reshape(-1, 1, 1, 1, 1), sigma2)
        for row, power in zip(got, powers):
            received = power * eval_amp**2 * gains
            signal = received[..., 0, :]
            expected = signal / (received.sum(axis=-2) - signal + sigma2)
            assert row.tobytes() == expected.tobytes()

    def test_validates_each_config_once(self, monkeypatch):
        # a power group builds its batch through the cache, not through the
        # public large_scale_batch, which would validate its config again
        validated = []
        original = engine.validate_config

        def recording(config):
            validated.append(config)
            return original(config)

        monkeypatch.setattr(engine, "validate_config", recording)
        configs = [NetworkConfig(num_large=2, E_dbw=(e,)) for e in (0.0, 10.0)]
        engine.run_experiments(configs + [replace(configs[0], antennas=4, num_small=2)])
        assert validated == configs + [replace(configs[0], antennas=4, num_small=2)]

    def test_invalid_last_config_raises_before_any_context(self, monkeypatch):
        built = record_contexts(monkeypatch)
        base = NetworkConfig(num_large=2)
        configs = [replace(base, E_dbw=(e,)) for e in (0.0, 10.0)]
        with pytest.raises(ConfigError) as err:
            engine.run_experiments(configs + [replace(base, num_large=0)])
        assert err.value.key == "num_large"
        assert built == []


# Fingerprints of every scheme at one asymptotic and one finite-M config.
# Any change to the fingerprint, declared in CHANGES.md, re-pins them.
PINNED_FINGERPRINTS = {
    (None, "perfect-optimal"): "75976e2e1e0678e3",
    (None, "perfect-equal"): "86c448d5f009a3ad",
    (None, "individual-pilot"): "1f77688261125223",
    (None, "composite"): "465f6e1aa0250e0d",
    (None, "composite-power-controlled"): "0f657c1b218b857c",
    (None, "composite-async"): "76efd022cabfb851",
    (16, "perfect-optimal"): "ddda73fc5dedf36b",
    (16, "perfect-equal"): "ef386d9c13901504",
    (16, "individual-pilot"): "04964bb9e485fe21",
    (16, "composite"): "5358b5d171056da1",
    (16, "composite-power-controlled"): "c4a2493cba096c90",
    (16, "composite-async"): "9f67b5ade2799070",
}


class TestExperimentKey:
    def test_unread_keys_and_float_spellings_share_a_fingerprint(self, monkeypatch):
        # each config runs the same experiment: it sets a key that the
        # experiment cannot read, or a float key to an equal value of
        # another type or sign
        base = NetworkConfig(num_large=2, E_dbw=(0.0,), penetration_loss_db=0.0)
        configs = [
            base,
            replace(base, output_dir="elsewhere"),
            replace(base, antennas_sweep=(10,)),
            replace(base, p_u_dbw=5.0),
            replace(base, pilot_length=4),
            replace(base, radius_m=1000),
            replace(base, radius_m=np.float64(1000.0)),
            replace(base, E_dbw=(0,)),
            replace(base, E_dbw=(-0.0,)),
            replace(base, penetration_loss_db=-0.0),
        ]
        solo = [run_experiment(config) for config in configs]
        for report in solo:
            assert report.samples_db.tobytes() == solo[0].samples_db.tobytes()
        assert {report.fingerprint for report in solo} == {solo[0].fingerprint}
        # and form one power group
        built = record_contexts(monkeypatch)
        grouped = engine.run_experiments(configs)
        assert len(built) == 1
        assert [r.fingerprint for r in grouped] == [r.fingerprint for r in solo]

    @pytest.mark.parametrize("antennas", [None, 16])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_reset_keys_are_unread_and_kept_keys_are_hashed(self, scheme, antennas):
        assert set(KEY_ALTERNATIVES) == {f.name for f in fields(NetworkConfig)}
        base = async_config(
            antennas=antennas, num_large=2, num_small=2, scheme=scheme, master_seed=4
        )
        key = engine._experiment_key(base)
        expected = run_experiment(base)
        for name in KEY_ALTERNATIVES:
            varied = vary(base, name)
            assert getattr(varied, name) != getattr(base, name), name
            report = run_experiment(varied)
            if engine._experiment_key(varied) == key:
                assert report.samples_db.tobytes() == expected.samples_db.tobytes(), name
                assert report.fingerprint == expected.fingerprint, name
            else:
                assert report.fingerprint != expected.fingerprint, name

    def test_negative_zero_shadowing_runs_as_zero(self):
        # each run starts from cold caches, so neither reuses the other's batch
        negative = run_experiment(NetworkConfig(num_large=2, shadow_sigma_db=-0.0))
        engine._cached_batch.cache_clear()
        positive = run_experiment(NetworkConfig(num_large=2, shadow_sigma_db=0.0))
        assert negative.samples_db.tobytes() == positive.samples_db.tobytes()
        assert negative.fingerprint == positive.fingerprint

    def test_fingerprints_are_pinned(self):
        configs = [
            async_config(antennas=antennas, num_large=3, num_small=2, scheme=scheme)
            for antennas, scheme in PINNED_FINGERPRINTS
        ]
        reports = engine.run_experiments(configs)
        got = {(c.antennas, c.scheme): r.fingerprint for c, r in zip(configs, reports)}
        assert got == PINNED_FINGERPRINTS


class TestNonFiniteSinr:
    def test_asymptotic_mode_names_realization_and_seed(self, monkeypatch):
        original = engine.sinr_from_gains

        def nan_in_row_2(gains, eval_amp, bs_power_w, sigma2):
            out = original(gains, eval_amp, bs_power_w, sigma2)
            out[0, 2, 0, 1] = np.nan  # the group's one power, realization 2
            return out

        monkeypatch.setattr(engine, "sinr_from_gains", nan_in_row_2)
        config = NetworkConfig(num_large=4, master_seed=5)
        match = r"realization 2 \(master seed 5\)"
        with pytest.raises(ArithmeticError, match=match) as err:
            run_experiment(config, scheme="composite")
        assert "draw" not in str(err.value)

    def test_finite_mode_names_realization_seed_and_draw(self, monkeypatch):
        # one block holds every realization; realization 1's draw 1 comes
        # before realization 2's draw 0 in realization order
        config = NetworkConfig(antennas=8, cells=3, num_large=3, num_small=2, master_seed=6)
        original = engine.sinr_from_gains
        calls = []

        def nan_in_draw_1_of_realization_1(gains, eval_amp, bs_power_w, sigma2):
            out = original(gains, eval_amp, bs_power_w, sigma2)
            calls.append(gains)
            out[0, 1, 1, 0] = np.nan
            out[0, 2, 0, 1] = np.nan
            return out

        monkeypatch.setattr(engine, "sinr_from_gains", nan_in_draw_1_of_realization_1)
        with pytest.raises(
            ArithmeticError,
            match=r"realization 1 \(master seed 6, draw 1\)",
        ):
            run_experiment(config, scheme="composite")
        assert len(calls) == 1
        assert calls[0].shape == (3, 2, 3, 3)

    def test_names_the_one_power_of_a_group_that_fails(self, monkeypatch):
        original = engine.sinr_from_gains

        def nan_at_power_1(gains, eval_amp, bs_power_w, sigma2):
            out = original(gains, eval_amp, bs_power_w, sigma2)
            out[1, 2, 0, 1] = np.nan
            return out

        monkeypatch.setattr(engine, "sinr_from_gains", nan_at_power_1)
        config = NetworkConfig(num_large=4, master_seed=5, scheme="composite")
        with pytest.raises(
            ArithmeticError, match=r"at E_dbw = 20 in realization 2 \(master seed 5\)"
        ):
            engine.run_experiments([replace(config, E_dbw=(e,)) for e in (0.0, 20.0, 40.0)])


    @pytest.mark.filterwarnings("error")
    def test_zero_sinr_names_power_and_realization(self):
        # at -4000 dBW the BS power is exactly 0 W, so every SINR is zero
        config = NetworkConfig(num_large=3, E_dbw=(-4000.0,))
        assert config.bs_power_w == (0.0,)
        with pytest.raises(
            ArithmeticError,
            match=r"zero mean min-SINR at E_dbw = -4000 in realization 0 \(master seed 1\)",
        ):
            run_experiment(config)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_mean_names_power_and_realization(self):
        # every SINR is finite, but 50 draws near 1e307 sum past the float range
        config = NetworkConfig(
            cells=1,
            antennas=16,
            num_large=2,
            num_small=50,
            noise_psd_dbm_hz=-3150.0,
            E_dbw=(100.0,),
        )
        with pytest.raises(
            ArithmeticError,
            match=r"overflowing mean min-SINR at E_dbw = 100 in realization 0 \(master seed 1\)",
        ):
            run_experiment(config)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scheme", ["perfect-optimal", "composite-power-controlled", "composite-async"]
    )
    @pytest.mark.parametrize(
        "overrides",
        [
            {"noise_psd_dbm_hz": -4000.0},
            {"pathloss_intercept_db": 4000.0},
            {"penetration_loss_db": -4000.0},
        ],
    )
    def test_zero_noise_or_gain_raises_no_warning_first(self, overrides, scheme):
        # a zero noise power or zero gains divide by zero on the way to the
        # SINRs, infinite gains overflow, and the pilot power-control rule
        # and the perfect-CSI optimal beam divide by each own-cell gain; the
        # documented error comes without a RuntimeWarning
        # zero offsets: the asynchronous pilots arrive in sync
        synchronous = NetworkConfig(
            num_large=3, async_offsets_s=(0.0,) * 21, pilot_symbol_s=1e-6
        )
        if "pathloss_intercept_db" in overrides:
            what = "zero own-cell gain"
        else:
            what = "non-finite SINR"
        with pytest.raises(
            ArithmeticError, match=rf"{what} at E_dbw = 10 in realization 0 \(master seed 1\)"
        ):
            run_experiment(replace(synchronous, **overrides), scheme=scheme)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("antennas", [None, 16])
    @pytest.mark.parametrize(
        "scheme, overrides",
        [(scheme, {}) for scheme in SCHEMES]
        + [("composite-async", {"async_power_control": False})],
    )
    def test_vanishing_gains_name_the_zero_own_cell_gain(self, scheme, overrides, antennas):
        # at this radius the path loss drives every gain to 0; a scheme that
        # does not divide by the own-cell gains reached a non-finite or zero
        # SINR first, which blamed the BS power
        config = async_config(
            radius_m=1e200, antennas=antennas, num_large=2, num_small=2, **overrides
        )
        with pytest.raises(
            ArithmeticError,
            match=r"zero own-cell gain at E_dbw = 10 in realization 0 \(master seed 1\)",
        ):
            run_experiment(config, scheme=scheme)

    @pytest.mark.parametrize("antennas", [None, 16])
    def test_zero_own_cell_gain_is_named_in_its_realization(self, monkeypatch, antennas):
        # only realization 2's gains vanish, so realization 2 is the one that
        # fails (perfect-equal divides by no own-cell gain)
        config = NetworkConfig(antennas=antennas, num_large=4, num_small=2, master_seed=5)
        beta = large_scale_batch(config).copy()
        beta[2] = 0.0
        monkeypatch.setattr(engine, "_batch", lambda _config: beta)
        with pytest.raises(
            ArithmeticError, match=r"zero own-cell gain at E_dbw = 10 in realization 2 \("
        ):
            run_experiment(config, scheme="perfect-equal")

    @pytest.mark.parametrize("antennas", [None, 16])
    @pytest.mark.parametrize(
        "scheme", ["perfect-optimal", "perfect-equal", "composite", "composite-power-controlled"]
    )
    def test_infinite_gain_that_no_beam_combines_changes_nothing(
        self, monkeypatch, scheme, antennas
    ):
        # BS 1's gain to user 0 of cell 2 overflowed to infinity.  These
        # schemes' BS 1 combines only cell 1's users, and cell 0's users do
        # not receive over that link, so every sample stays as it was
        config = NetworkConfig(
            antennas=antennas, num_large=3, num_small=2, master_seed=5, scheme=scheme
        )
        expected = run_experiment(config)
        beta = large_scale_batch(config).copy()
        beta[:, 1, 2, 0] = np.inf
        monkeypatch.setattr(engine, "_batch", lambda _config: beta)
        assert run_experiment(config).samples_db.tobytes() == expected.samples_db.tobytes()


class TestConvergenceProperties:
    def test_gap_to_asymptote_shrinks_with_antennas(self):
        base = dict(cells=3, users_per_cell=2, E_dbw=(10.0,))
        asym = run_experiment(
            NetworkConfig(antennas=None, num_large=60, **base), scheme="perfect-optimal"
        )
        gaps = []
        for m in (50, 100, 300, 500):
            report = run_experiment(
                NetworkConfig(antennas=m, num_large=60, num_small=40, **base),
                scheme="perfect-optimal",
            )
            gaps.append(asym.mean_min_sinr_db - report.mean_min_sinr_db)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_gap_to_asymptote_falls_as_one_over_sqrt_m(self):
        # the mean paired gap in dB falls as 1/sqrt(M) to first order, so a
        # hundredfold M divides it by about ten; the band, fixed before the
        # first run, leaves room for the O(1/M) term
        base = NetworkConfig(
            scheme="composite-power-controlled", num_large=200, num_small=100, master_seed=1
        )
        asym, *finite = engine.run_experiments(
            [replace(base, antennas=m) for m in (None, 10**4, 10**6)]
        )
        gaps = [np.mean(asym.samples_db - report.samples_db) for report in finite]
        assert 0.07 <= gaps[1] / gaps[0] <= 0.15

    def test_intercell_interference_vanishes_with_antennas(self):
        centers = build_hex_layout(3, 1000.0)
        config = NetworkConfig()
        medians = []
        for m in (100, 400, 1600):
            ratios = []
            for trial in range(30):
                drop, shadowing, fading = (
                    np.random.default_rng(seed + trial) for seed in (1000, 2000, 3000)
                )
                users = drop_users(centers, 1000.0, 2, 100.0, [drop])[0]
                beta = large_scale_tensor(centers, users, config, shadowing)
                h = complex_gaussian([fading], beta.shape + (m,))[0]
                cs = ChannelState(beta=beta, h=h)
                beams = [
                    optimal_beamformer_perfect(
                        np.stack([cs.vector(j, j, k) for k in range(2)]), cs.beta[j, j]
                    )
                    for j in range(3)
                ]
                desired = abs(np.vdot(cs.vector(0, 0, 0), beams[0])) ** 2
                interference = sum(
                    abs(np.vdot(cs.vector(j, 0, 0), beams[j])) ** 2 for j in (1, 2)
                )
                ratios.append(interference / desired)
            medians.append(np.median(ratios))
        assert medians[0] > medians[1] > medians[2]

    def test_composite_beats_individual_at_high_power(self):
        base = dict(antennas=64, E_dbw=(40.0,), num_large=200, num_small=2)
        comp = run_experiment(NetworkConfig(**base), scheme="composite")
        indiv = run_experiment(NetworkConfig(**base), scheme="individual-pilot")
        assert np.median(comp.samples_db) > np.median(indiv.samples_db)
