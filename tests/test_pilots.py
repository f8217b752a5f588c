import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from multicast_mimo.channel import complex_gaussian
from multicast_mimo.pilots import async_kappas, make_orthogonal_pilots, optimal_pilot_powers
from oracles import maxmin_pilot_powers_oracle
from reference_route import (
    AsyncProfile,
    ChannelState,
    PilotBook,
    beamformer_from_estimate,
    estimate_composite,
    estimate_individual,
    make_pilot_book,
    offset_and_shift,
    optimal_beamformer_perfect,
    polluted_pilot,
    pulse_correlation,
    uplink_rx,
)


def random_channels(rng, n, k, m, beta_scale=1.0):
    beta = beta_scale * rng.lognormal(0.0, 1.0, (n, n, k))
    h = complex_gaussian([rng], (n, n, k, m))[0]
    return ChannelState(beta=beta, h=h)


class TestOrthogonalPilots:
    def test_square_gram_is_identity(self):
        seq = make_orthogonal_pilots(8, 8)
        gram = seq @ seq.conj().T
        assert np.max(np.abs(gram - np.eye(8))) < 1e-12

    def test_seven_of_eight_valid(self):
        seq = make_orthogonal_pilots(7, 8)
        gram = seq @ seq.conj().T
        assert np.max(np.abs(gram - np.eye(7))) < 1e-12

    def test_too_many_sequences_rejected(self):
        with pytest.raises(ValueError):
            make_orthogonal_pilots(9, 8)

    def test_gram_identity_for_many_shapes(self):
        for r, length in [(1, 1), (2, 5), (5, 5), (3, 16), (7, 8), (4, 9)]:
            seq = make_orthogonal_pilots(r, length)
            assert np.max(np.abs(seq @ seq.conj().T - np.eye(r))) < 1e-12


class TestPilotBook:
    def test_validates_orthonormality(self):
        bad = np.ones((2, 4), dtype=complex)
        with pytest.raises(ValueError):
            PilotBook(sequences=bad, assignment="per-cell", powers=np.ones((2, 1)), peak_power=1.0)

    def test_validates_power_bounds(self):
        seq = make_orthogonal_pilots(2, 4)
        with pytest.raises(ValueError):
            PilotBook(sequences=seq, assignment="per-cell", powers=np.full((2, 1), 2.0), peak_power=1.0)
        with pytest.raises(ValueError):
            PilotBook(sequences=seq, assignment="per-cell", powers=np.zeros((2, 1)), peak_power=1.0)

    def test_validates_sequence_count_per_mode(self):
        seq = make_orthogonal_pilots(2, 8)
        with pytest.raises(ValueError):
            PilotBook(sequences=seq, assignment="per-user", powers=np.ones((2, 3)), peak_power=1.0)
        with pytest.raises(ValueError):
            PilotBook(sequences=seq, assignment="per-cell", powers=np.ones((3, 2)), peak_power=1.0)


class TestUplinkRx:
    def test_noiseless_single_user_is_scaled_outer_product(self):
        rng = np.random.default_rng(0)
        cs = random_channels(rng, 1, 1, 16)
        book = make_pilot_book("per-cell", 1, 1, 4, peak_power=2.0)
        y = uplink_rx(cs, book, 0, 0.0, 1)
        g = cs.vector(0, 0, 0)
        expect = np.sqrt(2.0 * 4) * np.outer(g, book.sequences[0])
        assert np.allclose(y, expect)

    def test_unassigned_row_correlates_to_nothing(self):
        rng = np.random.default_rng(1)
        cs = random_channels(rng, 3, 2, 8)
        book = make_pilot_book("per-cell", 3, 2, 8, peak_power=1.0)
        y = uplink_rx(cs, book, 0, 0.0, 2)
        unused = make_orthogonal_pilots(8, 8)[5]  # row index past all cells
        assert np.max(np.abs(y @ unused.conj())) < 1e-10 * np.max(np.abs(y))

    def test_received_energy_budget(self):
        rng = np.random.default_rng(2)
        n, k, m, length = 3, 2, 64, 8
        sigma_p2 = 0.3
        book = make_pilot_book(
            "per-cell", n, k, length, peak_power=1.0, powers=rng.uniform(0.2, 1.0, (n, k))
        )
        total, expected = 0.0, 0.0
        for trial in range(1000):
            cs = random_channels(rng, n, k, m)
            y = uplink_rx(cs, book, 0, sigma_p2, trial)
            total += np.sum(np.abs(y) ** 2)
            expected += (
                length * m * np.sum(book.powers * cs.beta[0]) + m * length * sigma_p2
            )
        assert total == pytest.approx(expected, rel=0.02)


class TestEstimators:
    def test_individual_single_cell_noiseless_exact(self):
        rng = np.random.default_rng(3)
        cs = random_channels(rng, 1, 3, 16)
        book = make_pilot_book("per-user", 1, 3, 4, peak_power=1.5)
        y = uplink_rx(cs, book, 0, 0.0, 4)
        est = estimate_individual(y, book, 1)
        assert np.allclose(est, np.sqrt(1.5 * 4) * cs.vector(0, 0, 1))

    def test_individual_contamination_witnessed(self):
        rng = np.random.default_rng(4)
        cs = random_channels(rng, 3, 2, 16)
        book = make_pilot_book("per-user", 3, 2, 4, peak_power=1.0)
        y = uplink_rx(cs, book, 0, 0.0, 5)
        est = estimate_individual(y, book, 0)
        scale = np.sqrt(1.0 * 4)
        residual = est - scale * cs.vector(0, 0, 0)
        foreign = scale * (cs.vector(0, 1, 0) + cs.vector(0, 2, 0))
        assert np.allclose(residual, foreign, rtol=1e-10, atol=1e-12)

    def test_individual_orthogonal_to_other_pilot_channels(self):
        rng = np.random.default_rng(5)
        cs = random_channels(rng, 1, 3, 4096)
        book = make_pilot_book("per-user", 1, 3, 4, peak_power=1.0)
        y = uplink_rx(cs, book, 0, 0.0, 6)
        est = estimate_individual(y, book, 0)
        other = cs.vector(0, 0, 2)
        cross = abs(np.vdot(other, est)) / (np.linalg.norm(other) * np.linalg.norm(est))
        assert cross < 0.05  # no pilot component, only fading cross-talk

    def test_individual_requires_per_user_book_and_known_index(self):
        rng = np.random.default_rng(6)
        cs = random_channels(rng, 2, 2, 8)
        cell_book = make_pilot_book("per-cell", 2, 2, 4, peak_power=1.0)
        user_book = make_pilot_book("per-user", 2, 2, 4, peak_power=1.0)
        y = uplink_rx(cs, user_book, 0, 0.0, 7)
        with pytest.raises(ValueError):
            estimate_individual(y, cell_book, 0)
        with pytest.raises(ValueError):
            estimate_individual(y, user_book, 5)

    def test_composite_noiseless_has_zero_cross_cell_leakage(self):
        rng = np.random.default_rng(7)
        cs = random_channels(rng, 3, 2, 32)
        powers = rng.uniform(0.1, 1.0, (3, 2))
        book = make_pilot_book("per-cell", 3, 2, 8, peak_power=1.0, powers=powers)
        y = uplink_rx(cs, book, 0, 0.0, 8)
        est = estimate_composite(y, book, 0)
        own = sum(
            np.sqrt(powers[0, k] * 8) * cs.vector(0, 0, k) for k in range(2)
        )
        assert np.linalg.norm(est - own) <= 1e-10 * np.linalg.norm(own)

    def test_composite_single_user(self):
        rng = np.random.default_rng(8)
        cs = random_channels(rng, 1, 1, 16)
        book = make_pilot_book("per-cell", 1, 1, 4, peak_power=0.7)
        y = uplink_rx(cs, book, 0, 0.0, 9)
        est = estimate_composite(y, book, 0)
        assert np.allclose(est, np.sqrt(0.7 * 4) * cs.vector(0, 0, 0))

    def test_composite_with_optimal_powers_aligns_with_perfect_beam(self):
        # optimal pilot powers turn the noiseless composite estimate into the
        # inverse-gain combination, i.e. the perfect-CSI optimal direction
        rng = np.random.default_rng(9)
        m = 4096
        cs = random_channels(rng, 2, 3, m)
        own = np.array([cs.beta[0, 0, k] for k in range(3)])
        powers = np.stack([optimal_pilot_powers(cs.beta[j, j], 1.0) for j in range(2)])
        book = make_pilot_book("per-cell", 2, 3, 8, peak_power=1.0, powers=powers)
        y = uplink_rx(cs, book, 0, 0.0, 10)
        est_beam = beamformer_from_estimate(estimate_composite(y, book, 0))
        g_own = np.stack([cs.vector(0, 0, k) for k in range(3)])
        ideal = optimal_beamformer_perfect(g_own, own)
        cosine = abs(np.vdot(ideal, est_beam))
        assert cosine > 0.99


class TestPilotPowerControl:
    def test_symmetric_gains_all_peak(self):
        assert np.allclose(optimal_pilot_powers([3.0, 3.0, 3.0], 2.0), [2.0, 2.0, 2.0])

    def test_two_user_closed_form(self):
        assert np.allclose(optimal_pilot_powers([1.0, 4.0], 1.0), [1.0, 1 / 16], rtol=1e-14)

    def test_single_user_gets_peak(self):
        assert np.allclose(optimal_pilot_powers([0.3], 1.7), [1.7])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            optimal_pilot_powers([1.0, -1.0], 1.0)
        with pytest.raises(ValueError):
            optimal_pilot_powers([1.0], 0.0)

    def test_weakest_user_at_peak_and_kernels_equal(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            betas = rng.lognormal(0, 1.0, rng.integers(1, 5))
            p = optimal_pilot_powers(betas, 2.5)
            assert p[np.argmin(betas)] == 2.5
            assert np.all((p > 0) & (p <= 2.5 + 1e-15))
            kernels = betas**2 * p
            assert kernels.max() - kernels.min() <= 1e-12 * kernels.max()

    @settings(max_examples=100, deadline=None)
    @given(
        log_betas=hnp.arrays(
            float,
            hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
            elements=st.floats(-16.0, -4.0),
        ),
        peak=st.floats(1e-3, 1e3),
    )
    def test_equalises_each_cell_with_batch_axes(self, log_betas, peak):
        # last axis: the users of one cell; leading axes: cells, realizations
        betas = 10.0**log_betas
        p = optimal_pilot_powers(betas, peak)
        assert p.shape == betas.shape
        kernels = betas**2 * p
        spread = kernels.max(axis=-1) - kernels.min(axis=-1)
        assert np.all(spread <= 1e-12 * kernels.max(axis=-1))
        weakest = np.argmin(betas, axis=-1)[..., None]
        assert np.all(np.take_along_axis(p, weakest, axis=-1) == peak)
        assert np.all((p > 0) & (p <= peak))

    def test_oracle_agrees_with_closed_form(self):
        betas = np.array([1.0, 4.0])
        p = maxmin_pilot_powers_oracle(betas, 1.0, sigma_p2=0.1, omega=8, grid_step=1e-3)
        assert np.allclose(p, [1.0, 1 / 16], rtol=1e-12)  # injected candidate wins

    def test_oracle_symmetric_case(self):
        p = maxmin_pilot_powers_oracle(
            np.array([2.0, 2.0, 2.0]), 1.5, sigma_p2=0.2, omega=8, grid_step=0.01
        )
        assert np.allclose(p, 1.5)

    def test_oracle_objective_cross_check(self):
        rng = np.random.default_rng(11)

        def objective(betas, p, sigma_p2, omega):
            return np.min(betas**2 * p) / (betas @ p + sigma_p2 / omega)

        for _ in range(20):
            betas = rng.uniform(0.3, 3.0, 3)
            closed = optimal_pilot_powers(betas, 1.0)
            oracle = maxmin_pilot_powers_oracle(betas, 1.0, 0.05, 8, grid_step=0.005)
            f_closed = objective(betas, closed, 0.05, 8)
            f_oracle = objective(betas, oracle, 0.05, 8)
            assert f_oracle <= f_closed * (1 + 1e-9)
            assert f_closed >= f_oracle * (1 - 1e-3)

    def test_oracle_capability_limits(self):
        with pytest.raises(ValueError):
            maxmin_pilot_powers_oracle(np.ones(5), 1.0, 0.1, 8, 0.01)
        with pytest.raises(ValueError):
            maxmin_pilot_powers_oracle(np.ones(2), 1.0, 0.1, 8, 2.0)


class TestPulseCorrelation:
    def test_endpoints(self):
        assert pulse_correlation(0.0, 1e-6) == 1.0
        assert pulse_correlation(1e-6, 1e-6) == 0.0

    def test_half_symbol_matches_quadrature(self):
        # midpoint quadrature of the overlap of two unit-energy rectangles
        t_p = 2e-6
        offset = t_p / 2
        ts = (np.arange(20000) + 0.5) * (t_p / 20000)
        pulse = lambda t: np.where((t >= 0) & (t <= t_p), 1.0 / np.sqrt(t_p), 0.0)
        numeric = np.sum(pulse(ts) * pulse(ts - offset)) * (t_p / 20000)
        assert pulse_correlation(offset, t_p) == pytest.approx(0.5, rel=1e-12)
        assert numeric == pytest.approx(0.5, rel=1e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pulse_correlation(-0.1e-6, 1e-6)
        with pytest.raises(ValueError):
            pulse_correlation(1.1e-6, 1e-6)


class TestPollutedPilot:
    def test_zero_offset_identity(self):
        seq = make_orthogonal_pilots(2, 8)[1]
        assert np.allclose(polluted_pilot(seq, 0.0, 0, 1e-6), seq)

    def test_whole_symbol_shift(self):
        seq = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        shifted = polluted_pilot(seq, 0.0, 1, 1e-6)
        assert np.allclose(shifted, [2.0, 3.0, 4.0, 0.0])

    def test_half_offset_averages_adjacent_symbols(self):
        seq = np.array([1.0, 1j, -1.0, -1j])
        out = polluted_pilot(seq, 0.5e-6, 0, 1e-6)
        expect = np.array([0.5, (1j + 1) / 2, (-1 + 1j) / 2, (-1j - 1) / 2])
        assert np.allclose(out, expect)


def route_kappas(offsets, t_p, length):
    """(N, N, K) async correlations by the reference route's loop: each user's
    ``polluted_pilot`` at each BS of a ``from_user_offsets`` profile, against
    that BS's own row of a per-cell book."""
    n, k = np.shape(offsets)
    book = make_pilot_book("per-cell", n, k, length, peak_power=1.0)
    profile = AsyncProfile.from_user_offsets(offsets, t_p)
    return np.array(
        [
            [
                [
                    polluted_pilot(book.sequences[l], *offset_and_shift(profile, j, l, u), t_p)
                    @ book.sequences[j].conj()
                    for u in range(k)
                ]
                for l in range(n)
            ]
            for j in range(n)
        ]
    )


class TestAsyncKappas:
    def test_synchronous_recovers_orthogonality(self):
        kappa = async_kappas(np.zeros((3, 2)), 1e-6, 8)
        assert kappa.shape == (3, 3, 2)
        for j in range(3):
            assert np.allclose(kappa[j, j], 1.0, atol=1e-12)
            assert np.max(np.abs(np.delete(kappa[j], j, axis=0))) < 1e-12

    def test_in_cell_offset_scaling_loss(self):
        offsets = np.zeros((3, 2))
        offsets[0, 0] = 0.5e-6
        kappa = async_kappas(offsets, 1e-6, 8)[0]
        assert abs(kappa[0, 0]) < 1.0
        assert abs(kappa[0, 1]) == pytest.approx(1.0)

    def test_cross_cell_offset_contaminates(self):
        offsets = np.zeros((3, 2))
        offsets[1, 0] = 0.3e-6
        kappa = async_kappas(offsets, 1e-6, 8)[0]
        assert abs(kappa[1, 0]) > 1e-6

    def test_matches_explicit_inner_product(self):
        rng = np.random.default_rng(12)
        offsets = rng.uniform(0, 1e-6, (3, 2))
        book = make_pilot_book("per-cell", 3, 2, 8, peak_power=1.0)
        profile = AsyncProfile.from_user_offsets(offsets, 1e-6)
        kappa = async_kappas(offsets, 1e-6, 8)[1]
        for l in range(3):
            for k in range(2):
                offset, shift = offset_and_shift(profile, 1, l, k)
                polluted = polluted_pilot(book.sequences[l], offset, shift, 1e-6)
                manual = sum(
                    polluted[m] * np.conj(book.sequences[1][m]) for m in range(8)
                )
                assert kappa[l, k] == pytest.approx(manual, rel=1e-12)

    @pytest.mark.parametrize("n, k, length", [(3, 2, 8), (7, 3, 8), (7, 10, 10), (3, 4, 16)])
    def test_matches_the_reference_route_loop(self, n, k, length):
        t_p = 1e-6
        offsets = np.random.default_rng(length * k).uniform(0.0, t_p, (n, k))
        offsets[0, 0], offsets[-1, -1] = 0.0, np.nextafter(t_p, 0.0)  # the range's ends
        # relative to |kappa| <= 1: cross-cell values can cancel to ~1e-17
        assert np.allclose(
            async_kappas(offsets, t_p, length),
            route_kappas(offsets, t_p, length),
            rtol=1e-12,
            atol=1e-12,
        )

    # next to both ends of [0, T), where the reference route's model jumps
    # (at L = 8 user (1, 0)'s in-cell kappa is 1 at offset 0 but 0.75j at
    # -1e-12 s), several symbols late or early, and NaN
    @pytest.mark.parametrize("offset", [-1e-12, 1e-6, 3.5e-6, -2.5e-6, np.nan])
    @pytest.mark.parametrize("n, k, length", [(3, 2, 8), (7, 10, 10)])
    def test_rejects_offsets_outside_one_symbol(self, offset, n, k, length):
        offsets = np.zeros((n, k))
        offsets[1, 0] = offset
        with pytest.raises(ValueError, match=r"delay offsets must lie in \[0, symbol_s\)"):
            async_kappas(offsets, 1e-6, length)

    @pytest.mark.parametrize("n, k, length", [(3, 2, 8), (7, 10, 10)])
    def test_a_whole_block_early_or_late_is_rejected(self, n, k, length):
        # the reference route reads silence there: early by length or more
        # symbols, late by length + 1 or more (a shift of length reads symbol
        # length - 1 with weight offset / T), or late by exactly length
        # symbols (a binary symbol duration, so that the divmod of length
        # symbols is exact); the package rejects every such offset
        t_p = 2.0**-20
        rng = np.random.default_rng(length)
        early = rng.uniform(-3 * length, -length, (n, k))
        late = rng.uniform(length + 1, 3 * length, (n, k))
        exact = np.full((n, k), float(length))
        for symbols in (early, late, exact):
            offsets = symbols * t_p
            assert np.all(route_kappas(offsets, t_p, length) == 0)
            with pytest.raises(ValueError):
                async_kappas(offsets, t_p, length)

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.sampled_from([1, 2, 3, 7]), st.integers(1, 4)),
        extra_length=st.integers(0, 4),
        data=st.data(),
    )
    def test_matches_the_route_loop_at_any_offsets(self, shape, extra_length, data):
        # any offsets within one symbol
        n, k = shape
        length, t_p = n + extra_length, 1e-6
        elements = st.floats(0.0, t_p, exclude_max=True)
        offsets = data.draw(hnp.arrays(float, (n, k), elements=elements))
        assert np.allclose(
            async_kappas(offsets, t_p, length),
            route_kappas(offsets, t_p, length),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_rejects_a_nonpositive_symbol_duration(self):
        with pytest.raises(ValueError):
            async_kappas(np.zeros((3, 2)), 0.0, 8)

    def test_magnitude_bounded_by_one(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            kappa = async_kappas(rng.uniform(0.0, 1e-6, (3, 2)), 1e-6, 8)
            assert np.all(np.abs(kappa) <= 1.0 + 1e-12)

    def test_continuity_toward_synchronism(self):
        deltas = 1e-6 * 10.0 ** np.arange(-1, -10, -1)
        errors = []
        for d in deltas:
            offsets = np.zeros((3, 2))
            offsets[0, 0] = d
            kappa = async_kappas(offsets, 1e-6, 8)[0]
            errors.append(abs(kappa[0, 0] - 1.0))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-8


class TestRouteAsyncProfile:
    """The reference route keeps per-BS delays and reference timings, which
    the engine's offsets (the same at every BS, no reference) do not need."""

    @settings(max_examples=50, deadline=None)
    @given(
        shape=st.tuples(st.sampled_from([1, 2, 3, 7]), st.integers(1, 4)),
        extra_length=st.integers(0, 4),
        data=st.data(),
    )
    def test_composite_estimate_is_the_polluted_pilot_sum(self, shape, extra_length, data):
        # per-BS delays and reference timings spanning several pilot blocks:
        # the noiseless composite estimate at BS ``cell`` weighs each user's
        # channel by its polluted pilot's correlation at that BS
        n, k = shape
        length, t_p, m = n + extra_length, 1e-6, 4
        span = 3 * length * t_p
        delays = data.draw(hnp.arrays(float, (n, n, k), elements=st.floats(-span, span)))
        reference = data.draw(hnp.arrays(float, (n,), elements=st.floats(-t_p, t_p)))
        profile = AsyncProfile(delays, reference, t_p)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cs = random_channels(rng, n, k, m)
        powers = rng.uniform(0.1, 1.0, (n, k))
        book = make_pilot_book("per-cell", n, k, length, peak_power=1.0, powers=powers)
        for cell in range(n):
            own = book.sequences[cell].conj()
            terms = []
            for l in range(n):
                for u in range(k):
                    arrival = offset_and_shift(profile, cell, l, u)
                    kappa = polluted_pilot(book.sequences[l], *arrival, t_p) @ own
                    terms.append(np.sqrt(powers[l, u] * length) * kappa * cs.vector(cell, l, u))
            est = estimate_composite(uplink_rx(cs, book, cell, 0.0, 1, profile), book, cell)
            # relative to the received entries, since the terms can cancel
            scale = sum(
                np.sqrt(powers[l, u] * length) * np.max(np.abs(cs.vector(cell, l, u)))
                for l in range(n)
                for u in range(k)
            )
            assert np.allclose(est, sum(terms), rtol=1e-10, atol=1e-12 * scale)

    def test_negative_delay_offsets(self):
        profile = AsyncProfile.from_user_offsets(np.full((1, 1), -0.25e-6), 1e-6)
        offset, shift = offset_and_shift(profile, 0, 0, 0)
        assert offset == pytest.approx(0.75e-6)
        assert shift == -1
