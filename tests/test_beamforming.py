import numpy as np
import pytest

from closed_forms import optimal_lambdas
from multicast_mimo.channel import complex_gaussian
from oracles import simplex_grid_best
from reference_route import beamformer_from_estimate, optimal_beamformer_perfect


class TestOptimalLambdas:
    def test_symmetric_gains_split_evenly(self):
        assert np.allclose(optimal_lambdas([2.5, 2.5, 2.5]), [1 / 3, 1 / 3, 1 / 3])

    def test_two_user_closed_form_matches_grid_oracle(self):
        betas = np.array([1.0, 2.0])
        lam = optimal_lambdas(betas)
        assert np.allclose(lam, [2 / 3, 1 / 3], rtol=1e-12)
        closed = np.min(lam * betas)
        assert closed >= simplex_grid_best(betas) * (1 - 1e-3)

    def test_single_user(self):
        assert np.allclose(optimal_lambdas([0.123]), [1.0])

    def test_equalizes_products(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            betas = rng.lognormal(0.0, 2.0, size=rng.integers(1, 9))
            lam = optimal_lambdas(betas)
            products = lam * betas
            assert products.max() - products.min() <= 1e-12 * products.max()
            assert lam.sum() == pytest.approx(1.0, rel=1e-12)
            assert np.all(lam > 0)

    def test_grid_search_never_beats_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            betas = rng.lognormal(0.0, 1.5, size=3)
            closed = np.min(optimal_lambdas(betas) * betas)
            assert closed >= simplex_grid_best(betas) * (1 - 1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            optimal_lambdas([1.0, 0.0])


class TestBeamformers:
    def test_single_user_is_matched_filter(self):
        rng = np.random.default_rng(0)
        g = complex_gaussian([rng], (1, 32))[0]
        bf = optimal_beamformer_perfect(g, [0.5])
        assert np.allclose(bf, g[0] / np.linalg.norm(g[0]))

    def test_equal_gains_equal_weights(self):
        rng = np.random.default_rng(1)
        g = complex_gaussian([rng], (2, 32))[0]
        bf = optimal_beamformer_perfect(g, [1.0, 1.0])
        expect = g.sum(axis=0)
        assert np.allclose(bf, expect / np.linalg.norm(expect))

    def test_asymptotic_normalizer_approaches_unit_norm(self):
        # the closed-form scale 1/sqrt(M * sum 1/beta) normalizes the combined
        # beam only in the limit; check it is already close at M = 1e4
        rng = np.random.default_rng(2)
        m = 10_000
        betas = np.array([1.0, 0.25, 2.0])
        g = np.sqrt(betas)[:, None] * complex_gaussian([rng], (3, m))[0]
        combined = (g / betas[:, None]).sum(axis=0)
        mu = 1.0 / np.sqrt(m * np.sum(1.0 / betas))
        assert np.linalg.norm(mu * combined) == pytest.approx(1.0, abs=0.05)

    def test_inverse_gain_weights_match_optimal(self):
        # weighting g_k by 1/beta_k gives every user the gain M min_k lambda_k
        # beta_k of the optimal shares; the cross terms are O(1/sqrt(M))
        rng = np.random.default_rng(3)
        m = 100_000
        betas = np.array([1.0, 0.25, 2.0])
        g = np.sqrt(betas)[:, None] * complex_gaussian([rng], (3, m))[0]
        bf = optimal_beamformer_perfect(g, betas)
        gains = np.abs(g.conj() @ bf) ** 2 / m
        expected = np.min(optimal_lambdas(betas) * betas)
        assert np.allclose(gains, expected, rtol=0.05, atol=0)

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(4)
        g = complex_gaussian([rng], (3, 16))[0]
        betas = rng.lognormal(0, 1, 3)
        bf = optimal_beamformer_perfect(g, betas)
        for scale in (1e-6, 3.0, 1e6):
            assert np.allclose(optimal_beamformer_perfect(g, scale * betas), bf, rtol=1e-12)

    def test_basis_weight_selects_single_channel(self):
        # a user far weaker than the rest takes the whole beam
        rng = np.random.default_rng(5)
        g = complex_gaussian([rng], (3, 16))[0]
        bf = optimal_beamformer_perfect(g, [1e-12, 1.0, 1.0])
        assert np.allclose(bf, g[0] / np.linalg.norm(g[0]), rtol=0, atol=1e-9)

    def test_all_outputs_unit_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            k, m = rng.integers(1, 6), rng.integers(2, 40)
            g = complex_gaussian([rng], (k, m))[0]
            betas = rng.lognormal(0, 1, k)
            assert np.linalg.norm(optimal_beamformer_perfect(g, betas)) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_estimate_normalization_and_scale_invariance(self):
        rng = np.random.default_rng(7)
        est = complex_gaussian([rng], (24,))[0]
        a = beamformer_from_estimate(est)
        b = beamformer_from_estimate(10.0 * est)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(a, b)

    def test_error_cases(self):
        with pytest.raises(ArithmeticError):
            beamformer_from_estimate(np.zeros(8, dtype=complex))

