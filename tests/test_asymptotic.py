import numpy as np
import pytest

from closed_forms import (
    UNBOUNDED,
    optimal_lambdas,
    sinr_async,
    sinr_composite,
    sinr_composite_optimal,
    sinr_contaminated,
    sinr_contamination_ceiling,
    sinr_gap_db,
    sinr_perfect_csi,
)
from multicast_mimo.pilots import optimal_pilot_powers


def random_instance(rng, n=3, k=3):
    betas = rng.lognormal(0.0, 1.0, (n, n, k))
    # own-cell links stronger than cross-cell ones
    for j in range(n):
        betas[j, j] *= 10.0
    return betas


class TestPerfectCsi:
    def test_unity_reference(self):
        assert sinr_perfect_csi([1.0], [1.0], 2e-13, 2e-13)[0] == pytest.approx(1.0)

    def test_optimal_shares_two_users(self):
        betas = np.array([1.0, 2.0])
        values = sinr_perfect_csi(optimal_lambdas(betas), betas, 3.0, 1.0)
        # both routes: lambda_k*beta_k*E/sigma2 and E/(sigma2 * sum 1/beta)
        assert np.allclose(values, 3.0 / 1.5)
        assert values[0] == pytest.approx(values[1], rel=1e-12)

    def test_linear_in_power(self):
        betas = np.array([0.5, 1.0, 4.0])
        lam = optimal_lambdas(betas)
        a = sinr_perfect_csi(lam, betas, 1.0, 1.0)
        b = sinr_perfect_csi(lam, betas, 2.0, 1.0)
        assert np.allclose(b, 2 * a)

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            sinr_perfect_csi([0.5, 0.6], [1.0, 1.0], 1.0, 1.0)
        with pytest.raises(ValueError):
            sinr_perfect_csi([1.2, -0.2], [1.0, 1.0], 1.0, 1.0)

    def test_more_users_never_help(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            betas = rng.lognormal(0, 1.5, 8)
            values = [
                sinr_perfect_csi(optimal_lambdas(betas[:k]), betas[:k], 1.0, 1e-3)[0]
                for k in range(1, 9)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestContaminated:
    def test_single_cell_grows_linearly(self):
        betas = np.ones((1, 1, 2))
        xis = np.ones((1, 2))
        a = sinr_contaminated(betas, xis, 1.0, 1.0, 8, 0.1, 1.0, 0, 0)
        b = sinr_contaminated(betas, xis, 10.0, 1.0, 8, 0.1, 1.0, 0, 0)
        assert b == pytest.approx(10 * a, rel=1e-12)

    def test_symmetric_two_cell_ceiling_is_one(self):
        betas = np.ones((2, 2, 3))
        xis = np.ones((2, 3))
        ceiling = sinr_contamination_ceiling(betas, xis, 1.0, 8, 0.1, 0, 1)
        assert ceiling == pytest.approx(1.0, rel=1e-12)

    def test_symmetric_seven_cell_ceiling(self):
        betas = np.ones((7, 7, 2))
        xis = np.ones((7, 2))
        ceiling = sinr_contamination_ceiling(betas, xis, 1.0, 8, 0.1, 0, 0)
        assert ceiling == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_single_cell_ceiling_unbounded(self):
        assert sinr_contamination_ceiling(
            np.ones((1, 1, 2)), np.ones((1, 2)), 1.0, 8, 0.1, 0, 0
        ) is UNBOUNDED

    def test_huge_power_approaches_ceiling(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            betas = random_instance(rng)
            xis = np.ones((3, 3))
            own = betas[0, 0]
            e_ref = 1e6 * 1.0 * np.sum(1.0 / own)  # sigma2 = 1
            value = sinr_contaminated(betas, xis, e_ref, 1.0, 8, 0.1, 1.0, 0, 0)
            ceiling = sinr_contamination_ceiling(betas, xis, 1.0, 8, 0.1, 0, 0)
            assert 10 * abs(np.log10(value / ceiling)) < 0.1

    def test_nondecreasing_in_power_and_convergent(self):
        rng = np.random.default_rng(2)
        betas = random_instance(rng)
        xis = np.ones((3, 3))
        ceiling = sinr_contamination_ceiling(betas, xis, 1.0, 8, 0.1, 0, 0)
        e_big = 1e4 * ceiling * 1.0 * np.sum(1.0 / betas[0, 0])
        values = [
            sinr_contaminated(betas, xis, e, 1.0, 8, 0.1, 1.0, 0, 0)
            for e in (e_big, 10 * e_big, 100 * e_big)
        ]
        assert values[0] <= values[1] <= values[2]
        assert abs(values[2] - values[1]) < 1e-3 * values[1]


class TestComposite:
    def test_noiseless_power_control_equals_perfect(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            betas = rng.lognormal(0, 1.2, 4)
            powers = optimal_pilot_powers(betas, 2.0)
            values = sinr_composite(betas, powers, 5.0, 8, 0.0, 1.0)
            perfect = sinr_perfect_csi(optimal_lambdas(betas), betas, 5.0, 1.0)
            assert np.allclose(values, perfect, rtol=1e-12)

    def test_equal_gains_equal_powers_closed_form(self):
        k, beta, p_u, omega, sp2 = 3, 0.5, 2.0, 8, 0.1
        values = sinr_composite(np.full(k, beta), np.full(k, p_u), 1.0, omega, sp2, 1.0)
        expect = beta / (k + sp2 / (omega * beta * p_u))
        assert np.allclose(values, expect, rtol=1e-12)

    def test_joint_scaling_invariance(self):
        betas = np.array([0.5, 1.0, 2.0])
        powers = np.array([1.0, 0.5, 0.25])
        a = sinr_composite(betas, powers, 1.0, 8, 0.1, 1.0)
        b = sinr_composite(betas, 3.0 * powers, 1.0, 8, 0.3, 1.0)
        assert np.allclose(a, b, rtol=1e-12)

    def test_optimal_value_frozen_example(self):
        # betas [1,1], p_u 1, length 8, sigma_p2 0.1: 1/(2 + 0.0125)
        value = sinr_composite_optimal([1.0, 1.0], 1.0, 1.0, 8, 0.1, 1.0)
        assert value == pytest.approx(1.0 / 2.0125, rel=1e-12)
        via_powers = sinr_composite([1.0, 1.0], optimal_pilot_powers([1.0, 1.0], 1.0), 1.0, 8, 0.1, 1.0)
        assert value == pytest.approx(via_powers.min(), rel=1e-12)

    def test_optimal_approaches_perfect_with_pilot_power(self):
        betas = np.array([0.2, 1.0, 3.0])
        perfect = sinr_perfect_csi(optimal_lambdas(betas), betas, 1.0, 1.0)[0]
        value = sinr_composite_optimal(betas, 1e9, 1.0, 8, 0.1, 1.0)
        assert value == pytest.approx(perfect, rel=1e-6)

    def test_optimal_equals_min_of_composite_at_rule_powers(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            betas = rng.lognormal(0, 1.0, 3)
            p = optimal_pilot_powers(betas, 1.5)
            a = sinr_composite_optimal(betas, 1.5, 2.0, 8, 0.1, 1.0)
            b = sinr_composite(betas, p, 2.0, 8, 0.1, 1.0)
            assert a == pytest.approx(b.min(), rel=1e-12)

    def test_strictly_increasing_in_peak_power(self):
        betas = np.array([0.5, 2.0])
        values = [
            sinr_composite_optimal(betas, pu, 1.0, 8, 0.1, 1.0) for pu in (1.0, 2.0, 4.0)
        ]
        assert values[0] < values[1] < values[2]


class TestGap:
    def test_zero_pilot_noise_zero_gap(self):
        assert sinr_gap_db([1.0, 2.0], 1.0, 8, 0.0) == 0.0

    def test_vanishes_with_peak_power(self):
        assert sinr_gap_db([1.0, 2.0], 1e12, 8, 0.1) == pytest.approx(0.0, abs=1e-9)

    def test_frozen_example(self):
        # 10*log10(1 + 0.1/16)
        assert sinr_gap_db([1.0, 1.0], 1.0, 8, 0.1) == pytest.approx(
            10 * np.log10(1.00625), rel=1e-12
        )

    def test_equals_ratio_of_closed_forms(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            betas = rng.lognormal(0, 1.3, rng.integers(1, 6))
            p_u, omega, sp2 = rng.uniform(0.5, 3), 8, rng.uniform(0.01, 0.5)
            perfect = sinr_perfect_csi(optimal_lambdas(betas), betas, 1.0, 1.0)[0]
            composite = sinr_composite_optimal(betas, p_u, 1.0, omega, sp2, 1.0)
            gap = sinr_gap_db(betas, p_u, omega, sp2)
            assert gap == pytest.approx(10 * np.log10(perfect / composite), rel=1e-9)
            assert gap >= 0.0

    def test_strictly_decreasing_in_peak_power_and_length(self):
        betas = np.array([0.3, 1.0, 2.0])
        by_power = [sinr_gap_db(betas, pu, 8, 0.1) for pu in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(by_power, by_power[1:]))
        by_length = [sinr_gap_db(betas, 1.0, w, 0.1) for w in (4, 8, 16, 32)]
        assert all(a > b for a, b in zip(by_length, by_length[1:]))


class TestAsync:
    def sync_kappas(self, n, k):
        kappa = np.zeros((n, n, k), dtype=complex)
        for j in range(n):
            kappa[j, j] = 1.0
        return kappa

    def test_synchronous_limit_matches_composite(self):
        rng = np.random.default_rng(6)
        betas = random_instance(rng)
        own = betas[0, 0]
        powers = np.stack([optimal_pilot_powers(betas[j, j], 1.0) for j in range(3)])
        kappa = self.sync_kappas(3, 3)
        composite = sinr_composite(own, powers[0], 2.0, 8, 0.1, 1.0)
        for k in range(3):
            value = sinr_async(betas, powers, kappa, 2.0, 8, 0.1, 1.0, 0, k)
            assert value == pytest.approx(composite[k], rel=1e-12)

    def test_pure_scaling_loss_keeps_linear_growth(self):
        rng = np.random.default_rng(7)
        betas = random_instance(rng)
        powers = np.full((3, 3), 1.0)
        kappa = self.sync_kappas(3, 3)
        kappa[0, 0, :] = 0.6  # own-cell loss only, no cross terms
        a = sinr_async(betas, powers, kappa, 1.0, 8, 0.1, 1.0, 0, 0)
        b = sinr_async(betas, powers, kappa, 1e6, 8, 0.1, 1.0, 0, 0)
        assert b == pytest.approx(1e6 * a, rel=1e-9)

    def test_cross_cell_kappa_hits_ceiling(self):
        rng = np.random.default_rng(8)
        betas = random_instance(rng)
        powers = np.full((3, 3), 1.0)
        kappa = self.sync_kappas(3, 3) * 0.9
        kappa += 0.2 * (rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)))
        for j in range(3):
            kappa[j, j] = 0.8
        # independent ceiling: drop the noise term, take the power-free ratio
        k2 = np.abs(kappa) ** 2
        omega, sp2 = 8, 0.1
        mu2 = omega * (betas * powers[None] * k2).sum(axis=(1, 2)) + sp2
        terms = betas[:, 0, 0] ** 2 * k2[:, 0, 0] / mu2
        ceiling = terms[0] / (terms.sum() - terms[0])
        value = sinr_async(betas, powers, kappa, 1e12, omega, sp2, 1.0, 0, 0)
        assert value == pytest.approx(ceiling, rel=1e-6)
