"""Acceptance suite: one test per release criterion, tolerances fixed.

Each test prints a PASS/FAIL line through the hook in conftest.py.  Closed
forms are held to near machine precision; statistical checks run at desk
scale with seeds and tolerances pinned here.
"""

from dataclasses import replace

import numpy as np
import pytest

import multicast_mimo.engine as engine
from closed_forms import (
    optimal_lambdas,
    sinr_async,
    sinr_composite,
    sinr_composite_optimal,
    sinr_contaminated,
    sinr_contamination_ceiling,
    sinr_gap_db,
    sinr_perfect_csi,
)
from multicast_mimo.channel import complex_gaussian
from multicast_mimo.config import NetworkConfig
from multicast_mimo.engine import run_experiment
from multicast_mimo.pilots import async_kappas, optimal_pilot_powers
from multicast_mimo.scenarios import DEFAULT_E_SWEEP_DBW
from oracles import maxmin_pilot_powers_oracle, scalar_large_scale, simplex_grid_best
from reference_route import ChannelState, estimate_composite, make_pilot_book, uplink_rx


def test_criterion_01_equal_sinr_shares_optimal():
    """Closed-form shares equalize per-user SINRs and win the simplex search."""
    rng = np.random.default_rng(101)
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        betas = rng.lognormal(0.0, 1.5, k)
        lam = optimal_lambdas(betas)
        values = sinr_perfect_csi(lam, betas, 2.0, 0.5)
        assert values.max() - values.min() <= 1e-9 * values.max()
        if k == 1:
            assert lam[0] == 1.0
        elif k <= 3:
            closed = np.min(lam * betas)
            grid_best = simplex_grid_best(betas, step=1e-3)
            assert grid_best <= closed * (1 + 1e-3)

    # on the engine's limit path: the perfect-optimal beam gives every user of
    # the evaluated cell the same serving power (their SINRs still differ,
    # since each sees its own interference)
    for k in (3, 10):
        config = NetworkConfig(antennas=None, users_per_cell=k, num_large=200)
        beta = engine.large_scale_batch(config)
        e = engine._EVAL_CELL
        u = engine._beam_directions(engine._build_trial_context(config, beta))[..., e, :k]
        serving = beta[..., e, e, :] * np.abs(u) ** 2  # (T, K)
        assert np.allclose(serving, serving[:, :1], rtol=1e-12, atol=0)


def test_criterion_02_pilot_power_rule_vs_oracle():
    """The pilot power rule hits the peak on the weakest user, equalizes the
    per-user kernels, and matches the brute-force grid search."""
    rng = np.random.default_rng(202)

    def objective(betas, p, sigma_p2, omega):
        return np.min(betas**2 * p) / (betas @ p + sigma_p2 / omega)

    for _ in range(1000):
        k = int(rng.integers(1, 5))
        betas = 10.0 ** rng.uniform(-0.75, 0.75, k)
        p_u = float(10.0 ** rng.uniform(-0.5, 0.5))
        sigma_p2 = float(rng.uniform(0.01, 0.3))
        omega = 8
        powers = optimal_pilot_powers(betas, p_u)
        assert powers[np.argmin(betas)] == p_u
        assert np.all((powers > 0) & (powers <= p_u * (1 + 1e-15)))
        kernels = betas**2 * powers
        assert kernels.max() - kernels.min() <= 1e-12 * kernels.max()
        grid_step = p_u * (1e-3 if k <= 3 else 0.02)
        oracle = maxmin_pilot_powers_oracle(betas, p_u, sigma_p2, omega, grid_step)
        f_closed = objective(betas, powers, sigma_p2, omega)
        f_oracle = objective(betas, oracle, sigma_p2, omega)
        assert f_closed >= f_oracle * (1 - 1e-3)
        assert f_oracle <= f_closed * (1 + 1e-9)


def test_criterion_03_identity_chain():
    """Composite at rule powers = closed form = perfect / dB-gap, pairwise."""
    rng = np.random.default_rng(303)
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        betas = rng.lognormal(0.0, 1.2, k)
        p_u = float(10.0 ** rng.uniform(-1, 1))
        omega = int(rng.integers(max(2, k), 17))
        sigma_p2 = float(rng.uniform(0.001, 1.0))
        e, sigma2 = float(rng.uniform(0.5, 10)), float(rng.uniform(0.1, 2))
        a = sinr_composite(
            betas, optimal_pilot_powers(betas, p_u), e, omega, sigma_p2, sigma2
        ).min()
        b = sinr_composite_optimal(betas, p_u, e, omega, sigma_p2, sigma2)
        perfect = sinr_perfect_csi(optimal_lambdas(betas), betas, e, sigma2)[0]
        gap = sinr_gap_db(betas, p_u, omega, sigma_p2)
        c = perfect / 10 ** (gap / 10)
        assert a == pytest.approx(b, rel=1e-9)
        assert b == pytest.approx(c, rel=1e-9)
        assert a == pytest.approx(c, rel=1e-9)

    # on the engine's limit path, realization by realization: with one cell,
    # power control costs the perfect-CSI sample exactly the closed-form gap
    config = NetworkConfig(antennas=None, cells=1, num_large=200)
    perfect = run_experiment(config, scheme="perfect-optimal").samples_db
    controlled = run_experiment(config, scheme="composite-power-controlled").samples_db
    own = engine.large_scale_batch(config)[:, 0, 0]  # (T, K)
    gap = sinr_gap_db(
        own,
        config.peak_pilot_power_w,
        config.pilot_length,
        config.pilot_noise_power_w,
    )
    assert np.allclose(
        10 ** (controlled / 10), 10 ** ((perfect - gap) / 10), rtol=1e-9, atol=0
    )


def test_criterion_04_contamination_ceiling_vs_composite_growth():
    """Shared-pilot estimates cap the SINR at high power; the composite scheme
    keeps gaining exactly 10 dB per power decade.

    Observed over 200 runs (README, "False-alarm rates of the statistical
    tests"): 0 failures; the largest per-realization move of
    ``individual-pilot`` from 80 to 90 dBW reached 0.091 of its 0.1 dB
    bound.
    """
    config = NetworkConfig()
    sigma2 = config.noise_power_w
    sigma_p2 = config.pilot_noise_power_w
    p_u, tau = config.peak_pilot_power_w, config.pilot_length
    xis = np.ones((7, 3))
    for instance in range(10):
        beta = scalar_large_scale(config, 404 + instance)
        own = beta[0, 0]
        for k in range(3):
            ceiling = sinr_contamination_ceiling(beta, xis, p_u, tau, sigma_p2, 0, k)
            # per-unit-power interference seen by this user
            gamma2 = p_u * tau * (xis**2 * beta.sum(axis=1)).sum(axis=1) + sigma_p2 * (
                xis**2
            ).sum(axis=1)
            coupling = p_u * tau * beta[:, 0, k] ** 2 * xis[:, k] ** 2 / gamma2
            interference_per_e = coupling.sum() - coupling[0]
            e0 = sigma2 / interference_per_e
            v3 = sinr_contaminated(beta, xis, 1e3 * e0, p_u, tau, sigma_p2, sigma2, 0, k)
            v4 = sinr_contaminated(beta, xis, 1e4 * e0, p_u, tau, sigma_p2, sigma2, 0, k)
            assert abs(10 * np.log10(v4 / v3)) < 0.1
            assert abs(10 * np.log10(v3 / ceiling)) < 0.1
            assert abs(10 * np.log10(v4 / ceiling)) < 0.1
        for e in (1.0, 10.0, 100.0):
            lo = sinr_composite_optimal(own, p_u, e, tau, sigma_p2, sigma2)
            hi = sinr_composite_optimal(own, p_u, 10 * e, tau, sigma_p2, sigma2)
            assert 10 * np.log10(hi / lo) == pytest.approx(10.0, abs=0.01)

    # the same claims on the engine's limit path, realization by realization
    def samples(scheme, e_dbw):
        config = NetworkConfig(antennas=None, E_dbw=(e_dbw,), num_large=200)
        return run_experiment(config, scheme=scheme).samples_db

    for scheme in ("composite", "composite-power-controlled"):
        for e in (0.0, 10.0, 20.0):
            gain = samples(scheme, e + 10.0) - samples(scheme, e)
            assert np.all(np.abs(gain - 10.0) <= 0.01)
    moved = samples("individual-pilot", 90.0) - samples("individual-pilot", 80.0)
    assert np.all(np.abs(moved) < 0.1)


def test_criterion_05_composite_estimate_contamination_free():
    """Noiseless synchronous composite estimate carries no other-cell term."""
    rng = np.random.default_rng(505)
    for _ in range(20):
        n, k, m = 3, 2, 64
        beta = rng.lognormal(0, 1, (n, n, k))
        assert np.all(beta > 0)  # cross-cell channels really present
        cs = ChannelState(beta=beta, h=complex_gaussian([rng], (n, n, k, m))[0])
        powers = rng.uniform(0.1, 1.0, (n, k))
        book = make_pilot_book("per-cell", n, k, 8, peak_power=1.0, powers=powers)
        y = uplink_rx(cs, book, 0, 0.0, 1)
        est = estimate_composite(y, book, 0)
        own = sum(np.sqrt(powers[0, u] * 8) * cs.vector(0, 0, u) for u in range(k))
        assert np.linalg.norm(est - own) <= 1e-10 * np.linalg.norm(own)


def test_criterion_06_optimal_vs_equal_combining_gain():
    """Median CDF gain of optimal over equal combining: about 10 dB at K=3,
    larger at K=10.

    Observed over 200 runs (README, "False-alarm rates of the statistical
    tests"): 1 failure, at K = 3 (13.31 dB).  The K = 3 gain had mean
    10.24 dB and sd 0.78 dB, so the band's upper edge lies 3.5 sd above the
    mean.  The K = 10 ordering failed in none.
    """
    gains = {}
    for k in (3, 10):
        config = NetworkConfig(antennas=None, users_per_cell=k, num_large=200)
        medians = {}
        for scheme in ("perfect-optimal", "perfect-equal"):
            medians[scheme] = np.median(run_experiment(config, scheme=scheme).samples_db)
        gains[k] = medians["perfect-optimal"] - medians["perfect-equal"]
    assert gains[3] == pytest.approx(10.0, abs=3.0)
    assert gains[10] > gains[3]


def test_criterion_07_finite_antenna_convergence():
    """Measured power-controlled composite SINR approaches its closed form:
    the gap shrinks with the antenna count and sits in the expected band.

    Observed over 200 runs (README, "False-alarm rates of the statistical
    tests"): 0 failures; the gap read 0.95-1.22 dB at M = 300 and
    0.75-0.97 dB at M = 500.
    """
    base = dict(users_per_cell=3, cells=7, p_u_dbw=2.0, E_dbw=(20.0,), num_large=100)
    asym = run_experiment(
        NetworkConfig(antennas=None, **base), scheme="composite-power-controlled"
    )
    gaps = {}
    for m in (100, 300, 500):
        report = run_experiment(
            NetworkConfig(antennas=m, num_small=50, **base),
            scheme="composite-power-controlled",
        )
        gaps[m] = asym.mean_min_sinr_db - report.mean_min_sinr_db
    assert gaps[100] > gaps[300] > gaps[500]
    assert 0.5 <= gaps[300] <= 3.0
    assert 0.3 <= gaps[500] <= 2.5


def test_criterion_08_scheme_ordering_in_ceiling_regime():
    """With the BS power deep in the contamination-ceiling regime the median
    min SINR orders: perfect >= power-controlled >= plain composite >=
    contaminated, strictly."""
    config = NetworkConfig(antennas=None, E_dbw=(70.0,), num_large=200)
    medians = {}
    for scheme in (
        "perfect-optimal",
        "composite-power-controlled",
        "composite",
        "individual-pilot",
    ):
        medians[scheme] = np.median(run_experiment(config, scheme=scheme).samples_db)
    assert (
        medians["perfect-optimal"]
        > medians["composite-power-controlled"]
        > medians["composite"]
        > medians["individual-pilot"]
    )
    # confirm the contaminated scheme really is near its ceiling at this power
    richer = NetworkConfig(antennas=None, E_dbw=(80.0,), num_large=200)
    shifted = np.median(run_experiment(richer, scheme="individual-pilot").samples_db)
    assert abs(shifted - medians["individual-pilot"]) < 0.1


def test_criterion_09_pilot_power_closes_the_gap():
    """The dB gap falls strictly with peak pilot power and the power-controlled
    CDF approaches the perfect-CSI CDF."""
    rng = np.random.default_rng(909)
    for _ in range(200):
        betas = rng.lognormal(0, 1.3, int(rng.integers(1, 6)))
        sigma_p2 = float(rng.uniform(0.01, 0.5))
        gaps = [sinr_gap_db(betas, 10 ** (pu / 10), 8, sigma_p2) for pu in (2, 4, 8)]
        assert gaps[0] > gaps[1] > gaps[2] > 0

    perfect = run_experiment(
        NetworkConfig(antennas=None, num_large=200), scheme="perfect-optimal"
    )
    distances, gaps = [], []
    for pu in (2.0, 4.0, 8.0):
        report = run_experiment(
            NetworkConfig(antennas=None, num_large=200, p_u_dbw=pu),
            scheme="composite-power-controlled",
        )
        gaps.append(perfect.samples_db - report.samples_db)
        grid = np.union1d(perfect.samples_db, report.samples_db)
        f_perfect = np.searchsorted(np.sort(perfect.samples_db), grid, side="right") / 200
        f_report = np.searchsorted(np.sort(report.samples_db), grid, side="right") / 200
        distances.append(np.max(np.abs(f_perfect - f_report)))
    assert distances[0] > distances[1] > distances[2]
    # the engine's per-realization gap falls the same way
    assert np.all(gaps[0] > gaps[1]) and np.all(gaps[1] > gaps[2])
    assert np.all(gaps[2] > 0)


def test_criterion_10_asynchrony_limits():
    """Asynchronous composite estimation: synchronous delays reproduce the
    synchronous SINR, offset pilots hit a power ceiling, and the pilot
    correlation is continuous at zero offset."""
    rng = np.random.default_rng(1010)
    n, k, omega, t_p = 3, 2, 8, 1e-6

    # (a) all arrivals at the reference time
    sync_kappa = np.zeros((n, n, k), dtype=complex)
    for j in range(n):
        sync_kappa[j, j] = 1.0
    for _ in range(50):
        beta = rng.lognormal(0, 1, (n, n, k))
        powers = np.stack([optimal_pilot_powers(beta[j, j], 1.5) for j in range(n)])
        e, sigma2, sigma_p2 = 2.0, 0.7, 0.05
        composite = sinr_composite(beta[0, 0], powers[0], e, omega, sigma_p2, sigma2)
        for u in range(k):
            value = sinr_async(beta, powers, sync_kappa, e, omega, sigma_p2, sigma2, 0, u)
            assert value == pytest.approx(composite[u], rel=1e-9)
    # and on the engine's limit path: zero offsets give the synchronous scheme
    zero = NetworkConfig(
        antennas=None, num_large=200, async_offsets_s=(0.0,) * 21, pilot_symbol_s=t_p
    )
    for control, synchronous in ((True, "composite-power-controlled"), (False, "composite")):
        config = replace(zero, async_power_control=control)
        got = run_experiment(config, scheme="composite-async").samples_db
        want = run_experiment(config, scheme=synchronous).samples_db
        assert np.allclose(10 ** (got / 10), 10 ** (want / 10), rtol=1e-9, atol=0)

    # (b) nonzero cross-cell offsets produce a power ceiling
    offsets = rng.uniform(0.05e-6, 0.95e-6, (n, k))
    kappas = async_kappas(offsets, t_p, omega)
    for _ in range(20):
        beta = rng.lognormal(0, 1, (n, n, k))
        powers = np.full((n, k), 1.5)
        sigma2, sigma_p2 = 0.7, 0.05
        k2 = np.abs(kappas) ** 2
        mu2 = omega * (beta * powers[None] * k2).sum(axis=(1, 2)) + sigma_p2
        for u in range(k):
            per_e = beta[:, 0, u] ** 2 * k2[:, 0, u] / mu2
            interference_per_e = per_e.sum() - per_e[0]
            noise = sigma2 / (omega * powers[0, u])
            e_base = 1e3 * noise / interference_per_e
            lo = sinr_async(beta, powers, kappas, e_base, omega, sigma_p2, sigma2, 0, u)
            hi = sinr_async(beta, powers, kappas, 1e3 * e_base, omega, sigma_p2, sigma2, 0, u)
            assert abs(10 * np.log10(hi / lo)) < 0.1
    # and on the engine's limit path, in one E sweep: with offset pilots the
    # top step of the async composite curve is flat, while the synchronous
    # composite curve still grows (the fig5/6 preset's slope thresholds).
    # With sub-symbol offsets a cross-cell correlation is at most 1/omega, so
    # the ceiling sits higher than the contaminated one: the preset's powers
    # are extended to criterion 08's 70 and 80 dBW.
    offset = NetworkConfig(
        antennas=None,
        num_large=200,
        async_offsets_s=tuple(rng.uniform(0.05e-6, 0.95e-6, 21)),
        pilot_symbol_s=t_p,
    )
    sweep = DEFAULT_E_SWEEP_DBW + (70.0, 80.0)
    schemes = ("composite-async", "composite")
    reports = engine.run_experiments(
        [replace(offset, E_dbw=(e,), scheme=s) for s in schemes for e in sweep]
    )
    means = np.array([r.mean_min_sinr_db for r in reports]).reshape(len(schemes), -1)
    slopes = (means[:, -1] - means[:, -2]) / (sweep[-1] - sweep[-2])
    assert slopes[0] < 0.1
    assert slopes[1] > 0.5

    # (c) continuity of the pilot correlation at zero offset
    deltas = t_p * 10.0 ** np.arange(-1, -10, -1)
    errors = []
    for d in deltas:
        offs = np.zeros((n, k))
        offs[0, 0] = d
        kappa = async_kappas(offs, t_p, omega)[0]
        errors.append(abs(kappa[0, 0] - 1.0))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-8


def test_criterion_11_law_of_large_numbers():
    """Inner products of long random vectors concentrate: self-products near
    the variance, cross products near zero, in at least 99 of 100 trials."""
    rng = np.random.default_rng(1111)
    n = 100_000
    self_ok, cross_ok = 0, 0
    for _ in range(100):
        var_x, var_y = rng.uniform(0.5, 2.0, 2)
        x = complex_gaussian([rng], (n,), var_x)[0]
        y = complex_gaussian([rng], (n,), var_y)[0]
        if abs(np.vdot(x, x).real / n - var_x) < 0.02 * var_x:
            self_ok += 1
        if abs(np.vdot(x, y)) / n < 0.02 * np.sqrt(var_x * var_y):
            cross_ok += 1
    assert self_ok >= 99
    assert cross_ok >= 99
