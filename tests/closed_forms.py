"""The paper's closed forms: max-min shares and the large-antenna limit SINR
of every CSI scheme.

The package does not call them: the engine reads the limit off each scheme's
beam coefficients (``sinr_from_amplitudes`` at ``engine._beam_directions``),
and the tests hold that limit to these expressions, which the acceptance
criteria test in turn.

All expressions assume the per-BS transmit power is scaled down with the
antenna count (p = E / M with E fixed), under which channel vectors of
different users become orthogonal and each user's SINR converges to a
deterministic function of the large-scale gains.

Everything is computed and returned in linear scale; conversion to dB happens
only at reporting time.  Each formula accepts leading batch axes (for example
one per large-scale realization) on its gain and pilot-power arguments, so a
whole experiment is evaluated without a Python loop; without batch axes a
per-user formula asked for one user returns a float.
"""

import numpy as np

_SIMPLEX_TOL = 1e-9

#: Returned by ceiling formulas when there is no interfering cell, in which
#: case the SINR grows without bound instead of saturating.
UNBOUNDED = np.inf


def optimal_lambdas(betas) -> np.ndarray:
    """Max-min-optimal normalized shares for given per-user gains.

    lambda_k = (1/beta_k) / sum_k' (1/beta_k'); the shares sum to one and make
    every product lambda_k * beta_k identical, so all users see the same
    asymptotic SINR.  The last axis is the user; leading axes are batch axes.
    """
    betas = np.asarray(betas, dtype=float)
    if np.any(betas <= 0):
        raise ValueError("all gains must be positive")
    inv = 1.0 / betas
    return inv / inv.sum(axis=-1, keepdims=True)


def _scalar_or_array(value):
    """A 0-d result as a Python float, anything larger as an array."""
    return float(value) if np.ndim(value) == 0 else value


def sinr_perfect_csi(lambdas, betas_own, bs_power: float, sigma2: float) -> np.ndarray:
    """Per-user limit SINR with perfect CSI: lambda_k * E * beta_k / sigma^2.

    ``lambdas`` must be a point on the probability simplex (the normalized
    per-user shares of the beam).  With the max-min-optimal shares all K
    values are equal to E / (sigma^2 * sum_k 1/beta_k).  Leading axes of
    ``lambdas`` and ``betas_own`` are batch axes; the last one is the user.
    """
    lam = np.asarray(lambdas, dtype=float)
    betas = np.asarray(betas_own, dtype=float)
    if np.any(lam < 0) or np.any(np.abs(lam.sum(axis=-1) - 1.0) > _SIMPLEX_TOL):
        raise ValueError("lambdas must be nonnegative and sum to 1")
    return lam * bs_power * betas / sigma2


def _gamma_inf_sq(betas, xis, pilot_power: float, pilot_len: int, sigma_p2: float):
    """Limit of the squared normalizer of a beam built from contaminated
    per-user estimates, for every cell: sum_k xi^2 * p * tau * sum_l beta[j,l,k]
    plus the noise term.  Shape (..., N)."""
    xi2 = np.asarray(xis, dtype=float) ** 2  # (..., N, K)
    beta_sum = betas.sum(axis=-2)  # (..., N, K): sum over transmitting cells l
    return pilot_power * pilot_len * (xi2 * beta_sum).sum(axis=-1) + sigma_p2 * xi2.sum(
        axis=-1
    )


def _signal_to_rest(terms, cell: int, noise):
    """terms[..., cell, :] over the other cells' terms plus ``noise``, per user."""
    signal = terms[..., cell, :]
    interference = terms.sum(axis=-2) - signal
    return signal / (interference + noise)


def sinr_contaminated(
    betas,
    xis,
    bs_power,
    pilot_power: float,
    pilot_len: int,
    sigma_p2: float,
    sigma2: float,
    cell: int,
    user,
):
    """Limit SINR of user (cell, user) when beams use contaminated per-user
    channel estimates.

    ``betas`` is the full (..., N, N, K) gain tensor and ``xis`` the (..., N,
    K) combining weights of every cell; leading axes are batch axes.  ``user``
    is any index into the user axis (``slice(None)`` for all users); an
    integer user without batch axes gives a float.  Because all cells reuse
    the same pilot set, the beam of each interfering cell j is partially
    aligned with the victim's channel from BS j, which produces interference
    that scales with the BS power and caps the SINR.
    """
    betas = np.asarray(betas, dtype=float)
    xis = np.asarray(xis, dtype=float)
    e = np.asarray(bs_power, dtype=float)
    gamma2 = _gamma_inf_sq(betas, xis, pilot_power, pilot_len, sigma_p2)
    coupling = pilot_power * pilot_len * betas[..., :, cell, :] ** 2 * xis**2
    terms = (e / gamma2)[..., :, None] * coupling  # (..., N, K)
    return _scalar_or_array(_signal_to_rest(terms, cell, sigma2)[..., user])


def sinr_contamination_ceiling(
    betas,
    xis,
    pilot_power: float,
    pilot_len: int,
    sigma_p2: float,
    cell: int,
    user,
):
    """Large-power limit of ``sinr_contaminated`` with equal BS powers.

    Shapes and ``user`` as in ``sinr_contaminated``.  Returns ``UNBOUNDED``
    when there is no interfering cell.
    """
    betas = np.asarray(betas, dtype=float)
    xis = np.asarray(xis, dtype=float)
    if betas.shape[-3] == 1:
        unbounded = np.full(betas.shape[:-3] + betas.shape[-1:], UNBOUNDED)[..., user]
        return UNBOUNDED if np.ndim(unbounded) == 0 else unbounded
    gamma2 = _gamma_inf_sq(betas, xis, pilot_power, pilot_len, sigma_p2)
    coupling = betas[..., :, cell, :] ** 2 * xis**2 / gamma2[..., :, None]
    return _scalar_or_array(_signal_to_rest(coupling, cell, 0.0)[..., user])


def sinr_composite(
    betas_own,
    pilot_powers,
    bs_power: float,
    pilot_len: int,
    sigma_p2: float,
    sigma2: float,
) -> np.ndarray:
    """Per-user limit SINR when the beam is the estimated composite channel.

    Only the serving cell's own gains appear: the composite estimate carries
    no other-cell component, so there is no contamination term and the SINR
    keeps growing linearly with the BS power.  Leading axes are batch axes.
    """
    betas = np.asarray(betas_own, dtype=float)
    p = np.asarray(pilot_powers, dtype=float)
    denom = (betas * p).sum(axis=-1, keepdims=True) + sigma_p2 / pilot_len
    return bs_power / sigma2 * betas**2 * p / denom


def sinr_composite_optimal(
    betas_own,
    peak_power: float,
    bs_power: float,
    pilot_len: int,
    sigma_p2: float,
    sigma2: float,
):
    """Common limit SINR of the composite scheme under optimal pilot powers.

    E/sigma^2 / (sum_k 1/beta_k + sigma_p^2 / (omega * beta_min^2 * p_peak));
    every user achieves this same value.  Leading axes of ``betas_own`` are
    batch axes; without them the result is a float.
    """
    betas = np.asarray(betas_own, dtype=float)
    if np.any(betas <= 0):
        raise ValueError("all gains must be positive")
    noise_term = sigma_p2 / (pilot_len * betas.min(axis=-1) ** 2 * peak_power)
    return _scalar_or_array(
        bs_power / sigma2 / ((1.0 / betas).sum(axis=-1) + noise_term)
    )


def sinr_gap_db(betas_own, peak_power: float, pilot_len: int, sigma_p2: float):
    """dB gap between the perfect-CSI optimum and the power-controlled
    composite scheme.

    10*log10(1 + sigma_p^2 / (omega * p_peak * beta_min^2 * sum_k 1/beta_k));
    nonnegative, independent of the BS power, and shrinking as the peak pilot
    power or the pilot length grows.  Batch axes as in
    ``sinr_composite_optimal``.
    """
    betas = np.asarray(betas_own, dtype=float)
    if np.any(betas <= 0):
        raise ValueError("all gains must be positive")
    ratio = sigma_p2 / (
        pilot_len
        * peak_power
        * betas.min(axis=-1) ** 2
        * (1.0 / betas).sum(axis=-1)
    )
    return _scalar_or_array(10.0 * np.log10(1.0 + ratio))


def _mu_inf_sq(betas, pilot_powers, kappas, pilot_len: int, sigma_p2: float):
    """Limit of the squared norm (per antenna) of the delay-polluted composite
    estimate at every BS: sum over all arrivals of omega * beta * p * |kappa|^2
    plus the estimation noise power.  Shape (..., N)."""
    k2 = np.abs(np.asarray(kappas)) ** 2  # (N, N, K)
    p = np.asarray(pilot_powers, dtype=float)  # (..., N, K)
    return pilot_len * (betas * p[..., None, :, :] * k2).sum(axis=(-2, -1)) + sigma_p2


def sinr_async(
    betas,
    pilot_powers,
    kappas,
    bs_power,
    pilot_len: int,
    sigma_p2: float,
    sigma2: float,
    cell: int,
    user,
):
    """Limit SINR of the composite scheme under asynchronous pilot arrival.

    ``kappas[j, l, k]`` is the correlation at receiving BS j between the
    polluted pilot of user (l, k) and BS j's own pilot.  In-cell |kappa| < 1
    is a pure scaling loss; nonzero cross-cell kappas act exactly like pilot
    contamination and reintroduce a power ceiling.  ``betas`` (..., N, N, K)
    and ``pilot_powers`` (..., N, K) may carry batch axes; ``user`` is as in
    ``sinr_contaminated``.
    """
    betas = np.asarray(betas, dtype=float)
    p = np.asarray(pilot_powers, dtype=float)
    k2 = np.abs(np.asarray(kappas)) ** 2
    e = np.asarray(bs_power, dtype=float)
    mu2 = _mu_inf_sq(betas, p, kappas, pilot_len, sigma_p2)
    terms = (e / mu2)[..., :, None] * betas[..., :, cell, :] ** 2 * k2[:, cell, :]
    noise = sigma2 / (pilot_len * p[..., cell, :])
    return _scalar_or_array(_signal_to_rest(terms, cell, noise)[..., user])
