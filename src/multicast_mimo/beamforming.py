"""Reference-route multicast beams, each normalized to exactly unit norm.

``optimal_beamformer_perfect`` combines the served users' true channels with
weights 1/beta_k, the recipe whose large-antenna limit gives every user the
same SINR; ``beamformer_from_estimate`` normalizes an estimated channel (a
composite estimate, or per-user estimates already combined).  The explicit
vector route builds its beams with them, and the engine's finite-M sampler
is tested against that route.
"""

import numpy as np


def _normalize(vec: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vec)
    if norm == 0 or not np.isfinite(norm):
        raise ArithmeticError("cannot normalize a zero or non-finite beamformer")
    return vec / norm


def optimal_beamformer_perfect(channels, betas) -> np.ndarray:
    """Asymptotically optimal beam from perfect CSI: sum of g_k / beta_k.

    ``channels`` is (K, M) with row k the channel vector of served user k.
    The vector is normalized exactly at finite M; the closed-form asymptotic
    normalizer is an analysis device only.
    """
    g = np.asarray(channels)
    betas = np.asarray(betas, dtype=float)
    if g.shape[0] != betas.shape[0]:
        raise ValueError("channels and betas disagree on user count")
    if np.any(betas <= 0):
        raise ValueError("all gains must be positive")
    return _normalize((g / betas[:, None]).sum(axis=0))


def beamformer_from_estimate(estimate) -> np.ndarray:
    """Unit-norm copy of an estimated (composite or combined) channel vector."""
    return _normalize(np.asarray(estimate))
