"""Multicast beamformer construction.

All beamformers here are linear combinations of the served users' channel
vectors, normalized to exactly unit norm.  The max-min-optimal combining
weights depend only on the large-scale gains: each user's normalized share of
the beam is inversely proportional to its channel gain, which equalizes the
per-user asymptotic SINRs.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CombiningWeights:
    """Per-user combining coefficients and their normalized shares."""

    xi: np.ndarray
    lambdas: np.ndarray

    @classmethod
    def from_xi(cls, xi, betas) -> "CombiningWeights":
        """Shares xi_k^2 beta_k / sum_k' xi_k'^2 beta_k' over the last axis;
        leading axes are batch axes."""
        xi = np.asarray(xi, dtype=float)
        betas = np.asarray(betas, dtype=float)
        products = xi**2 * betas
        total = products.sum(axis=-1, keepdims=True)
        if np.any(total <= 0):
            raise ValueError("combining weights produce a zero beam")
        return cls(xi=xi, lambdas=products / total)


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
