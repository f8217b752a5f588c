"""Multicast beamformer construction.

All beamformers here are linear combinations of the served users' channel
vectors, normalized to exactly unit norm.  The max-min-optimal combining
weights depend only on the large-scale gains: each user's normalized share of
the beam is inversely proportional to its channel gain, which equalizes the
per-user asymptotic SINRs.
"""

from dataclasses import dataclass

import numpy as np

SCHEME_TAGS = (
    "perfect-optimal",
    "perfect-equal",
    "estimated-individual",
    "estimated-composite",
)

_UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class Beamformer:
    """A unit-norm transmit vector plus the scheme that produced it."""

    w: np.ndarray
    scheme: str
    cell: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEME_TAGS:
            raise ValueError(f"unknown scheme tag {self.scheme!r}")
        norm = np.linalg.norm(self.w)
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"beamformer norm {norm} deviates from 1 beyond tolerance")


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


def optimal_beamformer_perfect(channels, betas, cell: int = 0) -> Beamformer:
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
    w = _normalize((g / betas[:, None]).sum(axis=0))
    return Beamformer(w=w, scheme="perfect-optimal", cell=cell)


def combine_beamformer(channels, xi, cell: int = 0, scheme: str = "perfect-equal") -> Beamformer:
    """Normalized linear combination sum_k xi_k * g_k of served-user channels.

    With all-ones weights this is the equal-combining baseline.  Scaling the
    weights by a common positive factor leaves the beam unchanged.
    """
    g = np.asarray(channels)
    xi = np.asarray(xi, dtype=float)
    if not np.any(xi != 0):
        raise ValueError("at least one combining weight must be nonzero")
    w = _normalize((xi[:, None] * g).sum(axis=0))
    return Beamformer(w=w, scheme=scheme, cell=cell)


def beamformer_from_estimate(estimate, cell: int = 0, scheme: str = "estimated-composite") -> Beamformer:
    """Unit-norm copy of an estimated (composite or combined) channel vector."""
    return Beamformer(w=_normalize(np.asarray(estimate)), scheme=scheme, cell=cell)
