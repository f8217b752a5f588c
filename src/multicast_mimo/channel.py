"""Large-scale and small-scale channel generation.

The channel vector from base station i to user k of cell j is
``g[i,j,k] = sqrt(beta[i,j,k]) * h[i,j,k]`` with ``beta`` the slowly varying
power gain (path loss, shadowing, penetration) and ``h`` an i.i.d. circularly
symmetric complex Gaussian vector with unit per-entry variance.

Loss terms are combined in the dB domain and converted to linear once, since
typical gains near 1e-15 would otherwise lose precision.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import CellLayout, UserPositions, distance_m
from .seeding import make_rng
from .units import dbm_to_watts


@dataclass(frozen=True)
class FadingConfig:
    """Propagation constants. Defaults model an urban macro deployment."""

    pathloss_intercept_db: float = 128.1
    pathloss_slope: float = 37.6  # dB per decade of distance in km
    shadow_sigma_db: float = 8.0
    penetration_loss_db: float = 20.0
    noise_psd_dbm_hz: float = -174.0
    bandwidth_hz: float = 20e6
    pilot_noise_ratio: float = 0.1  # sigma_p^2 / sigma^2

    def __post_init__(self):
        for name in (
            "pathloss_intercept_db",
            "pathloss_slope",
            "shadow_sigma_db",
            "penetration_loss_db",
            "noise_psd_dbm_hz",
        ):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.pilot_noise_ratio <= 0:
            raise ValueError("pilot_noise_ratio must be positive")


def noise_power(fading: FadingConfig) -> float:
    """Receiver noise power sigma^2 in Watts over the configured bandwidth."""
    return float(
        dbm_to_watts(fading.noise_psd_dbm_hz + 10.0 * np.log10(fading.bandwidth_hz))
    )


def pilot_noise_power(fading: FadingConfig) -> float:
    """Uplink pilot noise power sigma_p^2 in Watts."""
    return fading.pilot_noise_ratio * noise_power(fading)


def complex_gaussian(rng: np.random.Generator, shape, variance: float = 1.0):
    """Circularly symmetric complex Gaussian array, per-entry variance ``variance``."""
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def sample_gram(rng: np.random.Generator, m: int, p: int, shape=()) -> np.ndarray:
    """``(*shape, p, p)`` independent draws of the complex Wishart CW_p(m, I).

    Each draw is distributed as ``X^H X`` for an m x p matrix ``X`` of i.i.d.
    CN(0, 1) entries: the Gram matrix of p independent m-antenna fading
    vectors.  For m >= p it is built from the Bartlett decomposition
    ``A = L L^H`` (Goodman 1963): ``L`` is lower triangular with CN(0, 1)
    entries below the diagonal, drawn first, and real diagonal entries with
    ``L_ii^2 ~ Gamma(m - i, 1)``, drawn second, so the cost does not grow
    with m.  For m < p the Gram matrix is singular and ``X`` itself is drawn.
    """
    if m < 1 or p < 1:
        raise ValueError(f"need m >= 1 and p >= 1, got m={m}, p={p}")
    shape = tuple(shape)
    if m < p:
        x = complex_gaussian(rng, shape + (m, p))
        return x.conj().swapaxes(-1, -2) @ x
    rows, cols = np.tril_indices(p, -1)
    lower = np.zeros(shape + (p, p), dtype=np.complex128)
    lower[..., rows, cols] = complex_gaussian(rng, shape + (rows.size,))
    diag = np.arange(p)
    lower[..., diag, diag] = np.sqrt(rng.standard_gamma(m - diag, shape + (p,)))
    return lower @ lower.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class ChannelState:
    """One realization of all BS-to-user channels.

    ``beta[i, j, k]`` is the large-scale gain and ``h[i, j, k]`` the
    small-scale vector from BS i to user k of cell j.
    """

    beta: np.ndarray  # (N, N, K)
    h: np.ndarray  # (N, N, K, M) complex

    @property
    def num_cells(self) -> int:
        return self.beta.shape[0]

    @property
    def users_per_cell(self) -> int:
        return self.beta.shape[2]

    @property
    def antennas(self) -> int:
        return self.h.shape[3]

    def vector(self, i: int, j: int, k: int) -> np.ndarray:
        """Channel vector g from BS i to user k of cell j."""
        return np.sqrt(self.beta[i, j, k]) * self.h[i, j, k]


def large_scale_tensor(
    layout: CellLayout,
    positions: UserPositions,
    fading: FadingConfig,
    large_seed: int,
) -> np.ndarray:
    """Gains beta[i, j, k] for every (BS i, user k of cell j) pair.

    beta = 10^(-(intercept + slope*log10(d_km) + shadow + penetration)/10).
    Shadowing is drawn once per (BS, cell) pair and shared by that cell's
    users; distances stay per-user.  All N x N shadowing values come from one
    generator seeded with ``large_seed``, in row-major (BS, cell) order.
    """
    n = layout.num_cells
    if positions.pos.shape[0] != n:
        raise ValueError(
            f"positions cover {positions.pos.shape[0]} cells, layout has {n}"
        )
    d = distance_m(layout.centers[:, None, None, :], positions.pos[None])
    if np.any(d <= 0):
        raise ValueError("distances must be positive")
    shadow_db = make_rng(large_seed).normal(0.0, fading.shadow_sigma_db, (n, n))
    loss_db = (
        fading.pathloss_intercept_db
        + fading.pathloss_slope * np.log10(d / 1000.0)
        + shadow_db[..., None]
        + fading.penetration_loss_db
    )
    return 10.0 ** (-loss_db / 10.0)
