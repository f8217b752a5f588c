"""Large-scale and small-scale channel generation.

The channel vector from base station i to user k of cell j is
``g[i,j,k] = sqrt(beta[i,j,k]) * h[i,j,k]`` with ``beta`` the slowly varying
power gain (path loss, shadowing, penetration) and ``h`` an i.i.d. circularly
symmetric complex Gaussian vector with unit per-entry variance.  The
finite-antenna fast path does not draw ``h``: per BS it draws the normalized
amplitudes that its unit beam delivers along each channel
(``sample_beam_amplitudes``).

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


def sample_beam_amplitudes(
    rng: np.random.Generator, m: int, u: np.ndarray, count: int
) -> np.ndarray:
    """``(count, *u.shape)`` normalized amplitudes of unit beams, one draw per row.

    For a unit vector ``u`` of length p on the last axis, a draw is ``t /
    sqrt(m)`` with ``t = X^H X u / ||X u||`` for an m x p matrix ``X`` of
    i.i.d. CN(0, 1) entries: entry k is what column k of ``X`` picks up from
    the unit beam ``X u / ||X u||``.  Because ``X u ~ CN(0, I_m)`` is
    independent of ``X (I - u u^H)`` (Goodman 1963), ``t = sqrt(g) u + (I - u
    u^H) z`` with ``g ~ Gamma(m, 1)`` and ``z ~ CN(0, I_p)`` independent, so a
    draw costs one gamma, drawn first, and p complex normals at any m.  Every
    vector on the leading axes of ``u`` gets its own draws.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    g = rng.standard_gamma(m, (count,) + u.shape[:-1])
    z = complex_gaussian(rng, (count,) + u.shape)
    projected = z - u * np.sum(u.conj() * z, axis=-1, keepdims=True)
    return (np.sqrt(g)[..., None] * u + projected) / np.sqrt(m)


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
