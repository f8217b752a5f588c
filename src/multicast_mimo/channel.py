"""Large-scale and small-scale channel generation.

The channel vector from base station i to user k of cell j is
``g[i,j,k] = sqrt(beta[i,j,k]) * h[i,j,k]`` with ``beta`` the slowly varying
power gain (path loss, shadowing, penetration) and ``h`` an i.i.d. circularly
symmetric complex Gaussian vector with unit per-entry variance.  Only the
reference route in ``tests/reference_route.py`` draws ``h``; the
finite-antenna fast path does not: per BS and draw it draws one
gamma and one complex normal per channel (``draw_beam_fading``), which do
not depend on the beam, and projects them onto the beam's direction to get
the normalized amplitudes that its unit beam delivers along each channel
(``project_beam_fading``), which computes into one complex result array
in place.  Given a sequence of generators, the draws stack one row per
generator: only the draws stay per realization.  The engine gives
realization t one generator per stream, ``np.random.default_rng(
[master_seed, s, t])``: s = 2 for its shadowing (``shadowing_db``) and
s = 3 for its fast fading.

Loss terms are combined in the dB domain and converted to linear once, since
typical gains near 1e-15 would otherwise lose precision; ``large_scale_gains``
does so over any leading realization axes at once.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import CellLayout, distance_m
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
            "bandwidth_hz",
            "pilot_noise_ratio",
        ):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.shadow_sigma_db >= 0:
            raise ValueError("shadow_sigma_db must be non-negative")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be positive")
        if not self.pilot_noise_ratio > 0:
            raise ValueError("pilot_noise_ratio must be positive")


def noise_power(fading: FadingConfig) -> float:
    """Receiver noise power sigma^2 in Watts over the configured bandwidth."""
    return float(
        dbm_to_watts(fading.noise_psd_dbm_hz + 10.0 * np.log10(fading.bandwidth_hz))
    )


def pilot_noise_power(fading: FadingConfig) -> float:
    """Uplink pilot noise power sigma_p^2 in Watts."""
    return fading.pilot_noise_ratio * noise_power(fading)


def _generators(rng):
    """``(generators, single)``: one generator as a list of one, or a sequence."""
    single = np.ndim(rng) == 0
    return ([rng] if single else list(rng)), single


def complex_gaussian(rng, shape, variance: float = 1.0):
    """Circularly symmetric complex Gaussian array, per-entry variance ``variance``.

    ``rng`` is one generator, or a sequence of T generators stacked on a
    leading axis: row t is what generator t alone gives, real parts first.
    """
    rngs, single = _generators(rng)
    parts = np.empty((len(rngs), 2, *np.atleast_1d(shape)))
    for generator, (real, imag) in zip(rngs, parts):
        generator.standard_normal(out=real)
        generator.standard_normal(out=imag)
    z = np.empty(parts[:, 0].shape, dtype=complex)
    z.real, z.imag = parts[:, 0], parts[:, 1]
    z *= np.sqrt(variance / 2.0)
    return z[0] if single else z


def draw_beam_fading(rng, m: int, shape, count: int):
    """Raw fast fading of ``count`` draws of unit beams of ``shape``: ``(g, z)``.

    ``g ~ Gamma(m, 1)`` has shape ``(count, *shape[:-1])`` and is drawn
    first; ``z ~ CN(0, I)`` has shape ``(count, *shape)``.  Nothing here
    depends on the beam directions, so one draw serves every beam of that
    shape; ``project_beam_fading`` turns it into amplitudes.  A sequence of
    generators, as in ``complex_gaussian``, stacks one row per generator.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    rngs, single = _generators(rng)
    g = np.empty((len(rngs), count) + tuple(shape[:-1]))
    for generator, row in zip(rngs, g):
        generator.standard_gamma(m, out=row)
    z = complex_gaussian(rngs, (count,) + tuple(shape))
    return (g[0], z[0]) if single else (g, z)


def project_beam_fading(m: int, u: np.ndarray, g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Normalized amplitudes of unit beams ``u`` from the raw draws ``(g, z)``.

    For a unit vector ``u`` of length p on the last axis, a draw is ``t /
    sqrt(m)`` with ``t = X^H X u / ||X u||`` for an m x p matrix ``X`` of
    i.i.d. CN(0, 1) entries: entry k is what column k of ``X`` picks up from
    the unit beam ``X u / ||X u||``.  Because ``X u ~ CN(0, I_m)`` is
    independent of ``X (I - u u^H)`` (Goodman 1963), ``t = sqrt(g) u + (I - u
    u^H) z`` with ``g ~ Gamma(m, 1)`` and ``z ~ CN(0, I_p)`` independent, as
    ``draw_beam_fading`` draws them: one gamma and p complex normals at any
    m.  ``u`` broadcasts against ``z``, so a stack of draws is projected at
    once.  The result is ``(sqrt(g) u + (z - u (u^H z))) / sqrt(m)`` bit for
    bit, computed in place in one new complex array; ``u``, ``g`` and ``z``
    are only read, so they may be read-only cached draws.
    """
    out = np.empty(np.broadcast_shapes(u.shape, z.shape), dtype=np.result_type(u, z))
    np.multiply(u.conj(), z, out=out)
    along = np.sum(out, axis=-1, keepdims=True)  # u^H z
    np.multiply(u, along, out=out)
    np.subtract(z, out, out=out)  # (I - u u^H) z
    out += np.sqrt(g)[..., None] * u
    out /= np.sqrt(m)
    return out


def shadowing_db(fading: FadingConfig, num_cells: int, rng_seed) -> np.ndarray:
    """(N, N) shadowing [dB] of each (BS, cell) pair, drawn in row-major
    order from ``np.random.default_rng(rng_seed)``: ``rng_seed`` itself if it
    is a generator."""
    rng = np.random.default_rng(rng_seed)
    return rng.normal(0.0, fading.shadow_sigma_db, (num_cells, num_cells))


def large_scale_gains(
    layout: CellLayout, pos: np.ndarray, shadow_db: np.ndarray, fading: FadingConfig
) -> np.ndarray:
    """Gains beta[..., i, j, k] from (..., N, K, 2) user positions and
    (..., N, N) shadowing; leading axes are realizations.

    beta = 10^(-(intercept + slope*log10(d_km) + shadow + penetration)/10).
    Shadowing is shared by a cell's users; distances stay per-user.
    """
    d = distance_m(layout.centers[:, None, None, :], pos[..., None, :, :, :])
    if np.any(d <= 0):
        raise ValueError("distances must be positive")
    loss_db = (
        fading.pathloss_intercept_db
        + fading.pathloss_slope * np.log10(d / 1000.0)
        + shadow_db[..., None]
        + fading.penetration_loss_db
    )
    return 10.0 ** (-loss_db / 10.0)
