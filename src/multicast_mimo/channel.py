"""Large-scale and small-scale channel generation.

The channel vector from base station i to user k of cell j is
``g[i,j,k] = sqrt(beta[i,j,k]) * h[i,j,k]`` with ``beta`` the slowly varying
power gain (path loss, shadowing, penetration) and ``h`` an i.i.d. circularly
symmetric complex Gaussian vector with unit per-entry variance.  Only the
reference route in ``tests/reference_route.py`` draws ``h``; the
finite-antenna fast path does not: per BS and draw it draws one
gamma and one complex normal per channel (``draw_beam_fading``), which do
not depend on the beam, and turns them into the power gains that its unit
beam delivers along each user's channel (``beam_gains``).  The three
samplers take a sequence of T generators, as ``seeding.make_rngs`` returns
them, and stack one row per generator: row t is what generator t alone
gives, and only the draws stay per realization.  The engine gives
realization t one generator per stream,
``np.random.default_rng([master_seed, s, t])``: s = 2 for its shadowing
(``shadowing_db``) and s = 3 for its fast fading.

Loss terms are combined in the dB domain and converted to linear once, since
typical gains near 1e-15 would otherwise lose precision; ``large_scale_gains``
does so over any leading realization axes at once.  The propagation
constants are keys of ``NetworkConfig``, and the large-scale functions take
them as plain values.
"""

import numpy as np

from .geometry import distance_m


def complex_gaussian(rngs, shape, variance: float = 1.0):
    """(T, *shape) circularly symmetric complex Gaussian draws of per-entry
    variance ``variance`` from T generators ``rngs``: row t is generator
    t's, real parts first."""
    parts = np.empty((len(rngs), 2, *np.atleast_1d(shape)))
    for generator, (real, imag) in zip(rngs, parts):
        generator.standard_normal(out=real)
        generator.standard_normal(out=imag)
    z = np.empty(parts[:, 0].shape, dtype=complex)
    z.real, z.imag = parts[:, 0], parts[:, 1]
    z *= np.sqrt(variance / 2.0)
    return z


def draw_beam_fading(rngs, m: int, shape, count: int):
    """Raw fast fading of ``count`` draws of unit beams of ``shape`` from
    each of T generators ``rngs``: ``(g, z)``.

    ``g ~ Gamma(m, 1)`` has shape ``(T, count, *shape[:-1])`` and is drawn
    first; ``z ~ CN(0, I)`` has shape ``(T, count, *shape)``.  Nothing here
    depends on the beam directions, so one draw serves every beam of that
    shape; ``beam_gains`` turns it into gains.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    g = np.empty((len(rngs), count) + tuple(shape[:-1]))
    for generator, row in zip(rngs, g):
        generator.standard_gamma(m, out=row)
    return g, complex_gaussian(rngs, (count,) + tuple(shape))


def beam_gains(u: np.ndarray, g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Power gains ``|t_k|^2`` of unit beams ``u`` along the user columns k <
    p - 1 from the raw draws ``(g, z)``: M times the squared normalized
    amplitudes at M antennas.

    For a unit vector ``u`` of length p on the last axis, ``t = X^H X u /
    ||X u||`` for an M x p matrix ``X`` of i.i.d. CN(0, 1) entries: entry k
    is what column k of ``X`` picks up from the unit beam ``X u / ||X u||``.
    Because ``X u ~ CN(0, I_M)`` is independent of ``X (I - u u^H)``
    (Goodman 1963), ``t = sqrt(g) u + (I - u u^H) z = z + u (sqrt(g) - u^H
    z)`` with ``g ~ Gamma(M, 1)`` and ``z ~ CN(0, I_p)`` independent, as
    ``draw_beam_fading`` draws them: one gamma and p complex normals at any
    M.  The last column is the residual, which no user receives.  ``u``, real
    or complex, broadcasts against ``z``, so a stack of draws is evaluated at
    once; the inputs are only read.
    """
    c = np.sqrt(g) - np.einsum("...p,...p->...", u.conj(), z)
    t = z[..., :-1] + u[..., :-1] * c[..., None]
    return t.real**2 + t.imag**2


def shadowing_db(sigma_db: float, num_cells: int, rngs) -> np.ndarray:
    """(T, N, N) shadowing [dB] of each (BS, cell) pair with standard
    deviation ``sigma_db`` from T generators ``rngs``, each row drawn in
    row-major order.  A ``sigma_db`` of -0.0 draws as 0.0, which numpy's
    ``normal`` would reject as a negative scale."""
    return np.stack(
        [rng.normal(0.0, sigma_db + 0.0, (num_cells, num_cells)) for rng in rngs]
    )


def large_scale_gains(
    centers: np.ndarray,
    pos: np.ndarray,
    shadow_db: np.ndarray,
    intercept_db: float,
    slope: float,
    penetration_db: float,
) -> np.ndarray:
    """Gains beta[..., i, j, k] from the (N, 2) base-station ``centers``,
    (..., N, K, 2) user positions and (..., N, N) shadowing; leading axes
    are realizations.

    beta = 10^(-(intercept + slope*log10(d_km) + shadow + penetration)/10).
    Shadowing is shared by a cell's users; distances stay per-user.
    """
    d = distance_m(centers[:, None, None, :], pos[..., None, :, :, :])
    if np.any(d <= 0):
        raise ValueError("distances must be positive")
    loss_db = (
        intercept_db
        + slope * np.log10(d / 1000.0)
        + shadow_db[..., None]
        + penetration_db
    )
    return 10.0 ** (-loss_db / 10.0)
