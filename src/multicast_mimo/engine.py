"""Monte Carlo engine: finite-antenna and large-antenna experiments.

Every scheme's beam at BS j is a linear combination of BS j's channels with
coefficients that depend only on the large-scale gains.  Both evaluation
modes share one context holding them (``_build_trial_context``), built once
per experiment on the (T, N, N, K) batch of large-scale realizations.  In
the basis of BS j's channels to the evaluated cell's users plus one
independent residual (other-cell channels and pilot noise), the beam has a
unit direction ``u_j`` (``_beam_directions``), and the evaluated cell's
SINRs depend on the fast fading only through the beam's normalized
amplitude along each of those channels.  With finite antennas
``run_experiment`` draws these amplitudes directly, at any antenna count:
one gamma and K+1 complex normals per BS and draw
(``channel.draw_beam_fading``), projected onto ``u_j``
(``channel.project_beam_fading``); it evaluates ``sinr_from_amplitudes``
on them.  With ``antennas = None`` no fast fading is drawn: the amplitudes
tend to ``u_j`` as M grows, and the same evaluator gives the large-antenna
SINRs (``_limit_sinrs``), which the tests hold to the closed forms of
``asymptotic``.

The large-scale batch depends only on the geometry: cells, radius, users per
cell, exclusion radius, propagation constants, realization count and master
seed.  ``large_scale_batch`` keeps the last few batches it built, read-only,
so every experiment in a process that shares a geometry (curves of other
schemes, powers, pilot settings or antenna counts) evaluates the same batch
without drawing it again; the result is the same as drawing it per curve.
At finite M the draws of a block of realizations are stacked and evaluated
at once; each realization still draws from its own generator, so block
edges change no result.  The raw draws do not depend on the scheme: they
are keyed by the antenna count, the (N, K+1) beam shape, the draw count,
the block's realizations and the master seed.  ``_cached_draws`` keeps the
last ``_DRAW_CACHE_SIZE`` blocks, read-only, each of at most
``_BLOCK_AMPLITUDES`` amplitudes (about 1 MiB in all), and only for an
experiment that fits in them: ``num_large * num_small * N * (K+1) <=
_DRAW_CACHE_SIZE * _BLOCK_AMPLITUDES`` in whole blocks.  Then the other
schemes of a comparison at the same M project the same draws onto their
own beams without deriving a seed or running a generator.  A larger
experiment, such as a comparison at the default counts, draws each block
and drops it, as each scheme would evict the blocks before the next one
reached them.

The explicit vector route (``ChannelState`` -> ``pilots.uplink_rx`` ->
estimator -> ``beamforming`` -> ``downlink_sinr``) is the reference that
the finite-antenna fast path is tested against.

Randomness is derived from a single master seed via counter-based seed paths,
so any realization is reproducible in isolation and results do not depend on
execution order.
"""

import functools
import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .channel import (
    ChannelState,
    # Not used here.  perfbench/tests/test_harness.py::
    # test_wrappers_are_installed_where_looked_up_and_restored checks that the
    # tracer wraps this module's binding of it.
    complex_gaussian,  # noqa: F401
    draw_beam_fading,
    large_scale_tensor,
    noise_power,
    pilot_noise_power,
    project_beam_fading,
)
from .config import (
    ConfigError,
    NetworkConfig,
    serialize_config,
    validate_config,
    validate_scheme_requirements,
)
from .geometry import build_hex_layout, drop_users
from .pilots import (
    AsyncProfile,
    async_kappas,
    make_orthogonal_pilots,
    make_pilot_book,
    optimal_pilot_powers,
)
from .seeding import child_seed, make_rng
from .units import linear_to_db

# Seed stream tags (stable identifiers; changing them changes every result).
_POSITIONS_STREAM = 1
_LARGE_STREAM = 2
_SMALL_STREAM = 3

# Large-scale batches kept per process: the fig2 preset draws two geometries.
_BATCH_CACHE_SIZE = 2

# Complex beam amplitudes evaluated at once on the finite-M path: whole
# realizations of ``num_small`` draws, at least one.  Bounds the working set
# whatever the trial counts.
_BLOCK_AMPLITUDES = 2**14

# Blocks of raw finite-M draws kept per process, each of at most
# ``_BLOCK_AMPLITUDES`` complex amplitudes (256 KiB) and its gammas: about
# 1 MiB in all.
_DRAW_CACHE_SIZE = 4


@dataclass(frozen=True)
class SinrReport:
    """Aggregate of an experiment: one min-SINR sample per large-scale trial.

    Within a realization the minimum SINR is averaged over fast-fading draws
    in linear scale; across realizations the summary mean is taken over the
    per-realization dB samples, so no single lucky realization dominates.
    """

    samples_db: np.ndarray
    cdf: np.ndarray  # (n, 2): (sinr_db, probability), sorted ascending
    mean_min_sinr_db: float
    scheme: str
    fingerprint: str


def empirical_cdf(samples) -> np.ndarray:
    """Right-continuous empirical CDF as sorted (value, probability) pairs."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size == 0:
        raise ValueError("cannot build a CDF from no samples")
    probs = np.arange(1, s.size + 1) / s.size
    return np.column_stack([s, probs])


def downlink_sinr(
    channels: ChannelState,
    beamformers,
    powers,
    sigma2: float,
    cell: int,
    user: int,
) -> float:
    """Downlink SINR of one user: serving beam power over the sum of
    other-cell beam powers plus noise.

    ``beamformers`` holds one unit-norm beam per cell, ``powers`` the per-cell
    transmit powers in Watts.  This is the direct per-user evaluation that
    ``sinr_from_amplitudes`` must reproduce on the amplitudes of the same
    vectors.
    """
    n = channels.num_cells
    if len(beamformers) != n or len(powers) != n:
        raise ValueError("need one beamformer and one power per cell")
    received = np.empty(n)
    for j, w in enumerate(beamformers):
        if w.shape[0] != channels.antennas:
            raise ValueError("beamformer length does not match antenna count")
        received[j] = powers[j] * np.abs(channels.vector(j, cell, user).conj() @ w) ** 2
    interference = received.sum() - received[cell]
    return float(received[cell] / (interference + sigma2))


@dataclass(frozen=True)
class _TrialContext:
    """One scheme's beam recipe on a large-scale realization or a batch of them.

    BS j's beam is sum_{l,k} weights[..., j, l, k] h_jlk plus its pilot noise
    combined by ``noise_combiner[j]``, where h_jlk is the small-scale channel
    of user (l, k).  Leading axes of ``weights`` and ``eval_amp`` are batch
    axes: realizations, and a length-one draw axis when a block of finite-M
    draws is evaluated.  Nothing here depends on the antenna count.
    """

    weights: np.ndarray  # (..., N, N, K) float, complex for async: incl. sqrt(beta)
    noise_combiner: np.ndarray | None  # (N, L) complex, None for perfect CSI
    eval_amp: np.ndarray  # (..., N, K) sqrt(beta) toward the evaluated cell
    bs_power_w: float
    sigma2: float
    sigma_p2: float
    eval_cell: int


def _single_bs_power(config: NetworkConfig) -> float:
    if len(config.E_dbw) != 1:
        raise ConfigError(
            "E_dbw", "experiments need a single BS power; sweep presets iterate"
        )
    return config.bs_power_w[0]


def _large_scale_for_trial(config: NetworkConfig, large_seed: int):
    layout = build_hex_layout(config.cells, config.radius_m)
    positions = drop_users(
        layout,
        config.users_per_cell,
        config.exclusion_m,
        child_seed(large_seed, _POSITIONS_STREAM),
    )
    beta = large_scale_tensor(layout, positions, config.fading, large_seed)
    return layout, positions, beta


def _async_kappas(config: NetworkConfig) -> np.ndarray:
    """(N, N, K) pilot correlations of the async scheme, ``[j, l, k]`` at BS j.

    They depend only on the sequences and delays, not on the channel
    realization, so one tensor serves every realization.
    """
    n, k = config.cells, config.users_per_cell
    offsets = np.asarray(config.async_offsets_s, dtype=float).reshape(n, k)
    profile = AsyncProfile.from_user_offsets(offsets, config.pilot_symbol_s)
    book = make_pilot_book(
        "per-cell", n, k, config.pilot_length, config.peak_pilot_power_w
    )
    return np.stack([async_kappas(book, profile, j) for j in range(n)])


def _scheme_pilot_powers(config: NetworkConfig, own: np.ndarray, controlled: bool):
    """(..., N, K) uplink pilot powers: closed-form rule per cell, or all-peak."""
    p_u = config.peak_pilot_power_w
    if not controlled:
        return np.full(own.shape, p_u)
    return optimal_pilot_powers(own, p_u)


def _build_trial_context(
    config: NetworkConfig, scheme: str, beta: np.ndarray
) -> _TrialContext:
    """Beam recipe of ``scheme`` on ``beta``: one (N, N, K) realization or a
    (..., N, N, K) batch such as ``large_scale_batch``; row t of a batch is
    the context of ``beta[t]``."""
    validate_scheme_requirements(config, scheme)
    n, k = config.cells, config.users_per_cell
    length = config.pilot_length
    own = np.einsum("...jjk->...jk", beta)  # (..., N, K)
    sqrt_beta = np.sqrt(beta)
    p_u = config.peak_pilot_power_w
    cells = np.arange(n)

    weights = np.zeros(beta.shape)
    noise_combiner = None
    if scheme == "perfect-optimal":
        weights[..., cells, cells, :] = 1.0 / np.sqrt(own)
    elif scheme == "perfect-equal":
        weights[..., cells, cells, :] = np.sqrt(own)
    elif scheme == "individual-pilot":
        weights = np.sqrt(p_u * length) * sqrt_beta
        combiner = make_orthogonal_pilots(k, length).conj().sum(axis=0)
        noise_combiner = np.broadcast_to(combiner, (n, length))
    elif scheme in ("composite", "composite-power-controlled"):
        powers = _scheme_pilot_powers(
            config, own, controlled=(scheme == "composite-power-controlled")
        )
        weights[..., cells, cells, :] = np.sqrt(powers * length * own)
        noise_combiner = make_orthogonal_pilots(n, length).conj()
    elif scheme == "composite-async":
        powers = _scheme_pilot_powers(config, own, config.async_power_control)
        weights = (
            np.sqrt(powers * length)[..., None, :, :] * sqrt_beta * _async_kappas(config)
        )
        noise_combiner = make_orthogonal_pilots(n, length).conj()

    return _TrialContext(
        weights=weights,
        noise_combiner=noise_combiner,
        eval_amp=sqrt_beta[..., :, 0, :],
        bs_power_w=_single_bs_power(config),
        sigma2=noise_power(config.fading),
        sigma_p2=pilot_noise_power(config.fading),
        eval_cell=0,
    )


def _user_sinrs(ctx: _TrialContext, received: np.ndarray) -> np.ndarray:
    """(..., K) SINRs from the (..., N, K) powers each BS delivers to the
    evaluated cell's users: serving-cell power over other-cell power plus noise."""
    signal = received[..., ctx.eval_cell, :]
    interference = received.sum(axis=-2) - signal
    return signal / (interference + ctx.sigma2)


def _beam_directions(ctx: _TrialContext) -> np.ndarray:
    """(..., N, K+1) unit directions ``u_j = c_j / ||c_j||`` of each BS's beam.

    BS j's beam is ``X_j c_j`` for ``X_j = [h_j0, ..., h_j(K-1), r_j / s_j]``:
    its small-scale channels to the evaluated cell e's users and its residual
    ``r_j`` (other-cell channel terms plus pilot noise, independent of the
    evaluated cell's channels) over its standard deviation per antenna ``s_j``.
    So ``c_j = [weights[j, e, :], s_j]`` with ``s_j^2 = sum_{l != e, k}
    |weights[j, l, k]|^2 + sigma_p^2 ||noise_combiner_j||^2``, and the columns
    of ``X_j`` are i.i.d. CN(0, I_M).
    """
    power = np.abs(ctx.weights) ** 2  # (..., N, N, K)
    n, k = power.shape[-2:]
    others = np.repeat(np.arange(n) != ctx.eval_cell, k).astype(float)
    residual = power.reshape(power.shape[:-2] + (n * k,)) @ others
    if ctx.noise_combiner is not None:
        residual = residual + ctx.sigma_p2 * np.sum(np.abs(ctx.noise_combiner) ** 2, axis=-1)
    c = np.concatenate(
        [ctx.weights[..., ctx.eval_cell, :], np.sqrt(residual)[..., None]], axis=-1
    )
    return c / np.linalg.norm(c, axis=-1, keepdims=True)


def sinr_from_amplitudes(ctx: _TrialContext, amplitudes: np.ndarray) -> np.ndarray:
    """(..., K) linear SINRs of the evaluated cell from (..., N, K+1)
    normalized beam amplitudes.

    ``amplitudes[..., j, k]`` is ``X_j^H b_j / sqrt(M)`` at entry k < K for
    BS j's unit beam ``b_j = X_j u_j / ||X_j u_j||`` (see ``_beam_directions``),
    so user k receives ``|amplitudes[..., j, k]|^2 beta_jk E`` from BS j.
    Exact for every scheme, whatever the amplitudes hold:
    ``channel.project_beam_fading`` makes them at finite M, and their
    limit as M grows, ``u_j`` itself, gives the large-antenna SINRs
    (``_limit_sinrs``).
    """
    k = amplitudes.shape[-1] - 1
    gains = np.abs(amplitudes[..., :k]) ** 2
    return _user_sinrs(ctx, ctx.bs_power_w * ctx.eval_amp**2 * gains)


def _limit_sinrs(ctx: _TrialContext) -> np.ndarray:
    """(..., K) large-antenna SINRs: BS j gives user k the share ``|u_jk|^2``
    of its power."""
    return sinr_from_amplitudes(ctx, _beam_directions(ctx))


def _fingerprint(config: NetworkConfig, scheme, num_large, num_small, master_seed):
    if config.antennas is None:
        # No fast fading is drawn, so the draw count cannot change the result.
        config, num_small = replace(config, num_small=1), None
    text = (
        f"{__version__}\n"
        + serialize_config(config)
        + f"\n{scheme}|{num_large}|{num_small}|{master_seed}"
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _report(config, scheme, samples, num_small, master_seed) -> SinrReport:
    return SinrReport(
        samples_db=samples,
        cdf=empirical_cdf(samples),
        mean_min_sinr_db=float(samples.mean()),
        scheme=scheme,
        fingerprint=_fingerprint(config, scheme, samples.size, num_small, master_seed),
    )


def _non_finite(
    t: int, large_seed: int, small_seed: int | None = None, draw: int | None = None
):
    where = f"realization {t} (large seed {large_seed}"
    if small_seed is not None:
        where += f", small seed {small_seed}, draw {draw}"
    return ArithmeticError(f"non-finite SINR in {where})")


def large_scale_batch(
    config: NetworkConfig, num_large: int | None = None, master_seed: int | None = None
) -> np.ndarray:
    """Gains of realizations 0..T-1 stacked into a read-only (T, N, N, K) batch.

    Row t is the realization keyed by ``child_seed(master_seed, LARGE, t)``,
    drawn exactly as a single trial draws it, so no row depends on another.
    ``num_large`` and ``master_seed`` default to the config's values.  Only
    the geometry fields of ``config`` enter, and the process keeps the last
    ``_BATCH_CACHE_SIZE`` batches: a config that differs only in powers,
    pilot settings, scheme or antennas gets the same array back.
    """
    num_large = num_large if num_large is not None else config.num_large
    master_seed = master_seed if master_seed is not None else config.master_seed
    if num_large < 1:
        raise ConfigError("num_large", "trial counts must be at least 1")
    return _cached_batch(
        config.cells,
        config.radius_m,
        config.users_per_cell,
        config.exclusion_m,
        config.fading,
        num_large,
        master_seed,
    )


@functools.lru_cache(maxsize=_BATCH_CACHE_SIZE)
def _cached_batch(
    cells, radius_m, users_per_cell, exclusion_m, fading, num_large, master_seed
) -> np.ndarray:
    geometry = NetworkConfig(
        cells=cells,
        radius_m=radius_m,
        users_per_cell=users_per_cell,
        exclusion_m=exclusion_m,
        fading=fading,
    )
    beta = np.stack(
        [
            _large_scale_for_trial(geometry, child_seed(master_seed, _LARGE_STREAM, t))[2]
            for t in range(num_large)
        ]
    )
    beta.flags.writeable = False
    return beta


def _realizations_per_block(config: NetworkConfig) -> int:
    """Realizations whose finite-M draws are stacked and evaluated at once:
    up to ``_BLOCK_AMPLITUDES`` amplitudes' worth, at least one."""
    per_realization = config.num_small * config.cells * (config.users_per_cell + 1)
    return max(1, _BLOCK_AMPLITUDES // per_realization)


def _draw_block(config: NetworkConfig, lo: int, hi: int):
    """Read-only raw draws ``(g, z)`` of realizations lo..hi-1, stacked:
    ``(hi - lo, num_small, N)`` gammas and ``(hi - lo, num_small, N, K+1)``
    complex normals.  Only the antenna count, the beam shape, the draw count
    and the master seed of ``config`` select them.  They are kept only when
    every block of the experiment can be: at most ``_DRAW_CACHE_SIZE`` blocks
    of at most ``_BLOCK_AMPLITUDES`` amplitudes each.  A larger experiment
    would evict each block before another scheme reaches it, so its blocks
    are drawn and dropped."""
    width = config.users_per_cell + 1
    kept = (
        config.num_small * config.cells * width <= _BLOCK_AMPLITUDES
        and config.num_large <= _DRAW_CACHE_SIZE * _realizations_per_block(config)
    )
    draws = _cached_draws if kept else _stacked_draws
    return draws(
        config.antennas,
        config.cells,
        width,
        config.num_small,
        lo,
        hi,
        config.master_seed,
    )


def _stacked_draws(antennas, cells, width, num_small, lo, hi, master_seed):
    draws = [
        draw_beam_fading(
            make_rng(child_seed(master_seed, _SMALL_STREAM, t)),
            antennas,
            (cells, width),
            num_small,
        )
        for t in range(lo, hi)
    ]
    g, z = map(np.stack, zip(*draws))
    g.flags.writeable = False
    z.flags.writeable = False
    return g, z


_cached_draws = functools.lru_cache(maxsize=_DRAW_CACHE_SIZE)(_stacked_draws)


def _first_non_finite(sinr: np.ndarray):
    """Index of the first user-SINR row holding a non-finite value, in C
    order over the leading axes, or None."""
    bad = np.argwhere(~np.all(np.isfinite(sinr), axis=-1))
    return tuple(int(i) for i in bad[0]) if bad.size else None


def run_experiment(
    config: NetworkConfig,
    scheme: str | None = None,
    num_large: int | None = None,
    num_small: int | None = None,
    master_seed: int | None = None,
) -> SinrReport:
    """Aggregate min-SINR statistics over independent large-scale realizations.

    The config, with the call's scheme, counts and seed applied, is validated
    first.  Both modes evaluate one context built on ``large_scale_batch``.
    In asymptotic mode (``config.antennas is None``) the SINRs are its limit
    (``_limit_sinrs``): no fast fading is drawn and ``num_small`` only counts
    towards validation.  With finite antennas each realization's minimum
    SINR is averaged over ``num_small`` fast-fading draws in linear scale
    before conversion to dB.  Realization t takes all of them from one
    generator keyed by ``child_seed(master_seed, SMALL, t)``: the raw draws
    of ``channel.draw_beam_fading``, row s being draw s, projected onto the
    scheme's beam directions (``channel.project_beam_fading``).  The draws of
    up to ``_BLOCK_AMPLITUDES`` amplitudes' worth of realizations are stacked,
    projected and evaluated together.  An experiment of at most
    ``_DRAW_CACHE_SIZE`` blocks keeps its raw draws for later calls at the
    same antenna count, beam shape, draw count and seed (``_draw_block``).
    Seeds for realization t depend only on the master seed and t, never on
    execution order.  A non-finite SINR raises ``ArithmeticError`` naming
    the first bad realization, its seeds and, at finite M, the draw.
    """
    scheme = scheme if scheme is not None else config.scheme
    num_large = num_large if num_large is not None else config.num_large
    num_small = num_small if num_small is not None else config.num_small
    master_seed = master_seed if master_seed is not None else config.master_seed
    resolved = replace(
        config,
        scheme=scheme,
        num_large=num_large,
        num_small=num_small,
        master_seed=master_seed,
    )
    validate_config(resolved)

    ctx = _build_trial_context(
        config, scheme, large_scale_batch(config, num_large, master_seed)
    )
    if config.antennas is None:
        per_user = _limit_sinrs(ctx)
        bad = _first_non_finite(per_user)
        if bad is not None:
            (t,) = bad
            raise _non_finite(t, child_seed(master_seed, _LARGE_STREAM, t))
        samples = linear_to_db(per_user.min(axis=-1))
        return _report(config, scheme, samples, None, master_seed)

    directions = _beam_directions(ctx)
    block = _realizations_per_block(resolved)
    samples = np.empty(num_large)
    for lo in range(0, num_large, block):
        hi = min(lo + block, num_large)
        g, z = _draw_block(resolved, lo, hi)
        amplitudes = project_beam_fading(
            config.antennas, directions[lo:hi, None], g, z
        )  # (hi - lo, num_small, N, K+1)
        drawn = replace(
            ctx, weights=ctx.weights[lo:hi, None], eval_amp=ctx.eval_amp[lo:hi, None]
        )
        sinr = sinr_from_amplitudes(drawn, amplitudes)
        bad = _first_non_finite(sinr)
        if bad is not None:
            t, draw = lo + bad[0], bad[1]
            raise _non_finite(
                t,
                child_seed(master_seed, _LARGE_STREAM, t),
                child_seed(master_seed, _SMALL_STREAM, t),
                draw,
            )
        samples[lo:hi] = linear_to_db(sinr.min(axis=-1).mean(axis=-1))
    return _report(config, scheme, samples, num_small, master_seed)
