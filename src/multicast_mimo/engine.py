"""Monte Carlo engine: finite-antenna and large-antenna experiments.

Every scheme's beam at BS j is a linear combination of BS j's channels with
coefficients that depend only on the large-scale gains.  Both evaluation
modes share one context holding that recipe and nothing else
(``_build_trial_context``), built once per group of experiments that differ
only in BS power, on the (T, N, N, K) batch of large-scale realizations.  In
the basis of BS j's channels to the evaluated cell's users plus one
independent residual (other-cell channels and pilot noise), the beam has a
unit direction ``u_j`` (``_beam_directions``), and the evaluated cell's
SINRs depend on the fast fading only through the beam's normalized
amplitude along each of those channels.  As M grows the amplitudes tend to
``u_j``.  So one loop over blocks of realizations evaluates both modes.
Each block starts from ``u_j``, the large-antenna limit; with finite
antennas the block's amplitudes are drawn directly, at any antenna count:
one gamma and K+1 complex normals per BS and draw
(``channel.draw_beam_fading``), projected onto ``u_j``
(``channel.project_beam_fading``).  One evaluator,
``sinr_from_amplitudes``, gives the SINRs of either from the amplitudes and
three plain arguments, which each group computes once and each block slices:
the large-scale amplitudes toward the evaluated cell (cell 0,
``_EVAL_CELL``), the group's BS powers and the noise power.  The tests hold
the limit to the paper's closed forms in ``tests/closed_forms.py``.

An experiment's only input is its resolved config: the config with the
call's scheme applied.  Not every key is read: ``_experiment_key`` resets
the ones the experiment cannot read (the output directory and antenna
sweep, the draw count in asymptotic mode, the pilot keys under perfect CSI
and the async keys outside ``composite-async``) to their defaults.
``run_experiments`` takes a list of resolved configs, and ``run_experiment``
is its one-config case.  The BS power enters only the last product of the
SINR, so configs whose experiment keys are equal apart from ``E_dbw`` share
one context, one set of beam directions and one block loop, their powers on
a leading axis of the SINRs; each report equals that config's solo run bit
for bit.  The report's fingerprint hashes the package version, that group
key, serialized once per group, and the config's power, so two calls that
run the same experiment share a fingerprint.

A group evaluates the large-scale batch of its geometry, which
``large_scale_batch`` builds and keeps.
The batch is built with array operations, and at finite M the draws of a
block of realizations fill one array.  Realization t of stream s draws from
one generator, ``np.random.default_rng([master_seed, s, t])``: its user
positions (s = 1), its shadowing (s = 2) and, at finite M, its fast fading
(s = 3).  A batch's or block's generators of one stream come from one array
call (``seeding.make_rngs``), equal state for state to those, so no
``SeedSequence`` is built per realization.  Only the draws from each
realization's own generators stay per realization, so no row depends on
another and block edges change no result.  A block's raw draws come from
``_draw_block``, which keeps the last few blocks for other schemes.

The async scheme's weights carry the (N, N, K) pilot correlations that
``pilots.async_kappas`` computes straight from the config's offsets, symbol
duration and pilot length; they do not depend on the realization.  The
explicit vector route (``ChannelState`` -> ``uplink_rx`` -> estimator ->
beam -> ``downlink_sinr``), with its pilot books and arrival-delay profiles,
is the reference that the finite-antenna fast path and the correlations are
tested against; no package code calls it, so it lives beside the tests in
``tests/reference_route.py``.

Every result is a function of the resolved config and its master seed alone:
any realization can be reproduced in isolation from its generators, and
results do not depend on execution order.
"""

import functools
import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .channel import (
    # Not used here.  perfbench/tests/test_harness.py::
    # test_wrappers_are_installed_where_looked_up_and_restored checks that the
    # tracer wraps this module's binding of it.
    complex_gaussian,  # noqa: F401
    draw_beam_fading,
    large_scale_gains,
    project_beam_fading,
    shadowing_db,
)
from .config import ConfigError, NetworkConfig, serialize_config, validate_config
from .geometry import build_hex_layout, drop_users
from .pilots import async_kappas, make_orthogonal_pilots, optimal_pilot_powers
from .seeding import make_rngs

# Stream tags s of ``default_rng([master_seed, s, t])`` (stable identifiers;
# changing them changes every result).
_POSITIONS_STREAM = 1
_SHADOWING_STREAM = 2
_FADING_STREAM = 3

# The cell whose users' SINRs every experiment evaluates.
_EVAL_CELL = 0

# Large-scale batches kept per process (``large_scale_batch``): the fig2
# preset draws two geometries.
_BATCH_CACHE_SIZE = 2

# Complex beam amplitudes evaluated at once: whole realizations of their
# draws (``num_small`` at finite M, the one limit otherwise), at least one.
# Bounds the working set whatever the trial counts.
_BLOCK_AMPLITUDES = 2**14

# Blocks of raw finite-M draws kept per process (``_draw_block``).
_DRAW_CACHE_SIZE = 4


@dataclass(frozen=True, eq=False)
class SinrReport:
    """Result of an experiment: its read-only min-SINR samples in dB, one per
    large-scale realization, and its fingerprint.  Reports compare and hash
    by identity; compare two runs by ``samples_db`` or ``fingerprint``.

    Within a realization the minimum SINR is averaged over fast-fading draws
    in linear scale; ``cdf`` and ``mean_min_sinr_db`` are computed from the
    per-realization dB samples, so no single lucky realization dominates.
    """

    samples_db: np.ndarray
    fingerprint: str

    @property
    def cdf(self) -> np.ndarray:
        """(n, 2) ``empirical_cdf`` of the samples: (sinr_db, probability)."""
        return empirical_cdf(self.samples_db)

    @property
    def mean_min_sinr_db(self) -> float:
        return float(self.samples_db.mean())


def empirical_cdf(samples) -> np.ndarray:
    """Right-continuous empirical CDF as sorted (value, probability) pairs."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size == 0:
        raise ValueError("cannot build a CDF from no samples")
    probs = np.arange(1, s.size + 1) / s.size
    return np.column_stack([s, probs])


@dataclass(frozen=True, eq=False)
class _TrialContext:
    """One scheme's beam recipe on a large-scale realization or a batch of them.

    BS j's beam is sum_{l,k} weights[..., j, l, k] h_jlk plus its pilot noise,
    of power ``sigma_p2`` per entry, combined by ``noise_combiner[j]``, where
    h_jlk is the small-scale channel of user (l, k).  Leading axes of
    ``weights`` are realizations.  Nothing here depends on the antenna
    count, the BS power or the data noise: ``sinr_from_amplitudes`` takes
    those as arguments.
    """

    weights: np.ndarray  # (..., N, N, K) float, complex for async: incl. sqrt(beta)
    noise_combiner: np.ndarray | None  # (N, L) complex, None for perfect CSI
    sigma_p2: float


def _nonzero_own_gains(config: NetworkConfig, own: np.ndarray) -> np.ndarray:
    """The (..., N, K) own-cell gains ``own`` of a rule that divides by each
    of them; one that underflowed to 0 raises, naming its realization."""
    zero = ~np.all(own > 0, axis=(-2, -1))
    if np.any(zero):
        raise _sinr_error(config, "zero own-cell gain", int(np.flatnonzero(zero)[0]))
    return own


def _scheme_pilot_powers(config: NetworkConfig, own: np.ndarray, controlled: bool):
    """(..., N, K) uplink pilot powers: closed-form rule per cell, or all-peak."""
    p_u = config.peak_pilot_power_w
    if not controlled:
        return np.full(own.shape, p_u)
    return optimal_pilot_powers(_nonzero_own_gains(config, own), p_u)


def _build_trial_context(config: NetworkConfig, beta: np.ndarray) -> _TrialContext:
    """Beam recipe of ``config.scheme`` on ``beta``: one (N, N, K) realization
    or a (..., N, N, K) batch such as ``large_scale_batch``; row t of a batch
    is the context of ``beta[t]``.  The config is taken as validated."""
    scheme = config.scheme
    n, k = config.cells, config.users_per_cell
    length = config.pilot_length
    own = np.einsum("...jjk->...jk", beta)  # (..., N, K)
    sqrt_beta = np.sqrt(beta)
    p_u = config.peak_pilot_power_w
    cells = np.arange(n)

    weights = np.zeros(beta.shape)
    noise_combiner = None
    if scheme == "perfect-optimal":
        weights[..., cells, cells, :] = 1.0 / np.sqrt(_nonzero_own_gains(config, own))
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
        kappas = async_kappas(
            np.reshape(config.async_offsets_s, (n, k)), config.pilot_symbol_s, length
        )
        weights = np.sqrt(powers * length)[..., None, :, :] * sqrt_beta * kappas
        noise_combiner = make_orthogonal_pilots(n, length).conj()

    return _TrialContext(weights, noise_combiner, config.pilot_noise_power_w)


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
    others = np.repeat(np.arange(n) != _EVAL_CELL, k).astype(float)
    residual = power.reshape(power.shape[:-2] + (n * k,)) @ others
    if ctx.noise_combiner is not None:
        residual = residual + ctx.sigma_p2 * np.sum(np.abs(ctx.noise_combiner) ** 2, axis=-1)
    c = np.concatenate(
        [ctx.weights[..., _EVAL_CELL, :], np.sqrt(residual)[..., None]], axis=-1
    )
    return c / np.linalg.norm(c, axis=-1, keepdims=True)


def sinr_from_amplitudes(amplitudes, eval_amp, bs_power_w, sigma2) -> np.ndarray:
    """(..., K) linear SINRs of the evaluated cell from (..., N, K+1)
    normalized beam amplitudes, the (..., N, K) large-scale amplitudes
    ``eval_amp = sqrt(beta[..., :, _EVAL_CELL, :])`` toward the evaluated
    cell's users, the BS power E and the noise power ``sigma2``.

    ``amplitudes[..., j, k]`` is ``X_j^H b_j / sqrt(M)`` at entry k < K for
    BS j's unit beam ``b_j = X_j u_j / ||X_j u_j||`` (see ``_beam_directions``),
    so user k receives ``|amplitudes[..., j, k]|^2 beta_jk E`` from BS j, and
    its SINR is the serving BS's power over the other BSs' power plus noise.
    Exact for every scheme, whatever the amplitudes hold:
    ``channel.project_beam_fading`` makes them at finite M, and their
    limit as M grows, ``u_j`` itself, gives the large-antenna SINRs, BS j
    giving user k the share ``|u_jk|^2`` of its power.  An array
    ``bs_power_w`` broadcasts: powers of shape (P, 1, ..., 1), one more axis
    than ``eval_amp``, give (P, ..., K) SINRs, row p at power p.
    """
    received = (bs_power_w * eval_amp**2) * np.abs(amplitudes[..., :-1]) ** 2
    signal = received[..., _EVAL_CELL, :]
    return signal / (received.sum(axis=-2) - signal + sigma2)


_DEFAULT_CONFIG = NetworkConfig()


def _experiment_key(config: NetworkConfig) -> NetworkConfig:
    """The resolved config with every key that its experiment cannot read
    reset to its ``NetworkConfig()`` default.

    The rule names the unread keys, so a key it forgets is kept: that can
    give one experiment two fingerprints, never two experiments one.
    """
    unread = ["output_dir", "antennas_sweep"]
    if config.antennas is None:
        unread.append("num_small")  # no fast fading is drawn
    if config.scheme in ("perfect-optimal", "perfect-equal"):
        unread += ["p_u_dbw", "pilot_length", "pilot_noise_ratio"]  # no pilots
    if config.scheme != "composite-async":
        unread += ["async_offsets_s", "pilot_symbol_s", "async_power_control"]
    return replace(config, **{key: getattr(_DEFAULT_CONFIG, key) for key in unread})


def _fingerprint(key_text: str, config: NetworkConfig) -> str:
    """Hash of the package version, the serialized power-group key of
    ``config`` and its BS power, written as ``serialize_config`` writes a
    float: -0.0 as 0.0."""
    text = f"{__version__}\n{key_text}power = {float(config.E_dbw[0]) + 0.0!r}\n"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _sinr_error(config: NetworkConfig, what: str, t: int, draw: int | None = None):
    where = f"realization {t} (master seed {config.master_seed}"
    if config.antennas is not None and draw is not None:
        where += f", draw {draw}"
    power = f"E_dbw = {config.E_dbw[0]:g}"
    return ArithmeticError(f"{what} at {power} in {where})")


def large_scale_batch(config: NetworkConfig) -> np.ndarray:
    """Gains of realizations 0..num_large-1 stacked into a read-only
    (num_large, N, N, K) batch.

    Row t is realization t: bit for bit ``large_scale_gains`` on
    ``drop_users`` with the generator ``default_rng([master_seed, POSITIONS,
    t])`` and on ``shadowing_db`` with ``default_rng([master_seed, SHADOWING,
    t])``, which is the reference route's ``large_scale_tensor``.  So no row
    depends on another, and a batch is a prefix of any longer one.  The
    generators of all rows come from one array call per stream.  Only the
    geometry fields (cells, radius, users per cell, exclusion radius and the
    four path-loss and shadowing keys), ``num_large`` and ``master_seed`` of
    ``config`` enter, and the process keeps the last ``_BATCH_CACHE_SIZE``
    batches: a config that differs only in powers, noise keys, pilot
    settings, scheme, antennas or draw count gets the same array back.  So
    every experiment in a process that shares a geometry, the engine's
    groups included (``_batch``), evaluates one batch, drawn once, as if it
    were drawn per curve.  ``config`` is validated first, so an invalid one
    raises ConfigError naming its key.
    """
    validate_config(config)
    return _batch(config)


def _batch(config: NetworkConfig) -> np.ndarray:
    """``large_scale_batch`` of a validated config."""
    return _cached_batch(
        config.cells, config.radius_m, config.users_per_cell, config.exclusion_m,
        config.pathloss_intercept_db, config.pathloss_slope, config.shadow_sigma_db,
        config.penetration_loss_db, config.num_large, config.master_seed,
    )


@functools.lru_cache(maxsize=_BATCH_CACHE_SIZE)
def _cached_batch(
    cells, radius_m, users_per_cell, exclusion_m,
    intercept_db, slope, sigma_db, penetration_db, num_large, master_seed,
) -> np.ndarray:
    centers = build_hex_layout(cells, radius_m)
    realizations = np.arange(num_large)
    positions_rngs = make_rngs(master_seed, _POSITIONS_STREAM, realizations)
    positions = drop_users(centers, radius_m, users_per_cell, exclusion_m, positions_rngs)
    shadowing_rngs = make_rngs(master_seed, _SHADOWING_STREAM, realizations)
    shadow_db = shadowing_db(sigma_db, cells, shadowing_rngs)
    beta = large_scale_gains(
        centers, positions, shadow_db, intercept_db, slope, penetration_db
    )
    beta.flags.writeable = False
    return beta


def _realizations_per_block(config: NetworkConfig) -> int:
    """Realizations evaluated at once: up to ``_BLOCK_AMPLITUDES``
    amplitudes' worth, at least one.  The limit counts as one draw."""
    draws = 1 if config.antennas is None else config.num_small
    per_realization = draws * config.cells * (config.users_per_cell + 1)
    return max(1, _BLOCK_AMPLITUDES // per_realization)


def _draw_block(config: NetworkConfig, lo: int, hi: int):
    """Read-only raw draws ``(g, z)`` of realizations lo..hi-1, stacked:
    ``(hi - lo, num_small, N)`` gammas and ``(hi - lo, num_small, N, K+1)``
    complex normals.  They do not depend on the scheme: only the antenna
    count, the beam shape, the draw count and the master seed of ``config``
    select them.  The process keeps the last ``_DRAW_CACHE_SIZE`` blocks
    (about 1 MiB), so the other schemes of a comparison at the same M
    project the same draws without running a generator; only a block whose
    single realization holds more than ``_BLOCK_AMPLITUDES`` amplitudes is
    drawn and dropped, which bounds what a large ``num_small`` keeps."""
    width = config.users_per_cell + 1
    draws = _cached_draws
    if config.num_small * config.cells * width > _BLOCK_AMPLITUDES:
        draws = _cached_draws.__wrapped__
    return draws(
        config.antennas,
        config.cells,
        width,
        config.num_small,
        lo,
        hi,
        config.master_seed,
    )


@functools.lru_cache(maxsize=_DRAW_CACHE_SIZE)
def _cached_draws(antennas, cells, width, num_small, lo, hi, master_seed):
    rngs = make_rngs(master_seed, _FADING_STREAM, np.arange(lo, hi))
    g, z = draw_beam_fading(rngs, antennas, (cells, width), num_small)
    g.flags.writeable = False
    z.flags.writeable = False
    return g, z


def _first_non_finite(sinr: np.ndarray):
    """Index of the first user-SINR row holding a non-finite value, in C
    order over the leading axes, or None."""
    finite = np.isfinite(sinr)
    if finite.all():
        return None
    return tuple(int(i) for i in np.argwhere(~finite.all(axis=-1))[0])


def run_experiment(config: NetworkConfig, scheme: str | None = None) -> SinrReport:
    """Aggregate min-SINR statistics over independent large-scale realizations.

    ``scheme``, if given, replaces ``config.scheme``; the resolved config is
    the experiment's only input.  The one-config case of ``run_experiments``.
    """
    if scheme is not None:
        config = replace(config, scheme=scheme)
    return run_experiments([config])[0]


def run_experiments(configs) -> list[SinrReport]:
    """One ``SinrReport`` per resolved config, in input order, each equal bit
    for bit to that config run alone.

    Every config is validated, and must hold a single BS power (a sweep
    lists one config per power), before any is evaluated.  Configs whose
    experiment keys (``_experiment_key``) are equal apart from ``E_dbw``
    form a group, evaluated once with their powers on a leading axis: the
    power enters only the last product of the SINR, so the group shares one
    context, one set of beam directions and one pass over the realization
    blocks.

    A group's context is built on its large-scale batch
    (``large_scale_batch``), and one loop evaluates it over blocks of up to
    ``_BLOCK_AMPLITUDES`` amplitudes' worth of realizations.  A block starts
    from the beam directions, the large-antenna limit, which is all that
    asymptotic mode (``config.antennas is None``) evaluates: no fast fading
    is drawn and ``num_small`` only counts towards validation.  With finite antennas
    realization t takes ``num_small`` draws from one generator,
    ``default_rng([master_seed, FADING, t])``, a block's generators built
    with one array call: the raw draws of ``channel.draw_beam_fading``, row s
    being draw s, projected onto the scheme's beam directions
    (``channel.project_beam_fading``); ``_draw_block`` gives the raw draws.
    Each realization's minimum SINR is averaged over its draws in linear
    scale before conversion to dB.  Realization t's generators depend only
    on the master seed and t, never on execution order.  A non-finite SINR
    raises ``ArithmeticError`` naming the power, the first bad realization,
    the master seed and, at finite M, the draw; so does a realization whose
    mean minimum SINR is zero, which has no dB value, or overflows, and one
    with a zero own-cell gain, which the pilot power-control rule and the
    perfect-CSI optimal beam divide by.
    """
    configs = list(configs)
    for config in configs:
        validate_config(config)
        if len(config.E_dbw) != 1:
            raise ConfigError(
                "E_dbw", "experiments need a single BS power; sweep presets iterate"
            )
    groups = {}
    for i, config in enumerate(configs):
        groups.setdefault(replace(_experiment_key(config), E_dbw=()), []).append(i)
    reports = [None] * len(configs)
    for key, indices in groups.items():
        group = [configs[i] for i in indices]
        for i, report in zip(indices, _run_power_group(key, group)):
            reports[i] = report
    return reports


# A zero gain or noise power divides by zero on the way to the SINRs, and an
# extreme loss, power or shadowing overflows, and finite SINRs near the float
# limit overflow their mean; the checks below name the realization instead of
# a warning.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _run_power_group(key: NetworkConfig, configs: list) -> list[SinrReport]:
    """Reports of validated configs whose experiment keys equal ``key`` apart
    from ``E_dbw``.  The first config is evaluated, at every config's power."""
    config = configs[0]
    beta = _batch(config)
    ctx = _build_trial_context(config, beta)
    directions = _beam_directions(ctx)
    # (realization, 1, N, K): a length-one draw axis, as in the amplitudes
    eval_amp = np.sqrt(beta[..., :, _EVAL_CELL, :])[:, None]
    # (P, 1, 1, 1, 1): ahead of a block's (realization, draw, N, K) amplitudes
    powers = np.array([c.bs_power_w[0] for c in configs]).reshape(-1, 1, 1, 1, 1)
    sigma2 = config.noise_power_w
    block = _realizations_per_block(config)
    samples = np.empty((len(configs), config.num_large))
    for lo in range(0, config.num_large, block):
        hi = min(lo + block, config.num_large)
        amplitudes = directions[lo:hi, None]  # the limit, as one draw
        if config.antennas is not None:
            g, z = _draw_block(config, lo, hi)
            amplitudes = project_beam_fading(config.antennas, amplitudes, g, z)
        sinr = sinr_from_amplitudes(amplitudes, eval_amp[lo:hi], powers, sigma2)
        bad = _first_non_finite(sinr)
        if bad is not None:
            p, t, draw = bad
            raise _sinr_error(configs[p], "non-finite SINR", lo + t, draw)
        mean = sinr.min(axis=-1).mean(axis=-1)  # (P, realizations)
        in_range = (mean > 0) & (mean < np.inf)
        if not in_range.all():
            p, t = np.argwhere(~in_range)[0].tolist()
            what = "zero" if mean[p, t] == 0 else "overflowing"
            raise _sinr_error(configs[p], f"{what} mean min-SINR", lo + t)
        samples[:, lo:hi] = 10.0 * np.log10(mean)
    samples.flags.writeable = False  # so each report's row is read-only too
    key_text = serialize_config(key)
    return [SinrReport(row, _fingerprint(key_text, c)) for c, row in zip(configs, samples)]
