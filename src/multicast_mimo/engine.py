"""Monte Carlo engine: finite-antenna and large-antenna experiments.

Every scheme's beam at BS j is a linear combination of BS j's channels,
``sum_{l,k} weights[..., j, l, k] h_jlk`` plus combined pilot noise, and one
formula gives every scheme's weights (``_build_trial_context``)::

    weights[..., j, l, k] = a[..., l, k] * sqrt(beta[..., j, l, k]) * C[j, l, k]

for a per-user coefficient ``a`` and the strength ``C`` with which user
(l, k)'s pilot enters what BS j combines (p, s and kappa as defined there):

scheme                 a_lk          C_jlk                noise combiner
---------------------  ------------  -------------------  ---------------
perfect-optimal        1 / beta_llk  delta_jl             none
perfect-equal          1             delta_jl             none
individual-pilot       sqrt(p_u L)   1                    sum_k conj(s_k)
composite (all three)  sqrt(p_lk L)  delta_jl, or kappa   conj(s_j)

Both evaluation modes share one context holding that recipe and nothing
else, built once per group of experiments that differ only in BS power, on
the (T, N, N, K) batch of large-scale realizations.  In the basis of BS j's
channels to the evaluated cell's users plus one independent residual, the
beam has a unit direction ``u_j`` (``_beam_directions``), and the SINRs
depend on the fast fading only through the gains ``|t_jk|^2`` it delivers
along each user's channel, M times the power gain: ``|u_jk|^2`` in the
large-antenna limit, taken once per group, or at finite M one gamma and K+1
complex normals per BS and draw (``channel.draw_beam_fading``) turned into
``|t_jk|^2`` (``channel.beam_gains``), at the BS powers divided by M.  One
evaluator, ``sinr_from_gains``, takes either with the amplitudes toward the
evaluated cell (``_EVAL_CELL``), the BS powers and the noise power, so one
loop over blocks of realizations evaluates both modes.  The tests hold the
limit to the paper's closed forms in ``tests/closed_forms.py``.

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

A group evaluates the large-scale batch of its geometry
(``large_scale_batch``), built with array operations; at finite M the draws
of a block of realizations fill one array.  Realization t of stream s draws
from ``np.random.default_rng([master_seed, s, t])``: its user positions
(s = 1), its shadowing (s = 2) and its fast fading (s = 3), the generators
of a batch's or block's stream coming from one ``seeding.make_rngs`` call.
No row depends on another, so block edges change no result.  The process
keeps the last few batches and raw draw blocks for other curves, each cache
keyed by the config reduced to its own keys (``_only``).

The explicit vector route (``ChannelState`` -> ``uplink_rx`` -> estimator
-> beam -> ``downlink_sinr``), with its pilot books and arrival-delay
profiles, is the reference that the finite-antenna fast path and the
weights are tested against; no package code calls it, so it lives beside
the tests in ``tests/reference_route.py``.

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
    beam_gains,
    # Not used here.  perfbench/tests/test_harness.py::
    # test_wrappers_are_installed_where_looked_up_and_restored checks that the
    # tracer wraps this module's binding of it.
    complex_gaussian,  # noqa: F401
    draw_beam_fading,
    large_scale_gains,
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
    """One scheme's beam recipe (``_build_trial_context``): BS j's beam is
    sum_{l,k} weights[..., j, l, k] h_jlk, h_jlk the small-scale channel of
    user (l, k), plus its pilot noise, of power ``sigma_p2`` per entry,
    combined by ``noise_combiner[j]``.  Leading axes of ``weights`` are
    realizations.  The antenna count, the BS power and the data noise are
    ``sinr_from_gains``' arguments, not part of the recipe.
    """

    weights: np.ndarray  # (..., N, N, K) float, complex for async: incl. sqrt(beta)
    noise_combiner: np.ndarray | None  # (N, L) complex, None for perfect CSI
    sigma_p2: float


def _nonzero_own_gains(config: NetworkConfig, own: np.ndarray, first: int = 0) -> np.ndarray:
    """The (..., N, K) own-cell gains ``own`` of a rule that divides by each
    of them, row i being realization ``first + i``; one that underflowed to 0
    raises, naming its realization."""
    zero = ~np.all(own > 0, axis=(-2, -1))
    if np.any(zero):
        raise _sinr_error(config, "zero own-cell gain", first + int(np.flatnonzero(zero)[0]))
    return own


def _build_trial_context(config: NetworkConfig, beta: np.ndarray) -> _TrialContext:
    """Beam recipe of ``config.scheme`` on ``beta``: one (N, N, K) realization
    or a (..., N, N, K) batch such as ``large_scale_batch``; row t of a batch
    is the context of ``beta[t]``.  The config is taken as validated.

    The weights are ``a[..., l, k] sqrt(beta[..., j, l, k]) C[j, l, k]``:

    scheme                 a_lk          C_jlk                noise combiner
    ---------------------  ------------  -------------------  ---------------
    perfect-optimal        1 / beta_llk  delta_jl             none
    perfect-equal          1             delta_jl             none
    individual-pilot       sqrt(p_u L)   1                    sum_k conj(s_k)
    composite (all three)  sqrt(p_lk L)  delta_jl, or kappa   conj(s_j)

    Per-user pilots reuse K sequences ``s_k`` of length L in every cell;
    per-cell pilots give cell j the sequence ``s_j``, at the peak power p_u
    or at ``optimal_pilot_powers`` (``composite-power-controlled``, and
    ``composite-async`` with ``async_power_control``).  Asynchronous arrival
    replaces ``delta_jl`` by the realization-free ``async_kappas``.
    """
    scheme = config.scheme
    n, k = config.cells, config.users_per_cell
    length = config.pilot_length
    own = np.einsum("...jjk->...jk", beta)  # (..., N, K)
    p_u = config.peak_pilot_power_w
    coupling = np.eye(n)[:, :, None]
    noise_combiner = None
    if scheme == "perfect-optimal":
        a = 1.0 / _nonzero_own_gains(config, own)
    elif scheme == "perfect-equal":
        a = np.ones(own.shape)
    elif scheme == "individual-pilot":
        a, coupling = np.full(own.shape, np.sqrt(p_u * length)), 1.0
        combiner = make_orthogonal_pilots(k, length).conj().sum(axis=0)
        noise_combiner = np.broadcast_to(combiner, (n, length))
    else:  # composite, composite-power-controlled, composite-async
        asynchronous = scheme == "composite-async"
        if scheme == "composite-power-controlled" or (asynchronous and config.async_power_control):
            powers = optimal_pilot_powers(_nonzero_own_gains(config, own), p_u)
        else:
            powers = np.full(own.shape, p_u)
        a = np.sqrt(powers * length)
        if asynchronous:
            offsets = np.reshape(config.async_offsets_s, (n, k))
            coupling = async_kappas(offsets, config.pilot_symbol_s, length)
        noise_combiner = make_orthogonal_pilots(n, length).conj()

    # sqrt(beta) only where C != 0: a gain that overflowed to infinity on a
    # link that BS j does not combine gives 0, not 0 * inf.  The product with
    # ``a`` reuses that buffer, one (..., N, N, K) allocation fewer.
    root = np.sqrt(beta, out=np.zeros(beta.shape), where=coupling != 0)
    weights = np.multiply(a[..., None, :, :], root, out=root) * coupling
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


def sinr_from_gains(gains, eval_amp, bs_power_w, sigma2) -> np.ndarray:
    """(..., K) linear SINRs of the evaluated cell from (..., N, K) beam
    gains, the (..., N, K) large-scale amplitudes ``eval_amp =
    sqrt(beta[..., :, _EVAL_CELL, :])`` toward the evaluated cell's users,
    the BS power E and the noise power ``sigma2``.

    User k receives ``gains[..., j, k] beta_jk E`` from BS j, and its SINR
    is the serving BS's power over the other BSs' power plus noise.  Exact
    for every scheme, whatever the gains hold: at finite M,
    ``channel.beam_gains`` gives ``|t_jk|^2``, M times the gain of BS j's
    unit beam ``X_j u_j / ||X_j u_j||`` (see ``_beam_directions``), with
    E / M as the power; their limit over M as M grows, ``|u_jk|^2``, gives
    the large-antenna SINRs at power E.  An array ``bs_power_w``
    broadcasts: powers of shape (P, 1, ..., 1), one more axis than
    ``eval_amp``, give (P, ..., K) SINRs, row p at power p.
    """
    received = (bs_power_w * eval_amp**2) * gains
    signal = received[..., _EVAL_CELL, :]
    return signal / (received.sum(axis=-2) - signal + sigma2)


_DEFAULT_CONFIG = NetworkConfig()

# The keys that select a large-scale batch and a block of raw finite-M draws.
_BATCH_KEYS = (
    "cells", "radius_m", "users_per_cell", "exclusion_m", "pathloss_intercept_db",
    "pathloss_slope", "shadow_sigma_db", "penetration_loss_db", "num_large", "master_seed",
)
_DRAW_KEYS = ("antennas", "cells", "users_per_cell", "num_small", "master_seed")


def _only(config: NetworkConfig, keys) -> NetworkConfig:
    """``config`` with every key but ``keys`` reset to its default."""
    return NetworkConfig(**{key: getattr(config, key) for key in keys})


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
    return ArithmeticError(f"{what} at {power} in {where}) for scheme {config.scheme}")


def _realization_error(config: NetworkConfig, beta: np.ndarray, what: str, t: int, draw=None):
    """The error of realization t of the batch ``beta``, which failed a check
    on its SINRs: its zero own-cell gain, if it has one, else ``what``."""
    _nonzero_own_gains(config, np.einsum("...jjk->...jk", beta[t : t + 1]), first=t)
    return _sinr_error(config, what, t, draw)


def large_scale_batch(config: NetworkConfig) -> np.ndarray:
    """Gains of realizations 0..num_large-1 stacked into a read-only
    (num_large, N, N, K) batch.

    Row t is realization t: bit for bit ``large_scale_gains`` on
    ``drop_users`` with the generator ``default_rng([master_seed, POSITIONS,
    t])`` and on ``shadowing_db`` with ``default_rng([master_seed, SHADOWING,
    t])``, which is the reference route's ``large_scale_tensor``.  So no row
    depends on another, and a batch is a prefix of any longer one.  The
    generators of all rows come from one array call per stream.  Only the
    ``_BATCH_KEYS`` of ``config`` enter, and the process keeps the last
    ``_BATCH_CACHE_SIZE`` batches: a config that differs only in powers,
    noise keys, pilot settings, scheme, antennas or draw count gets the same
    array back.  So every experiment in a process that shares a geometry,
    the engine's groups included (``_batch``), evaluates one batch, drawn
    once, as if it were drawn per curve.  ``config`` is validated first, so
    an invalid one raises ConfigError naming its key.
    """
    validate_config(config)
    return _batch(config)


def _batch(config: NetworkConfig) -> np.ndarray:
    """``large_scale_batch`` of a validated config."""
    return _cached_batch(_only(config, _BATCH_KEYS))


@functools.lru_cache(maxsize=_BATCH_CACHE_SIZE)
def _cached_batch(key: NetworkConfig) -> np.ndarray:
    centers = build_hex_layout(key.cells, key.radius_m)
    realizations = np.arange(key.num_large)
    positions_rngs = make_rngs(key.master_seed, _POSITIONS_STREAM, realizations)
    positions = drop_users(
        centers, key.radius_m, key.users_per_cell, key.exclusion_m, positions_rngs
    )
    shadowing_rngs = make_rngs(key.master_seed, _SHADOWING_STREAM, realizations)
    shadow_db = shadowing_db(key.shadow_sigma_db, key.cells, shadowing_rngs)
    loss_db = (key.pathloss_intercept_db, key.pathloss_slope, key.penetration_loss_db)
    beta = large_scale_gains(centers, positions, shadow_db, *loss_db)
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
    complex normals.  They do not depend on the scheme: only the
    ``_DRAW_KEYS`` of ``config`` select them.  The process keeps the last
    ``_DRAW_CACHE_SIZE`` blocks (about 1 MiB), so the other schemes of a
    comparison at the same M evaluate the same draws without running a
    generator; only a block whose single realization holds more than
    ``_BLOCK_AMPLITUDES`` amplitudes is drawn and dropped, which bounds what
    a large ``num_small`` keeps."""
    draws = _cached_draws
    if config.num_small * config.cells * (config.users_per_cell + 1) > _BLOCK_AMPLITUDES:
        draws = _cached_draws.__wrapped__
    return draws(_only(config, _DRAW_KEYS), lo, hi)


@functools.lru_cache(maxsize=_DRAW_CACHE_SIZE)
def _cached_draws(key: NetworkConfig, lo: int, hi: int):
    rngs = make_rngs(key.master_seed, _FADING_STREAM, np.arange(lo, hi))
    shape = (key.cells, key.users_per_cell + 1)
    g, z = draw_beam_fading(rngs, key.antennas, shape, key.num_small)
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
    ``_BLOCK_AMPLITUDES`` amplitudes' worth of realizations, as the module
    docstring describes; asymptotic mode (``config.antennas is None``) draws
    no fast fading, and there ``num_small`` only counts towards validation.
    With finite antennas realization t takes ``num_small`` draws from
    ``default_rng([master_seed, FADING, t])`` (``_draw_block``), and its
    minimum SINR is averaged over them in linear scale before conversion to
    dB.  A non-finite SINR raises ``ArithmeticError`` naming the power, the
    first bad realization, the master seed, at finite M the draw, and the
    scheme; so does a realization whose mean minimum SINR is zero, which has
    no dB value, or overflows, and one with a zero own-cell gain, which the
    pilot power-control rule and the perfect-CSI optimal beam divide by.  A
    realization that fails either check with a zero own-cell gain is
    reported as such, whatever the scheme.
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
    directions = _beam_directions(ctx)[:, None]  # a length-one draw axis
    eval_amp = np.sqrt(beta[..., :, _EVAL_CELL, :])[:, None]
    # (P, 1, 1, 1, 1): ahead of a block's (realization, draw, N, K) gains
    powers = np.array([c.bs_power_w[0] for c in configs]).reshape(-1, 1, 1, 1, 1)
    if config.antennas is None:
        limit_gains = np.abs(directions[..., :-1]) ** 2
    else:
        powers = powers / config.antennas
    sigma2 = config.noise_power_w
    block = _realizations_per_block(config)
    samples = np.empty((len(configs), config.num_large))
    for lo in range(0, config.num_large, block):
        hi = min(lo + block, config.num_large)
        if config.antennas is None:
            gains = limit_gains[lo:hi]
        else:
            gains = beam_gains(directions[lo:hi], *_draw_block(config, lo, hi))
        sinr = sinr_from_gains(gains, eval_amp[lo:hi], powers, sigma2)
        bad = _first_non_finite(sinr)
        if bad is not None:
            p, t, draw = bad
            raise _realization_error(configs[p], beta, "non-finite SINR", lo + t, draw)
        mean = sinr.min(axis=-1).mean(axis=-1)  # (P, realizations)
        in_range = (mean > 0) & (mean < np.inf)
        if not in_range.all():
            p, t = np.argwhere(~in_range)[0].tolist()
            what = "zero" if mean[p, t] == 0 else "overflowing"
            raise _realization_error(configs[p], beta, f"{what} mean min-SINR", lo + t)
        samples[:, lo:hi] = 10.0 * np.log10(mean)
    samples.flags.writeable = False  # so each report's row is read-only too
    key_text = serialize_config(key)
    return [SinrReport(row, _fingerprint(key_text, c)) for c, row in zip(configs, samples)]
