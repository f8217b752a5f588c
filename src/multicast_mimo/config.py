"""Scenario configuration: key-value parsing, validation, serialization.

The configuration format is a plain text document of ``key = value`` lines
(``#`` starts a comment).  Parsing is strict: unknown keys and malformed
values are rejected with the offending key named.  Powers are configured in
dB units with explicit suffixes (``_dbw``, ``_dbm_hz``), and this module
alone turns them into linear Watts, behind the four properties
``bs_power_w``, ``peak_pilot_power_w``, ``noise_power_w`` and
``pilot_noise_power_w``; every module below it takes plain values.

Every key is one field of the flat ``NetworkConfig``, and its annotation
states its type once: parsing, writing and the type checks read the key
table ``_KEYS`` derived from it at import.  Not in the annotations:
``antennas = asymptotic`` means None, and ``master_seed`` may be 0.
``validate_config`` is the only validator: a parsed document and a config
built in code pass the same type, range and cross-field checks.
"""

import math
from dataclasses import dataclass, fields, replace
from types import UnionType
from typing import get_args, get_origin

import numpy as np

from .geometry import MAX_RADIUS_M, SUPPORTED_CELL_COUNTS, inscribed_radius

SCHEMES = (
    "perfect-optimal",
    "perfect-equal",
    "individual-pilot",
    "composite",
    "composite-power-controlled",
    "composite-async",
)


class ConfigError(ValueError):
    """A configuration document or value violated an invariant."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key {key!r}: {message}")


@dataclass(frozen=True)
class NetworkConfig:
    """Complete scenario description with urban-macro defaults.

    Every field is one config key, in the order that ``serialize_config``
    writes the keys.  ``antennas = None`` selects asymptotic
    (closed-form) evaluation instead of finite-antenna simulation.  ``E_dbw``
    holds one or more per-BS powers; all cells transmit with the same power,
    and multi-valued lists are only consumed by sweep presets.  Path loss is
    ``pathloss_intercept_db + pathloss_slope * log10(d_km)`` dB, and
    ``pilot_noise_ratio`` is sigma_p^2 / sigma^2.
    """

    cells: int = 7
    users_per_cell: int = 3
    antennas: int | None = None
    radius_m: float = 1000.0
    exclusion_m: float = 100.0
    E_dbw: tuple[float, ...] = (10.0,)
    p_u_dbw: float = 2.0
    pilot_length: int = 8
    scheme: str = "perfect-optimal"
    async_offsets_s: tuple[float, ...] | None = None
    pilot_symbol_s: float | None = None
    async_power_control: bool = True
    antennas_sweep: tuple[int, ...] = (100, 300, 500)
    num_large: int = 200
    num_small: int = 100
    master_seed: int = 1
    output_dir: str = "out"
    pathloss_intercept_db: float = 128.1
    pathloss_slope: float = 37.6
    shadow_sigma_db: float = 8.0
    penetration_loss_db: float = 20.0
    noise_psd_dbm_hz: float = -174.0
    bandwidth_hz: float = 20e6
    pilot_noise_ratio: float = 0.1

    @property
    def bs_power_w(self) -> tuple:
        return tuple(float(_db_to_watts(e)) for e in self.E_dbw)

    @property
    def peak_pilot_power_w(self) -> float:
        return float(_db_to_watts(self.p_u_dbw))

    @property
    def noise_power_w(self) -> float:
        """Receiver noise power sigma^2 over ``bandwidth_hz``."""
        noise_dbm = self.noise_psd_dbm_hz + 10.0 * np.log10(self.bandwidth_hz)
        return float(_db_to_watts(noise_dbm - 30.0))

    @property
    def pilot_noise_power_w(self) -> float:
        """Uplink pilot noise power sigma_p^2."""
        return self.pilot_noise_ratio * self.noise_power_w


def _db_to_watts(value_dbw):
    return 10.0 ** (np.asarray(value_dbw, dtype=float) / 10.0)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


_PARSERS = {int: int, float: float, bool: _parse_bool, str: str}


def _key_table(config_class) -> dict:
    """key -> (item type, tuple or not, may be None) of each field, in field
    order, read off its annotation: ``T``, ``tuple[T, ...]`` or either
    ``| None``, with ``T`` one of the ``_PARSERS`` types."""
    table = {}
    for field in fields(config_class):
        item, args = field.type, get_args(field.type)
        optional = isinstance(item, UnionType) and len(args) == 2 and type(None) in args
        if optional:
            item = next(arg for arg in args if arg is not type(None))
        is_tuple = get_origin(item) is tuple
        if is_tuple:
            item = get_args(item)[0] if get_args(item)[1:] == (...,) else None
        if item not in _PARSERS:
            raise TypeError(f"config key {field.name!r}: unreadable annotation {field.type!r}")
        table[field.name] = (item, is_tuple, optional)
    return table


_KEYS = _key_table(NetworkConfig)


def _parse_value(key: str, text: str):
    item, is_tuple, _ = _KEYS[key]
    if key == "antennas" and text.lower() == "asymptotic":
        return None
    parse = _PARSERS[item]
    return tuple(parse(part) for part in text.split(",")) if is_tuple else parse(text)


def apply_overrides(config: NetworkConfig, pairs: dict) -> NetworkConfig:
    """Apply ``key -> value-text`` overrides and re-validate."""
    updates = {}
    for key, text in pairs.items():
        if key not in _KEYS:
            raise ConfigError(key, "unknown key")
        try:
            updates[key] = _parse_value(key, str(text).strip())
        except (ValueError, TypeError) as exc:
            raise ConfigError(key, f"bad value {text!r}: {exc}") from None
    updated = replace(config, **updates)
    validate_config(updated)
    return updated


def parse_config(text: str) -> NetworkConfig:
    """Parse a key-value document into a validated NetworkConfig.

    An empty document yields the defaults.  Duplicate and unknown keys are
    errors.
    """
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line, f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in pairs:
            raise ConfigError(key, f"line {lineno}: duplicate key")
        pairs[key] = value.strip()
    return apply_overrides(NetworkConfig(), pairs)


_WRITERS = {
    int: str,
    # By value, as the parser reads it back: 1000, 1000.0 and np.float64(1000.0)
    # all as 1000.0, and -0.0 as 0.0.
    float: lambda v: repr(float(v) + 0.0),
    bool: lambda v: "true" if v else "false",
    str: str,
}


def serialize_config(config: NetworkConfig) -> str:
    """Render a config as a parseable document (round-trips exactly)."""
    lines = []
    for key, (item, is_tuple, _) in _KEYS.items():
        value = getattr(config, key)
        if value is not None:
            text = ",".join(map(_WRITERS[item], value if is_tuple else (value,)))
            lines.append(f"{key} = {text}")
        elif key == "antennas":
            lines.append("antennas = asymptotic")
    return "\n".join(lines) + "\n"


# What a config built in code may hold for each item type.  A float32
# serializes as its rounded decimal, not its value.
_HOLDS = {int: (int, np.integer), float: (int, float, np.integer), bool: bool, str: str}


def _require_types(config: NetworkConfig) -> None:
    """Reject what a config built in code can hold and the parser never
    gives: a list that is not a tuple, an empty tuple, whose manifest line
    would not parse, an item of another type (a bool is an int to Python,
    but only a bool key takes one), NaN and infinity, which
    every comparison below would let through, a count outside [1, 2**63) or
    a seed below 0, and text that would not survive a serialize -> parse
    round trip: a '#', a line break, or whitespace the parser strips at
    either end."""
    for key, (item, is_tuple, optional) in _KEYS.items():
        value = getattr(config, key)
        if value is None and optional:
            continue
        if is_tuple and not isinstance(value, tuple):
            raise ConfigError(key, f"must be a tuple, got {value!r}")
        if is_tuple and not value:
            raise ConfigError(key, "needs at least one value")
        # numpy computes a count in int64; a seed is only hashed, at any size
        least, most = (0, math.inf) if key == "master_seed" else (1, 2**63 - 1)
        for v in value if is_tuple else (value,):
            if isinstance(v, bool) != (item is bool) or not isinstance(v, _HOLDS[item]):
                raise ConfigError(key, f"must be of type {item.__name__}, got {v!r}")
            if item is float and not math.isfinite(v):
                raise ConfigError(key, "must be finite")
            if item is int and not least <= v <= most:
                raise ConfigError(key, f"must lie in [{least}, {most}]")
            if item is str and ("#" in v or len(v.splitlines()) > 1 or v != v.strip()):
                raise ConfigError(
                    key, "must hold no '#' or line break, nor start or end with whitespace"
                )


def validate_config(config: NetworkConfig) -> None:
    """Check every cross-field invariant; raise ConfigError naming the key."""
    _require_types(config)
    # Realization t's generators take t as one 32-bit entropy word.
    if config.num_large >= 2**32:
        raise ConfigError("num_large", "must be below 2**32")
    if config.cells not in SUPPORTED_CELL_COUNTS:
        raise ConfigError("cells", f"must be one of {SUPPORTED_CELL_COUNTS}")
    if not 0 < config.radius_m <= MAX_RADIUS_M:
        raise ConfigError("radius_m", f"must lie in (0, {MAX_RADIUS_M}]")
    if not config.shadow_sigma_db >= 0:
        raise ConfigError("shadow_sigma_db", "must be non-negative")
    for key in ("bandwidth_hz", "pilot_noise_ratio"):
        if not getattr(config, key) > 0:
            raise ConfigError(key, "must be positive")
    # A user at the BS has no finite path gain, and the log-distance model
    # has no floor near it; ``inscribed_radius`` says why the disk must fit
    # inside the hexagon.
    if not 0 < config.exclusion_m <= inscribed_radius(config.radius_m):
        raise ConfigError("exclusion_m", "must lie in (0, sqrt(3)/2 * radius_m]")
    # 0 W or an overflow would fail the SINR under the name of E_dbw.
    with np.errstate(over="ignore"):
        if not 0 < config.peak_pilot_power_w < np.inf:
            raise ConfigError("p_u_dbw", "must give a positive, finite power in Watts")
    if len(set(config.E_dbw)) != len(config.E_dbw):
        raise ConfigError("E_dbw", "BS powers must be distinct")
    if config.scheme not in SCHEMES:
        raise ConfigError("scheme", f"must be one of {SCHEMES}")
    if config.scheme == "individual-pilot" and config.pilot_length < config.users_per_cell:
        raise ConfigError(
            "pilot_length",
            f"per-user pilots need length >= users_per_cell ({config.users_per_cell})",
        )
    if config.scheme.startswith("composite") and config.pilot_length < config.cells:
        raise ConfigError(
            "pilot_length", f"per-cell pilots need length >= cells ({config.cells})"
        )
    if config.scheme == "composite-async":
        expected = config.cells * config.users_per_cell
        if config.async_offsets_s is None or len(config.async_offsets_s) != expected:
            raise ConfigError(
                "async_offsets_s",
                f"composite-async needs {expected} per-user delay offsets",
            )
        if config.pilot_symbol_s is None or not config.pilot_symbol_s > 0:
            raise ConfigError(
                "pilot_symbol_s", "composite-async needs a positive symbol duration"
            )
        # The delay model spans one symbol; a later or negative offset would
        # read other symbols of the pilot block, discontinuously.
        if not all(0 <= o < config.pilot_symbol_s for o in config.async_offsets_s):
            raise ConfigError(
                "async_offsets_s", "delay offsets must lie in [0, pilot_symbol_s)"
            )
    if len(set(config.antennas_sweep)) != len(config.antennas_sweep):
        raise ConfigError("antennas_sweep", "antenna counts must be distinct")
