"""Scenario configuration: key-value parsing, validation, serialization.

The configuration format is a plain text document of ``key = value`` lines
(``#`` starts a comment).  Parsing is strict: unknown keys and malformed
values are rejected with the offending key named.  Powers are configured in
dB units with explicit suffixes (``_dbw``, ``_dbm_hz``) and converted to
linear Watts behind accessor properties.

Every key is one field of the flat ``NetworkConfig``, and
``validate_config`` is the only validator: a parsed document and a config
built in code pass the same type, range and cross-field checks.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import SUPPORTED_CELL_COUNTS
from .units import dbw_to_watts

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

    Every field is one config key.  ``antennas = None`` selects asymptotic
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
    pathloss_intercept_db: float = 128.1
    pathloss_slope: float = 37.6
    shadow_sigma_db: float = 8.0
    penetration_loss_db: float = 20.0
    noise_psd_dbm_hz: float = -174.0
    bandwidth_hz: float = 20e6
    pilot_noise_ratio: float = 0.1
    E_dbw: tuple = (10.0,)
    p_u_dbw: float = 2.0
    pilot_length: int = 8
    scheme: str = "perfect-optimal"
    async_offsets_s: tuple | None = None
    pilot_symbol_s: float | None = None
    async_power_control: bool = True
    antennas_sweep: tuple = (100, 300, 500)
    num_large: int = 200
    num_small: int = 100
    master_seed: int = 1
    output_dir: str = "out"

    @property
    def bs_power_w(self) -> tuple:
        return tuple(float(dbw_to_watts(e)) for e in self.E_dbw)

    @property
    def peak_pilot_power_w(self) -> float:
        return float(dbw_to_watts(self.p_u_dbw))


def _parse_float_list(text: str) -> tuple:
    return tuple(float(part) for part in text.split(","))


def _parse_int_list(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _parse_antennas(text: str):
    if text.strip().lower() == "asymptotic":
        return None
    return int(text)


def _parse_str(text: str) -> str:
    # A '#' or a line break would not survive a serialize -> parse round trip.
    if "#" in text or len(text.splitlines()) > 1:
        raise ValueError("must not contain '#' or a line break")
    return text


# key -> parser, in the order that serialize_config writes the keys.
_KEY_SPECS = {
    "cells": int,
    "users_per_cell": int,
    "antennas": _parse_antennas,
    "radius_m": float,
    "exclusion_m": float,
    "E_dbw": _parse_float_list,
    "p_u_dbw": float,
    "pilot_length": int,
    "scheme": _parse_str,
    "async_offsets_s": _parse_float_list,
    "pilot_symbol_s": float,
    "async_power_control": _parse_bool,
    "antennas_sweep": _parse_int_list,
    "num_large": int,
    "num_small": int,
    "master_seed": int,
    "output_dir": _parse_str,
    "pathloss_intercept_db": float,
    "pathloss_slope": float,
    "shadow_sigma_db": float,
    "penetration_loss_db": float,
    "noise_psd_dbm_hz": float,
    "bandwidth_hz": float,
    "pilot_noise_ratio": float,
}


def apply_overrides(config: NetworkConfig, pairs: dict) -> NetworkConfig:
    """Apply ``key -> value-text`` overrides and re-validate."""
    updates = {}
    for key, text in pairs.items():
        if key not in _KEY_SPECS:
            raise ConfigError(key, "unknown key")
        try:
            updates[key] = _KEY_SPECS[key](str(text).strip())
        except (ValueError, TypeError) as exc:
            raise ConfigError(key, f"bad value {text!r}: {exc}") from None
    updated = replace(config, **updates)
    validate_config(updated)
    return updated


def parse_config(text: str, base: NetworkConfig | None = None) -> NetworkConfig:
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
    return apply_overrides(base if base is not None else NetworkConfig(), pairs)


def _format_value(key: str, value) -> str:
    if value is None:
        return "asymptotic"
    if isinstance(value, bool):
        return "true" if value else "false"
    # A float key is written by value, as the parser reads it back: 1000,
    # 1000.0 and np.float64(1000.0) all as 1000.0.
    item = (lambda v: repr(float(v))) if key in _FLOATS else str
    if isinstance(value, tuple):
        return ",".join(item(v) for v in value)
    return item(value)


def serialize_config(config: NetworkConfig) -> str:
    """Render a config as a parseable document (round-trips exactly)."""
    lines = []
    for key in _KEY_SPECS:
        value = getattr(config, key)
        if value is None and key != "antennas":
            continue
        lines.append(f"{key} = {_format_value(key, value)}")
    return "\n".join(lines) + "\n"


def validate_scheme_requirements(config: NetworkConfig, scheme: str) -> None:
    """Check that a scheme is known and meets its pilot-length and asynchrony
    prerequisites."""
    if scheme not in SCHEMES:
        raise ConfigError("scheme", f"must be one of {SCHEMES}")
    if scheme == "individual-pilot" and config.pilot_length < config.users_per_cell:
        raise ConfigError(
            "pilot_length",
            f"per-user pilots need length >= users_per_cell ({config.users_per_cell})",
        )
    if scheme.startswith("composite") and config.pilot_length < config.cells:
        raise ConfigError(
            "pilot_length", f"per-cell pilots need length >= cells ({config.cells})"
        )
    if scheme == "composite-async":
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


# Float fields: tuples of floats among them, and those that may be unset.
_FLOATS = (
    "radius_m", "exclusion_m", "E_dbw", "p_u_dbw", "pilot_symbol_s",
    "async_offsets_s", "pathloss_intercept_db", "pathloss_slope",
    "shadow_sigma_db", "penetration_loss_db", "noise_psd_dbm_hz",
    "bandwidth_hz", "pilot_noise_ratio",
)
_TUPLES = ("E_dbw", "async_offsets_s", "antennas_sweep")
_OPTIONAL = ("async_offsets_s", "pilot_symbol_s")


def _require_types(config: NetworkConfig) -> None:
    """Reject what a config built in code can hold and the parser never
    gives: a list that is not a tuple, a float field that holds no int or
    float (a bool, str, None or float32), NaN and infinity, which every
    comparison below would let through, and a non-bool flag or non-str
    directory."""
    for key in _TUPLES:
        value = getattr(config, key)
        if not isinstance(value, tuple) and not (value is None and key in _OPTIONAL):
            raise ConfigError(key, f"must be a tuple, got {value!r}")
    for key in _FLOATS:
        value = getattr(config, key)
        if value is None and key in _OPTIONAL:
            continue
        for v in value if key in _TUPLES else (value,):
            # A float32 serializes as its rounded decimal, not its value.
            if isinstance(v, bool) or not isinstance(v, (int, float, np.integer)):
                raise ConfigError(key, f"must be an int or float, got {v!r}")
            if not math.isfinite(v):
                raise ConfigError(key, "must be finite")
    if not isinstance(config.async_power_control, bool):
        raise ConfigError("async_power_control", "must be a bool")
    if not isinstance(config.output_dir, str):
        raise ConfigError("output_dir", "must be a str")


# Count and seed fields with their least value.
_COUNTS = {
    "cells": 1, "users_per_cell": 1, "antennas": 1, "pilot_length": 1,
    "antennas_sweep": 1, "num_large": 1, "num_small": 1, "master_seed": 0,
}


def _require_counts(config: NetworkConfig) -> None:
    """Reject counts and seeds below their least value, and any that is not
    an integer: a config built in code can hold a float, NaN or bool there."""
    for key, least in _COUNTS.items():
        value = getattr(config, key)
        if value is None:  # asymptotic antennas
            continue
        for v in value if key == "antennas_sweep" else (value,):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ConfigError(key, f"must be an integer, got {v!r}")
            if v < least:
                raise ConfigError(key, f"must be at least {least}")


def validate_config(config: NetworkConfig) -> None:
    """Check every cross-field invariant; raise ConfigError naming the key."""
    _require_types(config)
    _require_counts(config)
    # Realization t's generators take t as one 32-bit entropy word.
    if config.num_large >= 2**32:
        raise ConfigError("num_large", "must be below 2**32")
    if config.cells not in SUPPORTED_CELL_COUNTS:
        raise ConfigError("cells", f"must be one of {SUPPORTED_CELL_COUNTS}")
    if not config.radius_m > 0:
        raise ConfigError("radius_m", "must be positive")
    if not config.shadow_sigma_db >= 0:
        raise ConfigError("shadow_sigma_db", "must be non-negative")
    for key in ("bandwidth_hz", "pilot_noise_ratio"):
        if not getattr(config, key) > 0:
            raise ConfigError(key, "must be positive")
    # A user at the BS has no finite path gain, and the log-distance model
    # has no floor near it.  A disk wider than the hexagon's inscribed circle
    # leaves only its corners to the rejection drop, whose rounds then grow
    # without bound; at the inscribed radius 7% of the candidates are admissible.
    if not 0 < config.exclusion_m <= math.sqrt(3) / 2 * config.radius_m:
        raise ConfigError("exclusion_m", "must lie in (0, sqrt(3)/2 * radius_m]")
    if not config.E_dbw:
        raise ConfigError("E_dbw", "needs at least one value")
    if len(set(config.E_dbw)) != len(config.E_dbw):
        raise ConfigError("E_dbw", "BS powers must be distinct")
    validate_scheme_requirements(config, config.scheme)
    if not config.antennas_sweep:
        raise ConfigError("antennas_sweep", "needs at least one antenna count")
    if len(set(config.antennas_sweep)) != len(config.antennas_sweep):
        raise ConfigError("antennas_sweep", "antenna counts must be distinct")
