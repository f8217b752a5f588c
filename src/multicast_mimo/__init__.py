"""Multicell massive-MIMO multicast simulator.

Noncooperative cells, one multicast beam per base station.  Implements the
asymptotically optimal combining beamformer, per-user (contaminated) and
per-cell composite (contamination-free) pilot schemes with optimal pilot
power control, the large-antenna limit SINR of every scheme including
asynchronous pilot arrival, and a seeded finite-antenna Monte Carlo engine.
"""

# The package's only version literal; set before the submodule imports so
# that they can read it.  A change to any random stream bumps it.
__version__ = "0.5.0"

from .config import SCHEMES, ConfigError, NetworkConfig, parse_config, serialize_config
from .engine import (
    SinrReport,
    empirical_cdf,
    large_scale_batch,
    run_experiment,
    run_experiments,
)
from .scenarios import SCENARIOS, run_scenario

# The configuration, preset and experiment API.  Everything else is imported
# from its module; the explicit vector route that the engine is tested
# against, with its pilot books and arrival-delay profiles, is in
# tests/reference_route.py.
__all__ = [
    "ConfigError",
    "NetworkConfig",
    "SCENARIOS",
    "SCHEMES",
    "SinrReport",
    "empirical_cdf",
    "large_scale_batch",
    "parse_config",
    "run_experiment",
    "run_experiments",
    "run_scenario",
    "serialize_config",
]
