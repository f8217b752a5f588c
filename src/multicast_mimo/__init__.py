"""Multicell massive-MIMO multicast simulator.

Noncooperative cells, one multicast beam per base station.  Implements the
asymptotically optimal combining beamformer, per-user (contaminated) and
per-cell composite (contamination-free) pilot schemes with optimal pilot
power control, the large-antenna limit SINR of every scheme including
asynchronous pilot arrival, and a seeded finite-antenna Monte Carlo engine.
"""

# The package's only version literal; set before the submodule imports so
# that they can read it.  A change to any random stream bumps it.
__version__ = "0.4.0"

from .beamforming import beamformer_from_estimate, optimal_beamformer_perfect
from .channel import ChannelState, FadingConfig
from .config import SCHEMES, ConfigError, NetworkConfig, parse_config, serialize_config
from .engine import (
    SinrReport,
    downlink_sinr,
    empirical_cdf,
    large_scale_batch,
    run_experiment,
    run_experiments,
)
from .pilots import (
    AsyncProfile,
    estimate_composite,
    estimate_individual,
    make_pilot_book,
    uplink_rx,
)
from .scenarios import SCENARIOS, run_scenario

# The configuration, preset and experiment API, plus the explicit vector
# route (ChannelState -> uplink_rx -> estimator -> beam -> downlink_sinr)
# that the finite-antenna sampler is tested against.  Everything else is
# imported from its module.
__all__ = [
    "AsyncProfile",
    "ChannelState",
    "ConfigError",
    "FadingConfig",
    "NetworkConfig",
    "SCENARIOS",
    "SCHEMES",
    "SinrReport",
    "beamformer_from_estimate",
    "downlink_sinr",
    "empirical_cdf",
    "estimate_composite",
    "estimate_individual",
    "large_scale_batch",
    "make_pilot_book",
    "optimal_beamformer_perfect",
    "parse_config",
    "run_experiment",
    "run_experiments",
    "run_scenario",
    "serialize_config",
    "uplink_rx",
]
