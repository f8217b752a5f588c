"""Multicell massive-MIMO multicast simulator.

Noncooperative cells, one multicast beam per base station.  Implements the
asymptotically optimal combining beamformer, per-user (contaminated) and
per-cell composite (contamination-free) pilot schemes with optimal pilot
power control, closed-form large-antenna SINR for every scheme including
asynchronous pilot arrival, and a seeded finite-antenna Monte Carlo engine.
"""

# The package's only version literal; set before the submodule imports so
# that they can read it.  A change to any random stream bumps it.
__version__ = "0.3.0"

from .asymptotic import (
    UNBOUNDED,
    sinr_async,
    sinr_composite,
    sinr_composite_optimal,
    sinr_contaminated,
    sinr_contamination_ceiling,
    sinr_gap_db,
    sinr_perfect_csi,
)
from .beamforming import (
    Beamformer,
    CombiningWeights,
    beamformer_from_estimate,
    combine_beamformer,
    optimal_beamformer_perfect,
    optimal_lambdas,
)
from .channel import (
    ChannelState,
    FadingConfig,
    assemble_channels,
    draw_small_scale,
    large_scale_gain,
    large_scale_tensor,
    noise_power,
    pilot_noise_power,
)
from .config import SCHEMES, ConfigError, NetworkConfig, parse_config, serialize_config
from .engine import (
    SinrReport,
    TrialResult,
    asymptotic_report,
    downlink_sinr,
    empirical_cdf,
    large_scale_batch,
    run_experiment,
    run_trial,
)
from .geometry import (
    CellLayout,
    UserPositions,
    build_hex_layout,
    distance_m,
    drop_users,
    hexagon_contains,
)
from .pilots import (
    AsyncProfile,
    PilotBook,
    async_kappas,
    estimate_composite,
    estimate_individual,
    make_orthogonal_pilots,
    make_pilot_book,
    maxmin_pilot_powers_oracle,
    optimal_pilot_powers,
    polluted_pilot,
    pulse_correlation,
    uplink_rx,
)
from .scenarios import SCENARIOS, SweepTable, emit_csv, run_scenario

__all__ = [
    "AsyncProfile",
    "Beamformer",
    "CellLayout",
    "ChannelState",
    "CombiningWeights",
    "ConfigError",
    "FadingConfig",
    "NetworkConfig",
    "PilotBook",
    "SCENARIOS",
    "SCHEMES",
    "SinrReport",
    "SweepTable",
    "TrialResult",
    "UNBOUNDED",
    "UserPositions",
    "assemble_channels",
    "async_kappas",
    "asymptotic_report",
    "beamformer_from_estimate",
    "build_hex_layout",
    "combine_beamformer",
    "distance_m",
    "downlink_sinr",
    "draw_small_scale",
    "drop_users",
    "emit_csv",
    "empirical_cdf",
    "estimate_composite",
    "estimate_individual",
    "hexagon_contains",
    "large_scale_batch",
    "large_scale_gain",
    "large_scale_tensor",
    "make_orthogonal_pilots",
    "make_pilot_book",
    "maxmin_pilot_powers_oracle",
    "noise_power",
    "optimal_beamformer_perfect",
    "optimal_lambdas",
    "optimal_pilot_powers",
    "parse_config",
    "pilot_noise_power",
    "polluted_pilot",
    "pulse_correlation",
    "run_experiment",
    "run_scenario",
    "run_trial",
    "serialize_config",
    "sinr_async",
    "sinr_composite",
    "sinr_composite_optimal",
    "sinr_contaminated",
    "sinr_contamination_ceiling",
    "sinr_gap_db",
    "sinr_perfect_csi",
    "uplink_rx",
]
