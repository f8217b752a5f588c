"""Named scenario presets and CSV emission.

Each preset reproduces one family of result curves at desk scale and writes
one CSV per curve plus a ``manifest.cfg`` recording the fully resolved
configuration; re-running a scenario from its manifest reproduces every CSV
byte for byte.

Every curve is one ``run_experiment`` call.  The engine keeps one read-only
large-scale batch per geometry, shared by every experiment in the process, so
curves of one geometry (in one preset or across presets) draw it once.  Each
CSV is byte-identical to the one built from ``run_experiment`` for that curve
alone in a fresh process.
"""

from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .config import NetworkConfig, serialize_config, validate_config
from .engine import SinrReport, run_experiment

#: Illustrative BS power sweep used when the config carries a single value.
DEFAULT_E_SWEEP_DBW = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)

#: Peak pilot power levels compared by the pilot-power preset.
PILOT_POWER_LEVELS_DBW = (2.0, 4.0, 8.0)


@dataclass(frozen=True)
class SweepTable:
    """One sweep curve: mean min-SINR against a swept quantity."""

    x_name: str
    rows: tuple  # ((x, mean_min_sinr_db), ...) sorted by x


def emit_csv(report, path, description: str = "") -> Path:
    """Write a CDF report or sweep table as a deterministic CSV file.

    UTF-8, one header row, six decimal places, rows in ascending order of the
    first column.
    """
    path = Path(path)
    if isinstance(report, SinrReport):
        if report.cdf.shape[0] == 0:
            raise ValueError("refusing to emit an empty report")
        header = "sinr_db,probability"
        note = "columns: sinr_db = min-user SINR sample [dB]; probability = empirical CDF"
        rows = [f"{v:.6f},{p:.6f}" for v, p in report.cdf]
    elif isinstance(report, SweepTable):
        if not report.rows:
            raise ValueError("refusing to emit an empty sweep table")
        header = f"{report.x_name},mean_min_sinr_db"
        note = (
            f"columns: {report.x_name} = swept value; "
            "mean_min_sinr_db = mean over realizations of the min-user SINR [dB]"
        )
        rows = [f"{x:.6f},{y:.6f}" for x, y in sorted(report.rows)]
    else:
        raise TypeError(f"cannot emit {type(report).__name__} as CSV")
    lines = [f"# {description}" if description else "#", f"# {note}", header]
    path.write_text("\n".join(lines + rows) + "\n", encoding="utf-8", newline="\n")
    return path


def _write_manifest(name: str, config: NetworkConfig, out_dir: Path) -> Path:
    body = (
        f"# scenario: {name}\n"
        f"# generator: multicast-mimo {__version__}\n" + serialize_config(config)
    )
    path = out_dir / "manifest.cfg"
    path.write_text(body, encoding="utf-8", newline="\n")
    return path


def _cdf_curves(out_dir, prefix, runs):
    """Emit one CDF CSV per (label, config, scheme) run."""
    paths = []
    for label, cfg, scheme in runs:
        report = run_experiment(cfg, scheme=scheme)
        paths.append(
            emit_csv(
                report,
                out_dir / f"{prefix}_{label}.csv",
                description=f"{prefix} curve: {label} (fingerprint {report.fingerprint})",
            )
        )
    return paths


def _scenario_perfect_csi_cdf(config: NetworkConfig, out_dir: Path):
    """Min asymptotic SINR CDFs under perfect CSI: optimal vs equal combining,
    at 3 and 10 users per cell."""
    base = replace(config, antennas=None)
    runs = [
        (f"{scheme}_K{k}", replace(base, users_per_cell=k), scheme)
        for k in (3, 10)
        for scheme in ("perfect-optimal", "perfect-equal")
    ]
    return _cdf_curves(out_dir, "fig2_cdf", runs)


_CDF_SCHEMES = (
    "perfect-optimal",
    "individual-pilot",
    "composite",
    "composite-power-controlled",
)


def _scenario_scheme_cdf(config: NetworkConfig, out_dir: Path):
    """Min asymptotic SINR CDFs of the four CSI schemes at the configured
    user count."""
    base = replace(config, antennas=None)
    k = config.users_per_cell
    runs = [(f"{scheme}_K{k}", base, scheme) for scheme in _CDF_SCHEMES]
    return _cdf_curves(out_dir, "fig34_cdf", runs)


def _scenario_bs_power_sweep(config: NetworkConfig, out_dir: Path):
    """Mean min asymptotic SINR against BS power for the four CSI schemes."""
    sweep = config.E_dbw if len(config.E_dbw) > 1 else DEFAULT_E_SWEEP_DBW
    base = replace(config, antennas=None)
    paths = []
    for scheme in _CDF_SCHEMES:
        rows = []
        for e_dbw in sweep:
            report = run_experiment(replace(base, E_dbw=(e_dbw,)), scheme=scheme)
            rows.append((e_dbw, report.mean_min_sinr_db))
        table = SweepTable(x_name="E_dbw", rows=tuple(rows))
        paths.append(
            emit_csv(
                table,
                out_dir / f"fig56_sweep_E_{scheme}_K{config.users_per_cell}.csv",
                description=f"fig56 sweep: {scheme}, K={config.users_per_cell}",
            )
        )
    return paths


def _scenario_pilot_power_sweep(config: NetworkConfig, out_dir: Path):
    """Power-controlled composite CDFs at increasing peak pilot power, with
    the perfect-CSI CDF as reference."""
    base = replace(config, antennas=None)
    runs = [("perfect-optimal", base, "perfect-optimal")]
    for pu in PILOT_POWER_LEVELS_DBW:
        runs.append(
            (
                f"composite-power-controlled_pu{pu:g}dbw",
                replace(base, p_u_dbw=pu),
                "composite-power-controlled",
            )
        )
    return _cdf_curves(out_dir, "fig7_cdf", runs)


def _scenario_finite_antennas(config: NetworkConfig, out_dir: Path):
    """Measured mean min SINR of the power-controlled composite scheme over an
    antenna-count sweep, against its asymptotic value."""
    scheme = "composite-power-controlled"
    simulated = []
    for m in sorted(config.antennas_sweep):
        report = run_experiment(replace(config, antennas=int(m)), scheme=scheme)
        simulated.append((float(m), report.mean_min_sinr_db))
    asym = run_experiment(replace(config, antennas=None), scheme=scheme)
    reference = tuple((float(m), asym.mean_min_sinr_db) for m in sorted(config.antennas_sweep))
    p1 = emit_csv(
        SweepTable(x_name="antennas", rows=tuple(simulated)),
        out_dir / "fig10_finite_M_simulated.csv",
        description=f"fig10: simulated {scheme}",
    )
    p2 = emit_csv(
        SweepTable(x_name="antennas", rows=reference),
        out_dir / "fig10_finite_M_asymptotic.csv",
        description=f"fig10: asymptotic {scheme} reference",
    )
    return [p1, p2]


SCENARIOS = {
    "fig2-cdf-perfect": _scenario_perfect_csi_cdf,
    "fig3/4-cdf-schemes": _scenario_scheme_cdf,
    "fig5/6-sweep-E": _scenario_bs_power_sweep,
    "fig7-sweep-pu": _scenario_pilot_power_sweep,
    "fig10-finite-M": _scenario_finite_antennas,
}


def run_scenario(name: str, config: NetworkConfig, out_dir=None) -> list:
    """Validate the config, then execute a named preset; returns the written
    files (manifest first).  An invalid config creates and writes nothing."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    validate_config(config)
    out = Path(out_dir) if out_dir is not None else Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _write_manifest(name, config, out)
    return [manifest] + SCENARIOS[name](config, out)
