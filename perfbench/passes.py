"""One pass of one benchmark workload, run in a fresh process.

``run.py`` starts this file once per pass:

    python3 perfbench/passes.py '{"workload": "asym-figs", "seed": 3, ...}'

and reads the JSON object it prints as its last line.  A pass builds the
workload's configuration from the seed (that is its set-up time), calls the
simulator only through its public API (``run_scenario``, ``run_experiment``,
``NetworkConfig``, ``SCHEMES``), times those calls, and checks the outputs.
A traced pass does the same with ``tracing.HOOKS`` installed.

Output checks are chosen to survive a declared change of the random streams:
finite samples, well-formed CDFs, the qualitative shape of the E sweep and of
the antenna sweep, and each curve's mean within ``REFERENCE_Z`` standard
deviations of the spread of that mean over reference seeds (``reference.json``).
CSV digests and run fingerprints are recorded as information only.
"""

import hashlib
import json
import math
import os
import re
import resource
import sys
import tempfile
import time
from dataclasses import replace
from importlib.util import find_spec
from pathlib import Path

import tracing

WORKLOADS = ("asym-figs", "finite-m-sweep", "small-m-schemes")

#: Problem sizes per workload, chosen so one pass takes about 3 s on one core.
SIZES = {
    "asym-figs": {"num_large": 20},
    "finite-m-sweep": {"antennas_sweep": [100, 300, 1000], "num_large": 16, "num_small": 10},
    "small-m-schemes": {
        "antennas": 16,
        "users_per_cell": 10,
        "pilot_length": 10,
        "num_large": 40,
        "num_small": 10,
    },
}

ASYM_PRESETS = ("fig2-cdf-perfect", "fig3/4-cdf-schemes", "fig5/6-sweep-E", "fig7-sweep-pu")
FINITE_SCHEME = "composite-power-controlled"
PILOT_SYMBOL_S = 1e-6
ASYNC_STREAM = 0xA5
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Check thresholds, fixed before any run was checked.
REFERENCE_Z = 6.0  # curve mean vs reference: standard deviations allowed
SATURATED_SLOPE = 0.1  # dB per dB of E: individual-pilot top step must be flatter
GROWING_SLOPE = 0.5  # dB per dB of E: composite top step must be steeper
CSV_PROB_TOL = 1e-6  # probabilities are written with six decimals


# --- checks ---------------------------------------------------------------


def _curve(name, mean=None, failures=(), **info):
    return {"name": name, "mean": mean, "failures": list(failures), **info}


def _cdf_failures(values, probs, exact):
    n = len(values)
    out = []
    if not all(math.isfinite(v) for v in values):
        out.append("non-finite sample")
    elif any(b < a for a, b in zip(values, values[1:])):
        out.append("CDF values not sorted")
    tol = 1e-12 if exact else CSV_PROB_TOL
    if any(abs(p - (i + 1) / n) > tol for i, p in enumerate(probs)):
        out.append("CDF probabilities are not i/n")
    return out


def check_csv(path):
    """Parse one CSV the presets wrote and check its shape."""
    raw = Path(path).read_bytes()
    lines = raw.decode("utf-8").splitlines()
    fingerprint = re.search(r"fingerprint ([0-9a-f]+)", lines[0])
    body = [line for line in lines if not line.startswith("#")]
    header, rows = body[0], [tuple(map(float, r.split(","))) for r in body[1:]]
    xs = [r[0] for r in rows]
    ys = [r[1] for r in rows]
    info = {
        "sha256": hashlib.sha256(raw).hexdigest(),
        "fingerprint": fingerprint.group(1) if fingerprint else None,
        "rows": len(rows),
    }
    if header == "sinr_db,probability":
        failures = _cdf_failures(xs, ys, exact=False)
        return _curve(Path(path).name, sum(xs) / len(xs), failures, kind="cdf", **info)
    failures = []
    if not all(math.isfinite(v) for v in xs + ys):
        failures.append("non-finite value")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        failures.append("sweep not in ascending order")
    return _curve(
        Path(path).name, sum(ys) / len(ys), failures, kind="sweep", x=xs, y=ys, **info
    )


def check_report(name, report):
    """Check a ``SinrReport`` returned by ``run_experiment``."""
    values = [float(v) for v in report.cdf[:, 0]]
    failures = _cdf_failures(values, [float(p) for p in report.cdf[:, 1]], exact=True)
    if not failures and values != sorted(float(v) for v in report.samples_db):
        failures.append("CDF values are not the sorted samples")
    return _curve(
        name,
        float(report.mean_min_sinr_db),
        failures,
        kind="report",
        sha256=hashlib.sha256(report.samples_db.tobytes()).hexdigest(),
        fingerprint=report.fingerprint,
        rows=len(values),
    )


def _step_slope(curve):
    (x0, x1), (y0, y1) = curve["x"][-2:], curve["y"][-2:]
    return (y1 - y0) / (x1 - x0)


def check_e_sweep(curves):
    """fig5/6: individual-pilot saturates, composite keeps growing, and
    power-controlled composite never beats perfect-CSI optimal."""
    by_scheme = {}
    for c in curves:
        m = re.fullmatch(r"fig56_sweep_E_(.+)_K\d+\.csv", c["name"])
        if m and not c["failures"]:
            by_scheme[m.group(1)] = c
    needed = ("individual-pilot", "composite", "composite-power-controlled", "perfect-optimal")
    if any(s not in by_scheme for s in needed):
        for c in curves:
            if c["name"].startswith("fig56_"):
                c["failures"].append("E sweep incomplete")
        return
    individual, composite = by_scheme["individual-pilot"], by_scheme["composite"]
    controlled, perfect = by_scheme["composite-power-controlled"], by_scheme["perfect-optimal"]
    if _step_slope(individual) >= SATURATED_SLOPE:
        individual["failures"].append("individual-pilot does not saturate")
    if _step_slope(composite) <= GROWING_SLOPE:
        composite["failures"].append("composite stops growing")
    if controlled["x"] != perfect["x"] or any(
        c > p + 1e-6 for c, p in zip(controlled["y"], perfect["y"])
    ):
        controlled["failures"].append("power-controlled above perfect-optimal")


def check_gap_shrinks(simulated, asymptotic):
    """fig10: |simulated - asymptotic| is smaller at the largest antenna count
    than at the smallest.  Neighbouring counts are not compared: at these trial
    counts the Monte Carlo error can exceed the change between them."""
    if asymptotic["failures"] or any(c["failures"] for c in simulated):
        return
    gaps = [abs(c["mean"] - asymptotic["mean"]) for c in simulated]
    if gaps[-1] >= gaps[0]:
        simulated[-1]["failures"].append(
            "gap to asymptote does not shrink with M: "
            + ", ".join(f"{g:.3f}" for g in gaps)
        )


def check_reference(workload, sizes, curves, reference):
    """Each curve mean within REFERENCE_Z reference standard deviations.

    Applies only at the sizes the reference was recorded at.
    """
    entry = (reference or {}).get(workload)
    if not entry or entry["sizes"] != sizes:
        return False
    for c in curves:
        ref = entry["curves"].get(c["name"])
        if c["failures"] or c["mean"] is None:
            continue
        if ref is None:
            c["failures"].append("no reference for this curve")
        elif abs(c["mean"] - ref["mean"]) > REFERENCE_Z * ref["sd"]:
            c["failures"].append(
                f"mean {c['mean']:.3f} dB is more than {REFERENCE_Z:g} sd "
                f"from reference {ref['mean']:.3f} +- {ref['sd']:.3f}"
            )
    return True


# --- workloads ------------------------------------------------------------


def _failed(name, exc):
    return _curve(name, failures=[f"raised {type(exc).__name__}: {exc}"])


class _Clock:
    """Accumulates the time spent inside simulator calls."""

    def __init__(self):
        self.busy = 0.0

    def call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.elapsed = time.perf_counter() - start
            self.busy += self.elapsed


def setup(mm, workload, seed, sizes):
    """Build the configuration(s) a pass of ``workload`` runs."""
    if workload == "asym-figs":
        return mm.NetworkConfig(master_seed=seed, num_large=sizes["num_large"])
    if workload == "finite-m-sweep":
        return mm.NetworkConfig(
            master_seed=seed,
            antennas_sweep=tuple(sizes["antennas_sweep"]),
            num_large=sizes["num_large"],
            num_small=sizes["num_small"],
        )
    if workload == "small-m-schemes":
        import numpy as np

        cells, users = mm.NetworkConfig().cells, sizes["users_per_cell"]
        rng = np.random.default_rng([seed, ASYNC_STREAM])
        offsets = rng.uniform(0.0, PILOT_SYMBOL_S, cells * users)
        return mm.NetworkConfig(
            master_seed=seed,
            antennas=sizes["antennas"],
            users_per_cell=users,
            pilot_length=sizes["pilot_length"],
            num_large=sizes["num_large"],
            num_small=sizes["num_small"],
            async_offsets_s=tuple(float(o) for o in offsets),
            pilot_symbol_s=PILOT_SYMBOL_S,
        )
    raise ValueError(f"unknown workload {workload!r}")


def run_asym_figs(mm, config, clock, work_dir):
    curves = []
    realizations = 0
    for preset in ASYM_PRESETS:
        out = Path(work_dir) / preset.replace("/", "_")
        try:
            paths = clock.call(mm.run_scenario, preset, config, out)
        except Exception as exc:  # a failed preset counts as a failed curve
            curves.append(_failed(preset, exc))
            continue
        for path in paths[1:]:
            curve = check_csv(path)
            realizations += curve["rows"] * (config.num_large if curve["kind"] == "sweep" else 1)
            curves.append(curve)
    check_e_sweep(curves)
    return curves, {"realizations": realizations, "draws": 0, "per_m": {}}


def _experiment(mm, clock, name, config, scheme, work):
    try:
        report = clock.call(mm.run_experiment, config, scheme=scheme)
    except Exception as exc:  # a failed curve is counted, not fatal
        return _failed(name, exc)
    work["realizations"] += config.num_large
    if config.antennas is not None:
        draws = config.num_large * config.num_small
        work["draws"] += draws
        key = f"M{config.antennas}"
        ms, n = work["per_m"].get(key, (0.0, 0))
        work["per_m"][key] = (ms + clock.elapsed * 1e3, n + draws)
    return check_report(name, report)


def run_finite_m_sweep(mm, config, clock, work_dir):
    work = {"realizations": 0, "draws": 0, "per_m": {}}
    simulated = [
        _experiment(mm, clock, f"simulated_M{m}", replace(config, antennas=m), FINITE_SCHEME, work)
        for m in sorted(config.antennas_sweep)
    ]
    asymptotic = _experiment(
        mm, clock, "asymptotic", replace(config, antennas=None), FINITE_SCHEME, work
    )
    check_gap_shrinks(simulated, asymptotic)
    return simulated + [asymptotic], work


def run_small_m_schemes(mm, config, clock, work_dir):
    work = {"realizations": 0, "draws": 0, "per_m": {}}
    curves = [
        _experiment(mm, clock, scheme, config, scheme, work) for scheme in mm.SCHEMES
    ]
    return curves, work


RUNNERS = {
    "asym-figs": run_asym_figs,
    "finite-m-sweep": run_finite_m_sweep,
    "small-m-schemes": run_small_m_schemes,
}


def environment(mm):
    import numpy as np

    try:
        from multicast_mimo.kernels import active_backend

        backend = active_backend()
    except ImportError:
        backend = "numpy"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba": find_spec("numba") is not None,
        "backend": backend,
        "package_version": getattr(mm, "__version__", None),
    }


def run_pass(workload, seed, trace=False, sizes=None, work_dir=None, reference=None):
    """Set up and run one pass in this process; returns the result record."""
    sizes = sizes if sizes is not None else SIZES[workload]
    start = time.perf_counter()
    import multicast_mimo as mm

    config = setup(mm, workload, seed, sizes)
    setup_s = time.perf_counter() - start

    clock = _Clock()
    layers = absent = None
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        if trace:
            tracer = tracing.Tracer()
            with tracing.traced(tracer) as absent, tracer.span("pass"):
                curves, work = RUNNERS[workload](mm, config, clock, tmp)
            layers = tracing.layer_metrics(tracer)
            table = tracer.summary()
        else:
            curves, work = RUNNERS[workload](mm, config, clock, tmp)
    referenced = check_reference(workload, sizes, curves, reference)
    ms_per_draw = {k: ms / n for k, (ms, n) in work["per_m"].items()}
    record = {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "sizes": sizes,
        "setup_s": setup_s,
        "wall_s": clock.busy,
        "realizations": work["realizations"],
        "draws": work["draws"],
        "ms_per_draw": ms_per_draw,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_checked": referenced,
        "curves": curves,
        "env": environment(mm),
    }
    if trace:
        record.update(layers=layers, absent=absent, layer_table=table)
    return record


def main(argv):
    spec = json.loads(argv[1])
    reference = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else None
    record = run_pass(
        spec["workload"],
        int(spec["seed"]),
        trace=bool(spec.get("trace")),
        sizes=spec.get("sizes"),
        work_dir=spec.get("work_dir"),
        reference=reference,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
