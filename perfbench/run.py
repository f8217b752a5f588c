"""Layered benchmark of the multicast-mimo simulator.

    python3 perfbench/run.py --workload asym-figs --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Runs passes of one workload, each in a fresh single-threaded process (see
``passes.py``), until ``--seconds`` have gone by, then prints every metric by
name and unit and, as its last line, one JSON object with ``correct``,
``attempted`` and ``failed`` (curves) and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` passes alternate between
untraced and traced, and the metrics are the per-layer ones from
``tracing.py`` plus the tracing overhead.  Each run's full record, with the
machine facts and every curve's digest, is written to ``perfbench/_runs/``.

The program is run from source (``src/``), so the benchmark needs no build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = HERE / "_runs"

sys.path.insert(0, str(HERE))
from passes import WORKLOADS  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

PASS_TIMEOUT_S = 150
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: End-to-end metrics every workload reports (the JSON line with --trace 0).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "realizations_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


class PassError(RuntimeError):
    """A pass process failed outside the per-curve checks."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update({var: "1" for var in THREAD_VARS})
    # Pin the kernel backend so that runs on machines with and without numba
    # measure the same code.
    env["MULTICAST_MIMO_BACKEND"] = "numpy"
    return env


def run_pass(workload, seed, trace, sizes=None):
    """Run one pass in a fresh process and return its record."""
    RUNS_DIR.mkdir(exist_ok=True)
    spec = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "sizes": sizes,
        "work_dir": str(RUNS_DIR),
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "passes.py"), json.dumps(spec)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise PassError(f"pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, trace, sizes=None):
    """Passes until ``seconds`` have elapsed; with ``trace`` they alternate
    untraced/traced and at least one of each runs."""
    start = time.perf_counter()
    records = []
    while True:
        traced = trace and len(records) % 2 == 1
        records.append(run_pass(workload, seed, traced, sizes))
        enough = not trace or len(records) >= 2
        if enough and time.perf_counter() - start >= seconds:
            return records


def _tail(values):
    """(q, q-th percentile): the highest whole percentile with at least ten
    samples above it.  None below 20 samples, where q would not exceed 50."""
    n = len(values)
    if n < 20:
        return None
    q = int(100 * (1 - 10 / n))
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(records):
    """End-to-end metrics, details and curve counts of a run's passes."""
    untraced = [r for r in records if not r["trace"]]
    walls = [r["wall_s"] for r in untraced]
    busy = sum(walls)
    realizations = sum(r["realizations"] for r in untraced)
    draws = sum(r["draws"] for r in untraced)
    curves = [c for r in records for c in r["curves"]]
    failed = [c for c in curves if c["failures"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "wall_s": statistics.median(walls),
        "realizations_per_s": realizations / busy,
        "peak_rss_mb": statistics.median(r["peak_rss_mib"] for r in untraced),
    }
    details = {
        "draws_per_s": draws / busy if draws else None,
        "failed_fraction": len(failed) / len(curves),
    }
    keys = sorted({k for r in untraced for k in r["ms_per_draw"]}, key=lambda k: int(k[1:]))
    for key in keys:
        details[f"ms_per_draw.{key}"] = statistics.median(
            r["ms_per_draw"][key] for r in untraced
        )
    tail = _tail(walls)
    details["wall_s.tail"] = {
        "passes": len(walls),
        "percentile": tail[0] if tail else None,
        "value": tail[1] if tail else None,
    }
    return metrics, details, len(curves), failed


def layer_values(records):
    """Per-layer metrics: counts from the first traced pass, self times as the
    median over traced passes, and the tracing overhead."""
    traced = [r for r in records if r["trace"]]
    untraced = [r for r in records if not r["trace"]]
    values = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_s":
            values[name] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
                r["wall_s"] for r in untraced
            )
        elif name.endswith("_s"):
            values[name] = statistics.median(r["layers"][name] for r in traced)
        else:
            values[name] = traced[0]["layers"][name]
    unsteady = [
        name
        for name in LAYER_METRICS
        if not name.endswith("_s") and any(r["layers"][name] != values[name] for r in traced)
    ]
    return values, unsteady


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def report(workload, seed, records, trace):
    """Print the run's metrics and write its record; returns the JSON line."""
    metrics, details, attempted, failed = summarize(records)
    env = records[0]["env"]
    print(
        f"# workload {workload}  seed {seed}  passes {len(records)}  "
        + "  ".join(f"{k} {v}" for k, v in env.items())
    )
    for name, unit in END_TO_END.items():
        print(f"{name:<44} {_fmt(metrics[name]):>14} {unit}")
    units = {"draws_per_s": "1/s", "failed_fraction": "ratio"}
    for name, value in details.items():
        if name != "wall_s.tail":
            print(f"{name:<44} {_fmt(value):>14} {units.get(name, 'ms')}")
    tail = details["wall_s.tail"]
    where = f"p{tail['percentile']} of" if tail["value"] is not None else "needs 20, had"
    print(f"{'wall_s.tail':<44} {_fmt(tail['value']):>14} s  ({where} {tail['passes']} untraced passes)")
    for curve in failed:
        print(f"# FAILED {curve['name']}: {'; '.join(curve['failures'])}")
    if not all(r["reference_checked"] for r in records):
        print("# reference check skipped: sizes differ from reference.json")

    record = {"workload": workload, "seed": seed, "env": env, "metrics": metrics, "details": details}
    if trace:
        values, unsteady = layer_values(records)
        first_traced = next(r for r in records if r["trace"])
        absent = first_traced["absent"]
        for name, unit in LAYER_METRICS.items():
            layer = name.rpartition(".")[0]
            mark = "  (absent)" if layer in absent else ""
            print(f"{name:<44} {_fmt(values[name]):>14} {unit}{mark}")
        if unsteady:
            print(f"# counts differ between traced passes: {', '.join(unsteady)}")
        print_split(first_traced)
        record.update(layers=values, absent=absent)
        out = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    else:
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    record["curves"] = [
        {k: c.get(k) for k in ("name", "mean", "sha256", "fingerprint", "failures")}
        for c in records[0]["curves"]
    ]
    RUNS_DIR.mkdir(exist_ok=True)
    path = RUNS_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": out,
    }


def print_split(record):
    """Share of the traced pass spent in each layer, by self time."""
    table = record["layer_table"]
    total = table["pass"]["incl_s"]
    print(f"# layer split of one traced pass ({total:.3f} s): name calls self_s share incl_s")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(
            f"#   {name:<30} {row['calls']:>8} {row['self_s']:>9.4f} "
            f"{row['self_s'] / total:>6.1%} {row['incl_s']:>9.4f}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "multicast_mimo").is_dir():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            records = run_passes(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(report(workload, args.seed, records, bool(args.trace))))
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
