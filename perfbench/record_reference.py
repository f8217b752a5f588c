"""Record the per-curve reference that ``passes.check_reference`` compares with.

    python3 perfbench/record_reference.py

Runs one pass of every workload, at the sizes in ``passes.SIZES``, for each
of ``REFERENCE_SEEDS`` and writes the mean and standard deviation over seeds
of every curve's mean to ``perfbench/reference.json``.  Re-record only when a
change alters the workloads, never to make a failing check pass.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import passes  # noqa: E402

REFERENCE_SEEDS = range(1000, 1040)


def main():
    reference = {}
    work_dir = HERE / "_runs"
    work_dir.mkdir(exist_ok=True)
    for workload in passes.WORKLOADS:
        means = {}
        for seed in REFERENCE_SEEDS:
            record = passes.run_pass(workload, seed, work_dir=work_dir)
            for curve in record["curves"]:
                if curve["failures"]:
                    raise SystemExit(f"{workload} seed {seed}: {curve['name']}: {curve['failures']}")
                means.setdefault(curve["name"], []).append(curve["mean"])
        reference[workload] = {
            "sizes": passes.SIZES[workload],
            "seeds": [REFERENCE_SEEDS.start, REFERENCE_SEEDS.stop],
            "curves": {
                name: {"mean": statistics.fmean(v), "sd": statistics.stdev(v)}
                for name, v in sorted(means.items())
            },
        }
        print(workload, "done", flush=True)
    passes.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
