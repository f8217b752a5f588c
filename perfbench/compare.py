"""Compare two benchmark records of one workload, metric by metric.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are run records written to ``perfbench/_runs/`` by ``run.py``, or
``perfbench/baseline.json``, from which the entry for NEW's workload is taken.
Runs measured with different kernel backends are not compared (exit code 2).
Ratios are NEW / OLD; whether higher is better depends on the metric.
"""

import json
import sys
from pathlib import Path


def load(path, workload=None):
    data = json.loads(Path(path).read_text())
    if "workloads" in data:  # baseline file: one entry per workload
        if workload not in data["workloads"]:
            raise SystemExit(f"{path} has no entry for workload {workload!r}")
        return data["workloads"][workload]
    return data


def compare(old, new):
    """Lines comparing ``new`` with ``old``; raises ValueError if not comparable."""
    if old["workload"] != new["workload"]:
        raise ValueError(f"workloads differ: {old['workload']} vs {new['workload']}")
    if old["env"]["backend"] != new["env"]["backend"]:
        raise ValueError(
            f"kernel backends differ: {old['env']['backend']} vs {new['env']['backend']}"
        )
    lines = []
    for section in ("metrics", "details", "layers"):
        a, b = old.get(section) or {}, new.get(section) or {}
        for name in sorted(a.keys() & b.keys()):
            if not isinstance(a[name], (int, float)) or not isinstance(b[name], (int, float)):
                continue
            ratio = f"{b[name] / a[name]:.3f}" if a[name] else "n/a"
            lines.append(f"{name:<44} {a[name]:>14.6g} {b[name]:>14.6g} {ratio:>8}")
    return lines


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    new = load(argv[2])
    old = load(argv[1], new["workload"])
    try:
        lines = compare(old, new)
    except ValueError as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    print(f"# {new['workload']}: {'metric':<34} {'old':>14} {'new':>14} {'new/old':>8}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
