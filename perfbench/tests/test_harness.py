"""Tests of the benchmark harness itself (not of the simulator).

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "asym-figs": {"num_large": 2},
    "finite-m-sweep": {"antennas_sweep": [100, 1000], "num_large": 2, "num_small": 2},
    "small-m-schemes": {
        "antennas": 16,
        "users_per_cell": 10,
        "pilot_length": 10,
        "num_large": 2,
        "num_small": 2,
    },
}


def test_self_time_with_nested_and_back_to_back_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],  # back to back with b
        ["b", 4.0, 6.0, 0],
        ["c", 2.0, 3.0, 1],  # nested in a: counts against a, not root
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 3.0, 7.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_spans_and_summary_with_a_stepping_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    with tracer.span("outer"):  # t=0
        inner(1)  # t=1..2
        inner(2)  # t=3..4
    # outer ends at t=5
    rows = tracer.summary()
    assert rows["outer"] == {"calls": 1, "self_s": 3.0, "incl_s": 5.0}
    assert rows["inner"] == {"calls": 2, "self_s": 2.0, "incl_s": 2.0}


def _bound_functions():
    return {
        (name, key): value
        for name, module in sorted(sys.modules.items())
        if module is not None and name.split(".")[0] == tracing.PACKAGE
        for key, value in vars(module).items()
        if callable(value)
    }


def test_wrappers_are_installed_where_looked_up_and_restored(tmp_path):
    import multicast_mimo.engine as engine

    original = engine.complex_gaussian
    tracer = tracing.Tracer()
    with tracing.traced(tracer) as absent:
        assert engine.complex_gaussian is not original
        assert engine.complex_gaussian.__wrapped__ is original
        assert "channel.complex_gaussian" not in absent
    assert engine.complex_gaussian is original

    before = _bound_functions()
    record = passes.run_pass(
        "finite-m-sweep", 5, trace=True, sizes=TINY["finite-m-sweep"], work_dir=tmp_path
    )
    after = _bound_functions()
    assert record["layers"]["channel.complex_gaussian.calls"] > 0
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_absent_hook_is_reported_not_fatal():
    hooks = tracing.HOOKS + (
        ("gone.module", "no_such_module", "anything", None),
        ("kernels.removed", "kernels", "no_such_function", None),
    )
    tracer = tracing.Tracer()
    with tracing.traced(tracer, hooks=hooks) as absent:
        pass
    assert {"gone.module", "kernels.removed"} <= set(absent)
    assert "seeding.child_seed" not in absent
    values = tracing.layer_metrics(tracer)
    assert values["kernels.combine.calls"] == 0
    assert values["channel.gaussians_per_draw"] == 0


@pytest.mark.parametrize("workload", passes.WORKLOADS)
def test_tiny_smoke_pass_of_each_workload(workload, capsys):
    records = run.run_passes(workload, 7, 0.0, trace=True, sizes=TINY[workload])
    assert [r["trace"] for r in records] == [False, True]
    line = run.report(workload, 7, records, trace=True)
    assert line["correct"] and line["attempted"] > 0 and line["failed"] == 0
    assert set(line["metrics"]) == set(tracing.LAYER_METRICS)
    metrics, details, _, _ = run.summarize(records)
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert details["failed_fraction"] == 0
    out = capsys.readouterr().out
    assert "seeding.seeds_per_realization" in out


def test_asym_counts_match_the_closed_form_path(tmp_path):
    record = passes.run_pass(
        "asym-figs", 3, trace=True, sizes=TINY["asym-figs"], work_dir=tmp_path
    )
    layers = record["layers"]
    assert layers["seeding.seeds_per_realization"] == 51
    assert layers["channel.large_scale_tensor.distinct_ratio"] == pytest.approx(0.05)
    assert layers["kernels.combine.calls"] == 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(passes.WORKLOADS)


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "asym-figs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_different_backends():
    old = {"workload": "asym-figs", "env": {"backend": "numpy"}, "metrics": {"wall_s": 2.0}}
    new = {"workload": "asym-figs", "env": {"backend": "numpy"}, "metrics": {"wall_s": 1.0}}
    assert "0.500" in compare.compare(old, new)[0]
    with pytest.raises(ValueError, match="backends differ"):
        compare.compare(old, {**new, "env": {"backend": "numba"}})
