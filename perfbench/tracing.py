"""In-memory span tracing of the simulator's modules, from outside the package.

A traced pass replaces each hooked public function with a wrapper that
records a span (name, start, end, parent) and, where it applies, a work
counter computed from the call's arguments or result.  The wrapper is
installed wherever the function object is bound, so a module that imported
the name (``engine.complex_gaussian``) is hooked as well as the module that
defines it (``channel.complex_gaussian``).  ``traced`` restores every
original on exit.

A span's self time is its duration minus the part of it that its direct
child spans cover.  This module imports nothing outside the standard library,
so importing it does not count towards a pass's set-up time.
"""

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "multicast_mimo"


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self.distinct = defaultdict(set)
        self._open = []

    def _enter(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(index)
        return index

    def _exit(self, index):
        self.spans[index][2] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name):
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def wrap(self, name, fn, count=None):
        """Wrap ``fn`` so each call records a span ``name``.

        ``count(tracer, args, kwargs, result)``, if given, updates counters
        after a call that returned.
        """

        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self):
        """``name -> {"calls", "self_s", "incl_s"}`` over all closed spans.

        ``incl_s`` sums the durations of the spans that have no ancestor of
        the same name, so recursion is not counted twice.
        """
        selfs = self_times(self.spans)
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += selfs[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                row["incl_s"] += end - start
        return dict(out)


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span: duration minus what its direct children cover."""
    children = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (_, start, end, _) in enumerate(spans)
    ]


# --- counters -------------------------------------------------------------


def _count_gaussians(tracer, args, kwargs, result):
    tracer.counters["channel.complex_gaussian.entries"] += result.size
    tracer.counters["channel.complex_gaussian.bytes"] += result.nbytes


def _count_tensor_inputs(tracer, args, kwargs, result):
    layout, positions, fading, large_seed = args[:4]
    key = (
        layout.num_cells,
        float(layout.radius_m),
        positions.pos.tobytes(),
        fading,
        int(large_seed),
    )
    tracer.distinct["channel.large_scale_tensor"].add(hash(key))


def _count_combine_flops(tracer, args, kwargs, result):
    # 8 flops per complex multiply-accumulate of the (N, N, K, M) contraction;
    # the O(N M) noise add and normalisation are left out.
    tracer.counters["kernels.combine.flops"] += 8 * args[0].size


def _count_downlink_flops(tracer, args, kwargs, result):
    # 8 flops per complex multiply-accumulate of the (N, K, M) beam products.
    tracer.counters["kernels.downlink.flops"] += 8 * args[0].size


def _count_csv_bytes(tracer, args, kwargs, result):
    tracer.counters["scenarios.emit_csv.bytes"] += Path(result).stat().st_size


def _count_experiment(tracer, args, kwargs, result):
    config = args[0]
    num_large = kwargs.get("num_large")
    num_small = kwargs.get("num_small")
    num_large = config.num_large if num_large is None else num_large
    num_small = config.num_small if num_small is None else num_small
    tracer.counters["realizations"] += num_large
    if config.antennas is not None:
        draws = num_large * num_small
        tracer.counters["draws"] += draws
        tracer.counters["draw_antennas"] += draws * config.antennas


#: (span name, module, attribute, counter).  Several hooks may share a span
#: name; a name none of whose attributes exists is reported absent.
HOOKS = (
    ("seeding.child_seed", "seeding", "child_seed", None),
    ("seeding.make_rng", "seeding", "make_rng", None),
    ("geometry.build_hex_layout", "geometry", "build_hex_layout", None),
    ("geometry.drop_users", "geometry", "drop_users", None),
    ("channel.large_scale_tensor", "channel", "large_scale_tensor", _count_tensor_inputs),
    ("channel.large_scale_gain", "channel", "large_scale_gain", None),
    ("channel.complex_gaussian", "channel", "complex_gaussian", _count_gaussians),
    ("asymptotic.sinr", "asymptotic", "sinr_*", None),
    ("beamforming.optimal_lambdas", "beamforming", "optimal_lambdas", None),
    ("kernels.combine", "kernels", "combine_and_normalize_numpy", _count_combine_flops),
    ("kernels.combine", "kernels", "_combine_numba_dispatch", _count_combine_flops),
    ("kernels.downlink", "kernels", "downlink_sinr_numpy", _count_downlink_flops),
    ("kernels.downlink", "kernels", "_downlink_numba_dispatch", _count_downlink_flops),
    ("pilots.make_pilot_book", "pilots", "make_pilot_book", None),
    ("pilots.optimal_pilot_powers", "pilots", "optimal_pilot_powers", None),
    ("pilots.async_kappas", "pilots", "async_kappas", None),
    ("engine.run_experiment", "engine", "run_experiment", _count_experiment),
    ("scenarios.emit_csv", "scenarios", "emit_csv", _count_csv_bytes),
    ("config.serialize_config", "config", "serialize_config", None),
)


def _resolve(module_name, attribute, package):
    """Functions a hook names; ``attribute`` may end in ``*`` as a prefix match."""
    try:
        module = importlib.import_module(f"{package}.{module_name}")
    except ImportError:
        return []
    if attribute.endswith("*"):
        prefix = attribute[:-1]
        return [
            value
            for key, value in sorted(vars(module).items())
            if key.startswith(prefix) and callable(value)
        ]
    value = getattr(module, attribute, None)
    return [value] if callable(value) else []


def install(tracer, hooks=HOOKS, package=PACKAGE):
    """Wrap every hooked function wherever it is bound in ``package``.

    Returns ``(restore_list, absent_names)``; pass the list to ``restore``.
    """
    wrappers = {}  # id(original) -> wrapper
    originals = {}
    found = set()
    for name, module_name, attribute, count in hooks:
        for fn in _resolve(module_name, attribute, package):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = tracer.wrap(name, fn, count)
                originals[id(fn)] = fn
            found.add(name)
    absent = sorted({name for name, *_ in hooks} - found)
    installed = []
    modules = [
        m
        for key, m in list(sys.modules.items())
        if m is not None and (key == package or key.startswith(package + "."))
    ]
    for module in modules:
        for key, value in list(vars(module).items()):
            if id(value) in wrappers and value is originals[id(value)]:
                setattr(module, key, wrappers[id(value)])
                installed.append((module, key, value))
    return installed, absent


def restore(installed):
    for module, key, original in reversed(installed):
        setattr(module, key, original)


@contextmanager
def traced(tracer, hooks=HOOKS, package=PACKAGE):
    """Install the hooks for the duration of the block; yields absent names."""
    installed, absent = install(tracer, hooks, package)
    try:
        yield absent
    finally:
        restore(installed)


# --- per-layer metrics ----------------------------------------------------

#: Per-layer metric name -> unit, in report order.
LAYER_METRICS = {
    "seeding.child_seed.calls": "count",
    "seeding.child_seed.self_s": "s",
    "seeding.make_rng.calls": "count",
    "seeding.make_rng.self_s": "s",
    "seeding.seeds_per_realization": "count",
    "geometry.build_hex_layout.calls": "count",
    "geometry.drop_users.calls": "count",
    "geometry.drop_users.self_s": "s",
    "channel.large_scale_tensor.calls": "count",
    "channel.large_scale_tensor.self_s": "s",
    "channel.large_scale_tensor.distinct_ratio": "ratio",
    "channel.large_scale_gain.calls": "count",
    "channel.large_scale_gain.self_s": "s",
    "channel.complex_gaussian.calls": "count",
    "channel.complex_gaussian.self_s": "s",
    "channel.complex_gaussian.bytes": "B",
    "channel.gaussians_per_draw": "count/M",
    "asymptotic.sinr.calls": "count",
    "asymptotic.sinr.self_s": "s",
    "beamforming.optimal_lambdas.calls": "count",
    "beamforming.optimal_lambdas.self_s": "s",
    "kernels.combine.calls": "count",
    "kernels.combine.self_s": "s",
    "kernels.combine.flops": "flop",
    "kernels.downlink.calls": "count",
    "kernels.downlink.self_s": "s",
    "kernels.downlink.flops": "flop",
    "pilots.make_pilot_book.calls": "count",
    "pilots.make_pilot_book.self_s": "s",
    "pilots.optimal_pilot_powers.calls": "count",
    "pilots.optimal_pilot_powers.self_s": "s",
    "pilots.async_kappas.calls": "count",
    "pilots.async_kappas.self_s": "s",
    "engine.run_experiment.self_s": "s",
    "scenarios.emit_csv.calls": "count",
    "scenarios.emit_csv.self_s": "s",
    "scenarios.emit_csv.bytes": "B",
    "config.serialize_config.calls": "count",
    "config.serialize_config.self_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metric values of one traced pass (``trace.overhead_s`` aside).

    A layer with no spans reads 0 calls and 0 s.
    """
    rows = tracer.summary()
    c = tracer.counters
    values = {}
    for metric in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field in ("calls", "self_s"):
            values[metric] = rows.get(layer, {}).get(field, 0)
    tensor_calls = values["channel.large_scale_tensor.calls"]
    values.update(
        {
            "seeding.seeds_per_realization": _ratio(
                values["seeding.child_seed.calls"], c["realizations"]
            ),
            "channel.large_scale_tensor.distinct_ratio": _ratio(
                len(tracer.distinct["channel.large_scale_tensor"]), tensor_calls
            ),
            "channel.complex_gaussian.bytes": c["channel.complex_gaussian.bytes"],
            "channel.gaussians_per_draw": _ratio(
                c["channel.complex_gaussian.entries"], c["draw_antennas"]
            ),
            "kernels.combine.flops": c["kernels.combine.flops"],
            "kernels.downlink.flops": c["kernels.downlink.flops"],
            "scenarios.emit_csv.bytes": c["scenarios.emit_csv.bytes"],
        }
    )
    return values
