"""Spans around the public functions of each wglab layer, and the
per-layer metrics derived from them.

The tracer replaces each wrapped function at every name a caller looks
it up by (for example both ``wglab.cli.pseudorandom_gauge`` and
``wglab.spectral.pseudorandom_gauge``), so no program file changes.
Kernels called once per subset or per shift (``cyclic_power`` inside the
covering scans, ``line_add`` inside ``line_power``) are not wrapped:
their work is counted through the caller's work counts instead.
"""

from __future__ import annotations

import inspect
import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import wglab
from wglab import bitsets, cli, core_arith, local_structure, majorant, representation, spectral

_MODULES = {
    "core_arith": core_arith,
    "local_structure": local_structure,
    "bitsets": bitsets,
    "majorant": majorant,
    "spectral": spectral,
    "representation": representation,
    "cli": cli,
}
LAYERS = tuple(_MODULES)
_MB = float(1 << 20)


def _dp_cells(a, r):
    W, s, f = a["W"], a["s"], a["f"]
    return {"dp_cells": s * sum(1 for v in f.values() if v > 0) * W.value}


def _support(a, r):
    return {"support_points": int((r.values != 0).sum())}


def _coverage(a, r):
    report, _ = r
    lo, hi = report.window
    return {
        "readout_ints": hi - lo + 1,
        "represented": report.represented_count,
        "admissible": report.admissible_count,
    }


def _report_files(a, r):
    argv = a["argv"]
    out = Path(argv[argv.index("--out") + 1])
    files = [p for p in out.iterdir() if p.is_file()] if out.is_dir() else []
    return {"files_written": len(files), "bytes_written": sum(p.stat().st_size for p in files)}


@dataclass(frozen=True)
class Wrap:
    """How one public function is traced.

    work(arguments, result) returns counters summed over calls (keys in
    _MAX_KEYS take the maximum instead); size(arguments, result) returns
    the problem size the slope metric fits against, or None to leave the
    call out of the fit.  peak(arguments) returns a key of the call's
    shape: the first call of each shape in a pass runs under tracemalloc,
    whose cost on the DP's many small arrays would otherwise swamp the
    trace (a later call of the same shape allocates the same).  With
    fft_grid, the call's grid_points is the longest numpy FFT it makes.
    """

    work: Callable | None = None
    size: Callable | None = None
    peak: Callable | None = None
    fft_grid: bool = False


_MAX_KEYS = ("limit_max", "peak_alloc_mb")
_FFTS = ("fft", "ifft", "rfft", "irfft")

WRAPPED = {
    "core_arith.sieve_primes": Wrap(work=lambda a, r: {"limit_max": a["limit"]}),
    "core_arith.PrimeSet.primes": Wrap(),
    "local_structure.power_residues": Wrap(),
    "local_structure.waring_pair_check": Wrap(work=lambda a, r: {"subsets": r.trials}),
    "local_structure.local_decompose": Wrap(
        work=_dp_cells, peak=lambda a: (a["W"].value, a["s"], len(a["f"]))
    ),
    # slope over the five-fold calls only: hi varies there at fixed s
    "bitsets.line_power": Wrap(
        work=lambda a, r: {"reach_bits": r.bit_count()},
        size=lambda a, r: a["hi"] if a["s"] == 5 else None,
    ),
    "majorant.gen_subset": Wrap(),
    "majorant.mean_g": Wrap(),
    "majorant.build_nu": Wrap(work=_support),
    "majorant.build_f": Wrap(work=_support),
    "spectral.dft_spectrum": Wrap(),
    "spectral.pseudorandom_gauge": Wrap(
        work=lambda a, r: {"grid_points": r.M},
        size=lambda a, r: r.M,
        peak=lambda a: (a["nu"].N, a["M"]),
    ),
    "spectral.restriction_norm": Wrap(
        work=lambda a, r: {"grid_points": r.M}, peak=lambda a: (a["seq"].N, a["M"])
    ),
    "representation.coverage_probe": Wrap(work=_coverage),
    "representation.count_representations": Wrap(),
    "representation.transference_gauge": Wrap(
        fft_grid=True,
        size=lambda a, r: a["f_list"][0].N,
        peak=lambda a: (len(a["f_list"]), a["f_list"][0].N),
    ),
    "cli.main": Wrap(work=_report_files),
}

# (name, unit, better); every name is printed by a traced run, 0 where the
# workload never calls the function (or, for a slope, calls it at fewer
# than two sizes)
PER_LAYER = [
    ("spectral.pseudorandom_gauge.s", "s", "lower"),
    ("spectral.pseudorandom_gauge.calls", "count", "lower"),
    ("spectral.pseudorandom_gauge.grid_points", "count", "lower"),
    ("spectral.pseudorandom_gauge.ns_per_point", "ns", "lower"),
    ("spectral.pseudorandom_gauge.peak_alloc_mb", "MB", "lower"),
    ("spectral.pseudorandom_gauge.slope", "exponent", "lower"),
    ("spectral.restriction_norm.s", "s", "lower"),
    ("spectral.restriction_norm.grid_points", "count", "lower"),
    ("spectral.restriction_norm.peak_alloc_mb", "MB", "lower"),
    ("spectral.dft_spectrum.s", "s", "lower"),
    ("bitsets.line_power.s", "s", "lower"),
    ("bitsets.line_power.calls", "count", "lower"),
    ("bitsets.line_power.reach_bits", "count", "higher"),
    ("bitsets.line_power.slope", "exponent", "lower"),
    ("representation.coverage_probe.s", "s", "lower"),
    ("representation.coverage_probe.calls", "count", "lower"),
    ("representation.coverage_probe.readout_ints", "count", "lower"),
    ("representation.coverage_probe.represented_frac", "ratio", "higher"),
    ("representation.count_representations.s", "s", "lower"),
    ("local_structure.waring_pair_check.s", "s", "lower"),
    ("local_structure.waring_pair_check.subsets", "count", "lower"),
    ("local_structure.waring_pair_check.us_per_subset", "us", "lower"),
    ("local_structure.local_decompose.s", "s", "lower"),
    ("local_structure.local_decompose.calls", "count", "lower"),
    ("local_structure.local_decompose.dp_cells", "count", "lower"),
    ("local_structure.local_decompose.ns_per_cell", "ns", "lower"),
    ("local_structure.local_decompose.peak_alloc_mb", "MB", "lower"),
    ("representation.transference_gauge.s", "s", "lower"),
    ("representation.transference_gauge.grid_points", "count", "lower"),
    ("representation.transference_gauge.peak_alloc_mb", "MB", "lower"),
    ("representation.transference_gauge.slope", "exponent", "lower"),
    ("majorant.gen_subset.s", "s", "lower"),
    ("majorant.mean_g.s", "s", "lower"),
    ("majorant.build_nu.s", "s", "lower"),
    ("majorant.build_f.s", "s", "lower"),
    ("majorant.support_points", "count", "lower"),
    ("core_arith.PrimeSet.primes.s", "s", "lower"),
    ("core_arith.PrimeSet.primes.calls", "count", "lower"),
    ("core_arith.sieve_primes.s", "s", "lower"),
    ("core_arith.sieve_primes.calls", "count", "lower"),
    ("core_arith.sieve_primes.limit_max", "count", "lower"),
    ("local_structure.power_residues.s", "s", "lower"),
    ("local_structure.power_residues.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.files_written", "count", "lower"),
    ("cli.bytes_written", "count", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("run.cpu_s", "s", "lower"),
    ("run.canary_s", "s", "lower"),
    ("run.traced_wall_s", "s", "lower"),
    ("run.untraced_wall_s", "s", "lower"),
    ("run.trace_overhead_s", "s", "lower"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    children_s: float = 0.0
    counts: dict = field(default_factory=dict)
    size: int | None = None


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._peaked: set = set()

    def install(self) -> None:
        self.spans.clear()
        self._peaked.clear()
        for name, how in WRAPPED.items():
            layer, _, attr = name.partition(".")
            home = _MODULES[layer]
            if "." in attr:  # a method, looked up on its class
                cls_name, attr = attr.split(".")
                home = getattr(home, cls_name)
                owners = [home]
            else:
                owners = [wglab, *_MODULES.values()]
            original = home.__dict__[attr]
            wrapper = self._wrap(name, how, original)
            for obj in owners:
                if obj.__dict__.get(attr) is original:
                    self._saved.append((obj, attr, original))
                    setattr(obj, attr, wrapper)
        for attr in _FFTS:
            original = getattr(np.fft, attr)
            self._saved.append((np.fft, attr, original))
            setattr(np.fft, attr, self._fft_probe(attr, original))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def _fft_probe(self, attr: str, fn):
        """fn, noting its transform length on the innermost span when that
        span's Wrap asks for fft_grid."""
        spans, stack = self.spans, self._stack

        def probed(a, *args, **kwargs):
            if stack and WRAPPED[spans[stack[-1]].name].fft_grid:
                n = args[0] if args else kwargs.get("n")
                if n is None:
                    m = np.shape(a)[-1]
                    n = 2 * (m - 1) if attr == "irfft" else m
                counts = spans[stack[-1]].counts
                counts["grid_points"] = max(counts.get("grid_points", 0), n)
            return fn(a, *args, **kwargs)

        return probed

    def _wrap(self, name: str, how: Wrap, fn):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            started_malloc = False
            if how.peak and not tracemalloc.is_tracing():
                key = (name, how.peak(a))
                started_malloc = key not in self._peaked
                self._peaked.add(key)
            if started_malloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if started_malloc:
                    span.counts["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / _MB
                    tracemalloc.stop()
                if span.parent is not None:
                    spans[span.parent].children_s += span.end - span.start
            if how.work:
                span.counts.update(how.work(a, result))
            if how.size:
                span.size = how.size(a, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far (0 where absent)."""
        per: dict[str, dict] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        sizes: dict[str, dict[int, list[float]]] = {}
        for sp in self.spans:
            total = sp.end - sp.start
            own = total - sp.children_s
            agg = per.setdefault(sp.name, {"s": 0.0, "total": 0.0, "calls": 0})
            agg["s"] += own
            agg["total"] += total
            agg["calls"] += 1
            for key, val in sp.counts.items():
                if key in _MAX_KEYS:
                    agg[key] = max(agg.get(key, val), val)
                else:
                    agg[key] = agg.get(key, 0) + val
            layer_self[sp.name.partition(".")[0]] += own
            if sp.size is not None:
                sizes.setdefault(sp.name, {}).setdefault(sp.size, []).append(total)

        def get(name, key):
            return per.get(name, {}).get(key, 0)

        def ratio(name, num_key, den_key, scale=1.0):
            den = get(name, den_key)
            return get(name, num_key) / den * scale if den else 0.0

        out = {}
        for metric, _, _ in PER_LAYER:
            name, _, key = metric.rpartition(".")
            if key == "slope":
                out[metric] = _loglog_slope(sizes.get(name, {}))
            elif name in WRAPPED:  # a sum or maximum; the ratios follow
                out[metric] = get(name, key)
        out["spectral.pseudorandom_gauge.ns_per_point"] = ratio(
            "spectral.pseudorandom_gauge", "total", "grid_points", 1e9
        )
        out["local_structure.waring_pair_check.us_per_subset"] = ratio(
            "local_structure.waring_pair_check", "total", "subsets", 1e6
        )
        out["local_structure.local_decompose.ns_per_cell"] = ratio(
            "local_structure.local_decompose", "total", "dp_cells", 1e9
        )
        out["representation.coverage_probe.represented_frac"] = ratio(
            "representation.coverage_probe", "represented", "admissible"
        )
        out["majorant.support_points"] = get("majorant.build_nu", "support_points") + get(
            "majorant.build_f", "support_points"
        )
        out["cli.files_written"] = get("cli.main", "files_written")
        out["cli.bytes_written"] = get("cli.main", "bytes_written")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out


def _loglog_slope(by_size: dict[int, list[float]]) -> float:
    """Least-squares slope of log(mean time per call) against log(size)."""
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(size) for size in by_size]
    ys = [math.log(statistics.fmean(times)) for times in by_size.values()]
    return statistics.linear_regression(xs, ys).slope
