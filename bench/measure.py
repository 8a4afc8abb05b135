"""Measure one workload in this process and score its outputs.

A run repeats the workload's ops, one pass after another, while the
next pass should end by the requested number of seconds plus half a
pass.  It makes at least one pass; a traced run makes at least two,
alternating untraced and traced passes.  wall_per_canary is the mean
wall time of the warm untraced passes over the mean time of a fixed
canary kernel run between their ops; the other metrics are medians.  The first pass's outputs are kept and
checked after peak RSS is read, so the checks' own memory never counts.
Every later pass must reproduce the first pass's output digests byte
for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 8  # per end of the run
CANARY_EVERY = 0.25  # seconds of op time between canary samples

# (name, unit, better)
END_TO_END = [
    ("wall_per_canary", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("ok_frac", "ratio", "higher"),
]


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    op_s: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    records: list = field(default_factory=list)  # (op, output), first pass only
    error: str | None = None
    metrics: dict | None = None
    canary_s: list[float] = field(default_factory=list)


def run_pass(ops, inp, keep: bool, tracer: tracing.Tracer | None, canary_input=None) -> Pass:
    """One pass over the workload's ops; only the op calls are timed.

    Given canary_input, the canary runs between ops after every
    CANARY_EVERY seconds of op time, and at the end of the pass for the
    op time left over.
    """
    p = Pass(traced=tracer is not None)
    gen = ops(inp)
    value = None
    since = 0.0
    if tracer:
        tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            while True:
                try:
                    op = gen.send(value)
                except StopIteration:
                    break
                c0, t0 = time.process_time(), time.perf_counter()
                value = op.fn(*op.args, **op.kwargs)
                p.op_s.append(time.perf_counter() - t0)
                p.cpu += time.process_time() - c0
                since += p.op_s[-1]
                if canary_input is not None and since >= CANARY_EVERY:
                    p.canary_s.append(canary(canary_input))
                    since = 0.0
                out = op.output(value) if op.output else value
                p.digests.append(workloads.digest(out))
                if keep:
                    p.records.append((op, out))
    except Exception:  # an op (or the bookkeeping that feeds it) failed
        p.error = traceback.format_exc()
        print(f"pass aborted:\n{p.error}", file=sys.stderr)
    finally:
        p.wall = sum(p.op_s)
        if canary_input is not None and (since > 0 or not p.canary_s):
            p.canary_s.append(canary(canary_input))
        if tracer:
            tracer.uninstall()
            p.metrics = tracer.metrics()
    return p


def score(passes: list[Pass]) -> tuple[int, int]:
    """(attempted, failed) over all passes.

    An op fails if it raises, if its first-pass output fails its check,
    or if a later pass's output digest differs from the first pass's.
    """
    first = passes[0]
    ok = []
    for op, out in first.records:
        try:
            if op.check:
                op.check(out)
            ok.append(True)
        except Exception as exc:  # any exception in a check is a failed op
            print(f"check failed: {op.fn.__name__}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok.append(False)
    attempted = failed = 0
    for p in passes:
        attempted += len(p.digests) + (p.error is not None)
        failed += p.error is not None
        for i, d in enumerate(p.digests):
            good = i < len(ok) and ok[i] and d == first.digests[i]
            failed += not good
    return attempted, failed


def canary(arr: np.ndarray) -> float:
    """Time of a fixed kernel of about 15 ms that calls no wglab code: a
    Python loop, a numpy FFT and a keyed sort, the kinds of work the
    workloads do."""
    t0 = time.perf_counter()
    x = 0
    for i in range(50_000):
        x += i * i
    np.fft.rfft(arr)
    sorted(range(30_000), key=lambda v: -v)
    return time.perf_counter() - t0


def host_relative(passes: list[Pass]) -> tuple[float, float]:
    """(mean pass wall time, mean canary time) over the warm passes.

    The host runs the same code up to 1.5 times slower for seconds or
    minutes at a time.  The canary samples the host between the ops, so
    the two means see the same host and their ratio follows the program.
    The first pass, which warms the caches, counts only when it is the
    only one.
    """
    warm = passes[1:] or passes
    return (
        statistics.fmean(p.wall for p in warm),
        statistics.fmean(t for p in warm for t in p.canary_s),
    )


def measure_setup(workload: str, seed: int) -> list[float]:
    """Interpreter start to inputs ready, in fresh interpreters."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def setup_inputs(workload: str, seed: int, workdir: Path, sizes: dict | None = None):
    setup, _ = workloads.WORKLOADS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    return setup(seed, workdir, **(sizes or {}))


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None
) -> tuple[dict, dict]:
    """Measure one workload; returns (result, info) as printed by run.py."""
    _, ops = workloads.WORKLOADS[workload]
    setup_times = [] if trace else measure_setup(workload, seed)
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    try:
        inp = setup_inputs(workload, seed, workdir, sizes)
        tracer = tracing.Tracer() if trace else None
        canary_input = np.random.default_rng(0).random(1 << 18)
        passes: list[Pass] = []
        start = time.perf_counter()
        # another pass while it should end no later than half a pass past the time given
        while len(passes) < 1 + trace or (
            (time.perf_counter() - start) * (len(passes) + 0.5) / len(passes) <= seconds
        ):
            traced = trace and len(passes) % 2 == 1
            if traced:
                passes.append(run_pass(ops, inp, keep=not passes, tracer=tracer))
            else:
                passes.append(run_pass(ops, inp, keep=not passes, tracer=None, canary_input=canary_input))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not trace:  # probes at both ends of the run see the host it ran on
            setup_times += measure_setup(workload, seed)
        attempted, failed = score(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()

    plain = [p for p in passes if not p.traced]
    wall, canary_mean = host_relative(plain)
    if trace:
        # one whole pass, the median traced one, so that its layers'
        # self times add up to its wall time
        traced = sorted((p for p in passes if p.traced), key=lambda p: p.wall)
        mid = traced[(len(traced) - 1) // 2]
        values = dict(mid.metrics)
        traced_wall = mid.wall
        values["run.cpu_s"] = statistics.median(p.cpu for p in plain)
        values["run.canary_s"] = canary_mean
        values["run.traced_wall_s"] = traced_wall
        values["run.untraced_wall_s"] = wall
        values["run.trace_overhead_s"] = traced_wall - wall
        spec = tracing.PER_LAYER
    else:
        values = {
            "wall_per_canary": wall / canary_mean,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
            "ok_frac": 1 - failed / attempted,
        }
        spec = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "wall_s": wall,
        "canary_s": canary_mean,
        "trace": int(trace),
        "passes": [
            {"traced": p.traced, "wall_s": p.wall, "cpu_s": p.cpu, "op_s": p.op_s, "canary_s": p.canary_s}
            for p in passes
        ],
        "setup_s_samples": setup_times,
        "output_sha256": hashlib.sha256("".join(passes[0].digests).encode()).hexdigest(),
        "machine": machine_facts(),
    }
    return result, info


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "mem_total_kb": None,
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": None,
        "source_sha256": _source_digest(),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                facts["mem_total_kb"] = int(line.split()[1])
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.partition(":")[2].strip()
                break
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            facts["git_commit"] = out.stdout.strip() or None
    return facts


def _source_digest() -> str:
    """SHA-256 over the program sources, which identifies the code where
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
