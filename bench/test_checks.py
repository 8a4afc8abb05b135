"""The benchmark's checks are not vacuous: one corrupted output per
workload is counted as a failed op, and clean runs count none.

Run from the repository root:

    python3 -m pytest -q bench/test_checks.py

The workloads run here at small sizes, so each case takes about a second.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import measure  # noqa: E402
import tracing  # noqa: E402
from wglab import cli, local_structure, representation, spectral  # noqa: E402

SMALL = {
    "report": {"n_list": (1024, 2048)},
    "transference": {"n_list": (2**12, 2**13), "n_spectral": 2**12, "s": 16},
    "sumset": {
        "windows": ((20_000, 40_000), (50_000, 100_000)),
        "drop": ("drop-class:40:3", 12, (20_000, 22_000)),
        "count_hi": 20_000,
        "exhaustive": ((16, 16, "pair", 1), (5, 2, "not-pair", 1)),
        "sampled": (81, 16, 200),
        "sub_width": 2000,
    },
}


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(measure, "SETUP_PROBES", 1)


def run(workload: str, trace: bool = False) -> dict:
    result, _ = measure.run_workload(workload, 7, 0, trace, SMALL[workload])
    return result


def assert_counted(result: dict) -> None:
    assert result["failed"] >= 1
    assert result["correct"] is False
    if "ok_frac" in result["metrics"]:
        assert result["metrics"]["ok_frac"]["value"] < 1


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_clean_run_has_no_failures(workload):
    result = run(workload)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert [*result["metrics"]] == [name for name, _, _ in measure.END_TO_END]


def test_report_wrong_sigma_is_counted(monkeypatch):
    real = cli.sigma_b
    monkeypatch.setattr(cli, "sigma_b", lambda W, k, b: real(W, k, b) + (b == 1))
    assert_counted(run("report"))


def test_report_wrong_gauge_value_is_counted(monkeypatch):
    real = cli.pseudorandom_gauge

    def off_by_a_little(nu, *args, **kwargs):
        rep = real(nu, *args, **kwargs)
        return dataclasses.replace(rep, D=rep.D * (1 + 1e-6))

    monkeypatch.setattr(cli, "pseudorandom_gauge", off_by_a_little)
    assert_counted(run("report"))


def test_transference_unweighted_half_spectrum_is_counted(monkeypatch):
    real = spectral.restriction_norm

    def half_spectrum(seq, exponent, *args, **kwargs):
        rep = real(seq, exponent, *args, **kwargs)
        norm = rep.norm * 2 ** (-1 / exponent)  # the mirrored bins left out
        return dataclasses.replace(rep, norm=norm, constant=rep.constant * norm / rep.norm)

    monkeypatch.setattr(spectral, "restriction_norm", half_spectrum)
    assert_counted(run("transference"))


def test_transference_wrong_gauge_is_counted(monkeypatch):
    real = spectral.pseudorandom_gauge

    def off_by_a_little(nu, *args, **kwargs):
        rep = real(nu, *args, **kwargs)
        return dataclasses.replace(rep, D=rep.D * (1 + 1e-6))

    monkeypatch.setattr(spectral, "pseudorandom_gauge", off_by_a_little)
    assert_counted(run("transference"))


def test_sumset_flipped_reach_bit_is_counted(monkeypatch):
    real = representation.line_power
    monkeypatch.setattr(representation, "line_power", lambda B, s, hi: real(B, s, hi) ^ (1 << 30_001))
    assert_counted(run("sumset"))


@pytest.mark.parametrize("field,delta", [("trials", 1), ("verdict", None)])
def test_sumset_wrong_verdict_or_trials_is_counted(monkeypatch, field, delta):
    real = local_structure.waring_pair_check

    def corrupt(*args, **kwargs):
        rep = real(*args, **kwargs)
        if field == "trials":
            return dataclasses.replace(rep, trials=rep.trials + delta)
        flipped = "not-pair" if rep.verdict == "pair" else rep.verdict
        return dataclasses.replace(rep, verdict=flipped)

    monkeypatch.setattr(local_structure, "waring_pair_check", corrupt)
    assert_counted(run("sumset"))


def test_output_that_changes_between_passes_is_counted(monkeypatch):
    real = representation.count_representations
    calls = []

    def second_call_differs(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            out[-1] ^= 1
        return out

    monkeypatch.setattr(representation, "count_representations", second_call_differs)
    assert_counted(run("sumset", trace=True))


def test_wall_per_canary_leaves_out_the_first_pass():
    passes = [
        measure.Pass(traced=False, wall=9.0, canary_s=[9.0]),
        measure.Pass(traced=False, wall=2.0, canary_s=[0.1, 0.3]),
        measure.Pass(traced=False, wall=4.0, canary_s=[0.2]),
    ]
    assert measure.host_relative(passes) == pytest.approx((3.0, 0.2))
    assert measure.host_relative(passes[:1]) == (9.0, 9.0)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_self_times_sum_to_traced_wall(workload):
    result = run(workload, trace=True)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert [*m] == [name for name, _, _ in tracing.PER_LAYER]
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(m["run.traced_wall_s"], rel=0.02)
    assert abs(layers - m["run.untraced_wall_s"]) <= abs(m["run.trace_overhead_s"]) + 0.02 * layers
    assert result["correct"]
    if workload == "transference":
        assert m["representation.transference_gauge.grid_points"] > 0


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == measure.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(SMALL)
