import json
import time
from pathlib import Path

import pytest

from wglab.cli import _json_line, _json_report, build_parser, main
from wglab.core_arith import FactoredModulus, compute_W
from wglab.local_structure import waring_pair_check
from wglab.majorant import SubsetSpec, WeightedSequence, build_nu, gen_subset, mean_g
from wglab.representation import coverage_probe, theorem_thresholds, transference_gauge
from wglab.spectral import pseudorandom_gauge, restriction_norm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLocal:
    def test_rk_prints_value(self, capsys):
        code, out, _ = run_cli(capsys, "local", "rk", "--k", "4")
        assert code == 0
        assert out.strip().splitlines()[-1] == "240"

    def test_rk_rejects_zero(self, capsys):
        code, _, err = run_cli(capsys, "local", "rk", "--k", "0")
        assert code == 2
        assert "k" in err

    def test_sigma_table(self, capsys):
        code, out, _ = run_cli(capsys, "local", "sigma", "--w", "2", "--k", "2")
        assert code == 0
        body = json.loads(out)
        assert body["sigma"] == {"1": 4, "9": 4}
        assert body["phi"] == 8

    def test_residues(self, capsys):
        code, out, _ = run_cli(capsys, "local", "residues", "--modulus", "16", "--k", "2")
        assert code == 0
        body = json.loads(out)
        assert body["units"] == [1, 9]

    def test_decompose_success_and_failure(self, capsys):
        code, out, _ = run_cli(
            capsys, "local", "decompose", "--w", "2", "--k", "2", "--s", "16", "--f-const", "0.6"
        )
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(9.6)
        code, _, err = run_cli(
            capsys, "local", "decompose", "--w", "2", "--k", "2", "--s", "16", "--f-const", "0.4"
        )
        assert code == 1
        assert "optimum" in err


class TestWaringPair:
    def test_pair_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "waring-pair", "--q", "16", "--k", "2", "--s", "16", "--strategy", "exhaustive"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pair"

    def test_not_pair_exits_one(self, capsys):
        code, out, err = run_cli(
            capsys, "waring-pair", "--q", "5", "--k", "2", "--s", "2", "--strategy", "exhaustive"
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "not-pair"
        assert "misses" in err

    def test_over_budget_exits_two(self, capsys):
        """C(15005, 7503) subsets at q = 30011: a count too long to print."""
        code, out, err = run_cli(capsys, "waring-pair", "--q", "30011", "--s", "5")
        assert (code, out) == (2, "")
        assert "C(15005, 7503) subsets, over budget 33554432" in err


class TestChecksAndReports:
    def test_coverage_clean_window(self, capsys, tmp_path):
        exc = tmp_path / "exceptions.txt"
        code, out, _ = run_cli(
            capsys,
            "coverage",
            "--k", "2", "--s", "5", "--lo", "5000", "--hi", "9000",
            "--exceptions-file", str(exc),
        )
        assert code == 0
        assert json.loads(out)["exception_count"] == 0
        assert exc.read_text() == ""

    def test_coverage_dirty_window_exits_one(self, capsys, tmp_path):
        exc = tmp_path / "exceptions.txt"
        code, out, _ = run_cli(
            capsys,
            "coverage",
            "--k", "2", "--s", "2", "--lo", "10", "--hi", "60",
            "--no-filter", "--exceptions-file", str(exc),
        )
        assert code == 1
        body = json.loads(out)
        assert body["exception_count"] > 0
        listed = [int(x) for x in exc.read_text().split()]
        assert listed == body["exceptions"]

    def test_count_csv(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        code, _, _ = run_cli(
            capsys,
            "count", "--k", "2", "--s", "2", "--hi", "20", "--method", "brute",
            "--csv", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "n,count"
        assert lines[1 + 8] == "8,1"
        assert lines[1 + 13] == "13,2"

    def test_spectrum_row_and_assertion(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--w", "2", "--k", "2", "--n", "1024")
        assert code == 0
        body = json.loads(out)
        assert {"N", "M", "w", "k", "b", "sigma", "value"} <= set(body)
        code, _, err = run_cli(
            capsys,
            "spectrum", "--w", "2", "--k", "2", "--n", "1024",
            "--assert-gauge-below", "0.0001",
        )
        assert code == 1
        assert "gauge" in err

    @pytest.mark.parametrize("command", ["spectrum", "restrict --exponent 6.5"])
    def test_no_support_at_w5(self, capsys, command):
        """At w = 5 (W = 810,000) nu at b = 1 has no support point at
        N = 2^14: the gauge reads 1 and the norm 0."""
        argv = f"{command} --w 5 --k 2 --n 16384".split()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        body = json.loads(out)
        assert body["M"] == 1 << 17
        assert body["value"] == (1.0 if command == "spectrum" else 0.0)

    def test_arcs(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "arcs", "--alpha", "0.5", "--w", "2", "--k", "2", "--n", "131072", "--sigma", "2.0",
        )
        assert code == 0
        body = json.loads(out)
        assert (body["q"], body["a"], body["classification"]) == (2, 1, "major")

    def test_transfer_indicator(self, capsys):
        code, out, _ = run_cli(
            capsys, "transfer", "--s", "2", "--n", "512", "--indicator"
        )
        assert code == 0
        assert json.loads(out)["gauge"] > 0.9

    def test_transfer_gauges_admissible_targets_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "transfer", "--w", "2", "--k", "2", "--s", "44", "--n", "16384"
        )
        assert code == 0
        body = json.loads(out)
        assert body["mean_each_ok"] and body["mean_sum_ok"]
        assert body["gauge"] == pytest.approx(0.362, abs=1e-3)
        assert not body["numeric_warning"]

    def test_restrict(self, capsys):
        code, out, _ = run_cli(
            capsys, "restrict", "--w", "2", "--k", "2", "--n", "4096", "--spike",
            "--exponent", "6.5",
        )
        assert code == 0
        body = json.loads(out)
        assert body["value"] == pytest.approx(4096 ** (1 / 6.5), rel=1e-6)

    def test_majorant_saves_sequence(self, capsys, tmp_path):
        from wglab.majorant import WeightedSequence

        path = tmp_path / "f.bin"
        code, out, _ = run_cli(
            capsys,
            "majorant", "--w", "2", "--k", "2", "--n", "512", "--b", "1",
            "--save-seq", str(path),
        )
        assert code == 0
        assert json.loads(out)["W_over_log_N"] > 0
        seq = WeightedSequence.from_binary(path)
        assert (seq.W, seq.b, seq.k, seq.N) == (16, 1, 2, 512)
        assert seq.kind == "f"
        assert seq.total() > 0

    def test_count_fft_window_past_its_grid(self, capsys):
        # the squares of primes stop at 49 below 121, so the FFT grid has
        # 64 points; the rows past it are zero counts
        code, out, err = run_cli(
            capsys, "count", "--k", "2", "--s", "1", "--lo", "0", "--hi", "120", "--method", "fft"
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "n,count"
        assert lines[1:] == [f"{n},{int(n in (4, 9, 25, 49))}" for n in range(121)]

    def test_count_bitset_method(self, capsys, tmp_path):
        path = tmp_path / "reach.csv"
        code, _, _ = run_cli(
            capsys,
            "count", "--k", "2", "--s", "2", "--hi", "20", "--method", "bitset",
            "--csv", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[1 + 8] == "8,1"  # reachability flag, not a count
        assert lines[1 + 7] == "7,0"


class TestConfigAndDeterminism:
    def test_dry_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "--dry-run", "coverage", "--k", "2", "--s", "5", "--lo", "10", "--hi", "50"
        )
        assert code == 0
        assert out.startswith("plan:")

    def test_config_file_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("k=4\n# comment line\nw=2\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "local", "rk")
        assert code == 0
        assert out.strip().splitlines()[-1] == "240"

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("k=4\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "local", "rk", "--k", "2")
        assert code == 0
        assert out.strip().splitlines()[-1] == "24"

    def test_bad_config_key_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("mystery=1\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "local", "rk", "--k", "2")
        assert code == 2
        assert "unknown key" in err

    def test_bad_config_value_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("k=two\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "local", "rk")
        assert code == 2
        assert "bad value" in err

    def test_repeated_runs_byte_identical(self, capsys):
        argv = ["waring-pair", "--q", "81", "--k", "2", "--s", "16",
                "--strategy", "sampled", "--trials", "200", "--seed", "9"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_json_written_to_file(self, capsys, tmp_path):
        path = tmp_path / "rk.json"
        code, out, _ = run_cli(capsys, "--json", str(path), "local", "rk", "--k", "6")
        assert code == 0
        assert json.loads(path.read_text())["Rk"] == 504

    def test_report_batch(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("k=2\nw=2\nn_list=256\nb_list=1\n")
        code, _, _ = run_cli(capsys, "--config", str(cfg), "--out", str(out_dir), "report")
        assert code == 0
        assert (out_dir / "rk.json").exists()
        assert (out_dir / "sigma.json").exists()
        assert (out_dir / "means_N256.json").exists()
        rows = (out_dir / "gauge_N256.jsonl").read_text().splitlines()
        assert len(rows) == 1
        assert json.loads(rows[0])["b"] == 1

    def test_report_requires_outdir(self, capsys):
        code, _, err = run_cli(capsys, "report", "--k", "2")
        assert code == 2
        assert "output directory" in err

    def test_common_flags_accepted_after_subcommand(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("k=4\n")
        code, out, _ = run_cli(capsys, "local", "rk", "--config", str(cfg))
        assert code == 0
        assert out.strip().splitlines()[-1] == "240"
        out_dir = tmp_path / "reports"
        cfg.write_text("k=2\nw=2\nn_list=256\nb_list=1\n")
        code, _, _ = run_cli(
            capsys, "report", "--config", str(cfg), "--out", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "rk.json").exists()
        code, out, _ = run_cli(
            capsys, "coverage", "--k", "2", "--s", "5", "--lo", "10", "--hi", "50", "--dry-run"
        )
        assert code == 0
        assert out.startswith("plan:")


# Golden outputs of the integer-valued invocations: stdout, stderr, exit
# code and the bytes of every file written, run from an empty working
# directory so that relative paths print the same everywhere.  Captured
# before the command table replaced the per-command handlers; float-valued
# reports (means, gauges, spectra, norms, convolution profiles) depend on
# numpy's FFT and log and are left out, except for their file names.
GOLDEN = Path(__file__).with_name("cli_golden.json")
FLOAT_FILES = ("means_N", "gauge_N")
REPORT_CFG = "k=2\nw=2\nn_list=256\nb_list=1\n"

GOLDEN_CASES = {
    "local-rk": ("local rk --k 4", None),
    "local-rk-json": ("--json rk.json local rk --k 6", None),
    "local-rk-config": ("--config lab.cfg local rk", "k=4\n# comment line\nw=2\n"),
    "local-rk-flag-over-config": ("local rk --config lab.cfg --k 2", "k=4\n"),
    "local-w": ("local w --w 3 --k 2 --json w.json", None),
    "local-sigma": ("local sigma --w 3 --k 2 --json sigma.json", None),
    "local-sigma-b": ("local sigma --w 3 --k 2 --b 1 --json none.json", None),
    "local-residues": ("local residues --modulus 16 --k 2", None),
    "local-residues-many": ("local residues --modulus 1000 --k 2", None),
    "local-decompose": ("local decompose --w 2 --k 2 --s 16 --f-const 0.6", None),
    "local-decompose-n": ("local decompose --w 2 --k 2 --s 4 --n 12 --json d.json", None),
    "local-decompose-fails": (
        "local decompose --w 2 --k 2 --s 16 --f-const 0.4 --json d.json", None
    ),
    "waring-pair-exhaustive": ("waring-pair --q 16 --k 2 --s 16 --json wp.json", None),
    "waring-pair-not-pair": ("waring-pair --q 5 --k 2 --s 2", None),
    "waring-pair-sampled": (
        "waring-pair --q 81 --k 2 --s 16 --strategy sampled --trials 200 --seed 9", None
    ),
    "waring-pair-structured": ("waring-pair --q 16 --k 2 --s 4 --strategy structured", None),
    "waring-pair-config": ("--config lab.cfg waring-pair --q 81 --strategy sampled",
                           "k=2\ns=16\ntrials=50\nseed=3\nthreads=1\n"),
    "arcs": ("arcs --alpha 0.5 --w 2 --k 2 --n 131072 --sigma 2.0 --json arcs.json", None),
    "arcs-config": ("--config lab.cfg arcs --alpha 0.25 --n 4096", "w=3\nsigma=3.0\nsigma0=1.5\n"),
    "count-brute": ("count --k 2 --s 2 --hi 20 --method brute --csv counts.csv", None),
    "count-fft": ("count --k 2 --s 3 --lo 5 --hi 40 --method fft", None),
    "count-bitset": ("count --k 2 --s 2 --hi 20 --method bitset --csv reach.csv", None),
    "coverage-clean": (
        "coverage --k 2 --s 5 --lo 5000 --hi 5200 --csv cov.csv --exceptions-file exc.txt", None
    ),
    "coverage-dirty": (
        "coverage --k 2 --s 2 --lo 10 --hi 60 --no-filter --csv cov.csv "
        "--exceptions-file exc.txt --json cov.json",
        None,
    ),
    "report": ("--config lab.cfg --out out report", REPORT_CFG),
    "report-k3": ("report --k 3 --w 2 --out out --config lab.cfg", "n_list=256\nb_list=1\n"),
    # exit 2: usage and config errors
    "error-k-zero": ("local rk --k 0", None),
    "error-w-one": ("local w --w 1", None),
    "error-modulus": ("local residues --modulus 1", None),
    "error-f-const": ("local decompose --w 2 --s 4 --f-const 1.5", None),
    "error-q": ("waring-pair --q 1 --s 2", None),
    "error-s-missing": ("waring-pair --q 16", None),
    "error-n-zero": ("majorant --n 0", None),
    "error-spectrum-w": ("spectrum --n 64 --w 1", None),
    "error-arcs-degenerate": ("arcs --alpha 0.5 --w 2 --k 2 --n 2", None),
    "error-restrict-k": ("restrict --n 64 --k 0", None),
    "error-count-hi": ("count --k 2 --s 2 --hi 0", None),
    "error-coverage-lo": ("coverage --s 2 --lo -1 --hi 10", None),
    "error-coverage-empty": ("coverage --s 2 --lo 11 --hi 10", None),
    "error-transfer-s": ("transfer --s 0 --n 64", None),
    "error-transfer-w": ("transfer --s 2 --n 64 --w 1", None),
    "error-report-no-out": ("report --k 2", None),
    "error-config-key": ("--config lab.cfg local rk --k 2", "mystery=1\n"),
    "error-config-value": ("--config lab.cfg local rk", "k=two\n"),
    "error-config-line": ("--config lab.cfg local rk", "k 2\n"),
    "error-config-missing": ("--config nofile.cfg local rk", None),
    "error-subset": ("count --k 2 --s 2 --hi 20 --subset nonsense", None),
    # one plan line per dry-run branch; nothing is written
    "plan-local-rk": ("--dry-run local rk --k 3", None),
    "plan-local-w": ("local w --w 3 --k 2 --dry-run --json w.json", None),
    "plan-local-sigma": ("local sigma --w 2 --k 2 --dry-run", None),
    "plan-local-residues": ("local residues --modulus 81 --dry-run", None),
    "plan-local-decompose": ("local decompose --w 2 --s 7 --dry-run", None),
    "plan-waring-pair": ("waring-pair --q 81 --s 16 --strategy sampled --dry-run", None),
    "plan-majorant": ("majorant --n 4096 --w 3 --dry-run", None),
    "plan-spectrum": ("--config lab.cfg spectrum --n 1000 --dry-run", "b=5\ngrid_factor=4\n"),
    "plan-arcs": ("arcs --alpha 0.125 --n 4096 --dry-run", None),
    "plan-restrict": ("restrict --n 4096 --b 7 --exponent 5.0 --dry-run", None),
    "plan-count": ("count --k 2 --s 2 --lo 3 --hi 50 --method bitset --dry-run", None),
    "plan-coverage": ("--dry-run coverage --k 2 --s 5 --lo 10 --hi 50", None),
    "plan-transfer": ("transfer --s 2 --n 64 --w 1 --dry-run", None),
    "plan-report": ("--dry-run --config lab.cfg report --out out", "n_list=256,512\n"),
}


def _run_case(tmp_path: Path, monkeypatch, capsys, argv: str, cfg: str | None) -> dict:
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        (tmp_path / "lab.cfg").write_text(cfg, encoding="utf-8")
    code = main(argv.split())
    captured = capsys.readouterr()
    files = {}
    for path in sorted(tmp_path.rglob("*")):
        name = path.relative_to(tmp_path).as_posix()
        if path.is_file() and name != "lab.cfg":
            pinned = not path.name.startswith(FLOAT_FILES)
            files[name] = path.read_text(encoding="utf-8") if pinned else None
    return {"exit": code, "stdout": captured.out, "stderr": captured.err, "files": files}


def _parser_shape() -> dict:
    """Every subparser's arguments with what argparse does with them."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    shape = {}
    for name, parser in sub.choices.items():
        shape[name] = [
            {
                "flags": a.option_strings,
                "dest": a.dest,
                "default": a.default,
                "required": a.required,
                "choices": list(a.choices) if a.choices else None,
                "help": a.help,
                "type": a.type.__name__ if a.type else "str",
                "nargs": a.nargs,
                "const": a.const,
            }
            for a in parser._actions
        ]
    return shape


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_invocation(case, golden, tmp_path, monkeypatch, capsys):
    argv, cfg = GOLDEN_CASES[case]
    assert _run_case(tmp_path, monkeypatch, capsys, argv, cfg) == golden["cases"][case]


def test_golden_parser_shape(golden):
    assert _parser_shape() == golden["parsers"]


class TestMemoryBudget:
    """Runs whose arrays would pass MEMORY_BUDGET exit 2 before allocating."""

    def test_fft_count(self, capsys):
        # s hi just under the former s hi <= 10^9 cap: the top 4 * 15809^2
        # = 999,697,924 puts the grid at 10^9 = 2^9 5^9 points, priced at
        # 6.5 grids, plus the 8 (hi + 1) bytes of the result
        argv = "count --k 2 --s 4 --hi 249999999 --method fft".split()
        assert run_cli(capsys, *argv) == (
            2,
            "",
            "error: count_representations(method='fft') needs about 50.3 GiB, "
            "over the memory budget of 4 GiB\n",
        )

    def test_transfer(self, capsys):
        # the window around 44 * 2^22 / 2 ends at 92,563,046, under a
        # 93,312,000-point grid; its 289,260 points are wider than a third
        # of a column, so the one-irfft route's 6.5 grids are the price
        argv = "transfer --w 3 --s 44 --n 4194304".split()
        assert run_cli(capsys, *argv) == (
            2,
            "",
            "error: transference_gauge needs about 4.52 GiB, over the memory budget of 4 GiB\n",
        )

    def test_coverage(self, capsys):
        # [0, 10^9] filtered at k = 2: six masks of the bits, 2 bytes a
        # position and 48 for each of the 41,666,667 admissible n
        argv = "coverage --k 2 --s 5 --lo 0 --hi 1000000000".split()
        assert run_cli(capsys, *argv) == (
            2,
            "",
            "error: coverage_probe needs about 4.42 GiB, over the memory budget of 4 GiB\n",
        )

    def test_bitset_count(self, capsys):
        # six masks of the bits and 9 bytes a position for the flags
        argv = "count --k 2 --s 2 --hi 500000000 --method bitset".split()
        assert run_cli(capsys, *argv) == (
            2,
            "",
            "error: count_representations(method='bitset') needs about 4.54 GiB, "
            "over the memory budget of 4 GiB\n",
        )

    def test_count_past_float_range(self, capsys):
        # hi = 10^400 overflows a float; its exact square root 10^200 is
        # the sieve limit
        argv = ["count", "--k", "2", "--s", "2", "--hi", str(10**400)]
        assert run_cli(capsys, *argv) == (
            2,
            "",
            "error: sieve_primes needs about 9.31e+190 GiB, over the memory budget of 4 GiB\n",
        )

    def test_count_estimate_past_float_range(self, capsys):
        # hi = 10^800 puts the sieve limit at 10^400, so the byte estimate
        # itself is an int no float holds
        argv = ["count", "--k", "2", "--s", "2", "--hi", str(10**800)]
        assert run_cli(capsys, *argv) == (
            2,
            "",
            "error: sieve_primes needs about 9.31e+390 GiB, over the memory budget of 4 GiB\n",
        )


class TestRejectedInputs:
    """Inputs that once ran (or half ran) now exit 2 before any work."""

    @pytest.mark.parametrize(
        "argv, err",
        [
            ("count --k 2 --s 2 --lo -3 --hi 20", "error: lo must be >= 0, got -3\n"),
            ("count --k 2 --s 2 --lo 21 --hi 20", "error: window [21, 20] is empty\n"),
        ],
        ids=["negative-lo", "lo-above-hi"],
    )
    def test_count_window(self, capsys, argv, err):
        assert run_cli(capsys, *argv.split()) == (2, "", err)

    @pytest.mark.parametrize(
        "argv, err",
        [
            ("restrict --n 256 --exponent nan", "exponent must be finite and >= 2, got nan"),
            ("restrict --n 256 --exponent inf", "exponent must be finite and >= 2, got inf"),
            ("majorant --n 256 --epsilon nan", "epsilon must lie in (0, 1), got nan"),
            ("majorant --n 256 --epsilon 3", "epsilon must lie in (0, 1), got 3.0"),
            ("transfer --s 2 --n 64 --epsilon nan", "epsilon must lie in (0, 1), got nan"),
            (
                "transfer --s 2 --n 64 --indicator --epsilon 0",
                "epsilon must lie in (0, 1), got 0.0",
            ),
        ],
        ids=["exponent-nan", "exponent-inf", "majorant-nan", "majorant-3", "transfer-nan",
             "transfer-zero"],
    )
    def test_refused_before_the_plan(self, capsys, argv, err):
        # each once ran to exit 0: the NaN ones printed "NaN", not JSON
        for dry in ([], ["--dry-run"]):
            assert run_cli(capsys, *argv.split(), *dry) == (2, "", f"error: {err}\n")

    def test_subset_class_out_of_range(self, capsys):
        argv = "majorant --n 64 --w 2 --subset classes:8:1,9".split()
        assert run_cli(capsys, *argv) == (
            2,
            "",
            "error: cannot parse subset spec 'classes:8:1,9': classes [9] outside [0, 8)\n",
        )

    @pytest.mark.parametrize("argv", ["local residues --modulus", "waring-pair --s 2 --q"])
    def test_modulus_over_cap_refused_before_factoring(self, capsys, argv):
        # the Mersenne prime 2^61 - 1 would take minutes of trial division
        m = 2**61 - 1
        t0 = time.perf_counter()
        assert run_cli(capsys, *argv.split(), str(m)) == (
            2,
            "",
            f"error: modulus {m} exceeds enumeration cap 10000000\n",
        )
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize(
        "cfg, err",
        [
            ("n_list=0\n", "error: n must be >= 1, got 0\n"),
            ("n_list=256,-1\n", "error: n must be >= 1, got -1\n"),
            ("b_list=1,2\n", "error: b = 2 is not a unit k-th power residue mod 16\n"),
        ],
        ids=["n-zero", "n-negative", "b-not-unit"],
    )
    def test_report_lists(self, capsys, tmp_path, cfg, err):
        path = tmp_path / "lab.cfg"
        path.write_text("k=2\nw=2\n" + cfg)
        out = tmp_path / "reports"
        for dry in ([], ["--dry-run"]):
            code = run_cli(capsys, "report", "--config", str(path), "--out", str(out), *dry)
            assert code == (2, "", err)
            assert not out.exists()


class TestValidatedBeforeWork:
    """Settings a command once read late, or not at all."""

    @pytest.mark.parametrize(
        "flags, cfg, err",
        [
            (["--k", "1"], "", "error: k must be >= 2, got 1\n"),
            ([], "subset=nonsense\n", "error: cannot parse subset spec 'nonsense'\n"),
            # default_grid(N, f) >= 2N needs f >= 2
            ([], "grid_factor=1\n", "error: grid_factor must be >= 2, got 1\n"),
        ],
        ids=["k-one", "bad-subset", "grid-factor-one"],
    )
    def test_report_writes_nothing(self, capsys, tmp_path, flags, cfg, err):
        path = tmp_path / "lab.cfg"
        path.write_text("w=2\n" + cfg)
        out = tmp_path / "reports"
        for dry in ([], ["--dry-run"]):
            argv = ["report", *flags, "--config", str(path), "--out", str(out), *dry]
            assert run_cli(capsys, *argv) == (2, "", err)
            assert not out.exists()

    def test_decompose_target_from_config(self, capsys, tmp_path):
        path = tmp_path / "lab.cfg"
        path.write_text("n=12\n")
        argv = ["--config", str(path), "local", "decompose", "--w", "2", "--s", "4"]
        assert run_cli(capsys, *argv, "--dry-run")[1] == (
            "plan: decompose 12 mod 16 into 4 weighted parts\n"
        )
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["target"] == 12
        assert run_cli(capsys, *argv, "--n", "8", "--dry-run")[1] == (
            "plan: decompose 8 mod 16 into 4 weighted parts\n"
        )

    def test_decompose_target_zero_is_a_residue(self, capsys, tmp_path):
        path = tmp_path / "lab.cfg"
        path.write_text("n=0\n")
        for argv in (["--config", str(path)], ["--n", "0"]):
            code, out, _ = run_cli(
                capsys, "local", "decompose", "--w", "2", "--s", "4", *argv, "--dry-run"
            )
            assert (code, out) == (0, "plan: decompose 0 mod 16 into 4 weighted parts\n")

    def test_sigma_value_from_config(self, capsys, tmp_path):
        path = tmp_path / "lab.cfg"
        path.write_text("w=2\nb=9\n")
        assert run_cli(capsys, "--config", str(path), "local", "sigma") == (0, "4\n", "")
        path.write_text("w=2\n")
        code, out, _ = run_cli(capsys, "--config", str(path), "local", "sigma")
        assert code == 0 and json.loads(out)["sigma"] == {"1": 4, "9": 4}


def _reports():
    """One small instance of each report the CLI serializes, by name."""
    W = compute_W(2, 2)
    sub = gen_subset(SubsetSpec.all(), 200)
    nu = build_nu(W, 1, 2, 512)
    return {
        "WaringPairReport": lambda: waring_pair_check(FactoredModulus.from_value(5), 2, 2),
        "MeanReport": lambda: mean_g(W, 2, 512, sub),
        "CoverageReport": lambda: coverage_probe(sub, 2, 5, (100, 400))[0],
        "ConvolutionProfile": lambda: transference_gauge([WeightedSequence.indicator(64)] * 2),
        "ThresholdReport": lambda: theorem_thresholds(2),
        "GaugeReport": lambda: pseudorandom_gauge(nu),
        "RestrictionReport": lambda: restriction_norm(nu, 6.5),
    }


ROW_KEYS = {"N", "M", "w", "k", "b", "sigma", "value"}
REPORT_KEYS = {
    "WaringPairReport": {
        "q", "q_factors", "k", "s", "strategy", "verdict", "witness", "uncovered", "trials"
    },
    "MeanReport": {
        "W", "k", "N", "subset", "epsilon", "per_b", "aggregate", "margin", "floor"
    },
    "CoverageReport": {
        "k", "s", "subset", "window", "modulus", "filtered", "admissible_count",
        "represented_count", "exception_count", "exceptions",
    },
    "ConvolutionProfile": {
        "s", "N", "epsilon", "kappa", "window", "gauge", "means", "mean_each_ok",
        "mean_sum_ok", "numeric_warning",
    },
    "ThresholdReport": {"k", "s_min_theorem", "s_min_local", "delta_threshold"},
    "GaugeReport": ROW_KEYS,
    "RestrictionReport": ROW_KEYS,
}


@pytest.mark.parametrize("name", list(REPORT_KEYS))
def test_report_dict_keys(name):
    """Each report's to_dict holds its JSON keys, already in JSON's shapes:
    serializing and reading it back gives the same dict."""
    report = _reports()[name]()
    assert type(report).__name__ == name
    d = report.to_dict()
    assert set(d) == REPORT_KEYS[name]
    assert json.loads(_json_report(d)) == d == json.loads(_json_line(d))
