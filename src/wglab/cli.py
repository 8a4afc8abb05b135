"""Batch experiment CLI: one subcommand per claim family.

Flat key=value config files, flag overrides, deterministic JSON/CSV
reports, and exit codes 0 (success), 1 (a verification-style check
failed), 2 (usage or config error).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core_arith import (
    FactoredModulus,
    LimitExceededError,
    compute_Rk,
    compute_W,
    iroot,
    sieve_primes,
)
from .local_structure import (
    DecompositionFailure,
    local_decompose,
    power_residues,
    require_enumerable,
    sigma_b,
    waring_pair_check,
)
from .majorant import (
    WeightedSequence,
    build_f,
    build_nu,
    gen_subset,
    mean_g,
    parse_subset_spec,
    require_epsilon,
    write_csv,
)
from .representation import (
    count_representations,
    coverage_probe,
    theorem_thresholds,
    transference_gauge,
)
from .spectral import (
    ArcParams,
    DirichletKernel,
    arc_decompose,
    default_grid,
    dft_spectrum,
    pseudorandom_gauge,
    require_exponent,
    restriction_norm,
)

CONFIG_KEYS = {
    "k": int,
    "w": int,
    "s": int,
    "n": int,
    "b": int,
    "subset": str,
    "sigma": float,
    "sigma0": float,
    "grid_factor": int,
    "seed": int,
    "threads": int,
    "epsilon": float,
    "exponent": float,
    "outdir": str,
    "budget": int,
    "trials": int,
    "n_list": str,
    "b_list": str,
}

DEFAULTS = {
    "k": 2,
    "w": 3,
    "b": 1,
    "sigma": 4.0,
    "sigma0": 2.0,
    "grid_factor": 8,
    "seed": 0,
    "threads": 1,
    "epsilon": 0.1,
    "exponent": 6.5,
    "budget": 1 << 25,
    "trials": 100_000,
    "subset": "all",
    "n_list": "4096",
    "b_list": "all",
}

# the smallest value each checked setting accepts; q, modulus, lo and hi
# come from flags only
MINIMA = {
    "k": 1, "w": 2, "s": 1, "n": 1, "q": 2, "modulus": 2, "lo": 0, "hi": 1, "grid_factor": 2,
}


class ConfigError(Exception):
    pass


class Planned(Exception):
    """A --dry-run stopping after validation; the message is the plan line."""


class Outcome(NamedTuple):
    """What a command hands back to main: the JSON report body (printed and
    written to --json), a failed check's message (exit 1) and a value
    printed after the report."""

    body: dict | None = None
    failure: str | None = None
    echo: object = None


def load_config(path: str) -> dict:
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config {path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"config {path}:{lineno}: unknown key {key!r}")
        try:
            cfg[key] = CONFIG_KEYS[key](value)
        except ValueError:
            raise ConfigError(
                f"config {path}:{lineno}: bad value {value!r} for key {key!r}"
            ) from None
    return cfg


def _checked(key: str, value):
    minimum = MINIMA.get(key)
    if minimum is not None and (value is None or value < minimum):
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def setting(args, cfg: dict, key: str, given_only: bool = False):
    """Flag value if given, else config file value, else the default;
    checked against MINIMA.  With given_only, the flag or config value
    unchecked, or None: for a handler whose default and range differ."""
    value = getattr(args, key, None)
    if value is None:
        value = cfg.get(key)
    if given_only:
        return value
    return _checked(key, DEFAULTS.get(key) if value is None else value)


def _plan(args, line: str) -> None:
    if args.dry_run:
        raise Planned(line)


# the only JSON serializers: an indented report, a compact gauge_N*.jsonl line
def _json_report(d: dict) -> str:
    return json.dumps(d, sort_keys=True, indent=2) + "\n"


def _json_line(d: dict) -> str:
    return json.dumps(d, sort_keys=True) + "\n"


def _regime(W: int, N: int) -> float:
    return W / math.log(N) if N > 1 else float("inf")


def _window(get) -> tuple[int, int]:
    hi, lo = get("hi"), get("lo")
    if lo > hi:
        raise ConfigError(f"window [{lo}, {hi}] is empty")
    return lo, hi


def _subset_for(get, limit: int):
    return gen_subset(parse_subset_spec(get("subset")), max(limit, 100))


def _rk_body(k: int) -> dict:
    r = compute_Rk(k)
    return {"k": k, "Rk": r.value, "factors": [list(f) for f in r.factors]}


def _sigma_body(W: FactoredModulus, k: int) -> dict:
    table = power_residues(W, k)
    return {
        "W": W.value,
        "k": k,
        "phi": W.euler_phi,
        "unit_count": table.units.size,
        "sigma": {str(b): sigma_b(W, k, b) for b in table.units.tolist()},
    }


def cmd_local(args, get) -> Outcome:
    k = get("k")
    if args.local_op == "rk":
        _plan(args, f"plan: congruence modulus at k={k}")
        body = _rk_body(k)
        return Outcome(body, echo=body["Rk"])
    w = get("w")
    W = compute_W(w, k)
    if args.local_op == "w":
        _plan(args, f"plan: progression modulus at w={w}, k={k}")
        body = {"w": w, "k": k, "W": W.value, "factors": [list(f) for f in W.factors]}
        return Outcome(body, echo=W.value)
    if args.local_op == "sigma":
        _plan(args, f"plan: root multiplicities mod W={W.value}")
        b = get("b", given_only=True)
        if b is not None:
            return Outcome(echo=sigma_b(W, k, b))
        return Outcome({**_sigma_body(W, k), "w": w})
    if args.local_op == "residues":
        m = get("modulus")
        require_enumerable(m)
        _plan(args, f"plan: k-th power residues mod {m}")
        table = power_residues(FactoredModulus.from_value(m), k)
        body = {
            "modulus": m,
            "k": k,
            "all_count": int(np.count_nonzero(table.counts)),
            "unit_count": table.units.size,
            "units": table.units.tolist() if table.units.size <= 512 else None,
        }
        return Outcome(body)
    # decompose, the last of the parser's choices
    s = get("s")
    # a residue target, so any integer; by default the class of s
    n = get("n", given_only=True)
    n = s % W.value if n is None else n
    if not 0 <= args.f_const < 1:
        raise ConfigError(f"f-const must lie in [0, 1), got {args.f_const}")
    _plan(args, f"plan: decompose {n} mod {W.value} into {s} weighted parts")
    f = {b: args.f_const for b in power_residues(W, k).units.tolist()}
    result = local_decompose(W, k, s, n, f)
    body = {"target": result.target, "W": W.value, "s": s}
    if isinstance(result, DecompositionFailure):
        return Outcome(
            {**body, "optimum": result.optimum},
            f"no decomposition beats s/2 = {s / 2} (optimum {result.optimum})",
        )
    return Outcome({**body, "parts": result.parts, "total": result.total})


def cmd_waring_pair(args, get) -> Outcome:
    k, s, q = get("k"), get("s"), get("q")
    require_enumerable(q)
    _plan(args, f"plan: {args.strategy} covering scan at q={q}, k={k}, s={s}")
    report = waring_pair_check(
        FactoredModulus.from_value(q),
        k,
        s,
        args.strategy,
        trials=get("trials"),
        seed=get("seed"),
        budget=get("budget"),
        threads=get("threads"),
    )
    failure = None
    if report.verdict == "not-pair":
        failure = f"majority subset {report.witness} misses {report.uncovered}"
    return Outcome(report.to_dict(), failure)


def cmd_majorant(args, get) -> Outcome:
    k, w, N, epsilon = get("k"), get("w"), get("n"), get("epsilon")
    W = compute_W(w, k)
    require_epsilon(epsilon)
    _plan(args, f"plan: majorant means at W={W.value}, k={k}, N={N}")
    subset = _subset_for(get, iroot(W.value * N + W.value, k))
    body = mean_g(W, k, N, subset, epsilon=epsilon).to_dict()
    body["subset_density"] = subset.density
    body["W_over_log_N"] = _regime(W.value, N)
    if args.save_seq:
        build_f(W, get("b"), k, N, subset).to_binary(args.save_seq)
    return Outcome(body)


def cmd_spectrum(args, get) -> Outcome:
    k, w, N, b, factor = get("k"), get("w"), get("n"), get("b"), get("grid_factor")
    W = compute_W(w, k)
    _plan(args, f"plan: spectrum gauge at W={W.value}, b={b}, N={N}, grid x{factor}")
    nu = build_nu(W, b, k, N)
    M = default_grid(N, factor)
    report = pseudorandom_gauge(nu, M)
    body = report.to_dict()
    body["argmax_alpha"] = report.argmax_alpha
    body["arc"] = None
    if report.sigma is not None:
        params = ArcParams.for_sequence(W.value, N, k, sigma=report.sigma)
        body["arc"] = arc_decompose(params, report.argmax_alpha).classification
    body["W_over_log_N"] = _regime(W.value, N)
    if args.csv:
        dft_spectrum(nu, M).to_csv(args.csv)
    failure = None
    if args.assert_gauge_below is not None and report.D >= args.assert_gauge_below:
        failure = f"gauge {report.D:.6f} not below {args.assert_gauge_below}"
    return Outcome(body, failure)


def cmd_arcs(args, get) -> Outcome:
    k, w, N, sigma, sigma0 = get("k"), get("w"), get("n"), get("sigma"), get("sigma0")
    W = compute_W(w, k)
    alpha = args.alpha
    _plan(args, f"plan: classify alpha={alpha} with W={W.value}, N={N}, sigma={sigma}")
    try:
        params = ArcParams.for_sequence(W.value, N, k, sigma=sigma, sigma0=sigma0)
    except ValueError as exc:
        raise ConfigError(f"degenerate arc parameters: {exc}") from None
    arc = arc_decompose(params, alpha)
    body = {
        "alpha": alpha,
        "q": arc.q,
        "a": arc.a,
        "classification": arc.classification,
        "P": params.P,
        "Q": params.Q,
        "sigma": sigma,
        "sigma0": sigma0,
    }
    return Outcome(body)


def cmd_restrict(args, get) -> Outcome:
    k, w, N, b, exponent = get("k"), get("w"), get("n"), get("b"), get("exponent")
    W = compute_W(w, k)
    require_exponent(exponent)
    _plan(args, f"plan: restriction constant at W={W.value}, b={b}, N={N}, exponent={exponent}")
    if args.spike:
        seq = WeightedSequence.spike(N)
    else:
        subset = _subset_for(get, iroot(W.value * N + b, k))
        seq = build_f(W, b, k, N, subset)
    report = restriction_norm(seq, exponent)
    body = report.to_dict()
    body["exponent"] = exponent
    body["norm"] = report.norm
    return Outcome(body)


def cmd_count(args, get) -> Outcome:
    k, s = get("k"), get("s")
    lo, hi = _window(get)
    _plan(args, f"plan: {args.method} representation counts for n in [{lo}, {hi}]")
    subset = _subset_for(get, iroot(hi, k))
    counts = count_representations(subset, k, s, hi, method=args.method)
    rows = (f"{n},{counts[n]}" for n in range(lo, hi + 1))
    if args.csv:
        write_csv(args.csv, "n,count", rows)
        return Outcome()
    return Outcome(echo="\n".join(["n,count", *rows]))


def cmd_coverage(args, get) -> Outcome:
    k, s = get("k"), get("s")
    lo, hi = _window(get)
    _plan(args, f"plan: coverage probe k={k}, s={s}, window [{lo}, {hi}]")
    subset = _subset_for(get, iroot(hi, k))
    report, reach = coverage_probe(subset, k, s, (lo, hi), use_filter=not args.no_filter)
    if args.csv:
        report.to_csv(args.csv, reach)
    if args.exceptions_file:
        Path(args.exceptions_file).write_text(
            "".join(f"{n}\n" for n in report.exceptions), encoding="utf-8"
        )
    failure = None
    if report.exceptions:
        failure = f"{len(report.exceptions)} admissible integers unrepresented"
    return Outcome(report.to_dict(), failure)


def cmd_transfer(args, get) -> Outcome:
    k, s, N, epsilon = get("k"), get("s"), get("n"), get("epsilon")
    require_epsilon(epsilon)
    _plan(args, f"plan: {s}-fold convolution gauge at N={N}, epsilon={epsilon}")
    if args.indicator:
        f_list = [WeightedSequence.indicator(N)] * s
    else:
        W = compute_W(get("w"), k)
        subset = _subset_for(get, iroot(W.value * N + W.value, k))
        means = mean_g(W, k, N, subset, epsilon=epsilon)
        f_map = {
            b: max(0.0, min((g - epsilon / 2) / (1 + epsilon), 1 - 1e-12))
            for b, g in means.per_b.items()
        }
        target = args.target if args.target is not None else s % W.value
        decomp = local_decompose(W, k, s, target, f_map)
        if isinstance(decomp, DecompositionFailure):
            return Outcome(
                failure=f"target {target} mod {W.value} has no majority-weight decomposition"
            )
        built = {b: build_f(W, b, k, N, subset) for b in dict.fromkeys(decomp.parts)}
        f_list = [built[b] for b in decomp.parts]
    profile = transference_gauge(f_list, epsilon=epsilon)
    failure = None
    if profile.mean_each_ok and profile.mean_sum_ok and profile.gauge <= 0:
        failure = "mean hypotheses hold but the window gauge is not positive"
    return Outcome(profile.to_dict(), failure)


def cmd_report(args, get) -> Outcome:
    k, w = get("k"), get("w")
    outdir = args.out or get("outdir")
    if not outdir:
        raise ConfigError("report needs an output directory (--out or outdir=)")
    n_list = [_checked("n", int(x)) for x in get("n_list").split(",")]
    W = compute_W(w, k)
    b_list = get("b_list")
    bs = None if b_list == "all" else [int(x) for x in b_list.split(",")]
    for b in bs or ():
        sigma_b(W, k, b)  # raises on a b that is not a unit k-th power residue
    thresholds = theorem_thresholds(k).to_dict()
    spec = parse_subset_spec(get("subset"))
    factor = get("grid_factor")
    _plan(args, f"plan: batch report for k={k}, w={w}, N in {n_list} into {outdir}")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        (out / name).write_text(text, encoding="utf-8")

    write("thresholds.json", _json_report(thresholds))
    write("rk.json", _json_report(_rk_body(k)))
    write("sigma.json", _json_report(_sigma_body(W, k)))
    bs = bs or power_residues(W, k).units.tolist()
    for N in n_list:
        Y = iroot(W.value * N + W.value, k)
        primes = sieve_primes(max(Y, 100))  # covers every b < W as well
        subset = gen_subset(spec, max(Y, 100), primes=primes)
        body = mean_g(W, k, N, subset).to_dict()
        body["W_over_log_N"] = _regime(W.value, N)
        write(f"means_N{N}.json", _json_report(body))
        M = default_grid(N, factor)
        kernel = DirichletKernel(N, M)
        # each nu built as its turn comes, in order of b, all read one kernel
        gauges = [pseudorandom_gauge(build_nu(W, b, k, N, primes=primes), M, kernel) for b in bs]
        write(f"gauge_N{N}.jsonl", "".join(_json_line(g.to_dict()) for g in gauges))
    return Outcome(echo=f"report written to {out}")


def _add_common(p: argparse.ArgumentParser) -> None:
    # registered on every subparser too, so the flags work on either side
    # of the subcommand; SUPPRESS keeps a subparser from clobbering a value
    # parsed by the top-level parser
    p.add_argument("--config", default=argparse.SUPPRESS, help="flat key=value config file")
    p.add_argument(
        "--dry-run",
        action="store_true",
        default=argparse.SUPPRESS,
        help="validate and print the plan only",
    )
    p.add_argument(
        "--json", default=argparse.SUPPRESS, help="also write the JSON report to this path"
    )
    p.add_argument("--out", default=argparse.SUPPRESS, help="output directory (report)")


REQUIRED = {"required": True}
INT_REQUIRED = {"type": int, "required": True}

# subcommand: (handler, help, flags in --help order).  A flag is its name
# alone or (name, argparse options); one whose dest is a config key takes
# its type from CONFIG_KEYS.
COMMANDS = {
    "local": (cmd_local, "exact local arithmetic", [
        ("local_op", {"choices": ["rk", "w", "sigma", "residues", "decompose"]}),
        "--k", "--w", "--s", "--n", "--b",
        ("--modulus", {"type": int}),
        ("--f-const", {"type": float, "default": 0.6}),
    ]),
    "waring-pair": (cmd_waring_pair, "majority-subset sumset covering scans", [
        ("--q", INT_REQUIRED),
        "--k", "--s",
        ("--strategy", {"choices": ["exhaustive", "sampled", "structured"],
                        "default": "exhaustive"}),
        "--trials", "--seed", "--budget", "--threads",
    ]),
    "majorant": (cmd_majorant, "weighted sequence means per residue", [
        "--k", "--w", ("--n", REQUIRED), "--b", "--subset", "--epsilon",
        ("--save-seq", {"help": "write the subset-thinned sequence here (binary)"}),
    ]),
    "spectrum": (cmd_spectrum, "pseudorandomness gauge on the grid", [
        "--k", "--w", ("--n", REQUIRED), "--b", "--grid-factor",
        ("--csv", {"help": "dump the full spectrum as CSV"}),
        ("--assert-gauge-below", {"type": float}),
    ]),
    "arcs": (cmd_arcs, "major/minor classification of a frequency", [
        ("--alpha", {"type": float, "required": True}),
        "--k", "--w", ("--n", REQUIRED), "--sigma", "--sigma0",
    ]),
    "restrict": (cmd_restrict, "restriction-norm constants", [
        "--k", "--w", ("--n", REQUIRED), "--b", "--exponent", "--subset",
        ("--spike", {"action": "store_true", "help": "use the spike control sequence"}),
    ]),
    "count": (cmd_count, "representation counts per n", [
        "--k", "--s",
        ("--lo", {"type": int, "default": 0}),
        ("--hi", INT_REQUIRED),
        ("--method", {"choices": ["brute", "fft", "bitset"], "default": "fft"}),
        "--subset", "--csv",
    ]),
    "coverage": (cmd_coverage, "admissible-window coverage probe", [
        "--k", "--s", ("--lo", INT_REQUIRED), ("--hi", INT_REQUIRED), "--subset",
        ("--no-filter", {"action": "store_true"}),
        "--csv", "--exceptions-file",
    ]),
    "transfer": (cmd_transfer, "many-fold convolution gauge", [
        "--k", "--w", ("--s", REQUIRED), ("--n", REQUIRED), "--epsilon",
        ("--target", {"type": int}),
        "--subset",
        ("--indicator", {"action": "store_true", "help": "use interval indicators"}),
    ]),
    "report": (cmd_report, "batch cross-product report", ["--k", "--w", "--subset"]),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="wglab", description=__doc__)
    top.set_defaults(config=None, dry_run=False, json=None, out=None)
    _add_common(top)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            flag, opts = (flag, {}) if isinstance(flag, str) else flag
            key = flag.lstrip("-").replace("-", "_")
            if key in CONFIG_KEYS:
                opts = {"type": CONFIG_KEYS[key], **opts}
            p.add_argument(flag, **opts)
        p.set_defaults(func=func)
        _add_common(p)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        outcome = args.func(args, partial(setting, args, cfg))
    except Planned as plan:
        print(plan)
        return 0
    except (ConfigError, ValueError, LimitExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if outcome.body is not None:
        text = _json_report(outcome.body)
        sys.stdout.write(text)
        if args.json:
            Path(args.json).write_text(text, encoding="utf-8")
    if outcome.echo is not None:
        print(outcome.echo)
    if outcome.failure:
        print(f"check failed: {outcome.failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
