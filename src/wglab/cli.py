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
from pathlib import Path

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
)
from .representation import (
    count_representations,
    coverage_probe,
    theorem_thresholds,
    transference_gauge,
)
from .spectral import (
    ArcParams,
    arc_decompose,
    dft_spectrum,
    pseudorandom_gauge,
    restriction_norm,
)

CONFIG_KEYS = {
    "k": int,
    "w": int,
    "s": int,
    "n": int,
    "b": str,
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
    "sigma": 4.0,
    "sigma0": 2.0,
    "grid_factor": 8,
    "seed": 0,
    "threads": 1,
    "epsilon": 0.1,
    "budget": 1 << 25,
    "trials": 100_000,
    "subset": "all",
}


class ConfigError(Exception):
    pass


class CheckFailed(Exception):
    pass


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


def merged_setting(args, cfg: dict, key: str, default=None):
    """Flag value if given, else config file value, else default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    if default is not None:
        return default
    return DEFAULTS.get(key)


def emit_json(text: str, path: str | None) -> None:
    sys.stdout.write(text)
    if path:
        Path(path).write_text(text, encoding="utf-8")


def write_csv(path: str, rows: list[str]) -> None:
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def _json_report(d: dict) -> str:
    return json.dumps(d, sort_keys=True, indent=2) + "\n"


def _positive(name: str, value: int, minimum: int = 1) -> int:
    if value is None or value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _regime(W: int, N: int) -> float:
    return W / math.log(N) if N > 1 else float("inf")


def cmd_local(args, cfg) -> int:
    k = _positive("k", merged_setting(args, cfg, "k"))
    if args.local_op == "rk":
        if args.dry_run:
            print(f"plan: congruence modulus at k={k}")
            return 0
        r = compute_Rk(k)
        emit_json(
            _json_report({"k": k, "Rk": r.value, "factors": [list(f) for f in r.factors]}),
            args.json,
        )
        print(r.value)
        return 0
    w = _positive("w", merged_setting(args, cfg, "w"), 2)
    W = compute_W(w, k)
    if args.local_op == "w":
        if args.dry_run:
            print(f"plan: progression modulus at w={w}, k={k}")
            return 0
        emit_json(
            _json_report({"w": w, "k": k, "W": W.value, "factors": [list(f) for f in W.factors]}),
            args.json,
        )
        print(W.value)
        return 0
    if args.local_op == "sigma":
        if args.dry_run:
            print(f"plan: root multiplicities mod W={W.value}")
            return 0
        table = power_residues(W, k)
        if args.b is not None:
            print(sigma_b(W, k, args.b))
            return 0
        sigmas = {b: sigma_b(W, k, b) for b in table.unit_sorted}
        body = {
            "w": w,
            "k": k,
            "W": W.value,
            "phi": W.euler_phi,
            "unit_count": len(sigmas),
            "sigma": {str(b): v for b, v in sigmas.items()},
        }
        emit_json(_json_report(body), args.json)
        return 0
    if args.local_op == "residues":
        m = _positive("modulus", args.modulus, 2)
        if args.dry_run:
            print(f"plan: k-th power residues mod {m}")
            return 0
        table = power_residues(FactoredModulus.from_value(m), k)
        body = {
            "modulus": m,
            "k": k,
            "all_count": len(table.all_residues),
            "unit_count": len(table.unit_residues),
            "units": table.unit_sorted if len(table.unit_residues) <= 512 else None,
        }
        emit_json(_json_report(body), args.json)
        return 0
    if args.local_op == "decompose":
        s = _positive("s", merged_setting(args, cfg, "s"))
        n = args.n if args.n is not None else s % W.value
        if args.f_const is None or not 0 <= args.f_const < 1:
            raise ConfigError(f"f-const must lie in [0, 1), got {args.f_const}")
        if args.dry_run:
            print(f"plan: decompose {n} mod {W.value} into {s} weighted parts")
            return 0
        table = power_residues(W, k)
        f = {b: args.f_const for b in table.unit_residues}
        result = local_decompose(W, k, s, n, f)
        if isinstance(result, DecompositionFailure):
            emit_json(
                _json_report(
                    {"target": result.target, "W": W.value, "s": s, "optimum": result.optimum}
                ),
                args.json,
            )
            raise CheckFailed(f"no decomposition beats s/2 = {s / 2} (optimum {result.optimum})")
        emit_json(
            _json_report(
                {
                    "target": result.target,
                    "W": W.value,
                    "s": s,
                    "parts": result.parts,
                    "total": result.total,
                }
            ),
            args.json,
        )
        return 0
    raise ConfigError(f"unknown local operation {args.local_op!r}")


def cmd_waring_pair(args, cfg) -> int:
    k = _positive("k", merged_setting(args, cfg, "k"))
    s = _positive("s", merged_setting(args, cfg, "s"))
    q = _positive("q", args.q, 2)
    trials = merged_setting(args, cfg, "trials")
    seed = merged_setting(args, cfg, "seed")
    budget = merged_setting(args, cfg, "budget")
    threads = merged_setting(args, cfg, "threads")
    if args.dry_run:
        print(f"plan: {args.strategy} covering scan at q={q}, k={k}, s={s}")
        return 0
    report = waring_pair_check(
        FactoredModulus.from_value(q),
        k,
        s,
        args.strategy,
        trials=trials,
        seed=seed,
        budget=budget,
        threads=threads,
    )
    emit_json(report.to_json(), args.json)
    if report.verdict == "not-pair":
        raise CheckFailed(f"majority subset {report.witness} misses {report.uncovered}")
    return 0


def _subset_for(args, cfg, limit: int):
    spec = parse_subset_spec(merged_setting(args, cfg, "subset"))
    return gen_subset(spec, max(limit, 100))


def cmd_majorant(args, cfg) -> int:
    k = _positive("k", merged_setting(args, cfg, "k"))
    w = _positive("w", merged_setting(args, cfg, "w"), 2)
    N = _positive("n", merged_setting(args, cfg, "n"))
    epsilon = merged_setting(args, cfg, "epsilon")
    W = compute_W(w, k)
    if args.dry_run:
        print(f"plan: majorant means at W={W.value}, k={k}, N={N}")
        return 0
    Y = iroot(W.value * N + W.value, k)
    subset = _subset_for(args, cfg, Y)
    report = mean_g(W, k, N, subset, epsilon=epsilon)
    body = report.to_json_dict()
    body["subset_density"] = subset.density
    body["W_over_log_N"] = _regime(W.value, N)
    emit_json(_json_report(body), args.json)
    if args.save_seq:
        b_val = int(merged_setting(args, cfg, "b", "1"))
        seq = build_f(W, b_val, k, N, subset)
        seq.to_binary(args.save_seq)
    return 0


def cmd_spectrum(args, cfg) -> int:
    k = _positive("k", merged_setting(args, cfg, "k"))
    w = _positive("w", merged_setting(args, cfg, "w"), 2)
    N = _positive("n", merged_setting(args, cfg, "n"))
    b = int(merged_setting(args, cfg, "b", "1"))
    factor = merged_setting(args, cfg, "grid_factor")
    W = compute_W(w, k)
    if args.dry_run:
        print(f"plan: spectrum gauge at W={W.value}, b={b}, N={N}, grid x{factor}")
        return 0
    nu = build_nu(W, b, k, N)
    M = factor * (1 << (N - 1).bit_length())
    report = pseudorandom_gauge(nu, M)
    body = json.loads(report.to_json_row())
    body["argmax_alpha"] = report.argmax_alpha
    body["arc"] = None if report.arc is None else report.arc.classification
    body["W_over_log_N"] = _regime(W.value, N)
    emit_json(_json_report(body), args.json)
    if args.csv:
        dft_spectrum(nu, M).to_csv(args.csv)
    if args.assert_gauge_below is not None and report.D >= args.assert_gauge_below:
        raise CheckFailed(f"gauge {report.D:.6f} not below {args.assert_gauge_below}")
    return 0


def cmd_arcs(args, cfg) -> int:
    k = _positive("k", merged_setting(args, cfg, "k"))
    w = _positive("w", merged_setting(args, cfg, "w"), 2)
    N = _positive("n", merged_setting(args, cfg, "n"))
    sigma = merged_setting(args, cfg, "sigma")
    sigma0 = merged_setting(args, cfg, "sigma0")
    W = compute_W(w, k)
    alpha = args.alpha
    if args.dry_run:
        print(f"plan: classify alpha={alpha} with W={W.value}, N={N}, sigma={sigma}")
        return 0
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
    emit_json(_json_report(body), args.json)
    return 0


def cmd_restrict(args, cfg) -> int:
    k = _positive("k", merged_setting(args, cfg, "k"))
    w = _positive("w", merged_setting(args, cfg, "w"), 2)
    N = _positive("n", merged_setting(args, cfg, "n"))
    b = int(merged_setting(args, cfg, "b", "1"))
    exponent = merged_setting(args, cfg, "exponent", 6.5)
    W = compute_W(w, k)
    if args.dry_run:
        print(f"plan: restriction constant at W={W.value}, b={b}, N={N}, exponent={exponent}")
        return 0
    if args.spike:
        seq = WeightedSequence.spike(N)
    else:
        Y = iroot(W.value * N + b, k)
        subset = _subset_for(args, cfg, Y)
        seq = build_f(W, b, k, N, subset)
    report = restriction_norm(seq, exponent)
    body = json.loads(report.to_json_row())
    body["exponent"] = exponent
    body["norm"] = report.norm
    emit_json(_json_report(body), args.json)
    return 0


def cmd_count(args, cfg) -> int:
    k = _positive("k", merged_setting(args, cfg, "k"))
    s = _positive("s", merged_setting(args, cfg, "s"))
    hi = _positive("hi", args.hi)
    lo = args.lo or 0
    if args.dry_run:
        print(f"plan: {args.method} representation counts for n in [{lo}, {hi}]")
        return 0
    subset = _subset_for(args, cfg, iroot(hi, k))
    counts = count_representations(subset, k, s, hi, method=args.method)
    rows = ["n,count"] + [f"{n},{counts[n]}" for n in range(lo, hi + 1)]
    if args.csv:
        write_csv(args.csv, rows)
    else:
        print("\n".join(rows))
    return 0


def cmd_coverage(args, cfg) -> int:
    k = _positive("k", merged_setting(args, cfg, "k"))
    s = _positive("s", merged_setting(args, cfg, "s"))
    hi = _positive("hi", args.hi)
    lo = _positive("lo", args.lo, 0)
    if lo > hi:
        raise ConfigError(f"window [{lo}, {hi}] is empty")
    if args.dry_run:
        print(f"plan: coverage probe k={k}, s={s}, window [{lo}, {hi}]")
        return 0
    subset = _subset_for(args, cfg, iroot(hi, k))
    report, reach = coverage_probe(subset, k, s, (lo, hi), use_filter=not args.no_filter)
    emit_json(report.to_json(), args.json)
    if args.csv:
        write_csv(args.csv, report.csv_rows(reach))
    if args.exceptions_file:
        Path(args.exceptions_file).write_text(
            "".join(f"{n}\n" for n in report.exceptions), encoding="utf-8"
        )
    if report.exceptions:
        raise CheckFailed(f"{len(report.exceptions)} admissible integers unrepresented")
    return 0


def cmd_transfer(args, cfg) -> int:
    k = _positive("k", merged_setting(args, cfg, "k"))
    s = _positive("s", merged_setting(args, cfg, "s"))
    N = _positive("n", merged_setting(args, cfg, "n"))
    epsilon = merged_setting(args, cfg, "epsilon")
    if args.dry_run:
        print(f"plan: {s}-fold convolution gauge at N={N}, epsilon={epsilon}")
        return 0
    if args.indicator:
        f_list = [WeightedSequence.indicator(N)] * s
    else:
        w = _positive("w", merged_setting(args, cfg, "w"), 2)
        W = compute_W(w, k)
        Y = iroot(W.value * N + W.value, k)
        subset = _subset_for(args, cfg, Y)
        means = mean_g(W, k, N, subset, epsilon=epsilon)
        f_map = {
            b: max(0.0, min((g - epsilon / 2) / (1 + epsilon), 1 - 1e-12))
            for b, g in means.per_b.items()
        }
        target = args.target if args.target is not None else s % W.value
        decomp = local_decompose(W, k, s, target, f_map)
        if isinstance(decomp, DecompositionFailure):
            raise CheckFailed(
                f"target {target} mod {W.value} has no majority-weight decomposition"
            )
        f_list = [build_f(W, b, k, N, subset) for b in decomp.parts]
    profile = transference_gauge(f_list, epsilon=epsilon)
    emit_json(profile.to_json(), args.json)
    if profile.mean_each_ok and profile.mean_sum_ok and profile.gauge <= 0:
        raise CheckFailed("mean hypotheses hold but the window gauge is not positive")
    return 0


def cmd_report(args, cfg) -> int:
    k = _positive("k", merged_setting(args, cfg, "k"))
    w = _positive("w", merged_setting(args, cfg, "w"), 2)
    outdir = args.out or cfg.get("outdir")
    if not outdir:
        raise ConfigError("report needs an output directory (--out or outdir=)")
    n_list = [int(x) for x in str(merged_setting(args, cfg, "n_list", "4096")).split(",")]
    if args.dry_run:
        print(f"plan: batch report for k={k}, w={w}, N in {n_list} into {outdir}")
        return 0
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    W = compute_W(w, k)
    r = compute_Rk(k)
    (out / "thresholds.json").write_text(theorem_thresholds(k).to_json(), encoding="utf-8")
    (out / "rk.json").write_text(
        _json_report({"k": k, "Rk": r.value, "factors": [list(f) for f in r.factors]}),
        encoding="utf-8",
    )
    table = power_residues(W, k)
    (out / "sigma.json").write_text(
        _json_report(
            {
                "W": W.value,
                "k": k,
                "phi": W.euler_phi,
                "unit_count": len(table.unit_residues),
                "sigma": {str(b): sigma_b(W, k, b) for b in table.unit_sorted},
            }
        ),
        encoding="utf-8",
    )
    spec = parse_subset_spec(merged_setting(args, cfg, "subset"))
    b_setting = str(merged_setting(args, cfg, "b_list", "all"))
    factor = merged_setting(args, cfg, "grid_factor")
    for N in n_list:
        Y = iroot(W.value * N + W.value, k)
        primes = sieve_primes(max(Y, 100))  # covers every b < W as well
        subset = gen_subset(spec, max(Y, 100), primes=primes)
        means = mean_g(W, k, N, subset, primes=primes)
        body = means.to_json_dict()
        body["W_over_log_N"] = _regime(W.value, N)
        (out / f"means_N{N}.json").write_text(_json_report(body), encoding="utf-8")
        bs = table.unit_sorted if b_setting == "all" else [int(x) for x in b_setting.split(",")]
        rows = []
        for b in bs:
            nu = build_nu(W, b, k, N, primes=primes)
            rows.append(pseudorandom_gauge(nu, factor * (1 << (N - 1).bit_length())).to_json_row())
        (out / f"gauge_N{N}.jsonl").write_text("".join(rows), encoding="utf-8")
    print(f"report written to {out}")
    return 0


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


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="wglab", description=__doc__)
    top.set_defaults(config=None, dry_run=False, json=None, out=None)
    _add_common(top)
    sub = top.add_subparsers(dest="command", required=True)

    p_local = sub.add_parser("local", help="exact local arithmetic")
    p_local.add_argument("local_op", choices=["rk", "w", "sigma", "residues", "decompose"])
    p_local.add_argument("--k", type=int)
    p_local.add_argument("--w", type=int)
    p_local.add_argument("--s", type=int)
    p_local.add_argument("--n", type=int)
    p_local.add_argument("--b", type=int)
    p_local.add_argument("--modulus", type=int)
    p_local.add_argument("--f-const", type=float, default=0.6)
    p_local.set_defaults(func=cmd_local)

    p_wp = sub.add_parser("waring-pair", help="majority-subset sumset covering scans")
    p_wp.add_argument("--q", type=int, required=True)
    p_wp.add_argument("--k", type=int)
    p_wp.add_argument("--s", type=int)
    p_wp.add_argument("--strategy", choices=["exhaustive", "sampled", "structured"], default="exhaustive")
    p_wp.add_argument("--trials", type=int)
    p_wp.add_argument("--seed", type=int)
    p_wp.add_argument("--budget", type=int)
    p_wp.add_argument("--threads", type=int)
    p_wp.set_defaults(func=cmd_waring_pair)

    p_maj = sub.add_parser("majorant", help="weighted sequence means per residue")
    p_maj.add_argument("--k", type=int)
    p_maj.add_argument("--w", type=int)
    p_maj.add_argument("--n", type=int, required=True)
    p_maj.add_argument("--b", type=int)
    p_maj.add_argument("--subset")
    p_maj.add_argument("--epsilon", type=float)
    p_maj.add_argument("--save-seq", help="write the subset-thinned sequence here (binary)")
    p_maj.set_defaults(func=cmd_majorant)

    p_spec = sub.add_parser("spectrum", help="pseudorandomness gauge on the grid")
    p_spec.add_argument("--k", type=int)
    p_spec.add_argument("--w", type=int)
    p_spec.add_argument("--n", type=int, required=True)
    p_spec.add_argument("--b", type=int)
    p_spec.add_argument("--grid-factor", type=int, dest="grid_factor")
    p_spec.add_argument("--csv", help="dump the full spectrum as CSV")
    p_spec.add_argument("--assert-gauge-below", type=float)
    p_spec.set_defaults(func=cmd_spectrum)

    p_arcs = sub.add_parser("arcs", help="major/minor classification of a frequency")
    p_arcs.add_argument("--alpha", type=float, required=True)
    p_arcs.add_argument("--k", type=int)
    p_arcs.add_argument("--w", type=int)
    p_arcs.add_argument("--n", type=int, required=True)
    p_arcs.add_argument("--sigma", type=float)
    p_arcs.add_argument("--sigma0", type=float)
    p_arcs.set_defaults(func=cmd_arcs)

    p_restr = sub.add_parser("restrict", help="restriction-norm constants")
    p_restr.add_argument("--k", type=int)
    p_restr.add_argument("--w", type=int)
    p_restr.add_argument("--n", type=int, required=True)
    p_restr.add_argument("--b", type=int)
    p_restr.add_argument("--exponent", type=float)
    p_restr.add_argument("--subset")
    p_restr.add_argument("--spike", action="store_true", help="use the spike control sequence")
    p_restr.set_defaults(func=cmd_restrict)

    p_count = sub.add_parser("count", help="representation counts per n")
    p_count.add_argument("--k", type=int)
    p_count.add_argument("--s", type=int)
    p_count.add_argument("--lo", type=int, default=0)
    p_count.add_argument("--hi", type=int, required=True)
    p_count.add_argument("--method", choices=["brute", "fft", "bitset"], default="fft")
    p_count.add_argument("--subset")
    p_count.add_argument("--csv")
    p_count.set_defaults(func=cmd_count)

    p_cov = sub.add_parser("coverage", help="admissible-window coverage probe")
    p_cov.add_argument("--k", type=int)
    p_cov.add_argument("--s", type=int)
    p_cov.add_argument("--lo", type=int, required=True)
    p_cov.add_argument("--hi", type=int, required=True)
    p_cov.add_argument("--subset")
    p_cov.add_argument("--no-filter", action="store_true")
    p_cov.add_argument("--csv")
    p_cov.add_argument("--exceptions-file")
    p_cov.set_defaults(func=cmd_coverage)

    p_tr = sub.add_parser("transfer", help="many-fold convolution gauge")
    p_tr.add_argument("--k", type=int)
    p_tr.add_argument("--w", type=int)
    p_tr.add_argument("--s", type=int, required=True)
    p_tr.add_argument("--n", type=int, required=True)
    p_tr.add_argument("--epsilon", type=float)
    p_tr.add_argument("--target", type=int)
    p_tr.add_argument("--subset")
    p_tr.add_argument("--indicator", action="store_true", help="use interval indicators")
    p_tr.set_defaults(func=cmd_transfer)

    p_rep = sub.add_parser("report", help="batch cross-product report")
    p_rep.add_argument("--k", type=int)
    p_rep.add_argument("--w", type=int)
    p_rep.add_argument("--subset")
    p_rep.set_defaults(func=cmd_report)

    for p in (p_local, p_wp, p_maj, p_spec, p_arcs, p_restr, p_count, p_cov, p_tr, p_rep):
        _add_common(p)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        code = args.func(args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, LimitExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
