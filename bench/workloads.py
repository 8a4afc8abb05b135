"""The benchmark's workloads: inputs made from a seed, the library calls
they time, and a check of every call's output by a second route.

Each workload is a setup function, which makes the inputs, and an ops
generator, which yields one Op per top-level library call and receives
the call's return value back.  Code between the yields (bookkeeping that
a user would not run) is not timed.  Each check recomputes what it
checks by a route other than the code that produced the output; the one
self-check it calls, LocalDecomposition.verify, runs beside such a
recomputation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import shutil
from dataclasses import dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from wglab import bitsets, cli, core_arith, local_structure, majorant, representation, spectral

K = 2
R2 = 24  # 2^3 * 3: a sum of s squares of primes above 3 is = s (mod 24)


class CheckError(Exception):
    """An op's output disagrees with its check."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Op:
    """One timed top-level library call.

    output maps the return value to what is checked and digested (for the
    CLI: its exit code and the files it wrote); check raises CheckError,
    or any other exception, when that output is wrong.
    """

    fn: Callable
    args: tuple
    kwargs: dict = field(default_factory=dict)
    check: Callable | None = None
    output: Callable | None = None


# ---------------------------------------------------------------- helpers


def _prime_mask(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def _modulus(w: int) -> int:
    """prod p^(2k) over primes p <= w."""
    return math.prod(int(p) ** (2 * K) for p in np.flatnonzero(_prime_mask(w)))


def _unit_powers(m: int) -> list[int]:
    return sorted({pow(z, K, m) for z in range(1, m) if math.gcd(z, m) == 1})


def _phi(m: int) -> int:
    return sum(1 for z in range(1, m + 1) if math.gcd(z, m) == 1)


def _window_bits(mask: int, lo: int, hi: int) -> np.ndarray:
    """Bits lo..hi of a bitmask as a bool array."""
    width = hi - lo + 1
    chunk = (mask >> lo) & ((1 << width) - 1)
    raw = np.frombuffer(chunk.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width].astype(bool)


def _weights(Wv: int, b: int, N: int, members=None) -> np.ndarray:
    """nu (or f, over the primes members keeps) by definition: the weight
    phi(W) / (W sigma(b)) k p log p at n where W n + b = p^2, p prime."""
    Y = math.isqrt(Wv * N + b)
    primes = _prime_mask(Y)
    if members is not None:
        primes &= members[: Y + 1]
    p = np.flatnonzero(primes)
    n, rem = np.divmod(p * p - b, Wv)
    hit = (rem == 0) & (n >= 1) & (n <= N)
    phi, units = _phi(Wv), _unit_powers(Wv)
    values = np.zeros(N)
    values[n[hit] - 1] = phi / (Wv * (phi // len(units))) * K * p[hit] * np.log(p[hit])
    return values


def _gauge_max(values: np.ndarray, M: int) -> float:
    """max over j of |sum_n (nu(n) - 1) e(n j / M)| / N, by one inverse FFT
    of the difference (the program transforms nu and the interval apart)."""
    N = values.size
    arr = np.zeros(M)
    arr[1 : N + 1] = values - 1
    return float(np.abs(np.fft.ifft(arr)).max()) * M / N


def _line_reach(primes: np.ndarray, s: int, hi: int) -> np.ndarray:
    """s-fold sums of prime squares up to hi, by s-1 boolean shift-ors."""
    squares = [int(p) ** 2 for p in primes if int(p) ** 2 <= hi]
    base = np.zeros(hi + 1, dtype=bool)
    base[squares] = True
    cur = base
    for _ in range(s - 1):
        nxt = np.zeros(hi + 1, dtype=bool)
        for v in squares:
            nxt[v:] |= cur[: hi + 1 - v]
        cur = nxt
    return cur


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def digest(obj) -> str:
    """SHA-256 of a canonical byte encoding of an op's output."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            _feed(h, f.name)
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, (set, frozenset)):
        _feed(h, sorted(obj))
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj) + obj)
    elif isinstance(obj, int) and not isinstance(obj, bool):  # bitmasks run to 1e6 bits
        raw = obj.to_bytes(obj.bit_length() // 8 + 1, "little", signed=True)
        h.update(b"i%d:" % len(raw) + raw)
    elif obj is None or isinstance(obj, (bool, float, complex, str, np.generic)):
        h.update(repr(obj).encode() + b";")
    else:
        raise TypeError(f"no canonical encoding for {type(obj).__name__}")


# ----------------------------------------------------------------- report


REPORT_W = 3
REPORT_DELTA = 0.95
REPORT_RECHECKED = 4  # gauge rows per N whose maximum is recomputed


def report_setup(seed: int, workdir: Path, n_list=(16384, 32768)):
    out = workdir / "report"
    cfg = workdir / "report.cfg"
    cfg.write_text(
        f"k={K}\nw={REPORT_W}\nn_list={','.join(map(str, n_list))}\n"
        f"subset=bernoulli:{REPORT_DELTA}:{seed}\nb_list=all\n",
        encoding="utf-8",
    )
    return SimpleNamespace(
        seed=seed,
        n_list=n_list,
        out=out,
        argv=["report", "--config", str(cfg), "--out", str(out)],
    )


def report_ops(inp):
    shutil.rmtree(inp.out, ignore_errors=True)
    yield Op(
        cli.main,
        (inp.argv,),
        output=partial(_read_report, inp.out),
        check=partial(check_report, inp),
    )


def _read_report(out: Path, code) -> dict:
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit": code, "files": files}


def check_report(inp, out: dict) -> None:
    expect(out["exit"] == 0, f"report exited {out['exit']}")
    files = out["files"]
    want = {"thresholds.json", "rk.json", "sigma.json"}
    for N in inp.n_list:
        want |= {f"means_N{N}.json", f"gauge_N{N}.jsonl"}
    expect(set(files) == want, f"report files {sorted(files)} != {sorted(want)}")
    docs = {name: json.loads(raw) for name, raw in files.items() if name.endswith(".json")}
    expect(docs["rk.json"]["Rk"] == R2, "rk.json")
    W = _modulus(REPORT_W)
    units = _unit_powers(W)
    phi = _phi(W)
    sig = docs["sigma.json"]
    expect(phi % len(units) == 0, "phi(W) not a multiple of the unit power count")
    expect(
        sig["W"] == W and sig["phi"] == phi and sig["unit_count"] == len(units),
        "sigma.json header",
    )
    expect(sig["sigma"] == {str(b): phi // len(units) for b in units}, "sigma.json not phi/#units")
    for N in inp.n_list:
        means = docs[f"means_N{N}.json"]
        expect(means["N"] == N and means["W"] == W, f"means_N{N} header")
        expect(set(means["per_b"]) == {str(b) for b in units}, f"means_N{N} residues")
        expect(
            all(math.isfinite(v) and v >= 0 for v in means["per_b"].values()),
            f"means_N{N} values",
        )
        rows = [json.loads(line) for line in files[f"gauge_N{N}.jsonl"].splitlines()]
        M = 8 * (1 << (N - 1).bit_length())
        expect(sorted(r["b"] for r in rows) == units, f"gauge_N{N}: rows are not one per unit")
        for r in rows:
            expect(
                r["N"] == N and r["M"] == M and r["k"] == K and r["w"] == REPORT_W,
                f"gauge_N{N} row header {r}",
            )
            expect(math.isfinite(r["value"]) and r["value"] >= 0, f"gauge_N{N} value {r}")
        for r in random.Random(inp.seed + N).sample(rows, REPORT_RECHECKED):
            D = _gauge_max(_weights(W, r["b"], N), M)
            expect(_close(r["value"], D, 1e-9), f"gauge_N{N} b = {r['b']}: {r['value']} != {D}")


# ----------------------------------------------------------- transference


TRANSFERENCE_W = 3
TRANSFERENCE_DELTA = 0.97
EPSILON = 0.1
RESTRICTION_EXPONENT = 6.5
COVER_S = 5  # the coverage probes at the end of the chain
SUB_WIDTH = 5000  # the sub-window a coverage check recomputes by FFT


def transference_setup(seed: int, workdir: Path, s=44, n_list=(2**15, 2**16), n_spectral=2**19):
    W = core_arith.compute_W(TRANSFERENCE_W, K)
    Wv = _modulus(TRANSFERENCE_W)
    g = math.gcd(R2, Wv)
    # the chain ends with a direct probe: is every admissible n in [3N, 6N]
    # a sum of COVER_S squares of the subset's primes?
    rng = random.Random(seed)
    cover = {}
    for N in n_list:
        a = rng.randint(3 * N, 6 * N - SUB_WIDTH + 1)
        cover[N] = ((3 * N, 6 * N), (a, a + SUB_WIDTH - 1))
    return SimpleNamespace(
        W=W,
        Wv=Wv,
        s=s,
        spec=majorant.parse_subset_spec(f"bernoulli:{TRANSFERENCE_DELTA}:{seed}"),
        n_list=n_list,
        n_spectral=n_spectral,
        targets=[t for t in range(Wv) if (t - s) % g == 0],
        units=_unit_powers(Wv),
        cover=cover,
    )


def transference_ops(inp):
    W, s = inp.W, inp.s
    for i, N in enumerate(inp.n_list):
        Y = math.isqrt(inp.Wv * N + inp.Wv)
        subset = yield Op(
            majorant.gen_subset, (inp.spec, max(Y, 100)), check=partial(check_subset, inp, Y)
        )
        means = yield Op(
            majorant.mean_g,
            (W, K, N, subset),
            {"epsilon": EPSILON},
            check=partial(check_means, inp, N),
        )
        f_map = {
            b: max(0.0, min((g - EPSILON / 2) / (1 + EPSILON), 1 - 1e-12))
            for b, g in means.per_b.items()
        }
        # the admissible targets split between the sizes, each decomposed
        # once a pass; every size also decomposes the target s that build_f uses
        targets = sorted({s % inp.Wv, *inp.targets[i :: len(inp.n_list)]})
        decomps = {}
        for t in targets:
            decomps[t] = yield Op(
                local_structure.local_decompose,
                (W, K, s, t, f_map),
                check=partial(check_decomposition, inp, f_map, t),
            )
        f_list = []
        for b in decomps[s % inp.Wv].parts:
            f = yield Op(
                majorant.build_f,
                (W, b, K, N, subset),
                check=partial(check_sequence, inp, N, b, means.per_b[b], subset.members),
            )
            f_list.append(f)
        yield Op(
            representation.transference_gauge,
            (f_list,),
            {"epsilon": EPSILON},
            check=partial(check_profile, f_list),
        )
        window, sub = inp.cover[N]
        yield Op(
            representation.coverage_probe,
            (subset, K, COVER_S, window),
            check=partial(check_coverage, subset, COVER_S, window, sub),
        )
    N = inp.n_spectral
    nu = yield Op(majorant.build_nu, (W, 1, K, N), check=partial(check_sequence, inp, N, 1, None, None))
    yield Op(spectral.pseudorandom_gauge, (nu,), check=partial(check_gauge, nu))
    yield Op(spectral.restriction_norm, (nu, RESTRICTION_EXPONENT), check=partial(check_restriction, nu))


def check_subset(inp, Y: int, subset) -> None:
    primes = _prime_mask(subset.limit)
    expect(subset.limit >= Y, "subset too short")
    expect(not (subset.members & ~primes).any(), "subset keeps a non-prime")
    expect(subset.prime_count == int(primes.sum()), "prime count")
    expect(subset.kept_count == int(subset.members.sum()), "kept count")
    expect(
        abs(subset.density - TRANSFERENCE_DELTA) < 0.03,
        f"density {subset.density} far from {TRANSFERENCE_DELTA}",
    )


def check_means(inp, N: int, means) -> None:
    expect(means.N == N and means.W == inp.Wv, "mean report header")
    expect(sorted(means.per_b) == inp.units, "mean report residues")
    vals = list(means.per_b.values())
    expect(all(math.isfinite(v) and v >= 0 for v in vals), "mean values")
    expect(_close(means.aggregate, math.fsum(vals) / len(vals), 1e-12), "aggregate mean")


def check_decomposition(inp, f_map: dict, t: int, d) -> None:
    expect(isinstance(d, local_structure.LocalDecomposition), f"target {t}: {d}")
    d.verify()
    expect(d.target == t and d.modulus == inp.Wv and len(d.parts) == inp.s, f"target {t} shape")
    expect(sum(d.parts) % inp.Wv == t, f"target {t}: parts sum to the wrong residue")
    expect(all(f_map.get(b, 0) > 0 for b in d.parts), f"target {t}: part outside the support")
    total = math.fsum(f_map[b] for b in d.parts)
    expect(abs(d.total - total) <= 1e-9 and total > inp.s / 2, f"target {t}: total {d.total}")


def check_sequence(inp, N: int, b: int, mean_b, members, seq) -> None:
    """Weights equal to the definition's, over the primes the subset keeps,
    and, for a thinned sequence, the mean_g value of its class."""
    expect(seq.N == N and seq.W == inp.Wv and seq.b == b and seq.k == K, "sequence header")
    want = _weights(inp.Wv, b, N, members)
    expect(np.array_equal(seq.values != 0, want != 0), "support is not the prime squares")
    expect(np.allclose(seq.values, want, rtol=1e-12, atol=0), "weights")
    if mean_b is not None:
        expect(_close(math.fsum(seq.values) / N, mean_b, 1e-9), f"mean of class {b} != mean_g")


def check_profile(f_list: list, prof) -> None:
    N = f_list[0].N
    expect(prof.s == len(f_list) and prof.N == N, "profile header")
    expect(
        all(_close(m, math.fsum(f.values) / N, 1e-12) for m, f in zip(prof.means, f_list, strict=True)),
        "profile means != sequence means",
    )
    lo, hi = prof.window
    expect(0 < lo <= hi < prof.s * N and prof.values.size == hi - lo + 1, "profile window")
    expect(np.isfinite(prof.values).all() and (prof.values >= 0).all(), "profile values")
    expect(prof.gauge == float(prof.values.min()) and prof.gauge > 0, f"gauge {prof.gauge}")


def check_gauge(nu, rep) -> None:
    N = nu.N
    expect(rep.N == N and rep.M == 8 * (1 << (N - 1).bit_length()), "gauge grid")
    expect(math.isfinite(rep.D) and rep.D >= 0, f"gauge D = {rep.D}")

    def direct(alpha: float) -> float:
        return abs(spectral.transform_at(nu, alpha) - spectral.interval_transform_at(N, alpha)) / N

    expect(_close(direct(rep.argmax_alpha), rep.D, 1e-9), "D at the argmax does not recompute")
    rng = random.Random(rep.M)
    for j in rng.sample(range(rep.M), 16):
        expect(direct(j / rep.M) <= rep.D * (1 + 1e-9), f"grid point {j} beats the maximum")


def check_restriction(seq, rep) -> None:
    """The grid norm again, from the half spectrum of a real FFT: the bins
    above M/2 mirror those below it."""
    N, M, q = seq.N, rep.M, rep.exponent
    expect(rep.N == N and M == 8 * (1 << (N - 1).bit_length()), "restriction grid")
    arr = np.zeros(M)
    arr[1 : N + 1] = seq.values
    mag = np.abs(np.fft.rfft(arr)) ** q
    norm = ((mag[0] + mag[-1] + 2 * mag[1:-1].sum()) / M) ** (1 / q)
    expect(_close(rep.norm, norm, 1e-9), f"norm {rep.norm} != {norm}")
    expect(_close(rep.constant, rep.norm / N ** (1 - 1 / q), 1e-12), "constant")


# ----------------------------------------------------------------- sumset


SUMSET_DELTA = 0.95
SUMSET_S = 5


def sumset_setup(
    seed: int,
    workdir: Path,
    windows=((200_000, 400_000), (500_000, 1_000_000)),
    drop=("drop-class:40:3", 44, (100_000, 110_000)),
    count_hi=200_000,
    exhaustive=((41, 3, "pair", 167_960), (49, 4, "not-pair", 49_296)),
    sampled=(81, 16, 20_000),
    sub_width=5000,
):
    top = max(hi for _, hi in windows)
    subset = majorant.gen_subset(
        majorant.parse_subset_spec(f"bernoulli:{SUMSET_DELTA}:{seed}"), max(math.isqrt(top), 100)
    )
    drop_spec, drop_s, drop_window = drop
    drop_subset = majorant.gen_subset(
        majorant.parse_subset_spec(drop_spec), max(math.isqrt(drop_window[1]), 100)
    )
    rng = random.Random(seed)
    subwindows = []
    for lo, hi in windows:
        a = rng.randint(lo, hi - sub_width + 1)
        subwindows.append((a, a + sub_width - 1))
    return SimpleNamespace(
        seed=seed,
        subset=subset,
        windows=windows,
        subwindows=subwindows,
        drop_subset=drop_subset,
        drop_s=drop_s,
        drop_window=drop_window,
        count_hi=count_hi,
        exhaustive=[(core_arith.FactoredModulus.from_value(q), s_, v, t) for q, s_, v, t in exhaustive],
        sampled=(core_arith.FactoredModulus.from_value(sampled[0]),) + tuple(sampled[1:]),
    )


def sumset_ops(inp):
    for window, sub in zip(inp.windows, inp.subwindows):
        yield Op(
            representation.coverage_probe,
            (inp.subset, K, SUMSET_S, window),
            check=partial(check_coverage, inp.subset, SUMSET_S, window, sub),
        )
    yield Op(
        representation.coverage_probe,
        (inp.drop_subset, K, inp.drop_s, inp.drop_window),
        check=partial(check_coverage, inp.drop_subset, inp.drop_s, inp.drop_window, None),
    )
    yield Op(
        representation.count_representations,
        (inp.subset, K, SUMSET_S, inp.count_hi),
        {"method": "bitset"},
        check=partial(check_reach_counts, inp.subset, SUMSET_S, inp.count_hi),
    )
    for q, s, verdict, trials in inp.exhaustive:
        yield Op(
            local_structure.waring_pair_check,
            (q, K, s, "exhaustive"),
            check=partial(check_pair, q.value, s, "exhaustive", verdict, trials),
        )
    q, s, trials = inp.sampled
    yield Op(
        local_structure.waring_pair_check,
        (q, K, s, "sampled"),
        {"trials": trials, "seed": inp.seed},
        check=partial(check_pair, q.value, s, "sampled", "no-violation-found", trials),
    )


def check_coverage(subset, s: int, window, sub, out) -> None:
    """Report consistent with its own bitmask, and the bitmask equal to the
    FFT counts on a sub-window (s = 5), or to a boolean stepwise sumset on
    the whole window where FFT counts would overflow (s = 44)."""
    report, reach = out
    lo, hi = window
    expect(report.window == (lo, hi) and report.s == s and report.modulus == R2, "coverage header")
    expect(reach >> (hi + 1) == 0, "bitmask not clipped to the window top")
    flags = _window_bits(reach, lo, hi)
    ns = np.arange(lo, hi + 1)
    adm = (ns - s) % R2 == 0
    expect(report.admissible_count == int(adm.sum()), "admissible count")
    expect(report.represented_count == int((flags & adm).sum()), "represented count")
    expect(report.exceptions == ns[adm & ~flags].tolist(), "exception list")
    if sub is not None:
        a, b = sub
        counts = representation.count_representations(subset, K, s, b, method="fft")
        expect(np.array_equal(flags[a - lo : b - lo + 1], counts[a : b + 1] > 0), f"reach on {sub}")
    else:
        ref = _line_reach(subset.primes(), s, hi)
        expect(np.array_equal(flags, ref[lo:]), "reach differs from the stepwise sumset")


def check_reach_counts(subset, s: int, hi: int, flags) -> None:
    expect(flags.shape == (hi + 1,) and np.isin(flags, (0, 1)).all(), "reach flags shape")
    counts = representation.count_representations(subset, K, s, hi, method="fft")
    expect(np.array_equal(flags == 1, counts > 0), "bitset reach differs from FFT counts")


def check_pair(q: int, s: int, strategy: str, verdict: str, trials: int, rep) -> None:
    expect(
        (rep.q, rep.k, rep.s, rep.strategy) == (q, K, s, strategy),
        f"report header {rep.q, rep.k, rep.s, rep.strategy}",
    )
    expect((rep.verdict, rep.trials) == (verdict, trials), f"{rep.verdict}/{rep.trials} at q = {q}")
    units = _unit_powers(q)
    m0 = len(units) // 2 + 1
    if verdict == "pair":
        expect(trials == math.comb(len(units), m0) and rep.witness is None, "pair count")
    elif verdict == "not-pair":
        first = next(itertools.islice(itertools.combinations(units, m0), trials - 1, None))
        expect(rep.witness == list(first), "witness is not the subset at rank trials - 1")
        reach = bitsets.cyclic_power_stepwise(sum(1 << b for b in first), s, q)
        g = math.gcd(R2, q)
        missed = [a for a in range(q) if (a - s) % g == 0 and not reach >> a & 1]
        expect(missed and rep.uncovered == missed, "witness does not re-verify stepwise")
    else:
        expect(rep.witness is None and rep.uncovered is None, "sampled scan reports a witness")


WORKLOADS = {
    "report": (report_setup, report_ops),
    "transference": (transference_setup, transference_ops),
    "sumset": (sumset_setup, sumset_ops),
}
