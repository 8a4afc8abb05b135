"""End-to-end verification battery.

One test per acceptance check, each printing a PASS/FAIL line with the
measured values and elapsed time (run with -s to see every line).  The
checks pin both the tolerances and the time budgets.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from wglab.core_arith import FactoredModulus, compute_Rk, compute_W, sieve_primes
from wglab.local_structure import (
    DecompositionFailure,
    LocalDecomposition,
    local_decompose,
    power_class_count,
    power_residues,
    sigma_b,
    waring_pair_check,
)
from wglab.majorant import SubsetSpec, WeightedSequence, build_f, build_nu, gen_subset, mean_g
from wglab.representation import (
    count_representations,
    coverage_probe,
    transference_gauge,
)
from wglab.spectral import (
    exp_sum_factor,
    exp_sum_Sstar,
    major_arc_residual,
    pseudorandom_gauge,
)


def finish(name, budget, t0, ok, detail):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, over the {budget:.0f}s budget"


def test_acceptance_congruence_modulus_table():
    t0 = time.perf_counter()
    values = [compute_Rk(k).value for k in range(2, 7)]
    ok = values == [24, 2, 240, 2, 504]
    primes = list(map(int, sieve_primes(10**4).primes()))
    for k in range(2, 7):
        rk = compute_Rk(k).value
        ok = ok and all(pow(p, k, rk) == 1 for p in primes if p > rk)
    finish("congruence modulus table + oracle", 1, t0, ok, f"R_k = {values}")


def test_acceptance_root_count_constancy():
    t0 = time.perf_counter()
    details = []
    ok = True
    for w, k in ((2, 2), (3, 2), (2, 3), (3, 3), (5, 2)):
        W = compute_W(w, k)
        table = power_residues(W, k)
        units = table.units.tolist()
        sigmas = {sigma_b(W, k, b) for b in units}
        phi = W.euler_phi
        const = len(sigmas) == 1
        quotient = sigmas == {phi // len(units)}
        total = sum(int(table.counts[b]) for b in units) == phi
        ok = ok and const and quotient and total
        details.append(f"(w={w},k={k}): sigma={min(sigmas)} x{len(units)}")
    finish("root-count constancy", 30, t0, ok, "; ".join(details))


def test_acceptance_power_class_counts():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for p, k in ((3, 2), (5, 2), (7, 2), (3, 3)):
        units = power_residues(FactoredModulus.from_value(p), k).units.tolist()
        for a in units:
            count = power_class_count(p, k, a)  # also self-asserts the closed form
            ok = ok and count >= 1
            checked += 1
    finish("power residue class counts", 60, t0, ok, f"{checked} (p, k, a) cases")


def test_acceptance_majority_sumset_covering():
    t0 = time.perf_counter()
    r16 = waring_pair_check(compute_W(2, 2), 2, 16, "exhaustive")
    r5 = waring_pair_check(FactoredModulus.from_value(5), 2, 2, "exhaustive")
    q81 = FactoredModulus.from_value(81)
    rs = waring_pair_check(q81, 2, 16, "sampled", trials=100_000, seed=20240810)
    rt = waring_pair_check(q81, 2, 16, "structured")
    ok = (
        r16.verdict == "pair"
        and r5.verdict == "not-pair"
        and r5.witness == [1, 4]
        and r5.uncovered == [1, 4]
        and rs.verdict == "no-violation-found"
        and rs.trials == 100_000
        and rt.verdict == "no-violation-found"
    )
    finish(
        "majority sumset covering",
        300,
        t0,
        ok,
        f"16: {r16.verdict}; 5: {r5.verdict} {r5.witness}; 81: {rs.trials} samples + "
        f"{rt.trials} structured, clean",
    )


@pytest.mark.slow
def test_acceptance_majority_sumset_covering_exhaustive_tier():
    t0 = time.perf_counter()
    rep = waring_pair_check(
        FactoredModulus.from_value(81), 2, 16, "exhaustive", threads=0
    )
    ok = rep.verdict == "pair" and rep.trials == math.comb(27, 14)
    finish("exhaustive covering at q=81", 3600, t0, ok, f"{rep.trials} subsets, {rep.verdict}")


def test_acceptance_majorant_mean():
    t0 = time.perf_counter()
    W = compute_W(2, 2)
    dev12 = abs(build_nu(W, 1, 2, 2**12).mean() - 1)
    dev17 = abs(build_nu(W, 1, 2, 2**17).mean() - 1)
    ok = dev17 < dev12 and dev17 < 0.25
    finish(
        "majorant mean trend",
        60,
        t0,
        ok,
        f"|mean-1|: {dev12:.4f} at 2^12 -> {dev17:.4f} at 2^17",
    )


def test_acceptance_pseudorandom_gauge():
    t0 = time.perf_counter()
    W = compute_W(2, 2)
    D = {}
    for e in (12, 17):
        N = 2**e
        D[e] = pseudorandom_gauge(build_nu(W, 1, 2, N), 8 * N).D
    ok = D[17] < D[12] and D[17] < 0.5
    finish(
        "pseudorandomness gauge decay",
        300,
        t0,
        ok,
        f"D(2^12) = {D[12]:.4f}, D(2^17) = {D[17]:.4f}, need decay and < 0.5",
    )


def test_acceptance_exponential_sum_laws():
    t0 = time.perf_counter()
    W = compute_W(3, 2)
    units = [z for z in range(1, 1296) if math.gcd(z, 1296) == 1]
    rng = random.Random(20240810)
    worst_gap = 0.0
    checked = 0
    while checked < 100:
        q = rng.randint(2, 1000)
        a = rng.randint(1, q - 1)
        if math.gcd(a, q) != 1:
            continue
        z = rng.choice(units)
        worst_gap = max(worst_gap, exp_sum_factor(q, a, W, 2, z).identity_gap)
        checked += 1
    ok = worst_gap < 1e-9

    worst_vanish = 0.0
    for u in (4, 8, 16, 9, 27, 12, 72):
        for _ in range(3):
            a = rng.choice([x for x in range(1, u) if math.gcd(x, u) == 1])
            z = rng.choice(units)
            parts = exp_sum_factor(u, a, W, 2, z)
            assert parts.vanishing_forced
            worst_vanish = max(worst_vanish, abs(parts.s_u))
    ok = ok and worst_vanish < 1e-9

    W256 = compute_W(2, 4)
    odd = [z for z in range(1, 256, 2)]
    bs = sorted({pow(z, 4, 256) for z in odd})
    worst_zsum = 0.0
    for q in (2, 4):
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            for b in bs:
                zs = [z for z in odd if pow(z, 4, 256) == b]
                total = sum(exp_sum_Sstar(q, a, W256, 4, b, z).value for z in zs)
                worst_zsum = max(worst_zsum, abs(total))
    ok = ok and worst_zsum < 1e-6
    finish(
        "exponential sum laws",
        60,
        t0,
        ok,
        f"factor gap {worst_gap:.2e}, forced vanish {worst_vanish:.2e}, "
        f"root-sum collapse {worst_zsum:.2e}",
    )


def test_acceptance_major_arc_model():
    t0 = time.perf_counter()
    W = compute_W(2, 2)
    nus = {e: build_nu(W, 1, 2, 2**e) for e in (12, 17)}
    rows = []
    ok = True
    for q in (1, 2, 3, 4):
        for a in range(q) if q == 1 else range(1, q):
            if q > 1 and math.gcd(a, q) != 1:
                continue
            res = {e: major_arc_residual(nus[e], q, a)[0] for e in (12, 17)}
            decays = res[17] < res[12]
            ok = ok and decays
            if q == 1:
                ok = ok and res[17] < 0.1
            rows.append(f"q={q},a={a}: {res[12]:.4f}->{res[17]:.4f}")
    finish("major-arc model residuals", 300, t0, ok, "; ".join(rows))


def test_acceptance_restriction_constant():
    t0 = time.perf_counter()
    from wglab.spectral import restriction_norm

    W = compute_W(2, 2)
    consts = []
    for e in range(12, 17):
        N = 2**e
        sub = gen_subset(SubsetSpec.all(), math.isqrt(16 * N + 16) + 1)
        consts.append(restriction_norm(build_f(W, 1, 2, N, sub), 6.5).constant)
    spread = max(consts) / min(consts)
    spike = [restriction_norm(WeightedSequence.spike(2**e), 6.5).constant for e in (12, 16)]
    growth = spike[1] / spike[0]
    ok = spread <= 2 and growth >= 1.5
    finish(
        "restriction constants",
        300,
        t0,
        ok,
        f"thinned spread x{spread:.3f} (<= 2), spike growth x{growth:.3f} (>= 1.5)",
    )


def test_acceptance_counting_exactness():
    t0 = time.perf_counter()
    sub = gen_subset(SubsetSpec.all(), 100)
    powers = [p * p for p in map(int, sub.primes())]
    ok = True
    for s in (2, 3):
        brute = count_representations(sub, 2, s, 5000, method="brute")
        fft = count_representations(sub, 2, s, 5000, method="fft")
        ok = ok and (brute == fft).all()
        full = count_representations(sub, 2, s, s * max(powers), method="fft")
        ok = ok and int(full.sum()) == len(powers) ** s
    finish("counting exactness", 60, t0, ok, "fft == brute on [0, 5000], mass conserved")


def test_acceptance_coverage_probes():
    t0 = time.perf_counter()
    ra, _ = coverage_probe(gen_subset(SubsetSpec.all(), 150), 2, 5, (5000, 20000))
    sub = gen_subset(SubsetSpec.drop_classes(40, {3}), 340)
    rb, _ = coverage_probe(sub, 2, 44, (100_000, 110_000))
    ok = (
        ra.exceptions == []
        and rb.exceptions == []
        and abs(sub.density - 15 / 16) < 0.05
    )
    finish(
        "coverage probes",
        120,
        t0,
        ok,
        f"five squares: {ra.admissible_count} admissible, 0 missed; "
        f"44-fold at density {sub.density:.3f}: {rb.admissible_count} admissible, 0 missed",
    )


def test_acceptance_local_decomposition():
    t0 = time.perf_counter()
    ok = True
    for w, k, s in ((2, 2, 16), (3, 2, 44)):
        W = compute_W(w, k)
        table = power_residues(W, k)
        g = compute_Rk(k).gcd_value(W)
        f_good = {b: 0.6 for b in table.units.tolist()}
        reachable = 0
        for n in range(W.value):
            if (n - s) % g != 0:
                continue
            res = local_decompose(W, k, s, n, f_good)
            ok = ok and isinstance(res, LocalDecomposition) and res.total > s / 2
            reachable += 1
        assert reachable > 0
        f_bad = {b: 0.4 for b in table.units.tolist()}
        bad = local_decompose(W, k, s, s % W.value, f_bad)
        ok = ok and isinstance(bad, DecompositionFailure) and bad.optimum <= s / 2

    # dynamic program against brute force on every small instance
    rng = random.Random(20240810)
    for m, k in ((16, 2), (21, 2), (13, 2), (11, 2)):
        fmq = FactoredModulus.from_value(m)
        units = power_residues(fmq, k).units.tolist()
        assert len(units) <= 8
        for s in (2, 4, 6):
            f = {b: rng.choice([0.0, round(rng.random(), 3)]) for b in units}
            support = [b for b in units if f[b] > 0]
            best = {}
            if support:
                for combo in itertools.product(support, repeat=s):
                    n = sum(combo) % m
                    v = sum(f[b] for b in combo)
                    if v > best.get(n, -1):
                        best[n] = v
            for n in range(m):
                res = local_decompose(fmq, k, s, n, f)
                if isinstance(res, DecompositionFailure):
                    got = res.optimum
                else:
                    got = res.total
                if n not in best:
                    ok = ok and got is None
                else:
                    ok = ok and got == pytest.approx(best[n], abs=1e-9)
    finish("local decomposition program", 60, t0, ok, "all admissible targets beat s/2")


def _indicator_convolution(N, s, n):
    total = 0
    for j in range(s + 1):
        top = n - 1 - j * N
        if top >= s - 1:
            total += (-1) ** j * math.comb(s, j) * math.comb(top, s - 1)
    return total


def test_acceptance_transference_gauge():
    t0 = time.perf_counter()
    ok = True
    N = 2**14
    for s in (2, 3):
        prof = transference_gauge([WeightedSequence.indicator(N)] * s, epsilon=0.1)
        lo, hi = prof.window
        for n in map(int, np.linspace(lo, hi, 10).astype(int)):
            expected = _indicator_convolution(N, s, n) / N ** (s - 1)
            ok = ok and prof.values[n - lo] == pytest.approx(expected, rel=1e-6)

    W = compute_W(2, 2)
    k, s, eps = 2, 44, 0.1
    sub = gen_subset(SubsetSpec.all(), math.isqrt(16 * N + 16) + 1)
    means = mean_g(W, k, N, sub, epsilon=eps)
    f_map = {
        b: max(0.0, min((g - eps / 2) / (1 + eps), 1 - 1e-12))
        for b, g in means.per_b.items()
    }
    decomp = local_decompose(W, k, s, s % 16, f_map)
    assert isinstance(decomp, LocalDecomposition)
    f_list = [build_f(W, b, k, N, sub) for b in decomp.parts]
    prof = transference_gauge(f_list, epsilon=eps)
    hyp = prof.mean_each_ok and prof.mean_sum_ok
    positive = prof.gauge > 0
    ok = ok and hyp and positive
    finish(
        "transference gauge",
        300,
        t0,
        ok,
        f"indicator closed form ok; hypotheses {'hold' if hyp else 'fail'}, "
        f"window gauge = {prof.gauge:.3e} (need > 0)",
    )
