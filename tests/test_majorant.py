import math
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wglab import majorant
from wglab.core_arith import (
    FactoredModulus,
    LimitExceededError,
    compute_W,
    iroot,
    sieve_primes,
)
from wglab.local_structure import _vector_pow_mod, power_residues
from wglab.majorant import (
    SubsetSpec,
    WeightedSequence,
    _hits,
    _weights,
    build_f,
    build_nu,
    MeanReport,
    gen_subset,
    mean_g,
    parse_subset_spec,
    support_index,
)


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestSubsets:
    def test_all_density(self):
        sub = gen_subset(SubsetSpec.all(), 10**4)
        assert sub.density == 1.0
        assert sub.kept_count == 1229

    def test_bernoulli_concentration(self):
        sub = gen_subset(SubsetSpec.bernoulli(0.5, 42), 10**4)
        assert 0.45 <= sub.density <= 0.55

    def test_bernoulli_deterministic(self):
        a = gen_subset(SubsetSpec.bernoulli(0.3, 7), 5000)
        b = gen_subset(SubsetSpec.bernoulli(0.3, 7), 5000)
        assert (a.members == b.members).all()
        c = gen_subset(SubsetSpec.bernoulli(0.3, 8), 5000)
        assert (a.members != c.members).any()

    def test_residue_class_density(self):
        sub = gen_subset(SubsetSpec.drop_classes(40, {3}), 10**5)
        assert abs(sub.density - 15 / 16) < 0.01
        assert sub.spec.intended_density == pytest.approx(15 / 16)
        assert all(p % 40 != 3 for p in map(int, sub.primes()))

    def test_prefix_drop(self):
        sub = gen_subset(SubsetSpec.prefix_drop(100), 10**4)
        assert 2 not in sub and 97 not in sub and 101 in sub
        assert sub.spec.intended_density == 1.0

    def test_window_drop_min_prefix(self):
        sub = gen_subset(SubsetSpec.window_drop([(100, 1000)]), 10**4)
        assert sub.density_min_prefix is not None
        assert sub.density_min_prefix <= sub.density
        assert 101 not in sub and 997 not in sub and 1009 in sub

    def test_members_are_primes(self):
        sub = gen_subset(SubsetSpec.bernoulli(0.8, 1), 2000)
        assert all(is_prime(int(p)) for p in sub.primes())

    def test_parse_round_trip(self):
        for text in ("all", "bernoulli:0.8:7", "drop-class:40:3", "prefix-drop:50"):
            spec = parse_subset_spec(text)
            assert parse_subset_spec(spec.describe()) == spec
        with pytest.raises(ValueError):
            parse_subset_spec("nonsense:1")

    @settings(max_examples=100, deadline=None)
    @given(
        modulus=st.integers(1, 500),
        dropped=st.sets(st.integers(-2000, 2000), max_size=8),
        kept=st.sets(st.integers(0, 499), max_size=8),
    )
    def test_class_recipes_describe_themselves_as_written(self, modulus, dropped, kept):
        """drop-class:M:... keeps its dropped classes, reduced mod M, and
        every class recipe round-trips, also with no class listed."""
        spec = SubsetSpec.drop_classes(modulus, dropped)
        text = spec.describe()
        reduced = sorted({c % modulus for c in dropped})
        assert text == f"drop-class:{modulus}:" + ",".join(map(str, reduced))
        assert parse_subset_spec(text) == spec
        spec = SubsetSpec.residue_classes(modulus, {c for c in kept if c < modulus})
        assert parse_subset_spec(spec.describe()) == spec

    def test_large_drop_class_description_stays_short(self):
        """It once listed all 999,999 allowed classes of drop-class:1000000:1,
        6,888,903 characters."""
        spec = parse_subset_spec("drop-class:1000000:1")
        assert spec.describe() == "drop-class:1000000:1"

    @pytest.mark.parametrize(
        "text, why",
        [
            ("classes:8:1,-1", r"classes \[-1\] outside \[0, 8\)"),
            ("classes:8:1,9", r"classes \[9\] outside \[0, 8\)"),
            ("classes:0:1", "modulus must be >= 1, got 0"),
            ("drop-class:0:1", "modulus must be >= 1, got 0"),
            ("drop-class:-4:1", "modulus must be >= 1, got -4"),
            ("prefix-drop:-5", "cutoff >= 0, got -5"),
            ("window-drop:50-10", "window 50-10 needs 0 <= lo <= hi"),
            (None, "window -3-10 needs 0 <= lo <= hi"),  # no text form has lo < 0
        ],
    )
    def test_out_of_range_fields_rejected(self, text, why):
        """Fields that once kept the wrong primes (a class read through a
        negative index, a negative cutoff, an inverted window) or raised
        IndexError are refused when the recipe is made."""
        with pytest.raises(ValueError, match=why):
            if text is None:
                SubsetSpec.window_drop([(-3, 10)])
            else:
                parse_subset_spec(text)

    def test_huge_drop_class_refused_at_once(self):
        """The kept classes of drop-class:10^8 would be a 10^8-int frozenset
        (about 10 GB); it is priced and refused before any is built."""
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(LimitExceededError, match="^drop_classes needs about 18.6 GiB"):
                parse_subset_spec("drop-class:100000000:1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 0.5
        assert peak < 1 << 16

    @pytest.mark.parametrize("modulus", [1, 2, 12, 40, 97, 360, 1001])
    def test_intended_density_counts_coprime_classes(self, modulus):
        allowed = {c for c in range(modulus) if c % 3 != 1}
        spec = SubsetSpec.residue_classes(modulus, allowed)
        coprime = [c for c in range(modulus) if math.gcd(c, modulus) == 1]
        want = sum(c in allowed for c in coprime) / len(coprime)
        assert spec.intended_density == want


def test_spike_position_checked():
    assert WeightedSequence.spike(5, at=5).support().tolist() == [5]
    for at in (0, 6):
        with pytest.raises(ValueError, match=f"at = {at} outside 1..5"):
            WeightedSequence.spike(5, at=at)


class TestBuildNu:
    def setup_method(self):
        self.W = compute_W(2, 2)

    def test_weight_formula_at_support(self):
        nu = build_nu(self.W, 1, 2, 4096)
        expected = (8 / (16 * 4)) * 2 * 17 * math.log(17)
        assert nu.value_at(18) == pytest.approx(expected, rel=1e-12)

    def test_zero_off_support(self):
        nu = build_nu(self.W, 1, 2, 4096)
        assert nu.value_at(1) == 0.0  # 17 is prime but not a square

    def test_mean_near_one(self):
        nu = build_nu(self.W, 1, 2, 2**17)
        assert 0.75 <= nu.mean() <= 1.25

    def test_support_relation_reverified(self):
        nu = build_nu(self.W, 1, 2, 2048)
        for n in map(int, nu.support()):
            val = 16 * n + 1
            p = math.isqrt(val)
            assert p * p == val, n
            assert is_prime(p), p

    def test_rejects_non_unit_power(self):
        with pytest.raises(ValueError):
            build_nu(self.W, 3, 2, 128)

    def test_builders_take_sigma_from_sigma_b(self, monkeypatch):
        seen = []
        real = majorant.sigma_b

        def recorded(W, k, b):
            seen.append(b)
            return real(W, k, b)

        monkeypatch.setattr(majorant, "sigma_b", recorded)
        subset = gen_subset(SubsetSpec.all(), 300)
        build_nu(self.W, 9, 2, 128)
        build_f(self.W, 25, 2, 128, subset)
        mean_g(self.W, 2, 128, subset)
        assert seen == [9, 25, 1]
        message = r"^b = 19 is not a unit k-th power residue mod 16$"
        for build in (
            lambda: build_nu(self.W, 19, 2, 128),
            lambda: build_f(self.W, 19, 2, 128, subset),
        ):
            with pytest.raises(ValueError, match=message):
                build()

    def test_composite_power_missing_from_nu(self):
        nu = build_nu(self.W, 1, 2, 4096)
        assert nu.value_at(5) == 0.0  # 16*5+1 = 9^2, 9 composite

    def test_metadata(self):
        nu = build_nu(self.W, 1, 2, 4096)
        assert nu.N == 4096
        assert nu.Y == math.isqrt(16 * 4096 + 1)
        assert nu.L == pytest.approx(0.5 * math.log(16 * 4096 + 16))

    def test_b_past_w_stored_as_given(self, tmp_path):
        """The header's b is the b of x^k = W n + b that placed the weights."""
        subset = gen_subset(SubsetSpec.all(), 300)
        nu = build_nu(self.W, 17, 2, 64)
        assert nu.b == 17
        assert nu.support().tolist() == [2, 17, 32, 59]  # 7^2, 17^2, 23^2, 31^2 = 16 n + 17
        assert nu.Y == math.isqrt(16 * 64 + 17)
        assert build_f(self.W, 17, 2, 64, subset).b == 17
        path = tmp_path / "nu.bin"
        nu.to_binary(path)
        assert WeightedSequence.from_binary(path).b == 17


class TestBuildF:
    def setup_method(self):
        self.W = compute_W(2, 2)
        self.N = 4096
        self.Y = math.isqrt(16 * self.N + 16) + 1

    def test_all_subset_matches_nu(self):
        nu = build_nu(self.W, 1, 2, self.N)
        sub = gen_subset(SubsetSpec.all(), self.Y)
        f = build_f(self.W, 1, 2, self.N, sub)
        assert (f.values == nu.values).all()

    def test_excluding_a_prime_zeroes_its_weight(self):
        sub = gen_subset(SubsetSpec.window_drop([(17, 17)]), self.Y)
        f = build_f(self.W, 1, 2, self.N, sub)
        assert f.value_at(18) == 0.0

    def test_pointwise_domination(self):
        nu = build_nu(self.W, 1, 2, self.N)
        for spec in (SubsetSpec.bernoulli(0.8, 7), SubsetSpec.drop_classes(8, {1})):
            f = build_f(self.W, 1, 2, self.N, gen_subset(spec, self.Y))
            assert (f.values <= nu.values + 1e-15).all()

    def test_thinning_ratio(self):
        N = 2**16
        Y = math.isqrt(16 * N + 16) + 1
        nu = build_nu(self.W, 1, 2, N)
        f = build_f(self.W, 1, 2, N, gen_subset(SubsetSpec.bernoulli(0.8, 7), Y))
        assert 0.6 <= f.total() / nu.total() <= 0.95

    def test_subset_too_short_rejected(self):
        sub = gen_subset(SubsetSpec.all(), 100)
        with pytest.raises(ValueError):
            build_f(self.W, 1, 2, self.N, sub)

    def test_bold_variant_kind(self, tmp_path):
        sub = gen_subset(SubsetSpec.bernoulli(0.9, 2), self.Y)
        f = build_f(self.W, 1, 2, self.N, sub, kind="bold-f")
        assert f.kind == "bold-f"
        path = tmp_path / "boldf.bin"
        f.to_binary(path)
        assert WeightedSequence.from_binary(path).kind == "bold-f"
        with pytest.raises(ValueError):
            build_f(self.W, 1, 2, self.N, sub, kind="nu")


class TestMeans:
    def setup_method(self):
        self.W = compute_W(2, 2)

    def test_empty_subset_is_zero(self):
        N = 1024
        Y = math.isqrt(16 * N + 16) + 1
        sub = gen_subset(SubsetSpec.window_drop([(0, Y)]), max(Y, 100))
        rep = mean_g(self.W, 2, N, sub)
        assert all(v == 0.0 for v in rep.per_b.values())
        assert rep.aggregate == 0.0

    def test_full_subset_aggregate(self):
        N = 2**16
        Y = math.isqrt(16 * N + 16) + 1
        rep = mean_g(self.W, 2, N, gen_subset(SubsetSpec.all(), Y))
        assert 0.75 <= rep.aggregate <= 1.25
        assert rep.margin == pytest.approx(2 * 1.0 - 1)
        assert rep.floor == pytest.approx(0.9)

    @pytest.mark.parametrize("epsilon", [math.nan, 0.0, 1.0, 3.0, -0.5, math.inf])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        # NaN once gave a floor of NaN, 3 a floor of -2.0
        sub = gen_subset(SubsetSpec.all(), 100)
        with pytest.raises(ValueError, match=rf"^epsilon must lie in \(0, 1\), got {epsilon}$"):
            mean_g(self.W, 2, 64, sub, epsilon=epsilon)

    def test_bernoulli_aggregate_with_margin(self):
        N = 2**16
        Y = math.isqrt(16 * N + 16) + 1
        rep = mean_g(self.W, 2, N, gen_subset(SubsetSpec.bernoulli(0.8, 7), Y))
        assert rep.margin == pytest.approx(0.6)
        assert rep.aggregate >= 0.45

    def test_per_b_matches_direct_build(self):
        N = 2048
        Y = math.isqrt(16 * N + 16) + 1
        sub = gen_subset(SubsetSpec.bernoulli(0.7, 3), Y)
        rep = mean_g(self.W, 2, N, sub)
        for b in (1, 9):
            f = build_f(self.W, b, 2, N, sub)
            assert rep.per_b[b] == pytest.approx(f.mean(), rel=1e-12)

    def test_mass_bookkeeping_balances(self):
        # sum over classes of (W sigma / phi) * class mass equals the raw
        # Chebyshev-type mass of the kept primes, computed independently
        W, k, N = compute_W(3, 2), 2, 4096
        Y = math.isqrt(1296 * N + 1296) + 1
        sub = gen_subset(SubsetSpec.bernoulli(0.9, 13), max(Y, 100))
        table = power_residues(W, k)
        rep = mean_g(W, k, N, sub)
        lhs = 0.0
        for b, g in rep.per_b.items():
            lhs += (1296 * int(table.counts[b]) / W.euler_phi) * g * N
        rhs = 0.0
        for p in range(2, Y + 1):
            if not is_prime(p) or p not in sub:
                continue
            pk = p**k
            b = pk % 1296
            if math.gcd(b, 1296) != 1:
                continue
            n = (pk - b) // 1296
            if 1 <= n <= N:
                rhs += k * p ** (k - 1) * math.log(p)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_mean_deviation_shrinks_with_N(self):
        W = compute_W(3, 2)
        bs = power_residues(W, 2).units.tolist()[:3]
        improved = 0
        for b in bs:
            lo = abs(build_nu(W, b, 2, 2**12).mean() - 1)
            hi = abs(build_nu(W, b, 2, 2**17).mean() - 1)
            improved += hi < lo
        assert improved >= 2


class TestSerialization:
    def test_binary_round_trip(self, tmp_path):
        nu = build_nu(compute_W(2, 2), 1, 2, 512)
        path = tmp_path / "nu.bin"
        nu.to_binary(path)
        back = WeightedSequence.from_binary(path)
        assert back.kind == "nu"
        assert (back.W, back.b, back.k, back.N) == (16, 1, 2, 512)
        assert (back.values == nu.values).all()
        assert path.stat().st_size == 40 + 8 * 512

    def test_unknown_kind_code_names_the_path(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<5q", 9, 0, 0, 0, 2) + np.zeros(2).tobytes())
        with pytest.raises(ValueError, match="bad.bin: unknown kind code 9"):
            WeightedSequence.from_binary(path)

    @pytest.mark.parametrize("size", [0, 39, 40 + 8 * 8, 40 + 8 * 10 - 1])
    def test_truncated_file_names_the_path(self, tmp_path, size):
        path = tmp_path / "short.bin"
        WeightedSequence.indicator(10).to_binary(path)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match="short.bin: "):
            WeightedSequence.from_binary(path)

    def test_csv_export(self, tmp_path):
        nu = build_nu(compute_W(2, 2), 1, 2, 64)
        path = tmp_path / "nu.csv"
        nu.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,value"
        assert len(lines) == 65
        n, v = lines[18].split(",")
        assert int(n) == 18
        assert float(v) == pytest.approx(nu.value_at(18), rel=1e-11)

    def test_shared_primes_reused(self):
        ps = sieve_primes(2000)
        nu1 = build_nu(compute_W(2, 2), 1, 2, 4096, primes=ps)
        nu2 = build_nu(compute_W(2, 2), 1, 2, 4096)
        assert (nu1.values == nu2.values).all()


def _old_hits(W, b, k, N, xs):
    n = (xs**k - b) // W.value
    mask = ((xs**k - b) % W.value == 0) & (n >= 1) & (n <= N)
    return n[mask], xs[mask]


def _old_prime_weights(W, b, k, N, members=None):
    """build_nu's values before the shared kernel (build_f's with members)."""
    sigma = int(power_residues(W, k).counts[b % W.value])
    Y = iroot(W.value * N + b, k)
    ns, pvals = _old_hits(W, b, k, N, sieve_primes(max(Y, 2)).primes(2, Y))
    if members is not None:
        keep = members[pvals]
        ns, pvals = ns[keep], pvals[keep]
    values = np.zeros(N)
    coef = W.euler_phi / (W.value * sigma)
    values[ns - 1] = coef * k * pvals.astype(np.float64) ** (k - 1) * np.log(pvals)
    return values


def _old_means(W, k, N, subset):
    """mean_g's per-prime loop before the bincount."""
    table = power_residues(W, k)
    Wv, phi = W.value, W.euler_phi
    Ymax = iroot(Wv * N + Wv, k)
    sums = {b: 0.0 for b in table.units.tolist()}
    for p in map(int, sieve_primes(max(Ymax, 2)).primes(2, Ymax)):
        if not subset.members[p]:
            continue
        pk = p**k
        b = pk % Wv
        if b not in sums:
            continue
        n = (pk - b) // Wv
        if 1 <= n <= N:
            sums[b] += (phi / (Wv * int(table.counts[b]))) * k * p ** (k - 1) * math.log(p)
    per_b = {b: v / N for b, v in sums.items()}
    return per_b, math.fsum(per_b.values()) / len(per_b)


class TestOneWeightKernel:
    """nu, f and the class means are bit-identical to the separate builders
    the shared hit finder and weight kernel replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.sampled_from([2, 3, 4]),
        st.integers(1, 1 << 13),
        st.integers(0, 10**6),
        st.booleans(),
        st.floats(0.0, 1.0),
        st.integers(0, 2**31),
    )
    def test_sequences_and_means_equal_old_code(self, w, k, N, pick, shift, delta, seed):
        W = compute_W(w, k)
        units = power_residues(W, k).units.tolist()
        b = units[pick % len(units)] + (W.value if shift else 0)
        Y = iroot(W.value * N + W.value + b, k)
        subset = gen_subset(SubsetSpec.bernoulli(delta, seed), max(Y, 100))
        nu = build_nu(W, b, k, N)
        f = build_f(W, b, k, N, subset)
        assert nu.values.tobytes() == _old_prime_weights(W, b, k, N).tobytes()
        assert f.values.tobytes() == _old_prime_weights(W, b, k, N, subset.members).tobytes()
        assert nu.b == f.b == b  # stored as given, also past W
        report = mean_g(W, k, N, subset)
        per_b, aggregate = _old_means(W, k, N, subset)
        assert list(report.per_b) == sorted(report.per_b)
        assert list(report.per_b.items()) == list(per_b.items())
        assert report.aggregate == aggregate

    def test_means_past_int64_powers(self):
        """At k = 3, w = 2 and N = 2^60 the powers p^3 reach 2^66; the class
        sums equal a reference in Python ints, prime by prime."""
        W, k, N = compute_W(2, 3), 3, 1 << 60
        Y = iroot(W.value * N + W.value, k)
        assert (Y + 1) ** k >= 2**62
        primes = sieve_primes(Y)
        subset = gen_subset(SubsetSpec.drop_classes(10, {3}), Y, primes=primes)
        report = mean_g(W, k, N, subset)
        table = power_residues(W, k)
        kept = primes.primes(2, Y)
        kept = kept[subset.members[kept]]
        sums = {b: 0.0 for b in table.units.tolist()}
        for p, log_p in zip(kept.tolist(), np.log(kept).tolist()):
            pk = p**k
            b = pk % W.value
            if b in sums and 1 <= (pk - b) // W.value <= N:
                coef = W.euler_phi / (W.value * int(table.counts[b]))
                sums[b] += coef * k * p ** (k - 1) * log_p
        per_b = {b: v / N for b, v in sums.items()}
        assert list(report.per_b.items()) == list(per_b.items())
        assert report.aggregate == math.fsum(per_b.values()) / len(per_b)
        assert report.aggregate > 0


def _old_mean_g(W, k, N, subset):
    """mean_g before it read its primes from subset.members: a fresh sieve
    up to Y intersected with the members."""
    table = power_residues(W, k)
    Wv = W.value
    Ymax = iroot(Wv * N + Wv, k)
    ps = sieve_primes(max(Ymax, 2)).primes(2, Ymax)
    ps = ps[subset.members[ps] & (np.gcd(ps, Wv) == 1)]
    bs = _vector_pow_mod(Wv, k)[ps % Wv]
    _, hit = _hits(ps, k, Wv, bs, N)
    units = table.units.tolist()
    weights = _weights(W, int(table.counts[1]), k, ps[hit])
    sums = np.bincount(np.searchsorted(units, bs[hit]), weights, minlength=len(units))
    class_sum = dict(zip(units, sums.tolist()))
    per_b = {b: class_sum[b] / N for b in units}
    return per_b, math.fsum(per_b.values()) / len(per_b)


SUBSET_SPECS = [
    "all",
    "bernoulli:0.7:5",
    "classes:10:1,7,9",
    "drop-class:3:2",
    "prefix-drop:50",
    "window-drop:200-400,1000-1500",
]


class TestMeansFromMembers:
    """mean_g reads its kept primes from subset.members, with no sieve of
    its own, and matches the old sieve-and-intersect route bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.sampled_from([2, 3]),
        st.integers(1, 1 << 14),
        st.sampled_from(SUBSET_SPECS),
        st.integers(0, 2000),
    )
    def test_equals_sieve_and_intersect(self, w, k, N, spec, extra):
        W = compute_W(w, k)
        Y = iroot(W.value * N + W.value, k)
        subset = gen_subset(parse_subset_spec(spec), max(Y, 100) + extra)
        report = mean_g(W, k, N, subset)
        per_b, aggregate = _old_mean_g(W, k, N, subset)
        assert list(report.per_b.items()) == list(per_b.items())
        assert report.aggregate == aggregate

    @pytest.mark.parametrize("Wv", [6, 10, 30])
    @pytest.mark.parametrize("k", [2, 3])
    def test_primes_dividing_w_left_out(self, Wv, k):
        # unlike compute_W, these moduli have p^k > W for some p | W, so
        # such a p would land in a class n >= 1 without the gcd filter
        W, N = FactoredModulus.from_value(Wv), 5000
        subset = gen_subset(SubsetSpec.all(), max(iroot(Wv * N + Wv, k), 100))
        report = mean_g(W, k, N, subset)
        per_b, aggregate = _old_mean_g(W, k, N, subset)
        assert list(report.per_b.items()) == list(per_b.items())
        assert report.aggregate == aggregate

    def test_makes_no_sieve_call(self, monkeypatch):
        W, N = compute_W(3, 2), 4096
        subset = gen_subset(SubsetSpec.all(), iroot(W.value * N + W.value, 2))

        def no_sieve(*args, **kwargs):
            raise AssertionError("mean_g sieved")

        monkeypatch.setattr(majorant, "sieve_primes", no_sieve)
        assert mean_g(W, 2, N, subset).aggregate > 0


def _mean_g_reference(W, k, N, subset, epsilon=0.1):
    """mean_g's reference: its one class scan over subset.members written
    out, with the whole report it returns."""
    table = power_residues(W, k)
    Wv = W.value
    Ymax = iroot(Wv * N + Wv, k)
    ps = np.flatnonzero(subset.members[: Ymax + 1]).astype(np.int64)
    ps = ps[np.gcd(ps, Wv) == 1]
    bs = table.powers[ps % Wv]
    _, hit = _hits(ps, k, Wv, bs, N)
    units = table.units.tolist()
    weights = _weights(W, int(table.counts[1]), k, ps[hit])
    sums = np.bincount(np.searchsorted(units, bs[hit]), weights, minlength=len(units))
    class_sum = dict(zip(units, sums.tolist()))
    per_b = {b: class_sum[b] / N for b in units}  # in ascending b
    delta = subset.spec.intended_density
    return MeanReport(
        W=Wv,
        k=k,
        N=N,
        subset=subset.spec,
        epsilon=epsilon,
        per_b=per_b,
        aggregate=math.fsum(per_b.values()) / len(per_b),
        margin=k * delta - (k - 1) if delta is not None else None,
        floor=(1 - epsilon) * delta if delta is not None else None,
    )


class TestMeanGReference:
    """mean_g against its reference, the whole report by its repr."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.sampled_from([2, 3]),
        st.integers(1, 1 << 13),
        st.one_of(
            st.sampled_from(SUBSET_SPECS),
            st.builds("bernoulli:{:.3f}:{}".format, st.floats(0, 1), st.integers(0, 10**6)),
        ),
        st.integers(0, 500),
    )
    def test_mean_g_repr_unchanged(self, w, k, N, spec, extra):
        W = compute_W(w, k)
        Y = iroot(W.value * N + W.value, k)
        subset = gen_subset(parse_subset_spec(spec), max(Y, 100) + extra)
        want = _mean_g_reference(W, k, N, subset)
        assert repr(mean_g(W, k, N, subset)) == repr(want)


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan, 1.0, -2.5]


class TestSupportIndex:
    """support_index, the one support scan, finds the entries that
    np.flatnonzero of the floats finds: NaN is nonzero, -0.0 is zero."""

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(_SPECIAL_FLOATS),
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            ),
            max_size=64,
        )
    )
    def test_equals_flatnonzero(self, values):
        arr = np.array(values, dtype=np.float64)
        got = support_index(arr)
        assert got.dtype == np.flatnonzero(arr).dtype
        assert got.tolist() == np.flatnonzero(arr).tolist()

    def test_special_values(self):
        arr = np.array(_SPECIAL_FLOATS * 3)
        assert support_index(arr).tolist() == np.flatnonzero(arr).tolist()
        # every value but 0.0 and -0.0 is in the support, NaN too
        assert support_index(arr)[:8].tolist() == list(range(2, 10))

    def test_support_method_reads_it(self):
        values = np.zeros(50)
        values[[0, 9, 49]] = [1.0, math.nan, 5e-324]
        values[20] = -0.0
        seq = WeightedSequence(values=values, kind="custom", W=0, b=0, k=0)
        assert seq.support().tolist() == [1, 10, 50]
