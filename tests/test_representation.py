import bisect
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wglab import representation
from wglab.bitsets import bits_from, line_power, window_flags
from wglab.core_arith import compute_Rk, compute_W
from wglab.local_structure import LocalDecomposition, local_decompose
from wglab.majorant import (
    SubsetSpec,
    WeightedSequence,
    build_f,
    gen_subset,
    mean_g,
    parse_subset_spec,
)
from wglab.representation import (
    _COLUMN_SHARE,
    _WINDOW_FLOOR,
    FFTPrecisionError,
    _admissible_positions,
    _smooth_above,
    _window_inverse,
    _window_split,
    admissible_filter,
    count_representations,
    coverage_probe,
    theorem_thresholds,
    transference_gauge,
)
from wglab.spectral import _use_product


def all_primes(limit):
    return gen_subset(SubsetSpec.all(), max(limit, 100))


class TestAdmissibleFilter:
    def test_examples(self):
        assert admissible_filter(20, 44, 2) is True
        assert admissible_filter(21, 44, 2) is False

    def test_cubes_reduce_to_parity(self):
        for n in range(30):
            for s in (5, 8):
                assert admissible_filter(n, s, 3) == ((n - s) % 2 == 0)


class TestCounting:
    def test_brute_small_values(self):
        counts = count_representations(all_primes(100), 2, 2, 50, method="brute")
        assert counts[8] == 1  # (2, 2)
        assert counts[13] == 2  # (2, 3) and (3, 2)
        assert counts[7] == 0

    def test_fft_equals_brute(self):
        sub = all_primes(100)
        for s in (2, 3):
            brute = count_representations(sub, 2, s, 5000, method="brute")
            fft = count_representations(sub, 2, s, 5000, method="fft")
            assert (brute == fft).all()

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("s", [1, 2])
    def test_fft_equals_brute_past_the_grid(self, k, s):
        # at s = 1, k = 2, hi = 120 the powers stop at 49, so the grid has
        # 50 points and the counts from 50 to 120 are zeros past the grid
        sub = all_primes(100)
        for hi in (*range(130), 300, 1000):
            brute = count_representations(sub, k, s, hi, method="brute")
            fft = count_representations(sub, k, s, hi, method="fft")
            assert fft.shape == (hi + 1,)
            assert fft.dtype == np.int64
            assert (fft == brute).all(), hi

    def test_mass_conservation(self):
        # the window covers every power of every subset prime, so the total
        # count is exactly (number of primes)^s
        sub = all_primes(100)
        powers = [p * p for p in map(int, sub.primes())]
        for s in (2, 3):
            full = count_representations(sub, 2, s, s * max(powers), method="fft")
            assert int(full.sum()) == len(powers) ** s

    def test_bitset_is_support_of_counts(self):
        sub = all_primes(100)
        counts = count_representations(sub, 2, 2, 3000, method="fft")
        reach = count_representations(sub, 2, 2, 3000, method="bitset")
        rng = np.random.default_rng(4)
        for n in rng.integers(0, 3001, size=1000):
            assert (counts[n] > 0) == (reach[n] == 1)

    def test_brute_caps(self):
        sub = all_primes(100)
        with pytest.raises(ValueError):
            count_representations(sub, 2, 4, 100, method="brute")
        with pytest.raises(ValueError):
            count_representations(sub, 2, 2, 10**5 + 1, method="brute")

    def test_fft_overflow_guard(self):
        # with only the primes 2 and 3 available, sixty-fold counts are
        # multinomial-sized and blow straight past 2^52
        sub = gen_subset(SubsetSpec.window_drop([(5, 100)]), 100)
        with pytest.raises(FFTPrecisionError, match="2\\^52"):
            count_representations(sub, 2, 60, 60 * 9, method="fft")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            count_representations(all_primes(100), 2, 2, 10, method="magic")


def fft_lengths(monkeypatch, call):
    """call's result, and the length of every np.fft.rfft, irfft and ifft it
    made, the ifft's along its last axis."""
    lengths = {"rfft": [], "irfft": [], "ifft": []}
    for name in lengths:
        real = getattr(np.fft, name)

        def recorded(a, n=None, *args, real=real, name=name, **kwargs):
            lengths[name].append(np.shape(a)[-1] if n is None else n)
            return real(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recorded)
    return call(), lengths


def bernoulli_counts(k, s, hi, delta, seed):
    """Whether count_representations(method="fft") takes the product path on
    a Bernoulli subset, with its fft and brute counts."""
    sub = gen_subset(SubsetSpec.bernoulli(delta, seed), 400)
    powers = [p**k for p in map(int, sub.primes()) if p**k <= hi]
    product = bool(powers) and _use_product(len(powers), smooth_above(s * max(powers)))
    fft = count_representations(sub, k, s, hi, method="fft")
    return product, fft, count_representations(sub, k, s, hi, method="brute")


class TestCountKernel:
    """count_representations(method="fft") convolves through the shared
    kernel: equal to brute on either half-spectrum route, with one irfft
    of the kernel's grid and, on the product path, no rfft."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.integers(2, 3),
        st.integers(1 << 15, 10**5),
        st.floats(0.2, 0.6),
        st.integers(0, 2**32 - 1),
    )
    @example(3, 2, 10**5, 0.5, 0)
    def test_fft_equals_brute_on_sparse_subsets(self, k, s, hi, delta, seed):
        product, fft, brute = bernoulli_counts(k, s, hi, delta, seed)
        assume(product)
        assert fft.dtype == np.int64 and (fft == brute).all()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(0, 10**5),
        st.floats(0.9, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @example(3, 10**5, 1.0, 0)
    def test_fft_equals_brute_on_dense_subsets(self, s, hi, delta, seed):
        product, fft, brute = bernoulli_counts(2, s, hi, delta, seed)
        assume(not product)
        assert fft.dtype == np.int64 and (fft == brute).all()

    @pytest.mark.parametrize("k, product", [(3, True), (2, False)])
    def test_one_irfft_of_the_kernel_grid(self, monkeypatch, k, product):
        sub = all_primes(100)
        powers = [p**k for p in map(int, sub.primes()) if p**k <= 10**5]
        grid = smooth_above(2 * max(powers))
        assert _use_product(len(powers), grid) == product
        _, lengths = fft_lengths(monkeypatch, lambda: count_representations(sub, k, 2, 10**5))
        assert lengths == {"rfft": [] if product else [grid], "irfft": [grid], "ifft": []}


class TestCoverage:
    def test_five_squares_window_has_no_exceptions(self):
        report, _ = coverage_probe(all_primes(150), 2, 5, (5000, 20000))
        assert report.exceptions == []
        assert report.admissible_count == report.represented_count
        assert report.modulus == 24

    def test_unfiltered_two_squares_has_many_exceptions(self):
        report, _ = coverage_probe(all_primes(100), 2, 2, (10, 100), use_filter=False)
        assert len(report.exceptions) > 0
        assert report.admissible_count == 91
        assert report.represented_count + len(report.exceptions) == 91
        counts = count_representations(all_primes(100), 2, 2, 100, method="brute")
        expected = [n for n in range(10, 101) if counts[n] == 0]
        assert report.exceptions == expected

    def test_monotone_in_subset(self):
        small = gen_subset(SubsetSpec.drop_classes(8, {1}), 150)
        big = all_primes(150)
        rs, _ = coverage_probe(small, 2, 5, (5000, 8000))
        rb, _ = coverage_probe(big, 2, 5, (5000, 8000))
        assert set(rb.exceptions) <= set(rs.exceptions)

    def test_json_and_exceptions(self, tmp_path):
        report, reach = coverage_probe(all_primes(100), 2, 2, (10, 40), use_filter=False)
        d = report.to_dict()
        assert d["exception_count"] == len(report.exceptions)
        assert d["represented_count"] + d["exception_count"] == d["admissible_count"]
        report.to_csv(tmp_path / "cov.csv", reach)
        rows = (tmp_path / "cov.csv").read_text().splitlines()
        assert rows[0] == "n,admissible,represented"
        assert len(rows) == 32


class TestBitmaskReadout:
    def test_matches_per_bit_readout(self):
        """Reports, CSV rows and bitset counts equal the old one-shift-per-bit
        readout of the same reach bitmask."""
        sub = all_primes(100)
        k, s, hi = 2, 3, 3000
        powers = [int(p) ** k for p in sub.primes() if int(p) ** k <= hi]
        reach = line_power(bits_from(powers), s, hi)
        assert count_representations(sub, k, s, hi, method="bitset").tolist() == [
            (reach >> n) & 1 for n in range(hi + 1)
        ]
        for window, use_filter in (((1000, 3000), True), ((5, 1237), False), ((0, 0), False)):
            lo, top = window
            report, got = coverage_probe(sub, k, s, window, use_filter=use_filter)
            assert got == reach & ((1 << (top + 1)) - 1)
            adm = [n for n in range(lo, top + 1) if not use_filter or (n - s) % 24 == 0]
            assert report.admissible_count == len(adm)
            assert report.represented_count == sum((reach >> n) & 1 for n in adm)
            assert report.exceptions == [n for n in adm if not (reach >> n) & 1]
            assert all(type(n) is int for n in report.exceptions)
            assert list(report.csv_rows(got)) == [
                f"{n},{int(n in adm)},{(got >> n) & 1}" for n in range(lo, top + 1)
            ]


def indicator_convolution(N, s, n):
    """Closed-form s-fold convolution of the interval indicator."""
    total = 0
    for j in range(s + 1):
        top = n - 1 - j * N
        if top >= s - 1:
            total += (-1) ** j * math.comb(s, j) * math.comb(top, s - 1)
    return total


class TestTransference:
    def test_indicator_convolution_matches_closed_form(self):
        N = 1024
        for s in (2, 3):
            prof = transference_gauge([WeightedSequence.indicator(N)] * s, epsilon=0.1)
            lo, hi = prof.window
            samples = np.linspace(lo, hi, 10).astype(int)
            for n in map(int, samples):
                expected = indicator_convolution(N, s, n) / N ** (s - 1)
                got = prof.values[n - lo]
                assert got == pytest.approx(expected, rel=1e-6)

    def test_gauge_near_one_at_center(self):
        N = 1024
        prof = transference_gauge([WeightedSequence.indicator(N)] * 2, epsilon=0.1)
        assert prof.gauge == pytest.approx(1.0, abs=0.05)
        assert prof.mean_each_ok and prof.mean_sum_ok

    def test_zero_sequence_fails_hypotheses(self):
        N = 512
        zero = WeightedSequence(values=np.zeros(N), kind="custom", W=0, b=0, k=0)
        prof = transference_gauge([WeightedSequence.indicator(N), zero], epsilon=0.1)
        assert prof.gauge == 0.0
        assert not prof.mean_each_ok

    @pytest.mark.parametrize("s, N", [(2, 1), (2, 2), (3, 2), (44, 512), (2, 1 << 15)])
    def test_zero_sequences(self, s, N):
        """s zero sequences convolve to 0: every window value and the gauge
        are exactly 0, both mean hypotheses fail, and no warning is raised
        since the transform mass bound is 0 as well."""
        zero = WeightedSequence(values=np.zeros(N), kind="custom", W=0, b=0, k=0)
        prof = transference_gauge([zero] * s, epsilon=0.1)
        assert prof.values.size == prof.window[1] - prof.window[0] + 1 >= 1
        assert not prof.values.any() and prof.gauge == 0.0
        assert prof.means == [0.0] * s
        assert not (prof.mean_each_ok or prof.mean_sum_ok or prof.numeric_warning)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            transference_gauge([WeightedSequence.indicator(64)], epsilon=0.1)
        with pytest.raises(ValueError):
            transference_gauge([WeightedSequence.indicator(64)] * 2, epsilon=1.5)
        with pytest.raises(ValueError):
            transference_gauge(
                [WeightedSequence.indicator(64), WeightedSequence.indicator(32)]
            )

    def test_window_matches_kappa(self):
        N = 1000
        prof = transference_gauge([WeightedSequence.indicator(N)] * 3, epsilon=0.2)
        kappa = 0.2 / 32
        lo, hi = prof.window
        assert lo > (1 - kappa**2) * 3 * N / 2
        assert hi < (1 + kappa) * 3 * N / 2
        assert prof.kappa == pytest.approx(kappa)

    def test_distinct_sequences_convolve_correctly(self):
        # two different sequences: compare against a direct small convolution
        N = 64
        rng = np.random.default_rng(9)
        a = rng.random(N)
        b = rng.random(N)
        fa = WeightedSequence(values=a, kind="custom", W=0, b=0, k=0)
        fb = WeightedSequence(values=b, kind="custom", W=0, b=0, k=0)
        prof = transference_gauge([fa, fb], epsilon=0.1)
        lo, hi = prof.window
        for n in range(lo, hi + 1):
            direct = sum(
                a[i - 1] * b[n - i - 1] for i in range(max(1, n - N), min(N, n - 1) + 1)
            )
            assert prof.values[n - lo] == pytest.approx(direct / N, rel=1e-9)


def majority_parts(w, k, s, N, eps=0.1):
    """The f_b sequences of a majority-weight decomposition of the target s."""
    W = compute_W(w, k)
    sub = all_primes(math.isqrt(W.value * N + W.value) + 1)
    means = mean_g(W, k, N, sub, epsilon=eps)
    f_map = {
        b: max(0.0, min((g - eps / 2) / (1 + eps), 1 - 1e-12)) for b, g in means.per_b.items()
    }
    decomp = local_decompose(W, k, s, s % W.value, f_map)
    assert isinstance(decomp, LocalDecomposition)
    return [build_f(W, b, k, N, sub) for b in decomp.parts]


class TestTransferenceCongruence:
    def test_gauge_skips_targets_off_the_congruence_class(self):
        # W = 16 leaves the prime 3 out, so two of every three targets are
        # inadmissible and carry no representation at all
        s, k = 44, 2
        f_list = majority_parts(2, k, s, 4096)
        prof = transference_gauge(f_list, epsilon=0.1)
        lo, _ = prof.window
        shift = sum(f.b for f in f_list)
        adm = np.array(
            [admissible_filter(16 * (lo + i) + shift, s, k) for i in range(prof.values.size)]
        )
        assert 0 < adm.sum() < adm.size
        assert prof.values[~adm].max() <= 1e-9 * prof.values.max()
        assert prof.gauge == prof.values[adm].min()
        assert prof.gauge > 0
        assert not prof.numeric_warning

    def test_every_target_admissible_once_w_absorbs_rk(self):
        f_list = majority_parts(3, 2, 44, 4096)
        prof = transference_gauge(f_list, epsilon=0.1)
        assert prof.gauge == prof.values.min()
        assert prof.gauge > 0


class TestOneCongruenceTest:
    """admissible_filter is the one (n - s) % R_k test, and the strided
    slice that coverage_probe and csv_rows read passes the same n:
    coverage_probe, csv_rows and transference_gauge equal the inline
    formulas they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.integers(0, 10**6),
        width=st.integers(1, 400),
        s=st.integers(1, 60),
        k=st.integers(1, 6),
        filtered=st.booleans(),
    )
    def test_window_slice_equals_the_filter(self, lo, width, s, k, filtered):
        ns = np.arange(lo, lo + width, dtype=np.int64)
        passed = admissible_filter(ns, s, k) if filtered else np.ones(width, dtype=bool)
        positions = _admissible_positions((lo, lo + width - 1), s, k, filtered)
        assert np.arange(width)[positions].tolist() == np.flatnonzero(passed).tolist()

    def test_scalar_and_vector_forms(self):
        ns = np.arange(-50, 500, dtype=np.int64)
        for k in (2, 3, 4):
            for s in (1, 5, 44):
                vec = admissible_filter(ns, s, k)
                assert vec.dtype == bool
                scalars = [admissible_filter(n, s, k) for n in ns.tolist()]
                assert all(type(a) is bool for a in scalars)
                assert vec.tolist() == scalars

    def test_coverage_and_csv_flags_equal_old_formulas(self):
        sub = all_primes(100)
        for k, s, window in ((2, 5, (100, 3000)), (3, 4, (0, 500)), (2, 3, (7, 7))):
            g = compute_Rk(k).value
            lo, hi = window
            ns = np.arange(lo, hi + 1, dtype=np.int64)
            for use_filter in (True, False):
                report, reach = coverage_probe(sub, k, s, window, use_filter=use_filter)
                flags = window_flags(reach, lo, hi)
                adm = (ns - s) % g == 0 if use_filter else np.ones(ns.size, dtype=bool)
                assert report.admissible_count == int(adm.sum())
                assert report.represented_count == int((adm & flags).sum())
                assert report.exceptions == ns[adm & ~flags].tolist()
                rows = []
                for n, rep in zip(range(lo, hi + 1), flags.tolist()):
                    a = 1 if (not use_filter or (n - s) % g == 0) else 0
                    rows.append(f"{n},{a},{int(rep)}")
                assert list(report.csv_rows(reach)) == rows

    @pytest.mark.parametrize("w", [2, 3])
    def test_gauge_mask_equals_old_formula(self, w):
        s, k = 44, 2
        f_list = majority_parts(w, k, s, 2048)
        prof = transference_gauge(f_list, epsilon=0.1)
        lo, hi = prof.window
        shift = sum(f.b for f in f_list) - s
        targets = np.arange(lo, hi + 1, dtype=np.int64)
        old = (f_list[0].W * targets + shift) % compute_Rk(k).value == 0
        assert prof.gauge == prof.values[old].min()


class TestGaugeGrouping:
    """Equal sequences share one transform, grouped in first-occurrence
    order as the old byte-keyed dict grouped them, with no copy kept."""

    def _rfft_inputs(self, monkeypatch, f_list):
        seen = []
        real = np.fft.rfft

        def recorded(a, *args, **kwargs):
            seen.append(a.copy())
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recorded)
        prof = transference_gauge(f_list)
        monkeypatch.undo()
        return prof, seen

    def test_groups_in_first_occurrence_order(self, monkeypatch):
        rng = np.random.default_rng(3)
        N = 500
        a, b, c = (rng.random(N) for _ in range(3))
        order = [a, b, a, c, b, a, a]

        def seq(v):
            return WeightedSequence(values=v, kind="custom", W=0, b=0, k=0)

        shared = [seq(v) for v in order]
        copies = [seq(v.copy()) for v in order]
        prof_shared, seen_shared = self._rfft_inputs(monkeypatch, shared)
        prof_copies, seen_copies = self._rfft_inputs(monkeypatch, copies)
        old_order = list({v.tobytes(): v for v in order}.values())
        for seen in (seen_shared, seen_copies):
            assert len(seen) == 3
            for padded, v in zip(seen, old_order):
                assert padded[1 : N + 1].tobytes() == (v / N).tobytes()
        assert prof_shared.values.tobytes() == prof_copies.values.tobytes()
        assert prof_shared.gauge == prof_copies.gauge


def window_of(s, N, epsilon=0.1):
    """The gauge's window [lo, hi], by the formula of its docstring."""
    kappa = epsilon / 32
    return math.floor((1 - kappa**2) * s * N / 2) + 1, math.ceil((1 + kappa) * s * N / 2) - 1


SMOOTH = sorted(
    2**a * 3**b * 5**c
    for a in range(20)
    for b in range(13)
    for c in range(9)
    if 2**a * 3**b * 5**c <= 1 << 20
)


def smooth_above(n):
    """The least 5-smooth integer above n, from the enumerated list."""
    return SMOOTH[bisect.bisect_right(SMOOTH, n)]


def gauge_grid(f_list):
    """The grid transference_gauge prices, stopped before anything is allocated."""

    class Priced(Exception):
        pass

    def priced(estimate, what):
        raise Priced(estimate)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(representation, "require_bytes", priced)
        with pytest.raises(Priced) as info:
            transference_gauge(f_list)
    return round(info.value.args[0] / (6.5 * 8))


def gauge_inputs(kind, s, N, seed):
    """s sequences of one kind: the interval indicator, random nonnegative
    weights, or w = 2 arithmetic f_b, which live on one class mod 3 each."""
    rng = np.random.default_rng(seed)
    if kind == "indicator":
        return [WeightedSequence.indicator(N)] * s
    if kind == "random":
        return [
            WeightedSequence(values=rng.random(N), kind="custom", W=0, b=0, k=0) for _ in range(s)
        ]
    W = compute_W(2, 2)
    sub = all_primes(math.isqrt(W.value * N + W.value) + 1)
    return [build_f(W, int(b), 2, N, sub) for b in rng.choice([1, 9], s)]


class TestGaugeGrid:
    """transference_gauge convolves on the least 5-smooth grid above both
    the window top hi and sN - lo; nothing wraps into the window."""

    def test_smooth_above_is_least_5_smooth(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        brute = []
        m = 1
        for n in range(10**4 + 1):
            while m <= n or not smooth(m):
                m += 1
            brute.append(m)
        assert [_smooth_above(n) for n in range(10**4 + 1)] == brute
        assert [smooth_above(n) for n in range(10**4 + 1)] == brute

    def test_rule_clears_the_window_everywhere(self):
        s = np.arange(2, 65)[:, None]
        N = np.arange(1, 4097)[None, :]
        kappa = 0.1 / 32
        lo = np.floor((1 - kappa**2) * s * N / 2).astype(np.int64) + 1
        hi = np.ceil((1 + kappa) * s * N / 2).astype(np.int64) - 1
        assert lo[0, 0] == 1 and (lo[61, 4095], hi[61, 4095]) == window_of(63, 4096)
        table = np.array(SMOOTH)
        grid = table[np.searchsorted(table, np.maximum(hi, s * N - lo), side="right")]
        assert (grid > hi).all() and (grid > s * N - lo).all() and (grid > N).all()
        # the window top matters: a grid above hi - s alone would cut it
        short = table[np.searchsorted(table, np.maximum(hi - s, s * N - lo), side="right")]
        cut = short <= hi
        # s = 2, N = 323: the window is [323, 324], and the least 5-smooth
        # integer above hi - s = 322 and sN - lo = 323 is 324 = hi
        assert cut[0, 323 - 1]
        assert cut.sum() > 10**4

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 64), st.integers(1, 4096))
    @example(2, 323)
    @example(2, 1)
    @example(64, 4096)
    def test_gauge_uses_the_rule(self, s, N):
        f = WeightedSequence(values=np.broadcast_to(0.5, N), kind="custom", W=0, b=0, k=0)
        lo, hi = window_of(s, N)
        grid = gauge_grid([f] * s)
        assert grid == smooth_above(max(hi, s * N - lo))
        assert grid > hi and grid > s * N - lo and grid > N

    @pytest.mark.parametrize("s, N, pattern", [(7, 500, "abacbaa"), (44, 1000, "a"), (2, 1, "ab")])
    def test_one_rfft_per_distinct_sequence_one_irfft(self, monkeypatch, s, N, pattern):
        rng = np.random.default_rng(5)
        arrays = {c: rng.random(N) for c in set(pattern)}
        parts = (pattern * s)[:s]
        f_list = [WeightedSequence(values=arrays[c], kind="custom", W=0, b=0, k=0) for c in parts]
        lo, hi = window_of(s, N)
        grid = smooth_above(max(hi, s * N - lo))
        prof, lengths = fft_lengths(monkeypatch, lambda: transference_gauge(f_list))
        assert prof.window == (lo, hi)
        assert lengths == {"rfft": [grid] * len(set(parts)), "irfft": [grid], "ifft": []}

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["indicator", "random", "w2"]),
        st.integers(2, 8),
        st.integers(1, 300),
        st.integers(0, 2**32 - 1),
    )
    # a one-point window 5,400 times below the convolution's peak
    @example(kind="random", s=7, N=2, seed=7)
    # top - lo = hi = 15 and 16 is 5-smooth: a grid one shorter, 15 points,
    # folds position top = 30 onto lo
    @example(kind="indicator", s=2, N=15, seed=0)
    def test_window_equals_direct_convolution(self, kind, s, N, seed):
        f_list = gauge_inputs(kind, s, N, seed)
        prof = transference_gauge(f_list)
        lo, hi = prof.window
        assert (lo, hi) == window_of(s, N)
        padded = [np.concatenate(([0.0], f.values)) for f in f_list]
        conv = functools.reduce(np.convolve, padded) / N ** (s - 1)
        want = conv[lo : hi + 1]
        assert prof.values.shape == want.shape
        if not want.size:
            return
        # the FFT's rounding scales with the whole convolution, not with the
        # window, which may sit far below its peak: 1e-12 of that peak
        assert np.abs(prof.values - want).max() <= 1e-12 * conv.max()
        if kind == "w2" and want.max() > 0:
            n = f_list[0].W * np.arange(lo, hi + 1) + sum(f.b for f in f_list)
            off = ~admissible_filter(n, s, 2)
            assert (prof.values[off] <= 1e-9 * want.max()).all()

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 8),
        st.integers(1 << 15, 1 << 16),
        st.integers(1, 3),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_sparse_parts_match_the_rfft_code(self, s, N, distinct, share, seed):
        lo, hi = window_of(s, N)
        grid = smooth_above(max(hi, s * N - lo))
        # at least half the rule's bound: with fewer points at s = 8 the
        # window can hold one sum far below the spectrum's mass, and both
        # routes then round to about 1e-12 of it
        bound = max(S for S in range(1, 65) if _use_product(S, grid))
        S = bound // 2 + int(share * (bound - bound // 2))
        rng = np.random.default_rng(seed)
        parts = []
        for _ in range(distinct):
            # every part holds n = c, and s c lies in the window
            pos = rng.choice(N, S, replace=False)
            pos[0] = (lo + hi) // (2 * s) - 1
            vals = np.zeros(N)
            vals[pos] = 1 + rng.random(S)
            parts.append(WeightedSequence(values=vals, kind="custom", W=0, b=0, k=0))
        f_list = (parts * s)[:s]
        prof = transference_gauge(f_list)
        # the rfft code the shared half spectrum replaced
        groups = []
        for f in f_list:
            for group in groups:
                if group[0] is f.values:
                    group[1] += 1
                    break
            else:
                groups.append([f.values, 1])
        prod = None
        for arr, mult in groups:
            padded = np.zeros(grid)
            padded[1 : N + 1] = arr / N
            term = np.fft.rfft(padded) ** mult
            prod = term if prod is None else prod * term
        want = np.fft.irfft(prod, grid)[lo : hi + 1] * N
        assert np.abs(prof.values - np.clip(want, 0.0, None)).max() <= 1e-12 * want.max()

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["indicator", "random"]), st.integers(2, 8), st.integers(1, 2000))
    def test_same_profile_as_power_of_two_grid(self, kind, s, N):
        f_list = gauge_inputs(kind, s, N, seed=N)
        new = transference_gauge(f_list)
        with pytest.MonkeyPatch.context() as m:
            # the old grid: the next power of two above the whole convolution
            m.setattr(representation, "_smooth_above", lambda n: 1 << (s * N + 2).bit_length())
            old = transference_gauge(f_list)
        assert new.window == old.window
        assert new.means == old.means
        assert (new.mean_each_ok, new.mean_sum_ok) == (old.mean_each_ok, old.mean_sum_ok)
        if new.window[0] >= s:
            assert math.isclose(new.gauge, old.gauge, rel_tol=1e-12)
        else:
            # the window starts below s, where no sum of s positive integers
            # lands: both gauges are 0 up to rounding of the total mass
            mass = N * math.prod(new.means)
            assert new.gauge <= 1e-12 * mass and old.gauge <= 1e-12 * mass


class TestThresholds:
    def test_k2(self):
        rep = theorem_thresholds(2)
        assert rep.s_min_theorem == 44
        assert rep.s_min_local == 22
        assert rep.delta_threshold == Fraction(3, 4)

    def test_k3(self):
        rep = theorem_thresholds(3)
        assert rep.s_min_theorem == 64
        assert rep.delta_threshold == Fraction(5, 6)

    def test_k4(self):
        rep = theorem_thresholds(4)
        assert rep.s_min_theorem == 84
        assert rep.delta_threshold == Fraction(7, 8)

    def test_quadratic_term_can_dominate(self):
        rep = theorem_thresholds(23)
        assert rep.s_min_theorem == 23 * 23 + 23 + 1

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            theorem_thresholds(1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 500))
    def test_equals_trial_division_omega(self, k):
        """The thresholds from the factored modulus equal those from the
        former trial-division count of the distinct primes of k."""
        n, om, d = k, 0, 2
        while d * d <= n:
            if n % d == 0:
                om += 1
                while n % d == 0:
                    n //= d
            d += 1
        om += n > 1
        rep = theorem_thresholds(k)
        assert rep.s_min_theorem == max(16 * k * om + 4 * k + 3, k * k + k) + 1
        assert rep.s_min_local == 8 * k * om + 2 * k + 2
        assert rep.delta_threshold == Fraction(2 * k - 1, 2 * k)


ODD_SMOOTH = sorted(3**b * 5**c for b in range(13) for c in range(9))


def window_grids(twos):
    """The grids 2^twos m, m odd and 5-smooth, from the window rule's floor
    to 2^20 points."""
    return [m << twos for m in ODD_SMOOTH if _WINDOW_FLOOR <= m << twos <= 1 << 20]


def benchmark_chain(N, seed, s=44):
    """The s parts of the paper's chain at w = 3, k = 2: the subset
    bernoulli:0.97:seed, its class means, the decomposition of the target s
    over the thinned means, and one f_b a part."""
    W = compute_W(3, 2)
    Wv = W.value
    sub = gen_subset(parse_subset_spec(f"bernoulli:0.97:{seed}"), max(math.isqrt(Wv * N + Wv), 100))
    means = mean_g(W, 2, N, sub, epsilon=0.1)
    f_map = {b: max(0.0, min((g - 0.05) / 1.1, 1 - 1e-12)) for b, g in means.per_b.items()}
    decomp = local_decompose(W, 2, s, s % Wv, f_map)
    assert isinstance(decomp, LocalDecomposition)
    return [build_f(W, b, 2, N, sub) for b in decomp.parts]


class TestWindowInverse:
    """The convolution kernel reads a small window of a large grid by the
    four-step window inverse, with one irfft as its cross-check."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4),
        st.data(),
        st.sampled_from(["start", "end", "point", "widest"]),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_irfft(self, twos, data, where, seed):
        grid = data.draw(st.sampled_from(window_grids(twos)))
        L1 = _window_split(grid, 1)
        widest = grid // L1 // _COLUMN_SHARE
        assert L1 and _window_split(grid, widest) == L1
        assert _window_split(grid, widest + 1) == 0
        width = {"point": 1, "widest": widest}.get(where) or data.draw(st.integers(1, widest))
        lo = {"start": 0, "end": grid - width}.get(where)
        if lo is None:
            lo = data.draw(st.integers(0, grid - width))
        rng = np.random.default_rng(seed)
        half = grid // 2 + 1
        H = rng.standard_normal(half) + 1j * rng.standard_normal(half)
        H *= np.exp(-np.arange(half) / data.draw(st.sampled_from([10.0, 1e3, np.inf])))
        want = np.fft.irfft(H, grid)[lo : lo + width]
        got = _window_inverse(H, grid, lo, lo + width - 1, L1)
        ulp = np.finfo(float).eps * np.abs(H).sum() * math.log2(grid) / grid
        assert np.abs(got - want).max() <= 4 * ulp

    def test_gauge_above_the_floor_makes_no_grid_irfft(self, monkeypatch):
        s, N = 44, 1 << 14
        rng = np.random.default_rng(6)
        pair = [WeightedSequence(values=rng.random(N), kind="custom", W=0, b=0, k=0) for _ in "ab"]
        f_list = pair * (s // 2)
        lo, hi = window_of(s, N)
        width = hi - lo + 1
        grid = smooth_above(max(hi, s * N - lo))
        L1 = _window_split(grid, width)
        assert grid >= _WINDOW_FLOOR and L1
        L2 = grid // L1
        batch = max(1, grid // 8 // (L2 + width))
        prof, lengths = fft_lengths(monkeypatch, lambda: transference_gauge(f_list))
        assert prof.values.shape == (width,)
        calls = -(-(L1 // 2 + 1) // batch)
        assert lengths == {"rfft": [grid] * 2, "irfft": [], "ifft": [L2] * calls}

    def test_count_keeps_one_irfft(self, monkeypatch):
        # the counts up to hi = 450^2, half the top: a window of half the
        # grid, read with the rest of the grid by one irfft
        sub = all_primes(450)
        hi = 450**2
        powers = [p * p for p in map(int, sub.primes()) if p * p <= hi]
        grid = smooth_above(2 * max(powers))
        assert grid >= _WINDOW_FLOOR and grid % 4 == 0
        counts, lengths = fft_lengths(monkeypatch, lambda: count_representations(sub, 2, 2, hi))
        assert lengths == {"rfft": [grid], "irfft": [grid], "ifft": []}
        padded = np.zeros(grid)
        padded[powers] = 1.0
        readout = np.fft.irfft(np.fft.rfft(padded) ** 2, grid)[: hi + 1]
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.rint(readout).astype(np.int64))

    @pytest.mark.parametrize("N", [1 << 15, 1 << 16])
    @pytest.mark.parametrize("seed", [37, 7373])
    def test_benchmark_chain_matches_the_irfft(self, monkeypatch, N, seed):
        f_list = benchmark_chain(N, seed)
        lo, hi = window_of(44, N)
        assert _window_split(_smooth_above(max(hi, 44 * N - lo)), hi - lo + 1)
        prof = transference_gauge(f_list)
        monkeypatch.setattr(representation, "_window_split", lambda grid, width: 0)
        want = transference_gauge(f_list)
        assert prof.window == want.window
        assert np.abs(prof.values - want.values).max() <= 1e-12 * want.values.max()
        assert math.isclose(prof.gauge, want.gauge, rel_tol=1e-12)
        assert prof.numeric_warning == want.numeric_warning
        assert (prof.mean_each_ok, prof.mean_sum_ok) == (want.mean_each_ok, want.mean_sum_ok)
