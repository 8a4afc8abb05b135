import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wglab.bitsets import (
    bit_positions,
    bits_from,
    cyclic_power,
    cyclic_power_stepwise,
    line_add,
    line_power,
)
from wglab.core_arith import FactoredModulus, LimitExceededError, compute_Rk, compute_W
from wglab.local_structure import (
    _power_residues_cached,
    _target_mask,
    DecompositionFailure,
    LocalDecomposition,
    local_decompose,
    power_class_count,
    power_residues,
    sigma_b,
    sumset_cover_check,
    waring_pair_check,
)


def fm(n):
    return FactoredModulus.from_value(n)


class TestPowerResidues:
    def test_squares_mod_16(self):
        t = power_residues(fm(16), 2)
        assert np.flatnonzero(t.counts).tolist() == [0, 1, 4, 9]
        assert t.units.tolist() == [1, 9]

    def test_squares_mod_3(self):
        assert power_residues(fm(3), 2).units.tolist() == [1]

    def test_unit_count_1296_with_crt_cross_check(self):
        t = power_residues(fm(1296), 2)
        assert t.units.size == 54
        n16 = power_residues(fm(16), 2).units.size
        n81 = power_residues(fm(81), 2).units.size
        assert n16 * n81 == 54

    def test_multiplicity_invariants(self):
        for m, k in ((16, 2), (81, 2), (64, 3), (45, 2)):
            t = power_residues(fm(m), k)
            image = np.flatnonzero(t.counts)
            assert set(t.units.tolist()) <= set(image.tolist())
            assert all(int(t.counts[b]) >= 1 for b in image)
            assert int(t.counts.sum()) == m
            phi = fm(m).euler_phi
            assert sum(int(t.counts[b]) for b in t.units) == phi

    def test_cap_refusal(self):
        with pytest.raises(LimitExceededError):
            power_residues(fm(10**7 + 1), 2)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 3000), k=st.integers(1, 7))
    @example(m=2, k=2)
    @example(m=1296, k=2)
    @example(m=2 * 3 * 5 * 7 * 11, k=4)
    def test_table_equals_brute_force(self, m, k):
        """powers, counts and units against a Python enumeration of z^k mod
        m, is_unit against gcd and counts, and all three arrays read-only."""
        t = power_residues(fm(m), k)
        powers = [pow(z, k, m) for z in range(m)]
        counts = [0] * m
        for r in powers:
            counts[r] += 1
        units = [r for r in range(m) if counts[r] and math.gcd(r, m) == 1]
        assert t.powers.tolist() == powers
        assert t.counts.tolist() == counts
        assert t.units.dtype == np.int64
        assert t.units.tolist() == units
        assert [r for r in range(m) if t.is_unit(r)] == units
        for array in (t.powers, t.counts, t.units):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_peak_bytes_per_residue(self):
        """The table's traced peak at a prime near 10^6, k = 2, measured at
        24.5 bytes a residue: powers and counts, 8 bytes each, and the unit
        filter's int64 temporaries.  Python containers of the residues
        would take about 100."""
        q = 999_983
        tracemalloc.start()
        try:
            _power_residues_cached.__wrapped__(fm(q), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28 * q


class TestRootMultiplicity:
    def test_values(self):
        assert sigma_b(compute_W(3, 2), 2, 1) == 8
        assert sigma_b(compute_W(2, 2), 2, 1) == 4
        assert sigma_b(compute_W(2, 2), 2, 9) == 4

    def test_rejects_non_unit_power(self):
        with pytest.raises(ValueError):
            sigma_b(compute_W(2, 2), 2, 4)  # square but not a unit
        with pytest.raises(ValueError):
            sigma_b(compute_W(2, 2), 2, 3)  # unit but not a square

    @pytest.mark.parametrize("b", [3, 4, 18, 19, -1])
    def test_one_message_names_b_as_given(self, b):
        # 18 and 19 reduce to 2 and 3 mod 16; -1 to 15
        message = rf"^b = {b} is not a unit k-th power residue mod 16$"
        with pytest.raises(ValueError, match=message):
            sigma_b(compute_W(2, 2), 2, b)

    def test_b_past_w_reduces(self):
        assert sigma_b(compute_W(2, 2), 2, 17) == sigma_b(compute_W(2, 2), 2, 25) == 4

    def test_constant_over_unit_powers(self):
        W = compute_W(3, 2)
        t = power_residues(W, 2)
        vals = {sigma_b(W, 2, b) for b in t.units.tolist()}
        assert vals == {W.euler_phi // t.units.size}


class TestPowerClassCount:
    def test_examples(self):
        assert power_class_count(3, 2, 1) == 27
        assert power_class_count(5, 2, 4) == 125
        assert power_class_count(3, 3, 2) == 81

    def test_closed_form_over_small_primes(self):
        # the function itself asserts enumeration == closed form; sweep it
        for p in (3, 5, 7):
            for k in (2, 3):
                for a in power_residues(fm(p), k).units.tolist():
                    assert power_class_count(p, k, a) == p ** (2 * k - 1 - _tau(k, p))

    @pytest.mark.parametrize("p, k", [(11, 2), (29, 2), (3, 4), (7, 3), (3, 6)])
    def test_every_class_against_the_closed_form(self, p, k):
        # p = 3, k = 6 has tau = 1; below 10^5 residues a set of the power
        # map's values gives each count a second time
        big = p ** (2 * k)
        for a in power_residues(fm(p), k).units.tolist():
            count = power_class_count(p, k, a)
            assert count == p ** (2 * k - 1 - _tau(k, p))
            if big <= 10**5:
                assert count == len({r for r in (pow(t, k, big) for t in range(big)) if r % p == a})

    def test_rejects_even_prime_and_bad_class(self):
        with pytest.raises(ValueError):
            power_class_count(2, 2, 1)
        with pytest.raises(ValueError):
            power_class_count(5, 2, 2)  # 2 is not a square mod 5


def _tau(k, p):
    e = 0
    while k % p == 0:
        k //= p
        e += 1
    return e


class TestSumsetCover:
    def test_majority_pair_mod_16(self):
        res = sumset_cover_check(compute_W(2, 2), 2, 16, {1, 9})
        assert res.covered and res.uncovered == [] and res.extra == []
        assert res.sumset_size == 2  # {0, 8}

    def test_single_element_mod_3(self):
        res = sumset_cover_check(fm(3), 2, 2, {1})
        assert res.covered
        assert res.target_size == 1

    def test_miss_mod_5(self):
        res = sumset_cover_check(fm(5), 2, 2, {1, 4})
        assert not res.covered
        assert res.uncovered == [1, 4]
        assert res.target_size == 5  # every residue is admissible here

    def test_rejects_bad_subset(self):
        with pytest.raises(ValueError):
            sumset_cover_check(fm(5), 2, 2, set())
        with pytest.raises(ValueError):
            sumset_cover_check(fm(5), 2, 2, {1, 2})

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_monotone_in_subset(self, data):
        q = data.draw(st.sampled_from([16, 81, 45, 65, 1296]))
        k = data.draw(st.sampled_from([2, 3]))
        s = data.draw(st.integers(min_value=1, max_value=6))
        units = power_residues(fm(q), k).units.tolist()
        small = data.draw(st.sets(st.sampled_from(units), min_size=1))
        extra = data.draw(st.sets(st.sampled_from(units)))
        big = small | extra
        inner = cyclic_power(bits_from(small), s, q)
        outer = cyclic_power(bits_from(big), s, q)
        assert inner & ~outer == 0  # sumset of the subset is contained

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_stall_exit_equals_stepwise(self, data):
        """The stall exit's rotation gives the s-fold sumset of every base:
        empty, a singleton (stalls at the first addition), full or any
        subset of Z_q."""
        q = data.draw(st.integers(2, 200))
        B = data.draw(
            st.one_of(
                st.just(0),
                st.integers(0, q - 1).map(lambda r: 1 << r),
                st.just((1 << q) - 1),
                st.sets(st.integers(0, q - 1)).map(bits_from),
                st.integers(0, (1 << q) - 1),
            )
        )
        s = data.draw(st.integers(1, 40))
        assert cyclic_power(B, s, q) == cyclic_power_stepwise(B, s, q)

    def test_target_mask_equals_the_residue_loop(self):
        """The closed-form target mask equals one shift-or per residue a
        with a = s (mod gcd(R_k, q)), for q < 400, k <= 6 and s < 30."""
        loops = {}
        for q in range(2, 400):
            fq = fm(q)
            for k in range(1, 7):
                g = compute_Rk(k).gcd_value(fq)
                for s in range(30):
                    want = s % g
                    if (q, want, g) not in loops:
                        mask = 0
                        for a in range(q):
                            if a % g == want:
                                mask |= 1 << a
                        loops[q, want, g] = mask
                    assert _target_mask(q, k, s, fq) == loops[q, want, g]


class _InProcessPool:
    """A multiprocessing.Pool stand-in that maps in this process and records
    each pool's (processes, chunk count)."""

    made: list = []

    def __init__(self, processes):
        self.processes = processes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        self.made.append((self.processes, len(chunks)))
        return [fn(c) for c in chunks]


class TestWaringPairCheck:
    def test_exhaustive_pair_16(self):
        rep = waring_pair_check(compute_W(2, 2), 2, 16, "exhaustive")
        assert rep.verdict == "pair"
        assert rep.trials == 1  # only one minimal majority subset exists

    def test_exhaustive_not_pair_5(self):
        rep = waring_pair_check(fm(5), 2, 2, "exhaustive")
        assert rep.verdict == "not-pair"
        assert rep.witness == [1, 4]
        assert rep.uncovered == [1, 4]

    def test_sampled_caps_at_no_violation(self):
        rep = waring_pair_check(fm(81), 2, 16, "sampled", trials=500, seed=11)
        assert rep.verdict == "no-violation-found"
        assert rep.trials == 500

    def test_sampled_finds_violation(self):
        rep = waring_pair_check(fm(5), 2, 2, "sampled", trials=50, seed=3)
        assert rep.verdict == "not-pair"

    def test_structured_families(self):
        rep = waring_pair_check(fm(81), 2, 16, "structured")
        assert rep.verdict == "no-violation-found"
        assert rep.trials > 20

    def test_budget_refusal(self):
        with pytest.raises(LimitExceededError):
            waring_pair_check(fm(81), 2, 16, "exhaustive", budget=10**4)

    def test_count_past_printable_digits_refused_quickly(self):
        """C(15005, 7503) at q = 30011 has about 4,500 digits, more than an
        int may print; the scan is refused by a count cut at the budget."""
        t0 = time.perf_counter()
        with pytest.raises(LimitExceededError, match=r"C\(15005, 7503\) subsets, over budget"):
            waring_pair_check(fm(30011), 2, 5, "exhaustive")
        assert time.perf_counter() - t0 < 1

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            waring_pair_check(fm(5), 2, 2, "guess")

    def test_json_round_trip(self):
        rep = waring_pair_check(fm(5), 2, 2, "exhaustive")
        d = rep.to_dict()
        assert d["verdict"] == "not-pair"
        assert d["witness"] == [1, 4]
        assert d["q"] == 5 and d["k"] == 2 and d["s"] == 2
        assert d["q_factors"] == [[5, 1]]

    def test_threaded_exhaustive_matches_serial(self, monkeypatch):
        import wglab.local_structure as ls

        monkeypatch.setattr(ls, "_PARALLEL_MIN", 1)
        for q, k, s in ((45, 2, 8), (13, 2, 2)):
            serial = waring_pair_check(fm(q), k, s, "exhaustive", threads=1)
            threaded = waring_pair_check(fm(q), k, s, "exhaustive", threads=2)
            assert (serial.verdict, serial.witness, serial.trials) == (
                threaded.verdict,
                threaded.witness,
                threaded.trials,
            )


    def test_pool_clamped_to_cores_and_chunks(self, monkeypatch):
        import multiprocessing

        import wglab.local_structure as ls

        sizes = []

        class RecordingPool:
            """Runs the chunks in this process and records the worker count."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return [fn(c) for c in chunks]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(multiprocessing, "cpu_count", lambda: 3)
        monkeypatch.setattr(ls, "_PARALLEL_MIN", 1)
        for q, k, s, total in ((45, 2, 8, 15), (13, 2, 2, 15), (5, 2, 2, 1)):
            serial = waring_pair_check(fm(q), k, s, "exhaustive", threads=1)
            pooled = waring_pair_check(fm(q), k, s, "exhaustive", threads=10**6)
            assert sizes.pop() == min(3, total)
            assert (pooled.verdict, pooled.witness, pooled.trials) == (
                serial.verdict,
                serial.witness,
                serial.trials,
            )
        waring_pair_check(fm(45), 2, 8, "exhaustive", threads=2)
        assert sizes == [2]

    def test_pooled_violation_past_first_chunk(self, monkeypatch):
        """On 16 cores the 3,003 subsets at q = 29 split into chunks of 188, so
        the first violation, rank 273, lies in the second chunk; the pooled
        report equals the serial one."""
        import multiprocessing

        import wglab.local_structure as ls

        monkeypatch.setattr(_InProcessPool, "made", [])
        monkeypatch.setattr(multiprocessing, "Pool", _InProcessPool)
        monkeypatch.setattr(multiprocessing, "cpu_count", lambda: 16)
        monkeypatch.setattr(ls, "_PARALLEL_MIN", 1)
        serial = {}
        for q, chunks in ((29, 16), (13, 15)):
            serial[q] = waring_pair_check(fm(q), 2, 3, "exhaustive", threads=1)
            pooled = waring_pair_check(fm(q), 2, 3, "exhaustive", threads=10**6)
            assert pooled == serial[q]
            assert _InProcessPool.made.pop() == (chunks, chunks)
        assert serial[29].witness == [1, 4, 5, 7, 13, 16, 22, 25]
        assert serial[29].trials == 274
        assert serial[29].trials - 1 >= -(-math.comb(14, 8) // 16)  # not in chunk 1
        assert (serial[13].witness, serial[13].trials) == ([1, 3, 4, 10], 2)


# moduli and powers whose whole unit power support has coset step g = 1
# (11), 2 (64 at k = 3), 8 (16) and 24 (1296), and others between
_COSET_MODULI = ((16, 2), (21, 2), (13, 2), (11, 2), (15, 2), (35, 2), (45, 2), (1296, 2), (64, 3), (63, 3))


class TestLocalDecompose:
    def setup_method(self):
        self.W = compute_W(2, 2)

    def test_constant_above_half_succeeds(self):
        f = {1: 0.6, 9: 0.6}
        for n in (0, 8):  # the reachable classes for 16 parts
            res = local_decompose(self.W, 2, 16, n, f)
            assert isinstance(res, LocalDecomposition)
            assert res.total == pytest.approx(9.6)
            assert res.total > 8

    def test_constant_below_half_fails_with_optimum(self):
        res = local_decompose(self.W, 2, 16, 0, {1: 0.4, 9: 0.4})
        assert isinstance(res, DecompositionFailure)
        assert res.optimum == pytest.approx(6.4)

    def test_single_support(self):
        res = local_decompose(self.W, 2, 16, 0, {1: 0.9, 9: 0.0})
        assert isinstance(res, LocalDecomposition)
        assert res.parts == [1] * 16
        assert res.total == pytest.approx(14.4)

    @pytest.mark.parametrize("f", [{1: 0.6}, {1: 0.6, 4: 0.6}, {1: 0.6, 9: 0.6, 25: 0.6}, {}])
    def test_f_off_the_units_rejected(self, f):
        # the units mod 16 are 1 and 9; 25 is 9 unreduced, not a residue
        with pytest.raises(ValueError, match=r"^f must be defined exactly on the 2 unit power"):
            local_decompose(self.W, 2, 16, 0, f)

    def test_unreachable_reports_none(self):
        res = local_decompose(self.W, 2, 2, 3, {1: 0.6, 9: 0.6})
        assert isinstance(res, DecompositionFailure)
        assert res.optimum is None

    def test_result_reverifies(self):
        res = local_decompose(self.W, 2, 16, 8, {1: 0.7, 9: 0.6})
        assert isinstance(res, LocalDecomposition)
        assert sum(res.parts) % 16 == 8
        assert all(v > 0 for v in res.values)
        assert res.total == pytest.approx(sum(res.values))

    def test_tie_break_is_deterministic(self):
        res1 = local_decompose(self.W, 2, 2, 10, {1: 0.6, 9: 0.6})
        res2 = local_decompose(self.W, 2, 2, 10, {1: 0.6, 9: 0.6})
        assert res1.parts == res2.parts == [9, 1]

    def test_rejects_bad_weight_map(self):
        with pytest.raises(ValueError):
            local_decompose(self.W, 2, 4, 0, {1: 0.5})  # missing 9
        with pytest.raises(ValueError):
            local_decompose(self.W, 2, 4, 0, {1: 0.5, 9: 1.0})  # 1.0 outside [0,1)
        with pytest.raises(ValueError):
            local_decompose(self.W, 2, 4, 0, {1: 0.5, 9: 0.5, 3: 0.5})

    def test_dp_equals_brute_force(self):
        rng = random.Random(99)
        cases = [(16, 2), (21, 2), (13, 2), (11, 2)]
        for m, k in cases:
            units = power_residues(fm(m), k).units.tolist()
            assert len(units) <= 8
            for _ in range(4):
                f = {b: rng.choice([0.0, rng.random()]) for b in units}
                s = rng.randint(1, 6)
                support = [b for b in units if f[b] > 0]
                best = {n: -math.inf for n in range(m)}
                for combo in itertools.product(support, repeat=s):
                    n = sum(combo) % m
                    best[n] = max(best[n], sum(f[b] for b in combo))
                for n in range(m):
                    res = local_decompose(fm(m), k, s, n, f)
                    if isinstance(res, DecompositionFailure):
                        got = -math.inf if res.optimum is None else res.optimum
                    else:
                        got = res.total
                    if best[n] == -math.inf:
                        assert got == -math.inf
                    else:
                        assert got == pytest.approx(best[n], abs=1e-9)

    def test_cell_cap_refuses_before_allocating(self):
        # 810000 residues, 13500 unit squares, all = 1 (mod 24): g = 24, so
        # 44 * 13500 * 33750 = 2.0e10 cells at s = 44
        W = compute_W(5, 2)
        f = {b: 0.6 for b in power_residues(W, 2).units.tolist()}
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(LimitExceededError, match="cells exceeds cap"):
                local_decompose(W, 2, 44, 0, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 5
        assert peak < 16 << 20

    def test_sampled_moduli_span_coset_steps(self):
        """The coset step g = gcd(W, b - b0) of the whole unit power support
        is 1, 2, 8 and 24 at the moduli the roll-loop comparison samples."""
        for m, k, g in ((11, 2, 1), (64, 3, 2), (16, 2, 8), (1296, 2, 24)):
            units = power_residues(fm(m), k).units.tolist()
            assert math.gcd(m, *(b - units[0] for b in units)) == g

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(_COSET_MODULI), st.data())
    def test_live_rounds_equal_roll_loop(self, modulus, data):
        """Every target's result is bit-equal to the roll-loop kernel's over
        all m states, ties, off-coset, unreachable targets and empty supports
        included (float repr round-trips exactly)."""
        m, k = modulus
        s = data.draw(st.integers(1, 44 if m == 1296 else 12))
        units = power_residues(fm(m), k).units.tolist()
        weight = st.one_of(st.just(0.0), st.sampled_from((0.3, 0.5, 0.6)), st.floats(0.01, 0.99))
        weights = data.draw(st.lists(weight, min_size=len(units), max_size=len(units)))
        # len(units): the empty support
        zeroed = data.draw(st.one_of(st.just(len(units)), st.integers(0, len(units))))
        f = {b: (0.0 if i < zeroed else w) for i, (b, w) in enumerate(zip(units, weights))}
        want = _roll_loop_decompose(m, s, f)
        for n in range(m):
            assert repr(local_decompose(fm(m), k, s, n, f)) == repr(want(n))

    @pytest.mark.parametrize("seed", range(3))
    def test_44_parts_mod_1296_equal_roll_loop(self, seed):
        """The transference chain's shape, s = 44 at W = 1296, on weights
        drawn as the comparison above draws them, some residues zeroed."""
        rng = random.Random(seed)
        units = power_residues(fm(1296), 2).units.tolist()
        f = {b: rng.choice((0.0, 0.6, rng.uniform(0.01, 0.99))) for b in units}
        want = _roll_loop_decompose(1296, 44, f)
        for n in range(1296):
            assert repr(local_decompose(fm(1296), 2, 44, n, f)) == repr(want(n))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(_COSET_MODULI),
        st.integers(1, 12),
        st.floats(0.05, 0.9),
        st.sampled_from((0.0, 1e-13, 5e-13, 1e-12, 3e-12)),
        st.integers(0, 2**16),
    )
    @example((16, 2), 3, 0.6, 1e-13, 0)
    @example((11, 2), 5, 0.3, 1e-12, 1)
    def test_backtrack_ties_equal_roll_loop(self, modulus, s, base, gap, seed):
        """The backtrack over Python floats keeps the tie rule: the first
        part in the sorted support within 1e-12 of the step's value.  The
        two least unit residues weigh base and base + gap, the rest one of
        those, a random weight or 0."""
        m, k = modulus
        units = power_residues(fm(m), k).units.tolist()
        rng = random.Random(seed)
        f = {b: rng.choice((0.0, base, base + gap, rng.uniform(0.01, 0.99))) for b in units}
        f[units[0]], f[units[1]] = base, base + gap
        want = _roll_loop_decompose(m, s, f)
        for n in range(m):
            assert repr(local_decompose(fm(m), k, s, n, f)) == repr(want(n))

    def test_off_coset_target_fails_at_once(self):
        """With 100 unit squares mod 810000, all = 1 (mod 24), s parts sum
        to s (mod 24): any other target fails with optimum None before the
        table is made, while a target on the coset is decomposed."""
        W, s, f = self._hundred_squares()
        assert isinstance(local_decompose(W, 2, s, s, f), LocalDecomposition)
        tracemalloc.start()
        try:
            res = local_decompose(W, 2, s, s + 1, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res == DecompositionFailure(target=s + 1, modulus=W.value, optimum=None)
        assert peak < 1 << 20  # the set of f's keys; the table alone is 2.4 MB

    def test_table_holds_one_coset(self):
        """The table holds (s + 1) W/g floats, the m = 33750 states of the
        coset, beside a gather of about _GATHER_BLOCK cells (its index, the
        index's temporaries and the candidates, 2 MB) and the set of f's
        keys; on all W states it would hold 58 MB."""
        W, s, f = self._hundred_squares()
        table = (s + 1) * (W.value // 24) * 8
        tracemalloc.start()
        try:
            res = local_decompose(W, 2, s, s, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(res, LocalDecomposition)
        assert table <= peak <= table + (4 << 20)

    @staticmethod
    def _hundred_squares():
        W = compute_W(5, 2)  # 810000 states
        units = power_residues(W, 2).units.tolist()
        kept = set(random.Random(8).sample(units, 100))
        return W, 8, {b: (0.6 if b in kept else 0.0) for b in units}

    def test_gather_runs_in_blocks(self):
        """The per-round gather stays a bounded temporary beside the table."""
        W = compute_W(5, 2)  # 810000 states
        units = power_residues(W, 2).units.tolist()
        kept = set(random.Random(8).sample(units, 100))  # 26540 live states in round 3
        f = {b: (0.6 if b in kept else 0.0) for b in units}
        s = 3  # 3 * 100 * 810000 = 2.43e8 cells, under the cap
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            res = local_decompose(W, 2, s, 3, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1
        assert isinstance(res, LocalDecomposition)
        assert peak <= (s + 1) * W.value * 8 + (4 << 20)


def _roll_loop_decompose(m, s, f):
    """local_decompose's former kernel, as a map from each target to its
    result: one np.roll, add and np.maximum pass per part a round over all
    m states, and a scalar backtrack that takes the smallest residue within
    1e-12."""
    support = sorted(b for b in f if f[b] > 0)
    dp = np.full((s + 1, m), -np.inf)
    dp[0][0] = 0.0
    for i in range(1, s + 1):
        for b in support:
            np.maximum(dp[i], np.roll(dp[i - 1], b) + f[b], out=dp[i])

    def decompose(n):
        optimum = float(dp[s][n])
        if optimum == -np.inf:
            return DecompositionFailure(target=n, modulus=m, optimum=None)
        if optimum <= s / 2:
            return DecompositionFailure(target=n, modulus=m, optimum=optimum)
        parts, r = [], n
        for i in range(s, 0, -1):
            for b in support:
                cand = dp[i - 1][(r - b) % m] + f[b]
                if cand == dp[i][r] or abs(cand - dp[i][r]) <= 1e-12:
                    parts.append(b)
                    r = (r - b) % m
                    break
        parts = parts[::-1]
        return LocalDecomposition(
            target=n,
            modulus=m,
            parts=parts,
            values=[f[b] for b in parts],
            total=float(sum(f[b] for b in parts)),
        )

    return decompose


# hi at and around a word boundary, or any; operands empty, sparse or
# dense, with bits up to 760, above hi as often as not
_HIS = st.one_of(st.sampled_from((0, 63, 64, 65)), st.integers(0, 700))
_MASKS = st.one_of(
    st.just(0),
    st.sets(st.integers(0, 760), max_size=12).map(bits_from),
    st.integers(0, (1 << 761) - 1),
)


def _bigint_line_add(X, Y, hi):
    """line_add's former kernel: one shift and OR of the whole int X per
    set bit of the sparser operand Y, then one clip to [0, hi]."""
    if X == 0 or Y == 0:
        return 0
    if X.bit_count() < Y.bit_count():
        X, Y = Y, X
    out = 0
    while Y:
        low = Y & -Y
        out |= X << (low.bit_length() - 1)
        Y ^= low
    return out & ((1 << (hi + 1)) - 1)


def _bigint_line_power(B, s, hi):
    result = B
    for _ in range(s - 1):
        result = _bigint_line_add(result, B, hi)
    return result


class TestBitHelpers:
    def test_round_trip(self):
        vals = [0, 3, 17, 40]
        assert bit_positions(bits_from(vals)) == vals

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(0, 300), max_size=40), st.integers(1, 9), st.integers(0, 400))
    def test_line_power_equals_doubling(self, elements, s, hi):
        """s - 1 sparse additions give the bitmask of repeated doubling on the
        binary expansion of s."""
        B = bits_from(elements)
        result, cur, t = None, B, s
        while t:
            if t & 1:
                result = cur if result is None else line_add(result, cur, hi)
            t >>= 1
            if t:
                cur = line_add(cur, cur, hi)
        assert line_power(B, s, hi) == result

    @settings(max_examples=300, deadline=None)
    @given(_MASKS, _MASKS, _HIS)
    @example(1 << 63, 0b11, 64)
    @example((1 << 130) - 1, 1 << 65, 65)
    def test_line_add_equals_bigint_kernel(self, X, Y, hi):
        """The word kernel gives the whole-int shift-or's sumset, with the
        operands in either order."""
        want = _bigint_line_add(X, Y, hi)
        assert line_add(X, Y, hi) == want
        assert line_add(Y, X, hi) == want

    @settings(max_examples=200, deadline=None)
    @given(_MASKS, st.integers(1, 6), _HIS)
    def test_line_power_equals_bigint_kernel(self, B, s, hi):
        """s - 1 word additions give the whole-int kernel's sumset; s = 1
        returns B itself, bits above hi and all."""
        got = line_power(B, s, hi)
        assert got == _bigint_line_power(B, s, hi)
        if s == 1:
            assert got is B

