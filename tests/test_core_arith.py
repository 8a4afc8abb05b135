import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wglab.core_arith import (
    _SEGMENT,
    MEMORY_BUDGET,
    FactoredModulus,
    LimitExceededError,
    _simple_bool_sieve,
    compute_Rk,
    compute_W,
    gamma,
    iroot,
    rational_approx,
    sieve_primes,
    tau,
)


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


class TestTauGamma:
    def test_tau_examples(self):
        assert tau(2, 2) == 1
        assert tau(12, 2) == 2
        assert tau(6, 5) == 0

    def test_gamma_examples(self):
        assert gamma(2, 2) == 3
        assert gamma(2, 3) == 1
        assert gamma(4, 2) == 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            tau(0, 2)
        with pytest.raises(ValueError):
            tau(4, 6)


class TestCongruenceModulus:
    def test_small_values(self):
        assert compute_Rk(2).value == 24
        assert compute_Rk(3).value == 2
        assert compute_Rk(4).value == 240

    def test_table_k2_to_6(self):
        assert [compute_Rk(k).value for k in range(2, 7)] == [24, 2, 240, 2, 504]

    def test_congruence_oracle(self):
        # every prime above R_k satisfies p^k = 1 mod R_k
        primes = trial_division_primes(10**4)
        for k in range(2, 7):
            rk = compute_Rk(k).value
            for p in primes:
                if p > rk:
                    assert pow(p, k, rk) == 1, (k, p)

    def test_factorization_is_exact(self):
        r = compute_Rk(6)
        assert r.factors == ((2, 3), (3, 2), (7, 1))
        assert math.prod(p**e for p, e in r.factors) == r.value

    def test_divides_W_when_support_covered(self):
        # whenever every prime with (p-1) | k is sieved into W and its
        # exponent fits under 2k, the congruence modulus divides W
        for k in range(1, 13):
            needed = [p for p in range(2, k + 2) if _is_prime(p) and k % (p - 1) == 0]
            if any(gamma(k, p) > 2 * k for p in needed):
                continue
            w0 = max(needed)
            for w in (w0, w0 + 3):
                assert compute_W(w, k).value % compute_Rk(k).value == 0


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestProgressionModulus:
    def test_examples(self):
        assert compute_W(2, 3).value == 64
        assert compute_W(3, 2).value == 1296
        assert compute_W(5, 2).value == 810000

    def test_rejects_small_w(self):
        with pytest.raises(ValueError):
            compute_W(1, 2)

    def test_euler_phi(self):
        W = compute_W(3, 2)
        assert W.euler_phi == 432


class TestFactoredModulus:
    def test_validates_product(self):
        with pytest.raises(ValueError):
            FactoredModulus(12, ((2, 1), (3, 1)))

    def test_validates_order(self):
        with pytest.raises(ValueError):
            FactoredModulus(6, ((3, 1), (2, 1)))

    def test_validates_primality(self):
        with pytest.raises(ValueError):
            FactoredModulus(4, ((4, 1),))

    def test_gcd_and_split(self):
        a = FactoredModulus.from_value(24)
        b = FactoredModulus.from_value(36)
        assert a.gcd_value(b) == 12
        u, v = FactoredModulus.from_value(360).split_by_support((2, 3))
        assert (u.value, v.value) == (72, 5)

    def test_scaled_by(self):
        W = compute_W(2, 2)
        q = FactoredModulus.from_value(6)
        assert W.scaled_by(q).value == 96
        assert W.scaled_by(q).euler_phi == 32


class TestSieve:
    def test_primes_to_10(self):
        ps = sieve_primes(10)
        assert list(ps.primes()) == [2, 3, 5, 7]

    def test_classical_counts(self):
        assert sieve_primes(100).count == 25
        assert sieve_primes(10**6).count == 78498

    def test_matches_trial_division(self):
        ps = sieve_primes(10**5)
        expected = set(trial_division_primes(10**5))
        assert set(map(int, ps.primes())) == expected
        for n in (0, 1, 2, 97, 99, 10**5):
            assert (n in ps) == (n in expected)

    def test_segmented_agrees_with_simple(self):
        # limit above the segment size exercises the segmented path
        big = sieve_primes(5 * 10**6)
        assert big.count == 348513  # classical value of pi(5e6)
        assert 4999999 in big and 4999997 not in big

    def test_segmented_at_hundred_million(self):
        big = sieve_primes(10**8)
        assert big.count == 5761455  # classical value of pi(1e8)
        assert list(map(int, big.primes(99999900, 10**8))) == [
            99999931, 99999941, 99999959, 99999971, 99999989,
        ]

    def test_mask_equals_simple_sieve(self):
        # every small limit, then one segment either side of each boundary
        limits = [*range(2, 3001), _SEGMENT - 1, _SEGMENT, _SEGMENT + 1, 2 * _SEGMENT + 7]
        for limit in limits:
            mask = sieve_primes(limit).mask
            assert mask.dtype == bool and np.array_equal(mask, _simple_bool_sieve(limit)), limit

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 3000), st.integers(-5, 3100), st.integers(-5, 3100) | st.none())
    def test_readers_agree_with_mask(self, limit, lo, hi):
        """count, membership and primes(lo, hi) read the one mask, which
        nobody can write to."""
        ps = sieve_primes(limit)
        expected = np.flatnonzero(_simple_bool_sieve(limit))
        assert ps.limit == limit and ps.count == len(expected)
        assert [n for n in range(-3, limit + 4) if n in ps] == expected.tolist()
        got = ps.primes(lo, hi)
        top = limit if hi is None else hi
        assert got.dtype == np.int64
        assert np.array_equal(got, expected[(expected >= lo) & (expected <= top)])
        with pytest.raises(ValueError):
            ps.mask[lo % (limit + 1)] = True

    def test_cap_refusal(self):
        with pytest.raises(LimitExceededError):
            sieve_primes(MEMORY_BUDGET)

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            sieve_primes(1)


def _bisected_root(x, k):
    """The largest r with r^k <= x, by integer bisection."""
    lo, hi = 0, 1
    while hi**k <= x:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**k <= x else (lo, mid)
    return lo


class TestIntegerRoot:
    def test_exact_at_boundaries(self):
        for k in (2, 3, 5):
            for r in (1, 2, 10, 12345):
                assert iroot(r**k, k) == r
                assert iroot(r**k - 1, k) == r - 1
                assert iroot(r**k + 1, k) == r

    def test_large_values_beyond_float_precision(self):
        r = 10**8 + 7
        assert iroot(r**2, 2) == r
        assert iroot(r**2 - 1, 2) == r - 1

    def test_exact_past_float_range(self):
        """10^400 overflows a float; the root is exact at any size."""
        assert iroot(10**400, 2) == 10**200
        rng = random.Random(20261019)
        for _ in range(300):
            x = rng.randrange(10 ** rng.randint(1, 600))
            assert iroot(x, 2) == math.isqrt(x)
            for k in (3, 4, 5):
                assert iroot(x, k) == _bisected_root(x, k)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            iroot(-1, 2)
        with pytest.raises(ValueError):
            iroot(4, 0)


class TestRationalApprox:
    def test_zero_and_half(self):
        assert rational_approx(0.0, 10) == (0, 1)
        assert rational_approx(0.5, 10) == (1, 2)

    def test_pi_fraction(self):
        alpha = math.pi - 3
        a, q = rational_approx(alpha, 120)
        assert (a, q) == (16, 113)
        assert abs(alpha - a / q) <= 1 / (113 * 120)

    def test_random_dirichlet_postconditions(self):
        rng = random.Random(20240809)
        for _ in range(10**4):
            alpha = rng.random()
            Q = rng.randint(1, 10**6)
            a, q = rational_approx(alpha, Q)
            assert 1 <= q <= Q
            assert math.gcd(a, q) == 1
            assert abs(alpha - Fraction(a, q)) <= Fraction(1, q * Q)

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
        Q=st.integers(min_value=1, max_value=10**9),
    )
    def test_property_dirichlet(self, alpha, Q):
        a, q = rational_approx(alpha, Q)
        assert 1 <= q <= Q
        assert math.gcd(a, q) == 1
        assert abs(Fraction(alpha) - Fraction(a, q)) <= Fraction(1, q * Q)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rational_approx(0.5, 0)
        with pytest.raises(ValueError):
            rational_approx(1.5, 10)
