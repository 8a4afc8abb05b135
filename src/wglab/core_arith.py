"""Exact integer arithmetic shared by the whole lab.

Prime sieving (one segmented byte mask), factored moduli with exact phi and
gcd, the classical congruence modulus for sums of prime k-th powers, and
best rational approximation by continued fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

__all__ = [
    "MEMORY_BUDGET",
    "LimitExceededError",
    "FactoredModulus",
    "PrimeSet",
    "tau",
    "gamma",
    "compute_Rk",
    "compute_W",
    "sieve_primes",
    "rational_approx",
    "iroot",
    "require_bytes",
]

# The one limit on array bytes: each array-heavy path prices its peak with
# require_bytes before it allocates.  Caps that bound work instead stay with
# their modules: DP_CELL_CAP (DP time), the exhaustive budget (subsets
# scanned), ENUMERATION_CAP_DEFAULT (moduli enumerated, 0.5 s and 245 MB at
# 10^7), _ARC_SCAN_CAP and the brute caps (Python loops).
MEMORY_BUDGET = 4 << 30
_SEGMENT = 1 << 22  # integers crossed off per slice of the sieve


class LimitExceededError(RuntimeError):
    """A computation was refused because it exceeds a configured resource cap."""


def require_bytes(estimate: float, what: str) -> None:
    """Refuse, before it allocates, a path whose peak estimate exceeds MEMORY_BUDGET."""
    if estimate > MEMORY_BUDGET:
        try:
            gib = f"{estimate / 2**30:.3g}"
        except OverflowError:  # an int estimate past the float range
            gib = f"{Decimal(estimate) / 2**30:.3g}"
        raise LimitExceededError(
            f"{what} needs about {gib} GiB, "
            f"over the memory budget of {MEMORY_BUDGET / 2**30:g} GiB"
        )


def _is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FactoredModulus:
    """A positive integer with its full prime factorization.

    factors are (prime, exponent) pairs, primes strictly increasing,
    exponents >= 1, and the product always equals value.  Keeping the
    factorization explicit makes phi, gcd and smooth/rough splits exact
    integer operations with no refactorization.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError(f"modulus must be positive, got {self.value}")
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError(f"prime factors not strictly increasing at {p}")
            if e < 1:
                raise ValueError(f"exponent {e} < 1 for prime {p}")
            if not _is_prime_trial(p):
                raise ValueError(f"{p} is not prime")
            last = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factors multiply to {prod}, not {self.value}")

    @classmethod
    def from_value(cls, n: int) -> "FactoredModulus":
        """Factor n by trial division (meant for small or smooth n)."""
        if n < 1:
            raise ValueError(f"cannot factor {n}")
        m = n
        factors = []
        d = 2
        while d * d <= m:
            if m % d == 0:
                e = 0
                while m % d == 0:
                    m //= d
                    e += 1
                factors.append((d, e))
            d += 1 if d == 2 else 2
        if m > 1:
            factors.append((m, 1))
        return cls(n, tuple(factors))

    @property
    def euler_phi(self) -> int:
        phi = 1
        for p, e in self.factors:
            phi *= (p - 1) * p ** (e - 1)
        return phi

    @property
    def prime_support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def gcd_value(self, other: "FactoredModulus") -> int:
        """Exact gcd from the stored factorizations."""
        theirs = dict(other.factors)
        g = 1
        for p, e in self.factors:
            if p in theirs:
                g *= p ** min(e, theirs[p])
        return g

    def scaled_by(self, other: "FactoredModulus") -> "FactoredModulus":
        """The product modulus, factors merged exactly."""
        merged = dict(self.factors)
        for p, e in other.factors:
            merged[p] = merged.get(p, 0) + e
        factors = tuple(sorted(merged.items()))
        return FactoredModulus(self.value * other.value, factors)

    def split_by_support(self, support: tuple[int, ...]) -> tuple["FactoredModulus", "FactoredModulus"]:
        """Split into (u, v): u carries the primes in support, v the rest."""
        uf = tuple((p, e) for p, e in self.factors if p in support)
        vf = tuple((p, e) for p, e in self.factors if p not in support)
        u = math.prod(p**e for p, e in uf)
        v = self.value // u
        return FactoredModulus(u, uf), FactoredModulus(v, vf)


class PrimeSet:
    """Prime membership for 0..limit as one read-only bool mask."""

    __slots__ = ("limit", "mask")

    def __init__(self, mask: np.ndarray):
        mask.flags.writeable = False
        self.mask = mask
        self.limit = len(mask) - 1

    def __contains__(self, n: int) -> bool:
        return 0 <= n <= self.limit and bool(self.mask[n])

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def primes(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """All primes in [lo, hi] as an int64 array."""
        lo = max(lo, 0)
        top = self.limit if hi is None else max(hi, -1)
        return np.flatnonzero(self.mask[lo : top + 1]) + lo


def _simple_bool_sieve(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def sieve_primes(limit: int) -> PrimeSet:
    """Exact prime membership for 0..limit: one bool mask, crossed off by
    the primes up to sqrt(limit) one _SEGMENT-sized slice at a time.

    Priced at the mask plus the base sieve and its primes.  Membership
    agrees with trial division.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    root = math.isqrt(limit)
    require_bytes(limit + 1 + 9 * (root + 1), "sieve_primes")
    base_primes = np.flatnonzero(_simple_bool_sieve(root)).tolist()
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for lo in range(0, limit + 1, _SEGMENT):
        seg = mask[lo : lo + _SEGMENT]
        hi = lo + len(seg)  # exclusive
        for p in base_primes:
            if p * p >= hi:
                break
            seg[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return PrimeSet(mask)


def iroot(x: int, k: int) -> int:
    """Exact floor of the integer k-th root, by Newton's method in integers
    from 2^ceil(bits/k), which is at or above the root."""
    if x < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt


def tau(k: int, p: int) -> int:
    """Exact exponent e with p^e dividing k and p^(e+1) not dividing k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not _is_prime_trial(p):
        raise ValueError(f"p must be prime, got {p}")
    e = 0
    while k % p == 0:
        k //= p
        e += 1
    return e


def gamma(k: int, p: int) -> int:
    """tau(k,p)+2 when p=2 and tau(k,p)>0, else tau(k,p)+1."""
    t = tau(k, p)
    if p == 2 and t > 0:
        return t + 2
    return t + 1


def compute_Rk(k: int) -> FactoredModulus:
    """The classical congruence modulus for sums of k-th powers of primes.

    Product of p^gamma(k,p) over primes p with (p-1) | k.  The search range
    p <= k+1 is complete: (p-1) | k forces p-1 <= k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    factors = []
    for p in range(2, k + 2):
        if _is_prime_trial(p) and k % (p - 1) == 0:
            factors.append((p, gamma(k, p)))
    value = math.prod(p**e for p, e in factors)
    return FactoredModulus(value, tuple(factors))


def compute_W(w: int, k: int) -> FactoredModulus:
    """Product of p^(2k) over primes p <= w; the progression modulus.

    Rejects w < 2: an empty product would make the whole construction vacuous.
    """
    if w < 2:
        raise ValueError(f"w must be >= 2, got {w}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    factors = tuple((p, 2 * k) for p in range(2, w + 1) if _is_prime_trial(p))
    value = math.prod(p**e for p, e in factors)
    return FactoredModulus(value, factors)


def rational_approx(alpha: float, Q: int) -> tuple[int, int]:
    """Rational a/q with (a,q)=1, 1 <= q <= Q and |alpha - a/q| <= 1/(qQ).

    Walks the continued-fraction convergents of the exact binary value of
    alpha and returns the last one whose denominator stays within Q; the
    next convergent's denominator then exceeds Q, which yields the bound.
    """
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    x = Fraction(alpha)
    if not 0 <= x < 1:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    num, den = x.numerator, x.denominator
    h_prev, k_prev = 1, 0
    h_cur, k_cur = 0, 1  # first convergent is 0/1 since alpha < 1
    num, den = den, num  # already consumed a0 = 0
    while den:
        a = num // den
        num, den = den, num - a * den
        h_next = a * h_cur + h_prev
        k_next = a * k_cur + k_prev
        if k_next > Q:
            break
        h_prev, k_prev, h_cur, k_cur = h_cur, k_cur, h_next, k_next
    return h_cur, k_cur
