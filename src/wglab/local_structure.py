"""Finite congruence structure modulo W and modulo prime powers.

k-th power residue tables with root-count multiplicities, majority-subset
sumset covering checks, and a dynamic program that decomposes a residue
into s weighted unit k-th powers.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bitsets import bit_positions, bits_from, cyclic_power, cyclic_power_stepwise
from .core_arith import FactoredModulus, LimitExceededError, compute_Rk, tau

__all__ = [
    "PowerResidueTable",
    "SumsetCover",
    "WaringPairReport",
    "LocalDecomposition",
    "DecompositionFailure",
    "power_residues",
    "sigma_b",
    "power_class_count",
    "sumset_cover_check",
    "waring_pair_check",
    "local_decompose",
]

ENUMERATION_CAP_DEFAULT = 10**7
EXHAUSTIVE_BUDGET_DEFAULT = 1 << 25
_PARALLEL_MIN = 4096  # below this many subsets a pool is pure overhead
DP_CELL_CAP = 1 << 28  # cells local_decompose visits, 1.2-1.8 s at 4.6-6.6 ns a cell
_GATHER_BLOCK = 1 << 16  # local_decompose gathers about this many cells at a time


@dataclass(frozen=True)
class PowerResidueTable:
    """k-th power residues mod m with exact root counts, as read-only arrays.

    powers[t] = t^k mod m for t = 0..m-1, the one copy of the power map
    that every reader indexes; counts[r] is the number of t in [m] with
    t^k = r (mod m); units holds the unit k-th power residues, sorted.
    """

    modulus: FactoredModulus
    k: int
    powers: np.ndarray = field(repr=False, compare=False)
    counts: np.ndarray = field(repr=False, compare=False)
    units: np.ndarray = field(repr=False, compare=False)

    def is_unit(self, r: int) -> bool:
        """The one test that r in [0, m) is a unit k-th power residue:
        counts[r] > 0 and gcd(r, m) = 1."""
        return bool(self.counts[r]) and math.gcd(r, self.modulus.value) == 1


def _vector_pow_mod(m: int, k: int) -> np.ndarray:
    """t^k mod m for t = 0..m-1, by k modular multiply passes (int64-safe)."""
    t = np.arange(m, dtype=np.int64)
    r = np.ones(m, dtype=np.int64)
    for _ in range(k):
        r *= t
        r %= m
    return r


def require_enumerable(mv: int) -> None:
    """Refuse a modulus over ENUMERATION_CAP_DEFAULT, the most power_residues
    enumerates; cheap, so callers check a bare value before factoring it."""
    if mv > ENUMERATION_CAP_DEFAULT:
        raise LimitExceededError(f"modulus {mv} exceeds enumeration cap {ENUMERATION_CAP_DEFAULT}")


@lru_cache(maxsize=64)
def _power_residues_cached(m: FactoredModulus, k: int) -> PowerResidueTable:
    mv = m.value
    require_enumerable(mv)
    powers = _vector_pow_mod(mv, k)
    counts = np.bincount(powers, minlength=mv)
    # the units: residues divisible by no prime of m, one remainder pass a prime
    units = np.flatnonzero(counts).astype(np.int64, copy=False)
    for p in m.prime_support:
        units = units[units % p != 0]
    for a in (powers, counts, units):
        a.flags.writeable = False
    return PowerResidueTable(modulus=m, k=k, powers=powers, counts=counts, units=units)


def power_residues(m: FactoredModulus, k: int) -> PowerResidueTable:
    """Exact k-th power residue table of m by full enumeration of Z_m."""
    if m.value < 2:
        raise ValueError(f"modulus must be >= 2, got {m.value}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _power_residues_cached(m, k)


def sigma_b(W: FactoredModulus, k: int, b: int) -> int:
    """Number of z in [W] with z^k = b (mod W), for b a unit k-th power.

    The one test that b is a unit k-th power residue mod W (b is reduced
    mod W first, and the error names b as given).  Cross-asserts the
    enumerated count against phi(W)/#units, which the k-th power
    homomorphism on the unit group forces exactly.
    """
    table = power_residues(W, k)
    r = b % W.value
    if not table.is_unit(r):
        raise ValueError(f"b = {b} is not a unit k-th power residue mod {W.value}")
    count = int(table.counts[r])
    phi = W.euler_phi
    n_units = table.units.size
    if phi % n_units != 0 or count != phi // n_units:
        raise RuntimeError(
            f"multiplicity {count} of {r} disagrees with phi/|units| = {phi}/{n_units}"
        )
    return count


def power_class_count(p: int, k: int, a: int) -> int:
    """Count k-th power residues mod p^(2k) that reduce to a mod p.

    a must be a unit k-th power residue mod the odd prime p.  The count is
    obtained by enumeration, the residues of the class a mod p read from a
    presence mask over the power map as every p-th entry from a mod p, and
    asserted equal to the closed form p^(2k - 1 - tau(k, p)).
    """
    if p <= 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    big = p ** (2 * k)
    require_enumerable(big)  # before p is factored
    pm = FactoredModulus.from_value(p)
    if len(pm.factors) != 1 or pm.factors[0][1] != 1:
        raise ValueError(f"p must be prime, got {p}")
    small = power_residues(pm, k)
    if not small.is_unit(a % p):
        raise ValueError(f"{a} is not a unit k-th power residue mod {p}")
    present = np.zeros(big, dtype=bool)
    present[_vector_pow_mod(big, k)] = True
    count = int(np.count_nonzero(present[a % p :: p]))
    expected = p ** (2 * k - 1 - tau(k, p))
    if count != expected:
        raise RuntimeError(f"enumerated count {count} != closed form {expected}")
    return count


@dataclass
class SumsetCover:
    """Outcome of comparing an s-fold sumset against its admissible targets."""

    covered: bool
    uncovered: list[int]
    extra: list[int]
    target_size: int
    sumset_size: int


def _target_mask(q: int, k: int, s: int, q_factored: FactoredModulus) -> int:
    """The residues mod q congruent to s mod g = gcd(R_k, q): since g | q,
    the repunit of q / g digits in base 2^g, shifted by s mod g."""
    g = compute_Rk(k).gcd_value(q_factored)
    return ((1 << q) - 1) // ((1 << g) - 1) << s % g


def sumset_cover_check(q: FactoredModulus, k: int, s: int, B) -> SumsetCover:
    """Does the s-fold sumset of B mod q equal every residue admissible for s?

    The admissible targets are the residues congruent to s modulo
    gcd(R_k, q).  B must be a nonempty subset of the unit k-th power
    residues mod q.
    """
    table = power_residues(q, k)
    Bset = set(int(x) % q.value for x in B)
    if not Bset:
        raise ValueError("B must be nonempty")
    bad = sorted(x for x in Bset if not table.is_unit(x))
    if bad:
        raise ValueError(f"B contains non unit-power residues {bad}")
    qv = q.value
    sum_mask = cyclic_power(bits_from(Bset), s, qv)
    targets = _target_mask(qv, k, s, q)
    uncovered = bit_positions(targets & ~sum_mask)
    extra = bit_positions(sum_mask & ~targets)
    return SumsetCover(
        covered=not uncovered and not extra,
        uncovered=uncovered,
        extra=extra,
        target_size=targets.bit_count(),
        sumset_size=sum_mask.bit_count(),
    )


@dataclass
class WaringPairReport:
    """Verdict on whether every majority subset of the unit k-th powers
    mod q has full admissible s-fold sumset coverage."""

    q: int
    q_factors: tuple[tuple[int, int], ...]
    k: int
    s: int
    strategy: str
    verdict: str  # pair | not-pair | no-violation-found
    witness: list[int] | None
    uncovered: list[int] | None
    trials: int

    def to_dict(self) -> dict:
        """Every field, the factors as lists and the subsets sorted."""
        return {
            **vars(self),
            "q_factors": [list(f) for f in self.q_factors],
            "witness": sorted(self.witness) if self.witness is not None else None,
            "uncovered": sorted(self.uncovered) if self.uncovered is not None else None,
        }


def _reverify_violation(B: list[int], s: int, q: int, target: int, n_units: int) -> list[int]:
    """Independent slow re-check of a claimed violation; returns the misses."""
    if not len(B) > n_units / 2:
        raise RuntimeError(f"claimed witness of size {len(B)} is not a majority subset")
    misses = bit_positions(target & ~cyclic_power_stepwise(bits_from(B), s, q))
    if not misses:
        raise RuntimeError("claimed violation did not re-verify")
    return misses


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _structured_families(qv: int, units: list[int], m0: int) -> list[list[int]]:
    """Deterministic adversarial majority subsets of the unit power residues.

    Cyclic residue intervals, unions of cosets of the power subgroups of
    the (abelian) unit power residue group, and unions of congruence
    classes mod small divisors of q, each trimmed to the minimal majority
    size m0.
    """
    n = len(units)
    families: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()

    def push(candidate: list[int]) -> None:
        key = tuple(sorted(candidate[:m0]))
        if len(key) == m0 and key not in seen:
            seen.add(key)
            families.append(list(key))

    for t in range(n):
        push([units[(t + i) % n] for i in range(m0)])

    exps = sorted(set(_divisors(n)) | {2, 3, 4, 5, 6})
    for m in exps:
        if m <= 1 or m >= n:
            continue
        subgroup = sorted({pow(z, m, qv) for z in units})
        remaining = set(units)
        cosets = []
        while remaining:
            x = min(remaining)
            coset = sorted({(x * h) % qv for h in subgroup})
            cosets.append(coset)
            remaining -= set(coset)
        flat = [z for c in cosets for z in c]
        push(flat)
        flat_rev = [z for c in reversed(cosets) for z in c]
        push(flat_rev)

    for d in _divisors(qv):
        if d <= 1 or d > 64:
            continue
        classes: dict[int, list[int]] = {}
        for z in units:
            classes.setdefault(z % d, []).append(z)
        ordered = sorted(classes.values(), key=lambda c: (-len(c), c[0]))
        push([z for c in ordered for z in c])
        push([z for c in reversed(ordered) for z in c])

    return families


def _first_violation(candidates, q: int, s: int, target: int):
    """(position counted from 1, subset) of the first candidate whose s-fold
    sumset mod q is not target, or (number scanned, None)."""
    position = 0
    for position, B in enumerate(candidates, 1):
        if cyclic_power(bits_from(B), s, q) != target:
            return position, B
    return position, None


def _subset_count(n: int, m: int, budget: int) -> int:
    """C(n, m) by a running product over the smaller side that stops once
    it passes budget, and then raises LimitExceededError naming C(n, m):
    the whole count can have more digits than an int may print."""
    total = 1
    for i in range(min(m, n - m)):
        total = total * (n - i) // (i + 1)
        if total > budget:
            break
    if total > budget:
        raise LimitExceededError(f"exhaustive scan needs C({n}, {m}) subsets, over budget {budget}")
    return total


def _exhaustive_chunk(args):
    """_first_violation over the combinations of lexicographic rank in
    [start, stop).  Module-level so multiprocessing can pickle it."""
    start, stop, qv, s, units, m0, target = args
    chunk = itertools.islice(itertools.combinations(units, m0), start, stop)
    return _first_violation(chunk, qv, s, target)


def waring_pair_check(
    q: FactoredModulus,
    k: int,
    s: int,
    strategy: str = "exhaustive",
    *,
    trials: int = 100_000,
    seed: int = 0,
    budget: int = EXHAUSTIVE_BUDGET_DEFAULT,
    threads: int = 1,
) -> WaringPairReport:
    """Probe the majority-subset sumset covering property of (q, s).

    By sumset monotonicity it suffices to test subsets of the minimal
    majority size m0 = floor(#units/2) + 1: any violating majority subset
    contains a violating subset of size m0.  Each strategy is a stream of
    candidates through one scan, _first_violation.  Only the exhaustive
    strategy may return the verdict "pair"; sampled and structured scans
    cap out at "no-violation-found".  Any "not-pair" verdict carries a
    witness that is re-verified through the slow stepwise sumset path.
    An exhaustive scan of more than budget subsets is refused before the
    units are listed, by a count that stops at the budget.
    With threads != 1 a large exhaustive scan runs in a pool of
    min(threads, cpu_count, chunks) workers (every core when threads < 1).
    """
    if strategy not in ("exhaustive", "sampled", "structured"):
        raise ValueError(f"unknown strategy {strategy!r}")
    table = power_residues(q, k)
    n_units = table.units.size
    m0 = n_units // 2 + 1
    total = _subset_count(n_units, m0, budget) if strategy == "exhaustive" else None
    units = table.units.tolist()
    qv = q.value
    target = _target_mask(qv, k, s, q)

    verdict = "no-violation-found"
    if strategy == "exhaustive":
        verdict = "pair"
        chunks = [(0, total, qv, s, units, m0, target)]
        if threads != 1 and total >= _PARALLEL_MIN:
            import multiprocessing

            cores = multiprocessing.cpu_count() or 1
            workers = min(threads, cores) if threads > 1 else cores
            step = (total + workers - 1) // workers
            chunks = [
                (lo, min(lo + step, total), qv, s, units, m0, target)
                for lo in range(0, total, step)
            ]
            with multiprocessing.Pool(min(workers, len(chunks))) as pool:
                results = pool.map(_exhaustive_chunk, chunks)
        else:
            results = [_exhaustive_chunk(chunks[0])]
        # count as if enumeration stopped at the lowest-ranked violation
        hits = [
            (start + pos - 1, B)
            for (start, *_), (pos, B) in zip(chunks, results)
            if B is not None
        ]
        if hits:
            rank, witness = min(hits)
            count = rank + 1
        else:
            count, witness = sum(pos for pos, _ in results), None
    elif strategy == "sampled":
        rng = random.Random(seed)
        samples = (rng.sample(units, m0) for _ in range(trials))
        count, witness = _first_violation(samples, qv, s, target)
    else:
        families = _structured_families(qv, units, m0)
        count, witness = _first_violation(families, qv, s, target)
    uncovered = None
    if witness is not None:
        verdict, witness = "not-pair", sorted(witness)
        uncovered = _reverify_violation(witness, s, qv, target, n_units)
    return WaringPairReport(
        q=qv,
        q_factors=q.factors,
        k=k,
        s=s,
        strategy=strategy,
        verdict=verdict,
        witness=witness,
        uncovered=uncovered,
        trials=count,
    )


@dataclass
class LocalDecomposition:
    """A residue split into s weighted unit k-th power parts."""

    target: int
    modulus: int
    parts: list[int]
    values: list[float]
    total: float

    def verify(self) -> None:
        if sum(self.parts) % self.modulus != self.target % self.modulus:
            raise RuntimeError("parts do not sum to the target residue")
        if any(v <= 0 for v in self.values):
            raise RuntimeError("a part carries a nonpositive weight")
        if not math.isclose(self.total, sum(self.values), rel_tol=0, abs_tol=1e-9):
            raise RuntimeError("total does not match the sum of part weights")


@dataclass
class DecompositionFailure:
    """No decomposition beats the s/2 threshold; optimum is None when the
    target residue is unreachable from the support."""

    target: int
    modulus: int
    optimum: float | None


def local_decompose(
    W: FactoredModulus,
    k: int,
    s: int,
    n: int,
    f: dict[int, float],
) -> LocalDecomposition | DecompositionFailure:
    """Maximize f(b_1)+...+f(b_s) over parts with b_1+...+b_s = n (mod W).

    Dynamic program over s rounds, parts restricted to the support of f
    inside the unit k-th power residues.  With b0 the least support
    residue and g = gcd(W, b - b0 over the support), i parts sum to a
    residue r = i b0 + g u (mod W), so a round holds only the m = W/g
    states u, and a part b moves u by beta_b = (b - b0)/g (mod m).  Round
    i fills dp[i][u] = max over b of dp[i-1][u - beta_b] + f(b) by one
    gather whose index is the same every round: formed once when a round
    fits in _GATHER_BLOCK cells, as at W = 1296, k = 2 (g = 24, 54 x 54
    cells), else formed block by block.  States no part sequence reaches
    stay -inf, and a target off the coset, n != s b0 (mod g), fails at
    once.  At the transference benchmark's w = 3, k = 2, s = 44 and 54
    support residues a call took 0.5 ms, where visiting the live states
    of all W took 1.3 ms (minimum of 7 passes over its 55 calls); with
    the backtrack over Python floats it takes 0.38 ms.
    Succeeds only when the optimum exceeds s/2; ties during backtracking
    prefer the smallest residue.  Raises LimitExceededError before
    allocating when the s * |support| * W/g cells the rounds visit exceed
    DP_CELL_CAP.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    units = power_residues(W, k).units.tolist()
    # as many keys as units, each unit among them: the keys are the units
    if len(f) != len(units) or not all(b in f for b in units):
        raise ValueError(
            f"f must be defined exactly on the {len(units)} unit power residues"
        )
    for b, v in f.items():
        if not 0 <= v < 1:
            raise ValueError(f"f({b}) = {v} outside [0, 1)")
    Wv = W.value
    n = n % Wv
    support = [b for b in units if f[b] > 0]
    b0 = support[0] if support else 0
    g = math.gcd(Wv, *(b - b0 for b in support))
    m = Wv // g
    # one cell per (round, part, coset state); g = W for an empty support
    cells = s * max(len(support), 1) * m
    if cells > DP_CELL_CAP:
        raise LimitExceededError(
            f"decomposition DP of s * |support| * W/g = {cells} visited cells "
            f"exceeds cap {DP_CELL_CAP}"
        )
    if not support or (n - s * b0) % g:
        return DecompositionFailure(target=n, modulus=Wv, optimum=None)
    neg_inf = float("-inf")
    beta = np.array([(b - b0) // g for b in support], dtype=np.int64)
    fv = np.array([f[b] for b in support], dtype=np.float64)
    rows = max(1, _GATHER_BLOCK // len(support))

    def gathers():
        # u - beta_b lies in (-m, m), and a negative index counts from the
        # end of the row: the wrap mod m
        for lo in range(0, m, rows):
            yield lo, np.arange(lo, min(lo + rows, m)) - beta[:, None]

    held = list(gathers()) if rows >= m else None
    dp = np.full((s + 1, m), neg_inf)
    dp[0][0] = 0.0
    for i in range(1, s + 1):
        for lo, index in held or gathers():
            cand = dp[i - 1][index]
            cand += fv[:, None]
            dp[i][lo : lo + index.shape[1]] = cand.max(axis=0)
    u = (n - s * b0) % Wv // g
    optimum = float(dp[s][u])
    if optimum == neg_inf:
        return DecompositionFailure(target=n, modulus=Wv, optimum=None)
    if optimum <= s / 2:
        return DecompositionFailure(target=n, modulus=Wv, optimum=optimum)
    # the backtrack walks Python floats: a scalar loop over the support
    # costs less than numpy calls on arrays of |support| floats.  It reads
    # one row at a time, since the whole table as lists of Python floats
    # would take about four times the table's bytes
    steps = list(zip(support, beta.tolist(), fv.tolist()))
    parts_rev = []
    row = dp[s].tolist()
    for i in range(s, 0, -1):
        prev = dp[i - 1].tolist()
        cur = row[u]
        for b, step, value in steps:
            cand = prev[u - step] + value
            if cand == cur or abs(cand - cur) <= 1e-12:
                break
        else:
            raise RuntimeError("backtracking failed to find a transition")
        parts_rev.append(b)
        u = (u - step) % m
        row = prev
    parts = parts_rev[::-1]
    result = LocalDecomposition(
        target=n,
        modulus=Wv,
        parts=parts,
        values=[f[b] for b in parts],
        total=float(sum(f[b] for b in parts)),
    )
    result.verify()
    return result
