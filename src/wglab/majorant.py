"""W-tricked weighted sequences over progressions of prime k-th powers.

Builders for the weighted prime-power indicator nu, its subset-thinned
variants, and per-residue mean values with their density margins.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .core_arith import FactoredModulus, PrimeSet, iroot, require_bytes, sieve_primes
from .local_structure import power_residues, sigma_b

__all__ = [
    "SubsetSpec",
    "PrimeSubset",
    "WeightedSequence",
    "MeanReport",
    "gen_subset",
    "build_nu",
    "build_f",
    "mean_g",
    "parse_subset_spec",
]

KIND_CODES = {"nu": 0, "f": 1, "bold-f": 2, "mu": 3, "psi": 4, "indicator": 5, "custom": 6}
_CODE_KINDS = {v: k for k, v in KIND_CODES.items()}
# traced peak of frozenset(range(m)) less a few classes, per class: the
# Python ints and two hash tables, at most 190 bytes from m = 10^2 to 2 10^6
_SET_BYTES = 200


def require_epsilon(epsilon: float) -> None:
    """The one epsilon rule, of mean_g and transference_gauge: in (0, 1), not NaN."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


def write_binary(path, kind: str, W: int, b: int, k: int, length: int, payload) -> None:
    """The one binary file layout: five little-endian int64 (the code of
    kind, custom for an unknown kind; W, b, k, length), then payload as
    little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<5q", KIND_CODES.get(kind, KIND_CODES["custom"]), W, b, k, length))
        fh.write(np.ascontiguousarray(payload, dtype="<f8"))


def write_csv(path, header: str, rows) -> None:
    """The one CSV layout: the header row, then each row, every line ended
    by LF.  Rows are written as they come, never joined in memory: a
    spectrum has M of them."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(row + "\n" for row in rows)


@dataclass(frozen=True)
class SubsetSpec:
    """Recipe for a deterministic subset of the primes.

    kinds: all | bernoulli | residue-classes | prefix-drop | window-drop.
    intended_density is the analytically known relative density where one
    exists (None for window-drop, whose observable proxy is measured).  A
    residue-class recipe made by drop_classes also keeps its dropped
    classes, so that it describes itself as written.
    """

    kind: str
    delta: float | None = None
    seed: int = 0
    modulus: int | None = None
    allowed: frozenset[int] | None = None
    cutoff: int | None = None
    windows: tuple[tuple[int, int], ...] = ()
    dropped: frozenset[int] | None = None

    def __post_init__(self):
        if self.kind not in ("all", "bernoulli", "residue-classes", "prefix-drop", "window-drop"):
            raise ValueError(f"unknown subset kind {self.kind!r}")
        if self.kind == "bernoulli" and not (self.delta is not None and 0 <= self.delta <= 1):
            raise ValueError("bernoulli subset needs delta in [0, 1]")
        if self.kind == "residue-classes":
            if self.modulus is None or self.allowed is None:
                raise ValueError("residue-classes subset needs modulus and allowed set")
            if self.modulus < 1:
                raise ValueError(f"modulus must be >= 1, got {self.modulus}")
            outside = sorted(c for c in self.allowed if not 0 <= c < self.modulus)
            if outside:
                raise ValueError(f"classes {outside} outside [0, {self.modulus})")
        if self.kind == "prefix-drop" and (self.cutoff is None or self.cutoff < 0):
            raise ValueError(f"prefix-drop subset needs a cutoff >= 0, got {self.cutoff}")
        if self.kind == "window-drop" and not self.windows:
            raise ValueError("window-drop subset needs at least one interval")
        for lo, hi in self.windows:
            if not 0 <= lo <= hi:
                raise ValueError(f"window {lo}-{hi} needs 0 <= lo <= hi")

    @classmethod
    def all(cls) -> "SubsetSpec":
        return cls(kind="all")

    @classmethod
    def bernoulli(cls, delta: float, seed: int) -> "SubsetSpec":
        return cls(kind="bernoulli", delta=delta, seed=seed)

    @classmethod
    def residue_classes(cls, modulus: int, allowed) -> "SubsetSpec":
        return cls(kind="residue-classes", modulus=modulus, allowed=frozenset(allowed))

    @classmethod
    def drop_classes(cls, modulus: int, dropped) -> "SubsetSpec":
        # a modulus below 1 reaches __post_init__ unreduced, which refuses it;
        # the kept classes are a frozenset of Python ints, priced first
        require_bytes(_SET_BYTES * modulus, "drop_classes")
        dropped = frozenset(c % modulus for c in dropped) if modulus >= 1 else frozenset()
        allowed = frozenset(range(modulus)) - dropped
        return cls(kind="residue-classes", modulus=modulus, allowed=allowed, dropped=dropped)

    @classmethod
    def prefix_drop(cls, cutoff: int) -> "SubsetSpec":
        return cls(kind="prefix-drop", cutoff=cutoff)

    @classmethod
    def window_drop(cls, windows) -> "SubsetSpec":
        return cls(kind="window-drop", windows=tuple((int(a), int(b)) for a, b in windows))

    @property
    def intended_density(self) -> float | None:
        if self.kind == "all" or self.kind == "prefix-drop":
            return 1.0
        if self.kind == "bernoulli":
            return self.delta
        if self.kind == "residue-classes":
            # one gcd pass over the classes; its int64 input and output, the
            # allowed classes as int64 and the bools are priced first
            m = self.modulus
            require_bytes(17 * m + 9 * len(self.allowed), "intended_density")
            coprime = np.gcd(np.arange(m, dtype=np.int64), m) == 1
            kept = coprime[np.fromiter(self.allowed, np.int64, len(self.allowed))]
            return np.count_nonzero(kept) / np.count_nonzero(coprime)
        return None

    def describe(self) -> str:
        if self.kind == "all":
            return "all"
        if self.kind == "bernoulli":
            return f"bernoulli:{self.delta:g}:{self.seed}"
        if self.dropped is not None:
            return f"drop-class:{self.modulus}:" + ",".join(map(str, sorted(self.dropped)))
        if self.kind == "residue-classes":
            return f"classes:{self.modulus}:" + ",".join(map(str, sorted(self.allowed)))
        if self.kind == "prefix-drop":
            return f"prefix-drop:{self.cutoff}"
        return "window-drop:" + ",".join(f"{a}-{b}" for a, b in self.windows)


def parse_subset_spec(text: str) -> SubsetSpec:
    """Parse the CLI form of a subset recipe.

    all | bernoulli:DELTA:SEED | classes:M:c1,c2,... | drop-class:M:c1,...
    | prefix-drop:X | window-drop:lo-hi,lo-hi,...
    """
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "all":
            return SubsetSpec.all()
        if kind == "bernoulli":
            return SubsetSpec.bernoulli(float(parts[1]), int(parts[2]) if len(parts) > 2 else 0)
        if kind in ("classes", "drop-class"):
            # an empty list is no class, as describe writes it
            classes = {int(c) for c in parts[2].split(",") if c}
            if kind == "classes":
                return SubsetSpec.residue_classes(int(parts[1]), classes)
            return SubsetSpec.drop_classes(int(parts[1]), classes)
        if kind == "prefix-drop":
            return SubsetSpec.prefix_drop(int(parts[1]))
        if kind == "window-drop":
            windows = [tuple(map(int, w.split("-"))) for w in parts[1].split(",")]
            return SubsetSpec.window_drop(windows)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"cannot parse subset spec {text!r}: {exc}") from None
    raise ValueError(f"cannot parse subset spec {text!r}")


def _bernoulli_keep(seed: int, p: int, delta: float) -> bool:
    # counter-based hash so membership is independent of iteration order
    digest = hashlib.blake2b(struct.pack("<qq", seed, p), digest_size=8).digest()
    return int.from_bytes(digest, "little") < delta * 2.0**64


@dataclass
class PrimeSubset:
    """A realized subset of the primes up to a limit, with measured density."""

    spec: SubsetSpec
    limit: int
    members: np.ndarray  # bool over 0..limit, True only at kept primes
    prime_count: int
    kept_count: int
    density: float
    density_min_prefix: float | None = None

    def __contains__(self, p: int) -> bool:
        return 0 <= p <= self.limit and bool(self.members[p])

    def primes(self) -> np.ndarray:
        return np.flatnonzero(self.members).astype(np.int64)


def gen_subset(spec: SubsetSpec, limit: int, primes: PrimeSet | None = None) -> PrimeSubset:
    """Realize a subset recipe up to limit and measure its relative density.

    For window-drop the reported headline density is the minimum over
    geometric prefix checkpoints (an observable stand-in for a liminf).
    """
    if limit < 100:
        raise ValueError(f"limit must be >= 100, got {limit}")
    prime_mask = _primes_to(limit, primes).mask[: limit + 1]
    # the writable copy; a recipe that tests each prime adds its int64
    # index, one int64 and one bool temporary, and the class table
    tested = spec.kind in ("bernoulli", "residue-classes")
    extra = 17 * int(np.count_nonzero(prime_mask)) + (spec.modulus or 0) if tested else 0
    require_bytes(limit + 1 + extra, "gen_subset")
    mask = prime_mask.copy()
    if spec.kind == "bernoulli":
        plist = np.flatnonzero(mask)
        keep = (_bernoulli_keep(spec.seed, int(p), spec.delta) for p in plist)
        mask[plist] = np.fromiter(keep, bool, len(plist))
    elif spec.kind == "residue-classes":
        plist = np.flatnonzero(mask)
        allowed = np.zeros(spec.modulus, dtype=bool)
        allowed[list(spec.allowed)] = True
        mask[plist] = allowed[plist % spec.modulus]
    elif spec.kind == "prefix-drop":
        mask[: spec.cutoff + 1] = False
    elif spec.kind == "window-drop":
        for lo, hi in spec.windows:
            mask[lo : hi + 1] = False
    # limit >= 100, so every prefix below counts the 25 primes up to 100
    prime_count = int(np.count_nonzero(prime_mask))
    kept = int(np.count_nonzero(mask))
    min_prefix = None
    if spec.kind == "window-drop":
        # at 100, 200, 400, ... below limit, then at limit
        xs = [x for x in (100 << i for i in range(limit.bit_length())) if x < limit] + [limit]
        min_prefix = min(
            np.count_nonzero(mask[: x + 1]) / np.count_nonzero(prime_mask[: x + 1]) for x in xs
        )
    return PrimeSubset(
        spec=spec,
        limit=limit,
        members=mask,
        prime_count=prime_count,
        kept_count=kept,
        density=kept / prime_count,
        density_min_prefix=min_prefix,
    )


def support_index(values: np.ndarray) -> np.ndarray:
    """The indices of the nonzero entries of a float array, as
    np.flatnonzero(values) gives them (NaN counts, -0.0 does not): the
    package's one scan for a sequence's support.  It compares to 0 first,
    a bool mask of len(values) bytes: on 2^15 weights of nu at w = 3 it
    took 8.5 us, against 19 us for np.count_nonzero and 73 us for
    np.flatnonzero of the floats (Xeon VM, numpy 2.4)."""
    return np.flatnonzero(values != 0)


@dataclass
class WeightedSequence:
    """A nonnegative weight array over n = 1..N with its construction data.

    values[i] is the weight at n = i + 1.  Y is the largest admissible
    k-th root and L the logarithmic normalizer log((WN+W)^(1/k)); both are
    meaningful only for the arithmetic kinds (W > 0).
    """

    values: np.ndarray
    kind: str
    W: int
    b: int
    k: int
    subset: SubsetSpec | None = None

    def __post_init__(self):
        if self.kind not in KIND_CODES:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def N(self) -> int:
        return len(self.values)

    @property
    def Y(self) -> int:
        return iroot(self.W * self.N + self.b, self.k) if self.W else 0

    @property
    def L(self) -> float:
        return math.log(self.W * self.N + self.W) / self.k if self.W else 1.0

    def value_at(self, n: int) -> float:
        if not 1 <= n <= self.N:
            raise IndexError(f"n = {n} outside 1..{self.N}")
        return float(self.values[n - 1])

    def total(self) -> float:
        return float(self.values.sum())

    def mean(self) -> float:
        return self.total() / self.N

    def support(self) -> np.ndarray:
        """The supported n values (1-based)."""
        return support_index(self.values) + 1

    @classmethod
    def indicator(cls, N: int) -> "WeightedSequence":
        return cls(values=np.ones(N), kind="indicator", W=0, b=0, k=0)

    @classmethod
    def spike(cls, N: int, mass: float | None = None, at: int = 1) -> "WeightedSequence":
        if not 1 <= at <= N:
            raise ValueError(f"spike position at = {at} outside 1..{N}")
        v = np.zeros(N)
        v[at - 1] = N if mass is None else mass
        return cls(values=v, kind="custom", W=0, b=0, k=0)

    def to_binary(self, path) -> None:
        """write_binary's header (kind code, W, b, k, N), then the N weights."""
        write_binary(path, self.kind, self.W, self.b, self.k, self.N, self.values)

    @classmethod
    def from_binary(cls, path) -> "WeightedSequence":
        """Read a to_binary file; an unknown kind code or a file shorter
        than its header says raises ValueError naming the path."""
        with open(path, "rb") as fh:
            raw = fh.read()
        if len(raw) < 40:
            raise ValueError(f"{path}: {len(raw)} bytes, shorter than the 40-byte header")
        code, W, b, k, N = struct.unpack_from("<5q", raw)
        if code not in _CODE_KINDS:
            raise ValueError(f"{path}: unknown kind code {code}")
        held = (len(raw) - 40) // 8
        if not 0 <= N <= held:
            raise ValueError(f"{path}: header says N = {N}, file holds {held} weights")
        values = np.frombuffer(raw, dtype="<f8", count=N, offset=40).astype(np.float64)
        return cls(values=values, kind=_CODE_KINDS[code], W=W, b=b, k=k)

    def to_csv(self, path) -> None:
        write_csv(path, "n,value", (f"{n},{v:.12g}" for n, v in enumerate(self.values, 1)))


def _primes_to(Y: int, primes: PrimeSet | None) -> PrimeSet:
    """primes when they reach Y, else a fresh sieve."""
    return primes if primes is not None and primes.limit >= Y else sieve_primes(max(Y, 2))


def _hits(xs: np.ndarray, k: int, W: int, b, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, mask): mask marks the x in xs with x^k = W n + b for some
    1 <= n <= N, and n lists those n.

    b is one residue or one residue per x.  The powers are Python ints when
    they could overflow int64.
    """
    if len(xs) and (int(xs.max()) + 1) ** k >= 2**62:
        xk = xs.astype(object) ** k
    else:
        xk = xs**k
    n = (xk - b) // W
    mask = ((xk - b) % W == 0) & (n >= 1) & (n <= N)
    return n[mask].astype(np.int64), mask


def _weights(W: FactoredModulus, sigma: int, k: int, p: np.ndarray) -> np.ndarray:
    """The majorant weight (phi(W)/(W sigma)) k p^(k-1) log p at each prime p."""
    return W.euler_phi / (W.value * sigma) * k * p.astype(np.float64) ** (k - 1) * np.log(p)


def _prime_power_sequence(
    W: FactoredModulus, b: int, k: int, N: int, primes, subset, kind: str
) -> WeightedSequence:
    """The weights at the W n + b = p^k, 1 <= n <= N, over the primes p that
    subset.members keeps (every prime when subset is None)."""
    sigma = sigma_b(W, k, b)
    Y = iroot(W.value * N + b, k)
    if subset is not None and subset.limit < Y:
        raise ValueError(f"subset realized to {subset.limit} but Y = {Y} needed")
    members = _primes_to(Y, primes).mask if subset is None else subset.members
    ps = np.flatnonzero(members[: Y + 1]).astype(np.int64)
    ns, hit = _hits(ps, k, W.value, b, N)
    values = np.zeros(N)
    values[ns - 1] = _weights(W, sigma, k, ps[hit])
    spec = None if subset is None else subset.spec
    return WeightedSequence(values=values, kind=kind, W=W.value, b=b, k=k, subset=spec)


def build_nu(
    W: FactoredModulus, b: int, k: int, N: int, primes: PrimeSet | None = None
) -> WeightedSequence:
    """The weighted indicator of W n + b = p^k over all primes p.

    Weight (phi(W)/(W sigma(b))) k p^(k-1) log p at each supported n, with
    the natural logarithm, so the sequence has mean about 1.
    """
    return _prime_power_sequence(W, b, k, N, primes, None, "nu")


def build_f(
    W: FactoredModulus,
    b: int,
    k: int,
    N: int,
    subset: PrimeSubset,
    kind: str = "f",
) -> WeightedSequence:
    """As build_nu but over the primes that subset.members keeps; pointwise
    dominated by the unrestricted sequence by construction."""
    if kind not in ("f", "bold-f"):
        raise ValueError(f"kind must be f or bold-f, got {kind!r}")
    return _prime_power_sequence(W, b, k, N, None, subset, kind)


@dataclass
class MeanReport:
    """Per-residue mean values of the subset-thinned sequences, with the
    analytic density margin and floor they are compared against."""

    W: int
    k: int
    N: int
    subset: SubsetSpec
    epsilon: float
    per_b: dict[int, float]
    aggregate: float
    margin: float | None  # k * delta - (k - 1) for the intended density
    floor: float | None  # (1 - epsilon) * delta

    def to_dict(self) -> dict:
        """Every field, the subset by its description and per_b by string keys."""
        per_b = {str(b): v for b, v in sorted(self.per_b.items())}
        return {**vars(self), "subset": self.subset.describe(), "per_b": per_b}


def mean_g(
    W: FactoredModulus,
    k: int,
    N: int,
    subset: PrimeSubset,
    epsilon: float = 0.1,
) -> MeanReport:
    """Mean weight per residue class and the aggregate over all classes.

    One pass over the kept primes up to Y, read from subset.members: each
    one coprime to W adds its weight to the unique class b = p^k mod W it
    can support.  The report carries the density margin k*delta - (k-1)
    and the floor (1-epsilon)*delta computed from the subset's intended
    density when that is known.  epsilon must lie in (0, 1).
    """
    require_epsilon(epsilon)
    table = power_residues(W, k)
    Wv = W.value
    Ymax = iroot(Wv * N + Wv, k)
    if subset.limit < Ymax:
        raise ValueError(f"subset realized to {subset.limit} but Y = {Ymax} needed")
    ps = np.flatnonzero(subset.members[: Ymax + 1]).astype(np.int64)
    ps = ps[np.gcd(ps, Wv) == 1]
    bs = table.powers[ps % Wv]  # the class p^k mod W of each p
    _, hit = _hits(ps, k, Wv, bs, N)
    # every unit k-th power residue has the same root count sigma
    weights = _weights(W, sigma_b(W, k, 1), k, ps[hit])
    sums = np.bincount(np.searchsorted(table.units, bs[hit]), weights, minlength=table.units.size)
    per_b = {b: total / N for b, total in zip(table.units.tolist(), sums.tolist())}
    # correctly rounded, so no order of the classes changes it
    aggregate = math.fsum(per_b.values()) / len(per_b)
    delta = subset.spec.intended_density
    margin = k * delta - (k - 1) if delta is not None else None
    floor = (1 - epsilon) * delta if delta is not None else None
    return MeanReport(
        W=Wv,
        k=k,
        N=N,
        subset=subset.spec,
        epsilon=epsilon,
        per_b=per_b,
        aggregate=aggregate,
        margin=margin,
        floor=floor,
    )
