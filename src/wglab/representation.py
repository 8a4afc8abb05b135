"""Counting and coverage for sums of prime k-th powers.

Exact representation counts by shifted integer adds or by FFT power of
the indicator polynomial, bit-parallel reachability for coverage probes
over admissible windows, the many-fold convolution gauge on its
concentration window, and the closed-form parameter thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bitsets import bits_from, line_power, window_flags
from .core_arith import FactoredModulus, compute_Rk, require_bytes
from .majorant import PrimeSubset, WeightedSequence, require_epsilon, write_csv
from .spectral import _half_spectrum, _phase_table

__all__ = [
    "FFTPrecisionError",
    "CoverageReport",
    "ConvolutionProfile",
    "ThresholdReport",
    "admissible_filter",
    "count_representations",
    "coverage_probe",
    "transference_gauge",
    "theorem_thresholds",
]

BRUTE_S_CAP = 3
BRUTE_N_CAP = 10**5
FFT_EXACT_LIMIT = float(1 << 52)


class FFTPrecisionError(RuntimeError):
    """FFT counts left the exact-integer range of double precision."""


def admissible_filter(n: int | np.ndarray, s: int, k: int) -> bool | np.ndarray:
    """Does n satisfy the necessary congruence n = s modulo the classical
    modulus R_k for sums of s prime k-th powers?

    The one such test: a bool for an int n, a bool array for an int array.
    Over a window the n it passes are one strided slice
    (_admissible_positions).
    """
    return (n - s) % compute_Rk(k).value == 0


def _prime_powers(subset: PrimeSubset, k: int, hi: int) -> list[int]:
    ps = subset.primes()
    out = []
    for p in map(int, ps):
        pk = p**k
        if pk > hi:
            break
        out.append(pk)
    return out


def _mask_bytes(hi: int) -> int:
    """The price of six bitmasks of bits 0..hi in whole words: a half-line
    fold was traced at 5.1 of them (the caller's base, and as words the
    running sumset, the addition's result, its shifted copy and carry)."""
    return 48 * (hi // 64 + 1)


def _reach(powers: list[int], s: int, hi: int) -> int:
    """Bitmask of every sum of s of the powers up to hi; 0 with no powers."""
    return line_power(bits_from(powers), s, hi) if powers else 0


def count_representations(
    subset: PrimeSubset, k: int, s: int, hi: int, method: str = "fft"
) -> np.ndarray:
    """Ordered-tuple representation counts for every n in [0, hi].

    brute: s rounds of exact integer shifted adds, one a power, capped at
    s <= 3 and hi <= 1e5; the FFT-free cross-check.  fft: s-th power of
    the indicator polynomial by the convolution kernel (_convolve), with
    integer recovery by rounding, refused if any count could reach 2^52,
    and before allocating when the kernel's price exceeds MEMORY_BUDGET.
    The kernel's price includes the 8 (hi + 1) bytes of the padded result.
    bitset: reachability only; the returned array holds 0/1 flags.  It
    prices six masks of hi + 1 bits (_mask_bytes) and 9 bytes a position
    for the flags before it allocates.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if hi < 0:
        raise ValueError(f"hi must be >= 0, got {hi}")
    if method == "bitset":
        # a bool and an int64 a position for the flags
        require_bytes(_mask_bytes(hi) + 9 * (hi + 1), "count_representations(method='bitset')")
    powers = _prime_powers(subset, k, hi)
    if method == "brute":
        if s > BRUTE_S_CAP or hi > BRUTE_N_CAP:
            raise ValueError(f"brute method capped at s <= {BRUTE_S_CAP}, hi <= {BRUTE_N_CAP}")
        # counts[n] holds the ordered j-tuples of powers summing to n, for
        # j = 0..s: a last term v moves the (j - 1)-tuple counts up by v
        counts = np.zeros(hi + 1, dtype=np.int64)
        counts[0] = 1
        for _ in range(s):
            counts, last = np.zeros_like(counts), counts
            for v in powers:
                counts[v:] += last[: hi + 1 - v]
        return counts
    if method == "fft":
        if not powers:
            return np.zeros(hi + 1, dtype=np.int64)

        def indicator():
            values = np.zeros(powers[-1])
            values[np.subtract(powers, 1)] = 1.0  # position v at values[v - 1]
            yield values, s

        top = s * powers[-1]
        what = "count_representations(method='fft')"
        # the window is the whole grid, the least 5-smooth integer above
        # top, so the kernel takes its one irfft and every count is checked
        grid = _smooth_above(top)
        conv, _ = _convolve(indicator(), top, 0, grid - 1, what, 8 * (hi + 1))
        if conv.max() >= FFT_EXACT_LIMIT:
            raise FFTPrecisionError(
                f"count magnitude {conv.max():.3g} >= 2^52; "
                "use brute for counts or bitset for coverage"
            )
        rounded = np.rint(conv)
        drift = float(np.abs(conv - rounded).max())
        if drift > 1e-2:
            raise FFTPrecisionError(f"rounding residual {drift:.3g} too large to trust")
        counts = rounded.astype(np.int64)
        counts[counts < 0] = 0
        # every sum of s powers lies below the grid: the tail counts are 0
        return np.pad(counts[: hi + 1], (0, max(0, hi + 1 - len(counts))))
    if method == "bitset":
        return window_flags(_reach(powers, s, hi), 0, hi).astype(np.int64)
    raise ValueError(f"unknown method {method!r}")


@dataclass
class CoverageReport:
    """Admissible integers in a window versus those actually representable."""

    k: int
    s: int
    subset: str
    window: tuple[int, int]
    modulus: int
    filtered: bool
    admissible_count: int
    represented_count: int
    exceptions: list[int]

    def to_dict(self) -> dict:
        """Every field, the window as a list, and the exception count."""
        return {**vars(self), "window": list(self.window), "exception_count": len(self.exceptions)}

    def csv_rows(self, reach):
        """One row "n,admissible,represented" per n in the window, as 0/1 flags."""
        lo, hi = self.window
        flags = window_flags(reach, lo, hi)
        adm = np.zeros(flags.size, dtype=bool)
        adm[_admissible_positions(self.window, self.s, self.k, self.filtered)] = True
        for n, a, r in zip(range(lo, hi + 1), adm.tolist(), flags.tolist()):
            yield f"{n},{int(a)},{int(r)}"

    def to_csv(self, path, reach) -> None:
        write_csv(path, "n,admissible,represented", self.csv_rows(reach))


def _admissible_positions(window, s: int, k: int, filtered: bool) -> slice:
    """The n of the window [lo, hi] that pass admissible_filter, as a slice
    of the positions n - lo: the one class n = s (mod R_k) is every R_k-th
    position from the first n in it; every position when not filtered."""
    lo, hi = window
    R = compute_Rk(k).value if filtered else 1
    return slice((s - lo) % R, hi - lo + 1, R)


def coverage_probe(
    subset: PrimeSubset,
    k: int,
    s: int,
    window: tuple[int, int],
    use_filter: bool = True,
) -> tuple[CoverageReport, int]:
    """Mark every sum of s subset-prime k-th powers up to the window top by
    s - 1 bitset additions of the powers, then list the admissible integers
    left unrepresented.

    Returns the report together with the reachability bitmask (useful for
    CSV emission and cross-checks).

    Before it allocates, prices six masks of hi + 1 bits (_mask_bytes),
    2 bytes a window position for the readout (the window's bits as an
    int and its bool flags) and 48 bytes for each of the at most
    ceil(width / R_k) admissible n (every n when not filtered), which may
    come back as listed exceptions (an int64 and a Python int in a list).
    The readout takes the admissible n as one strided slice of the flags
    (_admissible_positions).
    """
    lo, hi = window
    if not 0 <= lo <= hi:
        raise ValueError(f"bad window {window}")
    width = hi - lo + 1
    R = compute_Rk(k).value
    listed = -(-width // R) if use_filter else width  # the admissible n at most
    require_bytes(_mask_bytes(hi) + 2 * width + 48 * listed, "coverage_probe")
    reach = _reach(_prime_powers(subset, k, hi), s, hi)
    adm = _admissible_positions(window, s, k, use_filter)
    hit = window_flags(reach, lo, hi)[adm]
    missed = np.flatnonzero(~hit)
    missed *= adm.step
    missed += lo + adm.start
    report = CoverageReport(
        k=k,
        s=s,
        subset=subset.spec.describe(),
        window=(lo, hi),
        modulus=R,
        filtered=use_filter,
        admissible_count=hit.size,
        represented_count=int(np.count_nonzero(hit)),
        exceptions=missed.tolist(),
    )
    return report, reach


@dataclass
class ConvolutionProfile:
    """The s-fold convolution on its concentration window, rescaled.

    values[i] is the convolution at window_lo + i divided by N^(s-1), over
    the whole window.  The gauge is the minimum of those rescaled values
    over the admissible targets m: those whose n = W m + sum of the b meets
    the paper's congruence condition n = s (mod R_k) when every sequence
    shares one W > 0 and k, and every window target when W = 0.
    kappa = epsilon/32 fixes the window ((1-kappa^2) sN/2, (1+kappa) sN/2).
    The values come from a cyclic grid sized to the window (see
    transference_gauge), on which no position wraps into the window, so
    they equal the linear convolution's up to FFT rounding.
    """

    s: int
    N: int
    epsilon: float
    kappa: float
    window: tuple[int, int]
    values: np.ndarray
    gauge: float
    means: list[float]
    mean_each_ok: bool
    mean_sum_ok: bool
    numeric_warning: bool

    def to_dict(self) -> dict:
        """Every field but the window's values, the window as a list."""
        d = {key: v for key, v in vars(self).items() if key != "values"}
        return {**d, "window": list(self.window)}


def _smooth_above(n: int) -> int:
    """The least 2^a 3^b 5^c strictly above n."""
    best = 1 << n.bit_length()
    p5 = 1
    while p5 <= n:
        p35 = p5
        while p35 <= n:
            # the least p35 * 2^a above n
            best = min(best, p35 << (n // p35).bit_length())
            p35 *= 3
        best = min(best, p35)
        p5 *= 5
    return min(best, p5)


def _raise(X: np.ndarray, mult: int) -> None:
    """X **= mult in place, by square-and-multiply from the top bit of mult
    on one copy of X: at mult = 41 on 729,001 bins, 8.8 ms against 14.6 ms
    for X **= mult (minimum of 15 on a 2-core VM), the two within 3.6e-15
    of the largest |X^41|."""
    if mult == 1:
        return
    base = X.copy()
    for bit in bin(mult)[3:]:
        X *= X
        if bit == "1":
            X *= base


# The window inverse (_window_inverse) against one irfft of the grid,
# fitted to a sweep of both on random half spectra over 5-smooth grids that
# are multiples of 4, 2^16 to 2^22 points, windows of 1, L2/3 and L2 points
# (medians of 9 on a 2-core VM).  At L2/3 points the window inverse took
# 0.42-0.80 of the irfft's time from 2^18 points on, 0.94 at 2^17 and 1.35
# at 2^16; at L2 points, 0.55-1.25.  Columns of 8,100 to 29,160 bins ran
# within 15 % of each other on grids of 729,000 and 1,458,000 points.
_WINDOW_FLOOR = 1 << 18
_COLUMN_LENGTH = 1 << 14
_COLUMN_SHARE = 3


def _window_split(grid: int, width: int) -> int:
    """L1 of the split grid = L1 L2 by which the window inverse reads a
    window of width points, or 0 for one irfft of the grid.

    L1 and L2 are both even, so the grid is a multiple of 4, and L2 is the
    column length nearest _COLUMN_LENGTH in ratio.  The window inverse runs
    L1/2 + 1 inverse transforms of length L2, about the work of one irfft,
    and reads each window point from each of them; it wins from
    _WINDOW_FLOOR points on, by making no pass over a whole grid of fresh
    memory, while the window holds at most 1/_COLUMN_SHARE of a column.
    """
    if grid % 4 or grid < _WINDOW_FLOOR:
        return 0
    splits = [
        L1
        for d in range(1, math.isqrt(grid) + 1)
        if grid % d == 0
        for L1 in (d, grid // d)
        if L1 % 2 == 0 and grid // L1 % 2 == 0
    ]
    L1 = min(splits, key=lambda L1: abs(math.log(grid / L1 / _COLUMN_LENGTH)))
    return L1 if _COLUMN_SHARE * width <= grid // L1 else 0


def _window_inverse(H: np.ndarray, grid: int, lo: int, hi: int, L1: int) -> np.ndarray:
    """np.fft.irfft(H, grid)[lo : hi + 1] by the four-step split grid = L1 L2
    (Bailey 1990), both even, reading only the window.

    With bins j = j1 + L1 j2, y(m) = (1/L1) sum over j1 of e(j1 m / grid)
    G(j1, m mod L2), G(j1, .) the inverse transform of length L2 of column
    j1, the bins P(j1 + L1 j2).  Columns j1 and L1 - j1 give conjugate
    terms, so the columns j1 = 0..L1/2 suffice, each counted twice but for
    the self-conjugate 0 and L1/2.  Column j1 takes H[j1 + L1 j2] for j2 <
    L2/2 and the conjugate mirror H[L1 - j1 + L1 (L2 - 1 - j2)] above; the
    real part drops the imaginary parts of H[0] and H[grid/2], as the irfft
    does.  The twiddles e(j1 m / grid) come from spectral._phase_table's
    exact integer numerators.  The columns go in batches of about grid/8
    cells with their window readout, so that each batch array weighs a
    quarter of a float64 grid: the inverse added 0.5 grids to H's 1 in a
    traced peak where the irfft added 1.
    """
    L2 = grid // L1
    h2 = L2 // 2
    head = H[: grid // 2].reshape(h2, L1)  # head[t, c] = H[c + L1 t]
    tail = H[1 : grid // 2 + 1].reshape(h2, L1)  # tail[t, c] = H[1 + c + L1 t]
    width = hi - lo + 1
    columns = L1 // 2 + 1
    batch = min(columns, max(1, grid // 8 // (L2 + width)))
    rows = np.arange(lo, hi + 1) % L2
    out = np.zeros(width)
    block = np.empty((batch, L2), dtype=complex)
    for a in range(0, columns, batch):
        b = min(a + batch, columns)
        B = block[: b - a]
        B[:, :h2] = head[:, a:b].T
        # column j1's bin j2 = h2 + i is conj H[L1 - j1 + L1 (h2 - 1 - i)]
        np.conjugate(tail[::-1, L1 - b : L1 - a][:, ::-1].T, out=B[:, h2:])
        j1 = np.arange(a, b)
        # e(j1 lo / grid), weighted 2 / L1, or 1 / L1 for columns 0 and L1/2
        scale = _phase_table(-2 * j1, 2, lo, grid)[1]
        scale *= np.where(j1 % (L1 // 2) == 0, 1.0, 2.0) / L1
        terms = _phase_table(-2 * j1, width, 1, grid)  # e(j1 (m - lo) / grid)
        terms *= scale
        terms *= np.fft.ifft(B, axis=1).T[rows]
        out += terms.real.sum(axis=1)
    return out


def _convolve(
    parts, top: int, lo: int, hi: int, what: str, result_bytes: int = 0
) -> tuple[np.ndarray, float]:
    """The one convolution kernel: the product of parts, each (values,
    multiplicity) with values[n - 1] at position n, on the window [lo, hi].

    The cyclic grid is the least 2^a 3^b 5^c strictly above both hi and
    top - lo, top the last position the product reaches: a grid above hi
    keeps the window and folds no negative position onto it, and one above
    top - lo sends every position that would wrap onto the window past top.
    The peak, measured at 2.5 to 5.3 float64 grids, is priced at 6.5 grids,
    plus the result_bytes the caller allocates afterwards, under the name
    what before the first part is drawn from parts.
    Multiplies the parts' half spectra (spectral._half_spectrum), each
    block raised to its multiplicity in place (_raise), starting from the
    first part's, then returns the convolution at lo..hi and the sum of the
    product's |bins| over the grid length.  The window comes from the
    window inverse when _window_split gives a split, else from one irfft of
    the grid.
    """
    grid = _smooth_above(max(hi, top - lo))
    half = grid // 2 + 1
    require_bytes(6.5 * 8 * grid + result_bytes, what)
    prod = None
    for values, mult in parts:
        first = prod is None
        for j0, X in _half_spectrum(values, grid, what):
            _raise(X, mult)
            if not first:
                prod[j0 : j0 + len(X)] *= X
            elif len(X) == half:  # the rfft's one chunk
                prod = X
            else:
                if j0 == 0:
                    prod = np.empty(half, dtype=complex)
                prod[j0 : j0 + len(X)] = X
    mass = np.sum(np.abs(prod)) / grid
    L1 = _window_split(grid, hi - lo + 1)
    if L1:
        return _window_inverse(prod, grid, lo, hi, L1), mass
    return np.fft.irfft(prod, grid)[lo : hi + 1], mass


def transference_gauge(f_list: list[WeightedSequence], epsilon: float = 0.1) -> ConvolutionProfile:
    """Convolve s nonnegative sequences and gauge the window minimum over
    the admissible targets.

    For arithmetic sequences sharing one W > 0 and k, a target m is
    admissible when n = W m + sum of the b satisfies the paper's condition
    n = s (mod R_k); off that class no representation exists and the
    convolution vanishes identically, so those targets are left out of the
    minimum (but kept in values and in the negativity check).  With W = 0
    every window target is admissible.

    The convolution kernel (_convolve) gives the convolution on its window
    [lo, hi] from a grid that holds the window, not the whole convolution
    on [s, sN]; since sN - lo >= N, the grid also holds each padded
    sequence.  Each sequence is divided by N so that the product of s
    spectra stays O(1), and the window is rescaled back by N^(s-1).

    Also records whether the two mean hypotheses hold: every mean above
    epsilon/2, and the mean sum above s(1+epsilon)/2.  A warning flag is
    raised when the gauge sits more than six decimal digits below the
    crude transform-mass bound, sum |P| / grid * N over the spectrum P on
    that same grid, which bounds every window value of nonnegative
    sequences; below it the computed digits are mostly cancellation.
    """
    s = len(f_list)
    if s < 2:
        raise ValueError(f"need at least two sequences, got {s}")
    require_epsilon(epsilon)
    N = f_list[0].N
    if any(f.N != N for f in f_list):
        raise ValueError("all sequences must share one length")
    kappa = epsilon / 32.0
    lo = math.floor((1 - kappa**2) * s * N / 2) + 1
    hi = math.ceil((1 + kappa) * s * N / 2) - 1

    def parts():
        # group equal arrays, in first-occurrence order, so repeated
        # factors cost one half spectrum each; equal arrays come in runs,
        # so each is compared first with the group the one before joined
        # (equality is transitive: at most one group matches)
        groups: list[list] = []
        last = None
        for f in f_list:
            if last is None or not np.array_equal(last[0], f.values):
                prev = last
                last = next(
                    (g for g in groups if g is not prev and np.array_equal(g[0], f.values)), None
                )
                if last is None:
                    last = [f.values, 0]
                    groups.append(last)
            last[1] += 1
        for arr, mult in groups:
            yield arr / N, mult

    conv, mass = _convolve(parts(), s * N, lo, hi, "transference_gauge")
    window_vals = conv * N  # convolution / N^(s-1)
    mass_bound = float(mass * N)
    noise_floor = 1e-12 * max(mass_bound, 1.0)
    if window_vals.size and window_vals.min() < -noise_floor:
        raise RuntimeError(
            f"convolution of nonnegative sequences went negative: {window_vals.min():.3g}"
        )
    np.clip(window_vals, 0.0, None, out=window_vals)
    gauged = window_vals
    f0 = f_list[0]
    if f0.W > 0 and all(f.W == f0.W and f.k == f0.k for f in f_list):
        ns = f0.W * np.arange(lo, hi + 1, dtype=np.int64) + sum(f.b for f in f_list)
        gauged = window_vals[admissible_filter(ns, s, f0.k)]
    gauge = float(gauged.min()) if gauged.size else 0.0
    means = [f.mean() for f in f_list]
    mean_each_ok = all(m > epsilon / 2 for m in means)
    mean_sum_ok = sum(means) > s * (1 + epsilon) / 2
    numeric_warning = bool(gauge < 1e-6 * mass_bound)
    return ConvolutionProfile(
        s=s,
        N=N,
        epsilon=epsilon,
        kappa=kappa,
        window=(lo, hi),
        values=window_vals,
        gauge=gauge,
        means=means,
        mean_each_ok=mean_each_ok,
        mean_sum_ok=mean_sum_ok,
        numeric_warning=numeric_warning,
    )


@dataclass
class ThresholdReport:
    """Closed-form parameter thresholds at a given power k."""

    k: int
    s_min_theorem: int
    s_min_local: int
    delta_threshold: Fraction

    def to_dict(self) -> dict:
        """Every field, delta_threshold as [numerator, denominator]."""
        delta = self.delta_threshold
        return {**vars(self), "delta_threshold": [delta.numerator, delta.denominator]}


def theorem_thresholds(k: int) -> ThresholdReport:
    """Exact integer thresholds at power k.

    s_min_theorem is the smallest term count above the strict bound
    max(16 k omega(k) + 4k + 3, k^2 + k); s_min_local is the smallest term
    count with the guaranteed majority-sumset covering property of the
    progression modulus, 8 k omega(k) + 2k + 2; delta_threshold is the
    relative density bound 1 - 1/(2k).
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    om = len(FactoredModulus.from_value(k).factors)  # omega(k)
    s_min_theorem = max(16 * k * om + 4 * k + 3, k * k + k) + 1
    s_min_local = 8 * k * om + 2 * k + 2
    return ThresholdReport(
        k=k,
        s_min_theorem=s_min_theorem,
        s_min_local=s_min_local,
        delta_threshold=Fraction(2 * k - 1, 2 * k),
    )
