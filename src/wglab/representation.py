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
from .spectral import (
    _CHUNK_CELLS,
    _e_table_bytes,
    _half_grid_shape,
    _half_spectrum,
    _lattice_buffers,
    _phase_table,
    _rfft_columns,
    _support_columns,
    _take_product,
    _use_product,
)

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
            # weight 1 at each position v, index v - 1
            yield np.subtract(powers, 1), np.ones(len(powers)), s

        top = s * powers[-1]
        what = "count_representations(method='fft')"
        # the window is the whole grid, the least 5-smooth integer above
        # top, so the kernel takes its one irfft and every count is checked
        grid = _smooth_above(top)
        conv, _ = _convolve(indicator(), [len(powers)], top, 0, grid - 1, what, 8 * (hi + 1))
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


def _raise_into(dst: np.ndarray, X: np.ndarray, mult: int, first: bool) -> None:
    """dst = X ** mult when first, else dst *= X ** mult, by the binary
    powers of X from the lowest bit of mult, each squared in place in X, so
    that no copy is made and X is overwritten: at mult = 41 on 729,001
    bins, square-and-multiply took 8.8 ms against 14.6 ms for X **= mult
    (minimum of 15 on a 2-core VM), the two within 3.6e-15 of the largest
    |X^41|."""
    bits = bin(mult)[:1:-1]
    for i, bit in enumerate(bits):
        if bit == "1":
            if first:
                dst[...] = X
                first = False
            else:
                dst *= X
        if i < len(bits) - 1:
            X *= X


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


def _column_batch(grid: int, L1: int) -> int:
    """The columns of one batch of the window inverse: as many columns of
    grid / L1 bins as two products of spectral._CHUNK_CELLS cells hold, so
    that on grids above spectral._GROUPED_ABOVE a product-path part forms
    a batch in two whole products; at least one, at most the L1/2 + 1.
    numpy's pocketfft ran the batched column ifft at 121-126 us a column of
    16,200 bins from 4 columns on, where 1 to 3 columns took up to 350
    (minimum of 7 on a 2-core VM)."""
    return min(L1 // 2 + 1, max(1, 2 * _CHUNK_CELLS * L1 // grid))


def _window_inverse(batches, grid: int, lo: int, hi: int, L1: int) -> np.ndarray:
    """np.fft.irfft(H, grid)[lo : hi + 1] by the four-step split grid = L1 L2
    (Bailey 1990), both even, reading only the window, from the columns
    j1 = 0..L1/2 of the whole spectrum H: batches yields (a, B), B the
    columns a, a + 1, ... as rows, column j1 the bins H(j1 + L1 j2) for
    j2 < L2.  Each B is overwritten by its inverse transforms.

    With bins j = j1 + L1 j2, y(m) = (1/L1) sum over j1 of e(j1 m / grid)
    G(j1, m mod L2), G(j1, .) the inverse transform of length L2 of column
    j1.  Columns j1 and L1 - j1 give conjugate terms, so the columns j1 =
    0..L1/2 suffice, each counted twice but for the self-conjugate 0 and
    L1/2; the real part drops the imaginary parts of H[0] and H[grid/2], as
    the irfft does.  The twiddles e(j1 m / grid) come from
    spectral._phase_table's exact integer numerators.  Each batch's window
    readout is added as its columns arrive.
    """
    L2 = grid // L1
    width = hi - lo + 1
    run = min(width, L2 - lo % L2)
    out = np.zeros(width)
    j1 = np.arange(L1 // 2 + 1)
    # e(j1 lo / grid), weighted 2 / L1, or 1 / L1 for columns 0 and L1/2
    scale = _phase_table(-2 * j1, 2, lo, grid)[1]
    scale *= np.where(j1 % (L1 // 2) == 0, 1.0, 2.0) / L1
    for a, B in batches:
        G = np.fft.ifft(B, axis=1, out=B)
        b = a + len(B)
        terms = _phase_table(-2 * j1[a:b], width, 1, grid)  # e(j1 (m - lo) / grid)
        terms *= scale[a:b]
        # G at the window's m mod L2: at most two runs, the second from 0
        terms[:run] *= G[:, lo % L2 : lo % L2 + run].T
        terms[run:] *= G[:, : width - run].T
        out += terms.real.sum(axis=1)
    return out


def _half_grid_power(parts, grid: int, what: str) -> np.ndarray | None:
    """The product of the parts' half spectra on grid points
    (spectral._half_spectrum), each raised to its multiplicity, formed
    chunk by chunk into one half-grid array as the parts are drawn one at
    a time; None when there is no part."""
    prod = None
    for n, (index, weights, mult) in enumerate(parts):
        for j0, X in _half_spectrum(index, weights, grid, what):
            if prod is None:  # after the first rfft has dropped its input
                prod = np.empty(grid // 2 + 1, dtype=complex)
            _raise_into(prod[j0 : j0 + len(X)], X, mult, not n)
        X = None  # an rfft's chunk goes before the next part's is formed
    return prod


def _workspace(supports, grid: int, L1: int) -> tuple[int, int, int]:
    """The streamed route's one workspace for parts of the given support
    sizes: the columns of a batch (_column_batch), and the complex elements
    of A and the float64 words of X that the sparse parts share
    (spectral._lattice_buffers)."""
    batch = _column_batch(grid, L1)
    sparse = [S for S in supports if _use_product(S, grid)]
    shared = [_lattice_buffers(S, grid, grid // L1, batch) for S in sparse]
    a_size, x_size = map(max, zip((0, 0), *shared))
    return batch, a_size, x_size


def _streamed_bytes(supports, grid: int, L1: int, width: int) -> float:
    """The streamed route's peak for parts of the given support sizes on
    grid = L1 L2 points and a window of width points: the one workspace
    (the batch, one column's |bins| and the sparse parts' shared A and X),
    each sparse part's phase tables (E with its phase table and the ufunc
    buffer of its strided write, each lattice's weighted phase and the
    products' first-row phases, the within-product phases), the dense
    parts' half-grid product with one part's padded rfft (4 grids, traced
    at 2.97-3.97 grids with the rest) when a part is dense, and the window
    inverse's readout: its e(j1 m / grid) terms for one batch, held while
    _phase_table forms the next batch's twice over, the window's sum and
    result, and its per-column scale."""
    L2 = grid // L1
    columns = L1 // 2 + 1
    batch, a_size, x_size = _workspace(supports, grid, L1)
    total = 8.0 * (2 * batch * L2 + L2 + 2 * a_size + x_size)
    sparse = [S for S in supports if _use_product(S, grid)]
    for S in sparse:
        _, T, rows, C = _half_grid_shape(S, grid, L2)
        total += _e_table_bytes(S, T) + 16.0 * S * columns * (-(-rows // C) + 1)
        total += 16.0 * S * min(rows, C)
    if len(sparse) < len(supports):
        total += 4 * 8.0 * grid
    return total + 16.0 * width * (3 * batch + 1) + 48.0 * columns


def _convolve(
    parts, supports, top: int, lo: int, hi: int, what: str, result_bytes: int = 0
) -> tuple[np.ndarray, float]:
    """The one convolution kernel: the product of parts, each (index,
    weights, multiplicity) with weights[s] at position n = index[s] + 1, on
    the window [lo, hi].  supports holds the parts' support sizes, the
    lengths of their index, in the order parts yields them.

    The cyclic grid is the least 2^a 3^b 5^c strictly above both hi and
    top - lo, top the last position the product reaches: a grid above hi
    keeps the window and folds no negative position onto it, and one above
    top - lo sends every position that would wrap onto the window past top.
    The price, plus the result_bytes the caller allocates afterwards,
    passes require_bytes under the name what before the first part is
    drawn from parts: 6.5 float64 grids on the one-irfft route, and on the
    streamed route what that route allocates (_streamed_bytes).  Sparse
    parts on the streamed route are refused on grids where the product
    path's exact phases could overflow (spectral._take_product).  Returns
    the convolution at lo..hi and the sum of the product's |bins| over the
    half grid j = 0..grid/2, divided by the grid length.  Each part's
    spectrum is raised to its multiplicity by its binary powers
    (_raise_into).

    When _window_split splits the grid as L1 L2, the product is streamed
    by the columns j1 = 0..L1/2 of the spectrum: a sparse part gives its
    columns as lattices of bins j1 + L1 j2 straight from the sparse-
    spectrum product (spectral._support_columns), in product buffers the
    parts share; the dense parts' rffts are multiplied over the half grid
    one at a time, and that product is read by columns as one part.  A
    batch of columns (_column_batch) is the first part's block times the
    others', and the window inverse reads each batch as it is formed, so
    no array spans the half grid but the dense parts' product.  The
    batch, the shared buffers and one column's |bins| are views of one
    workspace, allocated once a call.  On the benchmark's chain at N =
    2^16 (three sparse parts on 1,458,000 points) a call peaked at 5.5 MB
    traced, where the half-grid product alone weighed 11.7 MB.  Otherwise
    the parts' half spectra are multiplied into one half-grid product
    (_half_grid_power), read by one irfft of the grid.
    """
    grid = _smooth_above(max(hi, top - lo))
    L1 = _window_split(grid, hi - lo + 1)
    price = _streamed_bytes(supports, grid, L1, hi - lo + 1) if L1 else 6.5 * 8 * grid
    require_bytes(price + result_bytes, what)
    if not L1:
        prod = _half_grid_power(parts, grid, what)
        mass = np.sum(np.abs(prod)) / grid
        return np.fft.irfft(prod, grid)[lo : hi + 1], mass
    L2 = grid // L1
    h2 = L2 // 2
    columns = L1 // 2 + 1
    batch, a_size, x_size = _workspace(supports, grid, L1)
    sparse = []

    def dense():
        for part in parts:
            if _take_product(len(part[0]), grid, what, None):
                sparse.append(part)
            else:
                yield part

    # the dense parts' rffts, multiplied over the half grid as the parts
    # are drawn, so that one dense part's weights are held at a time, then
    # read by columns as one part
    dense_product = _half_grid_power(dense(), grid, what)
    # one workspace: the batch, |bins| of one column, and the A and X that
    # the sparse parts share, since each batch is formed part by part
    space = np.empty(2 * batch * L2 + L2 + 2 * a_size + x_size)
    block, mag, a_buf, x_buf = np.split(space, np.cumsum([2 * batch * L2, L2, 2 * a_size]))
    block = block.view(complex).reshape(batch, L2)
    work = {"A": a_buf.view(complex), "out": x_buf}
    sources = [
        (_support_columns(index, weights, grid, L1, batch, work), mult)
        for index, weights, mult in sparse
    ]
    if dense_product is not None:
        sources.insert(0, (_rfft_columns(dense_product, grid, L1, batch), 1))
    mass = 0.0

    def batches():
        nonlocal mass
        for a in range(0, columns, batch):
            b = min(a + batch, columns)
            B = block[: b - a]
            for n, (chunks, mult) in enumerate(sources):
                for j1, i0, X in chunks:
                    rows, width = X.shape
                    _raise_into(B[j1 - a : j1 - a + rows, i0 : i0 + width], X, mult, not n)
                    if j1 + rows == b and i0 + width == L2:
                        break
            # the half grid's |bins|: column 0 up to j2 = L2/2, columns 1 to
            # L1/2 - 1 whole (their mirrors are the columns above L1/2), and
            # column L1/2 below j2 = L2/2
            for j1, column in enumerate(B, a):
                np.abs(column, out=mag)
                stop = h2 + 1 if j1 == 0 else h2 if j1 == columns - 1 else L2
                mass += mag[:stop].sum()
            yield a, B

    return _window_inverse(batches(), grid, lo, hi, L1), mass / grid


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

    def same(g, f) -> bool:
        return np.array_equal(g[0], f.index) and np.array_equal(g[1], f.weights)

    # group equal sequences, in first-occurrence order, so repeated factors
    # cost one half spectrum each; equal sequences come in runs, so each is
    # compared first with the group the one before joined (equality is
    # transitive: at most one group matches)
    groups: list[list] = []
    last = None
    for f in f_list:
        if last is None or not same(last, f):
            prev = last
            last = next((g for g in groups if g is not prev and same(g, f)), None)
            if last is None:
                last = [f.index, f.weights, 0]
                groups.append(last)
        last[2] += 1
    # scaled as drawn, so that one dense group's copy is held at a time
    parts = ((index, weights / N, mult) for index, weights, mult in groups)
    supports = [len(index) for index, _, _ in groups]
    conv, mass = _convolve(parts, supports, s * N, lo, hi, "transference_gauge")
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
