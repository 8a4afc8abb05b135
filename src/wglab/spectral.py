"""Circle-method numerics on the unit circle.

Exact-to-roundoff Fourier spectra of weighted sequences on a uniform
grid, major/minor arc decomposition, complete exponential sums with
their smooth/rough factorization and vanishing law, the major-arc main
term, a uniform pseudorandomness gauge, and restriction-norm constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core_arith import FactoredModulus, LimitExceededError, rational_approx, require_bytes
from .local_structure import power_residues, sigma_b
from .majorant import WeightedSequence, write_binary, write_csv

__all__ = [
    "Spectrum",
    "ArcParams",
    "Arc",
    "ExpSumValue",
    "FactorParts",
    "GaugeReport",
    "DirichletKernel",
    "RestrictionReport",
    "dft_spectrum",
    "transform_at",
    "interval_transform_at",
    "arc_decompose",
    "exp_sum_Sstar",
    "exp_sum_factor",
    "integral_I",
    "major_arc_model",
    "major_arc_residual",
    "pseudorandom_gauge",
    "restriction_norm",
]

TWO_PI = 2.0 * math.pi
_ARC_SCAN_CAP = 10**6


def default_grid(N: int, factor: int = 8) -> int:
    """factor times the next power of two at or above N."""
    return factor * (1 << (N - 1).bit_length())


def _padded_rfft(index: np.ndarray, weights: np.ndarray, M: int, interval: int = 0):
    """The rfft of a zero array of length M holding weights at positions
    index + 1, less 1 at positions 1..interval: the FFT path's half
    spectrum, and the package's one rfft of a sequence.  The gauge's
    interval of N takes the interval off; each support point then holds
    weights - 1.0, the dense sequence's values - 1 bit for bit."""
    arr = np.zeros(M)
    body = arr[1:]
    if interval:
        body[:interval] = -1.0
        body[index] = weights - 1.0
    else:
        body[index] = weights
    return np.fft.rfft(arr)


# most cells of one serial product (256 KiB of complex X); products of
# 2^13 to 2^16 cells ran within host noise of it
_PRODUCT_BLOCK = 1 << 14
# multiply-adds in one serial real matrix product.  OpenBLAS 0.3.31
# (numpy 2.4's wheels) runs a product of up to 100 x 100 x 100 on the
# calling thread; on a 2-core VM each threaded call whose worker had gone
# idle stalled for 7-16 ms, so a lone gauge at M = 2^15 took 16 ms against
# 0.5 ms.  Grids of up to _GROUPED_ABOVE points keep each product that
# small: products of twice the cells made the 54 gauges of a report on
# 2^17 points slower, 60 -> 91 ms with threads and 64 -> 83 ms without.
_SERIAL_MACS = 10**6
# above this many grid points, one matrix product holds _CHUNK_CELLS cells:
# at M = 2^22, S = 55 the 482 serial products of 17 x 110 x 512 ran at
# 27 GFLOP/s, where products of 64 to 1024 rows reach 51-76 on two cores
_GROUPED_ABOVE = 1 << 19
_CHUNK_CELLS = 1 << 16


def _use_product(S: int, M: int) -> bool:
    """Whether the half-grid product beats the rfft for S support points on
    a grid of M points: S >= 1, M >= 2^15 and 64 S^2 <= min(M, 2^18),
    fitted to a sweep of both paths over M = 2^14..2^24 and S = 2..512.
    Below 2^15 points the rfft costs less than the product's fixed steps;
    from 2^18 points on, the product passes the rfft's cost near S = 64 to
    96.  A sequence with no support takes one rfft, since the product's
    phase tables cannot be shaped for S = 0."""
    return S >= 1 and M >= 1 << 15 and 64 * S * S <= min(M, 1 << 18)


def _half_grid_shape(S: int, M: int, count: int | None = None) -> tuple[int, int, int, int]:
    """Bins i = 0..count - 1 of a lattice, by default the half grid's
    j = 0..M//2, as i = u T + t for S support points: the bin count, T, the
    row count R and the rows C of one matrix product, the one rule that
    sizes every BLAS call of the package.  On grids of up to _GROUPED_ABOVE
    points a product holds at most min(_PRODUCT_BLOCK, _SERIAL_MACS / 4S)
    cells, so that it, 4 S multiply-adds a cell, stays on the calling
    thread; above, it holds _CHUNK_CELLS // T rows.  T is the power of two
    at or above the bin count's square root, which keeps R + T near its
    least: the S (R + T) complex products that form A and E.  It no longer
    sets the cos/sin count, which the factored tables (_phase_table) hold
    to the order of S sqrt(R + T); gauges at T / 8 to T ran within host
    noise of each other.  T is halved until a serial product holds 16 rows:
    products of one or two rows ran 2-4 times slower per multiply-add.  The
    shape of S = 1 also sizes the Dirichlet kernel's blocks
    (DirichletKernel), whatever the support of the gauge that reads it."""
    bins = M // 2 + 1 if count is None else count
    block = min(_PRODUCT_BLOCK, _SERIAL_MACS // max(4 * S, 1))
    T = 1 << ((bins - 1).bit_length() + 1) // 2
    while T > 1 and 16 * T > block:
        T //= 2
    cells = _CHUNK_CELLS if M > _GROUPED_ABOVE else block
    return bins, T, -(-bins // T), max(1, cells // T)


def _lattice_buffers(S: int, M: int, count: int, group: int) -> tuple[int, int]:
    """The complex elements of A and the float64 words of X, the two
    buffers that every product of _half_grid_product reuses, on lattices
    of count bins in groups of group for S support points
    (_lattice_layout)."""
    T, _, _, per, span = _lattice_layout(S, M, count, group)
    return per * span * S, per * span * 2 * T


def _lattice_layout(S: int, M: int, count: int, group: int) -> tuple[int, int, int, int, int]:
    """T, the rows R of a lattice of count bins and the C rows of one
    product (_half_grid_shape), with the lattices per and the rows span of
    one lattice that a product takes: C rows of one lattice when R > C,
    else min(C // R, group) whole lattices."""
    _, T, rows, C = _half_grid_shape(S, M, count)
    per, span = (min(C // rows, group), rows) if rows <= C else (1, C)
    return T, rows, C, per, span


# elements of the buffer numpy 2.4 gives a strided ufunc operand: building
# E writes its (T, S) phases through one, 16 bytes an element
_UFUNC_BUFFER = 8192


def _e_table_bytes(S: int, T: int) -> float:
    """E of S points and T columns with its complex phase table, 48 bytes a
    cell, and the ufunc buffer of its strided write."""
    return 48.0 * S * T + 16.0 * min(S * T, _UFUNC_BUFFER)


def _product_bytes(S: int, M: int, block_words: int) -> float:
    """Peak of the product path: E with its phase table (_e_table_bytes),
    the within-product phases with their table and one product's A (48
    bytes a cell), the w-weighted phase of each product's first row, then
    block_words float64 arrays the size of one product's bins."""
    _, T, rows, C = _half_grid_shape(S, M)
    E = _e_table_bytes(S, T)
    return E + 48.0 * S * C + 16.0 * S * -(-rows // C) + 8.0 * block_words * C * T


def _cos_sin(p: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of pi p / M, the phase e(-p / 2M) = cos - i sin, for
    exact integer numerators p in [0, 2M).  The package's one call of
    np.cos and np.sin."""
    angle = p * (math.pi / M)
    return np.cos(angle), np.sin(angle)


def _phase_table(c, count: int, step: int, M: int) -> np.ndarray:
    """The phases e(-c_s m step / 2M) for m < count, complex of shape
    (count, S), from 2 S sqrt(count) cos/sin evaluations or fewer.

    With Q = ceil(sqrt(count)) and m = a Q + b, the phase is the a-table at
    step Q step times the b-table at step step, one broadcast complex
    product.  Both tables take _cos_sin of exact int64 numerators c_s i g
    mod 2M; with i g and g reduced to residues nearest 0, no product
    reaches 2 M^2, so all are exact whenever 2 M^2 < 2^63, the condition
    the product path checks.  The product of the two rounded tables is
    within a few ulps of the directly computed phase.
    """
    mod = 2 * M
    c = np.asarray(c, dtype=np.int64) % mod
    Q = 1 + math.isqrt(count - 1)
    rows = -(-count // Q)

    def residues(n: int, g: int) -> np.ndarray:
        g = (g + M) % mod - M
        return (np.arange(n, dtype=np.int64) % mod * g + M) % mod - M

    x = np.concatenate([residues(rows, Q * step), residues(Q, step)])
    cos, sin = _cos_sin(np.multiply.outer(x, c) % mod, M)
    table = np.empty(cos.shape, dtype=complex)
    table.real = cos
    np.negative(sin, out=table.imag)
    return (table[:rows, None] * table[rows:]).reshape(-1, len(c))[:count]


class _ProductTables(NamedTuple):
    """The phase tables of one sparse-spectrum product (_product_tables)
    and the lattices they cover."""

    E: np.ndarray
    lead: np.ndarray
    within: np.ndarray
    M: int
    offsets: range
    count: int
    group: int


def _product_tables(
    c: np.ndarray,
    w: np.ndarray,
    M: int,
    offsets=range(1),
    stride: int = 1,
    count: int | None = None,
    group: int | None = None,
) -> _ProductTables:
    """The double-precision tables of X(j) = sum_s w_s e(-c_s j / 2M) on
    lattices of bins, which _half_grid_product multiplies: for each offset
    o of the range offsets, the bins j = o + stride i, i < count.  The
    default is the half grid j = 0..M//2: offset 0, stride 1, count M//2 +
    1.  The window inverse's columns are lattices of stride L1
    (representation._convolve).

    With i = u T + t, X is the matrix product of A[u, s] = w_s e(-c_s (o +
    stride u T) / 2M) and E[s, t] = e(-c_s stride t / 2M).  One real
    product forms at most the C rows that _half_grid_shape gives it: C
    rows of one lattice when a lattice has R > C rows, else C // R whole
    lattices, none from two groups (runs of group lattices from the first;
    one run by default).  Its row u = u0 + r of A is lead, the lattice's
    weighted phase w e(-c o / 2M) times the product's phase at r = 0,
    times within, the within-product phase at r, all from _phase_table;
    the half grid's offset phase, 1, is not formed.  A is viewed as real,
    Re and Im of each point side by side, times E, the 2S x 2T matrix
    whose columns 2t and 2t + 1 give Re X and Im X, so the result reads as
    complex X with no copy.
    """
    S = len(c)
    count = M // 2 + 1 if count is None else count
    group = group or len(offsets)
    T, rows, C, _, span = _lattice_layout(S, M, count, group)
    # rows 2s and 2s + 1 of E take Re A_s and Im A_s: (a + ib) e = a e + b (i e)
    phases = _phase_table(c, T, stride, M)
    E = np.empty((S, 2, T), dtype=complex)
    E[:, 0] = phases.T
    # from the (T, S) table itself: numpy then buffers only the strided out
    np.multiply(phases, 1j, out=E[:, 1].T)
    E = E.reshape(2 * S, T).view(float)
    del phases
    lattice = np.reshape(w, (1, S))
    if offsets != range(1):
        lattice = _phase_table(c, len(offsets), offsets.step, M)
        if offsets.start:
            lattice *= _phase_table(c, 2, offsets.start, M)[1]
        lattice *= w
    # lead[k, p]: the weighted phase of lattice k's product p at its row 0
    lead = _phase_table(c, -(-rows // C), C * T * stride, M)[None] * lattice[:, None]
    # the half grid's table keeps C rows, as it did when it had no other use
    within = _phase_table(c, C if offsets == range(1) else span, T * stride, M)
    return _ProductTables(E, lead, within, M, offsets, count, group)


def _half_grid_product(tables: _ProductTables, work: dict | None = None, dtype=float, which=None):
    """The matrix products of _product_tables' tables, in chunks, in dtype:
    float64, or np.float32 for the gauge's screen, whose A, E and X are
    the double tables and products rounded to single precision.  which
    holds the numbers of the products to form, counted from 0 in the order
    formed; None forms them all.

    Each bin is off by a few ulps of the error scale sum_s |w_s|, the
    largest |X| can reach, not of |X| itself: each of Re X and Im X is a
    dot product of 2S terms of total size at most sum_s |w_s|, so a bin
    where |X| cancels far below that sum keeps the absolute error of the
    sum, not a relative one (TestProductErrorScale in the tests).

    Yields (o, i0, X): X holds the bins i0, i0 + 1, ... of the lattices at
    offsets o, o + 1, ..., one row a lattice, cut at count; on the half
    grid X has one row.  A and X are formed in two buffers allocated once
    per call, or kept in work, a dict that calls drawn in turn may share
    and that each call grows to its size.  So a yielded X is valid only
    until the next chunk is drawn, from this call or from any call sharing
    its work.
    """
    E, lead, within, M, offsets, count, group = tables
    S = len(E) // 2
    T, rows, _, per, span = _lattice_layout(S, M, count, group)
    E = E.astype(dtype, copy=False)
    work = {} if work is None else work
    sizes = _lattice_buffers(S, M, count, group)
    for name, size, kind in zip(("A", "out"), sizes, (np.result_type(dtype, 1j), E.dtype)):
        if name not in work or work[name].size < size or work[name].dtype != kind:
            work[name] = np.empty(size, dtype=kind)
    which = None if which is None else set(which)
    # by (m, r): A as (m, r, S) and as real (m r, 2S), X as real and complex
    views = {}
    n = -1
    for g0 in range(0, len(offsets), group):
        for k0 in range(g0, min(g0 + group, len(offsets)), per):
            m = min(per, g0 + group - k0, len(offsets) - k0)
            for p, u0 in enumerate(range(0, rows, span)):
                n += 1
                if which is not None and n not in which:
                    continue
                r = min(span, rows - u0)
                if (m, r) not in views:
                    A = work["A"][: m * r * S]
                    X = work["out"][: m * r * 2 * T].reshape(m * r, 2 * T)
                    A_real = A.view(X.dtype).reshape(m * r, 2 * S)
                    views[m, r] = A.reshape(m, r, S), A_real, X, X.view(A.dtype).reshape(m, r * T)
                A, A_real, X_real, X = views[m, r]
                np.multiply(lead[k0 : k0 + m, p, None], within[:r], out=A)
                np.matmul(A_real, E, out=X_real)
                yield offsets[k0], u0 * T, X[:, : count - u0 * T]


def _take_product(S: int, M: int, what: str, price) -> bool:
    """The one path rule for every spectral consumer, from the support size
    S of a sequence (the length of its index, which it carries) and M
    alone: True for the blocked matrix product (_use_product: S >= 1, M >=
    2^15 and 64 S^2 <= min(M, 2^18)), False for one np.fft.rfft of the
    sequence zero-padded to M.  Both agree to rounding.

    Refuses the product path on M with 2 M^2 >= 2^63, where its exact
    int64 phase numerators could overflow.  price = (fft_grids,
    block_words, extra) then passes require_bytes, under the name what and
    before the path allocates, fft_grids float64 grids of length M on the
    FFT path, or on the product path _product_bytes with block_words
    arrays of one product's bins, plus extra bytes.
    """
    product = _use_product(S, M)
    if product and 2 * M * M >= 1 << 63:
        raise LimitExceededError(f"{what} on M = {M} needs 2M^2 < 2^63 for exact phases")
    if price is not None:
        fft_grids, block_words, extra = price
        if product:
            require_bytes(_product_bytes(S, M, block_words) + extra, what)
        else:
            require_bytes(8.0 * fft_grids * M, what)
    return product


def _half_spectrum(index: np.ndarray, weights: np.ndarray, M: int, what: str, price=None):
    """X(j) = sum_s weights[s] e(-(index[s] + 1) j / M) on the bins j =
    0..M//2, which hold a real sequence's whole spectrum since X(M - j) =
    conj X(j), as (j0, X) chunks of consecutive bins: many chunks of the
    matrix product over the support (_half_grid_product), or one chunk of
    the rfft, as _take_product rules after it has refused or priced the
    call.  A product chunk is valid only until the next is drawn.
    """
    if _take_product(len(index), M, what, price):
        for _, j0, rows in _half_grid_product(_product_tables(2 * index + 2, weights, M)):
            yield j0, rows[0]
    else:
        yield 0, _padded_rfft(index, weights, M)


def _support_columns(index: np.ndarray, weights: np.ndarray, M: int, L1: int, group: int, work):
    """The spectrum of _half_spectrum by the columns j1 = 0..L1/2 of the
    split M = L1 L2, L1 and L2 even, for a support that takes the product
    path: column j1 holds the bins j1 + L1 j2 for j2 < L2, the lattice of
    offset j1 and stride L1 of the sparse-spectrum product
    (_half_grid_product), formed in runs of group columns in the buffers
    of work.  Yields (j1, i0, X), X the bins i0, i0 + 1, ... of the columns
    j1, j1 + 1, ... as rows, valid only until the next chunk is drawn."""
    lattices = range(L1 // 2 + 1), L1, M // L1, group
    yield from _half_grid_product(_product_tables(2 * index + 2, weights, M, *lattices), work)


def _rfft_columns(H: np.ndarray, M: int, L1: int, group: int):
    """The columns j1 = 0..L1/2 of the split M = L1 L2 from the half
    spectrum H, group at a time, as (j1, 0, X) with X the columns j1, j1 +
    1, ... as rows in one buffer rewritten for each group: column j1 takes
    H[j1 + L1 j2] for j2 < L2/2 and the conjugate mirror H[L1 - j1 + L1
    (L2 - 1 - j2)] above."""
    h2 = M // L1 // 2
    head = H[: M // 2].reshape(h2, L1)  # head[t, c] = H[c + L1 t]
    tail = H[1 : M // 2 + 1].reshape(h2, L1)  # tail[t, c] = H[1 + c + L1 t]
    columns = L1 // 2 + 1
    block = np.empty((min(group, columns), 2 * h2), dtype=complex)
    for a in range(0, columns, group):
        b = min(a + group, columns)
        X = block[: b - a]
        X[:, :h2] = head[:, a:b].T
        # column j1's bin j2 = h2 + i is conj H[L1 - j1 + L1 (h2 - 1 - i)]
        np.conjugate(tail[::-1, L1 - b : L1 - a][:, ::-1].T, out=X[:, h2:])
        yield a, 0, X


def _dirichlet_sines(N: int, M: int, rows: int, T: int):
    """The tables of the Dirichlet kernel's sines sin(a + b), a = pi c u T /
    M and b = pi c t / M at c = N and c = 1, from two _phase_table calls:
    with e(-a) = cos a - i sin a, sin(a + b) = -(Re e(-a) Im e(-b) + Im
    e(-a) Re e(-b)).  Returns the u-table, Re and Im at N then at 1, and
    the t-tables of the numerator and the denominator."""
    u_ri = _phase_table((N, 1), rows, T, M).view(float)
    t_ri = -_phase_table((N, 1), T, 1, M).view(float).T
    return u_ri, t_ri[[1, 0]], t_ri[[3, 2]]


def _dirichlet_block(N: int, T: int, sines, j0: int, n: int, work: np.ndarray) -> np.ndarray:
    """The Dirichlet kernel sin(pi N j / M) / sin(pi j / M), exactly N at
    j = 0, on the bins j0..j0 + n - 1: two rank-two products of the tables
    of _dirichlet_sines over the rows of T that hold the block, and one
    division, read from offset j0 % T of the first row.  The products are
    formed in work, a float64 array of shape (2, rows, T) with rows enough
    for the block; the result is a view of it."""
    u_ri, num_t, den_t = sines
    u = slice(j0 // T, -(-(j0 + n) // T))
    cut = slice(j0 % T, j0 % T + n)
    top, bottom = work[:, : u.stop - u.start]
    top = np.matmul(u_ri[u, :2], num_t, out=top).ravel()[cut]
    bottom = np.matmul(u_ri[u, 2:], den_t, out=bottom).ravel()[cut]
    if j0 == 0:
        top[0], bottom[0] = N, 1.0
    top /= bottom
    return top


def _lone_kernel_bytes(M: int) -> float:
    """The bytes a kernel that forms no bins adds to a gauge on M points
    beside its blocks: the u-table of the sines in the rows of S = 1, four
    float64 a row, the t-tables as _dirichlet_sines forms them, twelve
    float64 a column of T, and the extra row of T that a block's work
    array holds."""
    _, T, rows, _ = _half_grid_shape(1, M)
    return 32.0 * rows + 112.0 * T


class DirichletKernel:
    """The interval's half spectrum on the product path: the bins 0..M//2
    that every product-path pseudorandom_gauge of length N on the grid M
    reads.

    The gauge turns both transforms by e((N + 1) j / 2M), which moves into
    the product's phases and turns the interval's transform into the real
    Dirichlet kernel (_dirichlet_block), a function of N and M alone, in
    the rows of T that _half_grid_shape gives S = 1.  A kernel that a
    caller holds forms bins, 8 (M//2 + 1) bytes, once, on first use, in
    blocks of the C rows of that shape, and drops the sine tables with the
    last block, before a gauge forms its product's tables; wglab report
    gives the residues of each N one kernel, so a report at w = 3, k = 2,
    N = 2^14 and 2^15 forms the bins twice.  A gauge given no kernel makes
    one that forms no bins: block forms each of its products' bins from
    the sine tables, the same bit for bit (16.8 MB not held at M = 2^22).
    Formed in the rows of another S's shape, the bins would differ by at
    most 5.7 ulps of N over M = 2^15..2^22 and S = 1..64: too little to
    move a report row or the benchmark's gauges (TestKernelInProductShape
    in the tests).  A gauge's single-precision screen reads the bins
    rounded to float32: a held kernel keeps them beside its bins
    (single_bins, 4 (M//2 + 1) bytes), a lone one rounds each block
    (single_block).
    """

    def __init__(self, N: int, M: int):
        self.N, self.M = N, M
        self._work = self._single = None

    @cached_property
    def _sines(self):
        _, T, rows, _ = _half_grid_shape(1, self.M)
        return T, _dirichlet_sines(self.N, self.M, rows, T)

    def block(self, j0: int, n: int) -> np.ndarray:
        """The bins j0..j0 + n - 1, formed alone from the sine tables
        (_dirichlet_block) in one work array that the first block sizes and
        later blocks of at most its length reuse: the same bits as bins,
        valid until the next block."""
        T, sines = self._sines
        rows = -(-n // T) + 1
        if self._work is None or len(self._work[0]) < rows:
            self._work = np.empty((2, rows, T))
        return _dirichlet_block(self.N, T, sines, j0, n, self._work)

    def single_block(self, j0: int, n: int) -> np.ndarray:
        """block(j0, n) rounded to single precision, in one float32 array
        that the first block sizes and later blocks reuse: valid until the
        next single block.  Rounded, never formed in single: near j = 0,
        sin(pi j / M) has no relative accuracy left in float32."""
        if self._single is None or len(self._single) < n:
            self._single = np.empty(n, dtype=np.float32)
        out = self._single[:n]
        out[...] = self.block(j0, n)
        return out

    @cached_property
    def bins(self) -> np.ndarray:
        half, T, _, C = _half_grid_shape(1, self.M)
        bins = np.empty(half)
        for j0 in range(0, half, C * T):
            n = min(C * T, half - j0)
            bins[j0 : j0 + n] = self.block(j0, n)
        # before a gauge forms its product's tables
        del self._sines
        self._work = None
        bins.flags.writeable = False  # read by every gauge given the kernel
        return bins

    @cached_property
    def single_bins(self) -> np.ndarray:
        """bins rounded to single precision (single_block), 4 (M//2 + 1)
        bytes held beside them, which every screen of a gauge given the
        kernel reads."""
        single = self.bins.astype(np.float32)
        single.flags.writeable = False
        return single


@dataclass
class Spectrum:
    """Samples of a sequence's Fourier transform on the grid j/M.

    values[j] = sum_n seq(n) e(n j / M); entry 0 is the plain mass and the
    grid is fine enough that the samples determine the polynomial exactly.
    """

    M: int
    values: np.ndarray
    source: dict

    def to_csv(self, path) -> None:
        rows = (f"{j},{v.real:.12g},{v.imag:.12g}" for j, v in enumerate(self.values))
        write_csv(path, "j,re,im", rows)

    def to_binary(self, path) -> None:
        """write_binary's header (kind code, W, b, k, M), then the complex
        grid viewed as 2M float64: interleaved re, im."""
        get = self.source.get
        header = (get("kind", "custom"), get("W", 0), get("b", 0), get("k", 0), self.M)
        write_binary(path, *header, self.values.view(np.float64))


def dft_spectrum(seq: WeightedSequence, M: int | None = None) -> Spectrum:
    """Exact grid samples of the transform: the conjugated half spectrum
    (_half_spectrum), mirrored by X(M - j) = conj X(j).

    Requires M >= 2N so arcs of interest are resolved and downstream
    quadrature is stable.
    """
    N = seq.N
    if M is None:
        M = default_grid(N)
    if M < 2 * N:
        raise ValueError(f"grid M = {M} must be >= 2N = {2 * N}")
    # the grid comes at the first chunk, after _half_spectrum has priced it
    # with X (three grids) or with two products' X
    for j0, X in _half_spectrum(seq.index, seq.weights, M, "dft_spectrum", (3, 4, 16.0 * M)):
        if j0 == 0:
            values = np.empty(M, dtype=complex)
        # conj flips to the e(+n alpha) convention
        np.conjugate(X, out=values[j0 : j0 + len(X)])
    np.conjugate(values[(M + 1) // 2 - 1 : 0 : -1], out=values[M // 2 + 1 :])
    source = {"kind": seq.kind, "W": seq.W, "b": seq.b, "k": seq.k, "N": N}
    return Spectrum(M=M, values=values, source=source)


def transform_at(seq: WeightedSequence, alpha: float) -> complex:
    """Direct evaluation of the transform at one frequency (support only)."""
    ns = seq.index + 1
    return complex(np.sum(seq.weights * np.exp(2j * np.pi * alpha * ns)))


def interval_transform_at(N: int, alpha: float) -> complex:
    """Closed form of sum_{n=1..N} e(n alpha)."""
    if abs(alpha - round(alpha)) < 1e-15:
        return complex(N)
    z = np.exp(2j * np.pi * alpha)
    return complex(z * (z**N - 1) / (z - 1))


@dataclass
class ArcParams:
    """Arc decomposition parameters: denominators up to P are major and
    arcs have halfwidth 1/Q.  Degenerate decompositions (P >= Q) are
    rejected outright."""

    sigma: float
    sigma0: float
    L: float
    P: float
    Q: float

    def __post_init__(self):
        if not self.P < self.Q:
            raise ValueError(f"P = {self.P:.6g} must be < Q = {self.Q:.6g}")

    @classmethod
    def for_sequence(
        cls, W: int, N: int, k: int, sigma: float = 4.0, sigma0: float = 2.0
    ) -> "ArcParams":
        L = math.log(W * N + W) / k
        return cls(sigma=sigma, sigma0=sigma0, L=L, P=L**sigma, Q=W * N / L**sigma)


@dataclass
class Arc:
    """A rational center with the classification of the queried frequency."""

    q: int
    a: int
    center: float
    halfwidth: float
    classification: str  # major | minor


def arc_decompose(params: ArcParams, alpha: float) -> Arc:
    """Classify alpha as major (within 1/Q of some a/q, q <= P) or minor.

    Major detection scans every denominator q <= P directly, which matches
    the set-theoretic definition; the minor witness is the Dirichlet pair
    from the continued-fraction approximation with bound Q.
    """
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    Pint = int(params.P)
    if Pint > _ARC_SCAN_CAP:
        raise LimitExceededError(f"P = {params.P:.3g} beyond the scan cap {_ARC_SCAN_CAP}")
    hw = 1.0 / params.Q
    for q in range(1, Pint + 1):
        a = round(alpha * q)
        if math.gcd(a, q) == 1 and abs(alpha - a / q) <= hw:
            return Arc(q=q, a=a, center=a / q, halfwidth=hw, classification="major")
    a, q = rational_approx(alpha, max(int(params.Q), 1))
    return Arc(q=q, a=a, center=a / q if q else 0.0, halfwidth=hw, classification="minor")


@dataclass
class ExpSumValue:
    """One complete exponential sum over a residue progression."""

    q: int
    a: int
    z: int
    W: int
    k: int
    b: int
    value: complex


def exp_sum_Sstar(
    q: int, a: int, W: FactoredModulus, k: int, b: int, z: int
) -> ExpSumValue:
    """Sum of e_q(a ((z+Wr)^k - b)/W) over r < q with z+Wr coprime to Wq.

    Needs z coprime to W and z^k = b (mod W), so the exponent argument is
    an exact integer (see _complete_sum).
    """
    Wv = W.value
    if q < 1 or math.gcd(a, q) != 1:
        raise ValueError(f"need (a, q) = 1 with q >= 1, got a = {a}, q = {q}")
    if math.gcd(z, Wv) != 1:
        raise ValueError(f"z = {z} is not coprime to W = {Wv}")
    if pow(z, k, Wv) != b % Wv:
        raise ValueError(f"z^k = {pow(z, k, Wv)} (mod W) but b = {b % Wv}")
    value = _complete_sum(q, a, Wv, k, z, b)
    return ExpSumValue(q=q, a=a, z=z, W=Wv, k=k, b=b, value=value)


def _complete_sum(m: int, a: int, W: int, k: int, z: int, c: int) -> complex:
    """Sum of e_m(a ((z+Wr)^k - c)/W) over r < m with (z+Wr, m) = 1.

    The one loop behind exp_sum_Sstar (c = b) and exp_sum_factor (c = z^k).
    Needs z coprime to W, so (z+Wr, Wm) = 1 exactly when (z+Wr, m) = 1, and
    c = z^k (mod W), so the exponent argument is an exact integer; it is
    reduced mod m before any complex exponential, which keeps the phase
    exact for huge powers.
    """
    total = 0j
    for r in range(m):
        t = z + W * r
        if math.gcd(t, m) != 1:
            continue
        T = (t**k - c) // W
        total += np.exp(2j * np.pi * ((a * T) % m) / m)
    return complex(total)


@dataclass
class FactorParts:
    """A b-free exponential sum next to its smooth/rough factorization.

    q splits as u * v with u carrying exactly the primes of W; the sum then
    factors as the u-part times the v-part at twisted numerators, and the
    u-part vanishes outright unless gcd(u, W) divides k.
    """

    q: int
    a: int
    z: int
    W: int
    k: int
    u: int
    v: int
    a1: int
    a2: int
    direct: complex
    s_u: complex
    s_v: complex
    product: complex
    h: int
    vanishing_forced: bool

    @property
    def identity_gap(self) -> float:
        return abs(self.direct - self.product)


def exp_sum_factor(q: int, a: int, W: FactoredModulus, k: int, z: int) -> FactorParts:
    """Evaluate the b-free sum directly and as its smooth/rough product."""
    Wv = W.value
    if q < 1 or math.gcd(a, q) != 1:
        raise ValueError(f"need (a, q) = 1 with q >= 1, got a = {a}, q = {q}")
    if math.gcd(z, Wv) != 1:
        raise ValueError(f"z = {z} is not coprime to W = {Wv}")
    qf = FactoredModulus.from_value(q)
    u_fm, v_fm = qf.split_by_support(W.prime_support)
    u, v = u_fm.value, v_fm.value
    # u and v are coprime by construction, so each is a unit mod the other
    a1 = a * pow(v, -1, u) % u
    a2 = a * pow(u, -1, v) % v
    zk = z**k
    direct = _complete_sum(q, a, Wv, k, z, zk)
    s_u = _complete_sum(u, a1, Wv, k, z, zk)
    s_v = _complete_sum(v, a2, Wv, k, z, zk)
    h = math.gcd(u, Wv)
    return FactorParts(
        q=q,
        a=a,
        z=z,
        W=Wv,
        k=k,
        u=u,
        v=v,
        a1=a1,
        a2=a2,
        direct=direct,
        s_u=s_u,
        s_v=s_v,
        product=complex(s_u * s_v),
        h=h,
        vanishing_forced=(k % h != 0),
    )


def integral_I(beta: float, N: int) -> complex:
    """Integral of e(beta t) over [0, N], with the removable pole at 0."""
    if abs(beta) < 1e-15:
        return complex(N)
    return complex((np.exp(2j * np.pi * beta * N) - 1) / (2j * np.pi * beta))


def major_arc_model(
    q: int, a: int, beta: float, W: FactoredModulus, k: int, b: int, N: int
) -> complex:
    """Main-term prediction for the transform of nu near a/q.

    phi(W) / (phi(Wq) sigma(b)) times the z-sum of the complete exponential
    sums, times the interval integral at offset beta.  b is taken as given,
    as the sequences store it: b + m W, whose weights sit m places lower,
    multiplies every complete sum by e(-a m / q).
    """
    Wv = W.value
    sigma = sigma_b(W, k, b)
    # the roots of the unit b are units, and 0 is never one; sigma_b counts
    # the same power table, so the assert guards only this extraction
    zs = np.flatnonzero(power_residues(W, k).powers == b % Wv).tolist()
    assert len(zs) == sigma
    Wq = W.scaled_by(FactoredModulus.from_value(q))
    coef = W.euler_phi / (Wq.euler_phi * sigma)
    total = sum(exp_sum_Sstar(q, a, W, k, b, z).value for z in zs)
    return coef * total * integral_I(beta, N)


def major_arc_residual(
    seq: WeightedSequence, q: int, a: int, beta: float = 0.0
) -> tuple[float, complex, complex]:
    """|transform - model| / N at alpha = a/q + beta for a nu-type sequence."""
    W = FactoredModulus.from_value(seq.W)
    alpha = (a / q + beta) % 1.0
    hat = transform_at(seq, alpha)
    model = major_arc_model(q, a, beta, W, seq.k, seq.b, seq.N)
    return abs(hat - model) / seq.N, hat, model


def _json_row(report, sigma: float | None, value: float) -> dict:
    """The one seven-key row of a gauge or restriction report: the sizes,
    w (the largest prime of W, 0 for W <= 1), k, b, sigma and the value."""
    w = max(FactoredModulus.from_value(report.W).prime_support) if report.W > 1 else 0
    return dict(N=report.N, M=report.M, w=w, k=report.k, b=report.b, sigma=sigma, value=value)


# the arc exponents pseudorandom_gauge tries, in order
_SIGMA_CHAIN = (4.0, 3.0, 2.0, 1.5, 1.0)


@dataclass
class GaugeReport:
    """Uniform distance between a sequence's spectrum and the interval's."""

    D: float
    argmax_j: int
    argmax_alpha: float
    N: int
    M: int
    W: int
    b: int
    k: int
    sigma: float | None

    def to_dict(self) -> dict:
        return _json_row(self, self.sigma, self.D)


# the unit roundoff of single precision, and the largest error scale
# sum |w| + N that the gauge screens in it: half of float32's largest value
_SINGLE_UNIT = 2.0**-24
_SINGLE_SCALE = 2.0**127


def _screen_bytes(S: int, M: int) -> float:
    """The single-precision arrays of a gauge's screen on the product path:
    E (16 bytes a point of T), one product's A (8 a cell of C rows) and X
    with one float32 block of |X - bins| (12 a bin)."""
    _, T, _, C = _half_grid_shape(S, M)
    return 16.0 * S * T + 8.0 * S * C + 12.0 * C * T


def _screen_bound(S: int, scale: float) -> float:
    """B = (4 S + 16) u (sum |w| + N), u = 2^-24: at every bin, the single-
    precision |X - bins| of the screen is within B of the double one.

    In the gamma_n framework (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1), with the double tables and bins as the reference:
    each of Re X and Im X is a dot product of 2S terms whose sizes sum to
    at most sum |w| (|Re a Re e| + |Im a Im e| <= |a| |e| = |w_s|), so the
    single product is within gamma_2S sum |w| of it, and rounding A and E
    to single adds gamma_2 sum |w|; as a complex number X is off by at
    most sqrt(2) (2S + 2) u sum |w|.  Rounding the bins to single costs u N,
    the subtraction u (sum |w| + N) and the hypot 2 u (sum |w| + N), since
    |X - bins| <= sum |w| + N.  Together (2.83 S + 5.83) u (sum |w| + N) to
    first order; the double path's own error (the same in units of 2^-53)
    and any underflow of a product term (2^-150 each, while N >= 1) fit in
    the margin up to (4 S + 16)."""
    return (4 * S + 16) * _SINGLE_UNIT * scale


def _screen_band(peaks, bound: float):
    """The numbers of the products whose screened maximum lies within 2
    bound of the largest, or None, every product, when some maximum is not
    finite.  With every screened bin within bound of the double one, a
    product holding a double maximizer is screened at least at the double
    maximum less bound, and no product above it plus bound."""
    peaks = np.asarray(peaks)
    if not np.isfinite(peaks).all():
        return None
    return np.flatnonzero(peaks >= peaks.max() - 2 * bound)


def _chunk_peaks(chunks, bins_at, into_bins: bool):
    """For each chunk (o, j0, X) of a half-grid product, the largest |X -
    bins| as a float and its first bin, bins = bins_at(j0, len(X)) of X's
    precision.  |X - bins| is formed in the bins when into_bins (a lone
    kernel's block, free until the next) or else in one buffer that the
    first, longest, chunk sizes."""
    buffer = None
    for _, j0, (X,) in chunks:
        bins = bins_at(j0, len(X))
        X.real -= bins
        if into_bins:
            mag = np.abs(X, out=bins)
        else:
            if buffer is None:
                buffer = np.empty(len(X), dtype=bins.dtype)
            mag = np.abs(X, out=buffer[: len(X)])
        k = int(mag.argmax())
        yield float(mag[k]), j0 + k


def pseudorandom_gauge(
    nu: WeightedSequence, M: int | None = None, kernel: DirichletKernel | None = None
) -> GaugeReport:
    """Grid maximum of |transform(nu) - transform(interval)| / N.

    By linearity this is the transform of nu - 1 at n = 1..N, read from the
    half spectrum since real input has |X(j)| = |X(M - j)|: on the FFT path
    one rfft, on the product path the blocked matrix product over the
    support less the Dirichlet kernel's bins, as _take_product rules.  The
    argmax, the first index of the maximum, is therefore canonical:
    argmax_j <= M/2 and argmax_alpha lies in [0, 1/2].

    The support size S, the length of nu.index, sizes the path.  The
    product path reads the bins of kernel, a DirichletKernel of the same N
    and M, formed before the product's tables; given none, it forms each
    product's bins alone (DirichletKernel.block) and holds no bins array.
    The result is the same bit for bit either way.  The price counts what
    each forms: with a kernel its bins and their single-precision copy,
    three quarters of a grid; without, the sine tables of S = 1
    (_lone_kernel_bytes).  A kernel of another N or M is refused with
    ValueError.  The FFT path forms no bins.

    The product path screens first: it forms every product and its |X -
    bins| in single precision (_half_grid_product, the bins rounded from
    double) and keeps each product's maximum, then forms again in double
    only the products whose maximum lies within 2B of the largest
    (_screen_band, B from _screen_bound), and reads D and the argmax from
    those.  Every product that holds a double maximizer is among them, and
    each is the same product of the same rows, so D and the argmax are
    those of the double scan of every product, bit for bit.  When sum |w|
    + N leaves float32 no headroom (_SINGLE_SCALE), or a screened maximum
    is not finite, every product is formed in double.

    sigma records the first exponent in _SIGMA_CHAIN whose arc parameters
    are nondegenerate (P < Q) for an arithmetic sequence (W > 1), the one
    to classify the argmax with (arc_decompose); None otherwise.
    """
    N = nu.N
    if M is None:
        M = default_grid(N)
    if M < 2 * N:
        raise ValueError(f"grid M = {M} must be >= 2N = {2 * N}")
    if kernel is not None and (kernel.N, kernel.M) != (N, M):
        raise ValueError(
            f"a kernel of N = {kernel.N} on M = {kernel.M} cannot gauge N = {N} on M = {M}"
        )
    S = len(nu.index)
    # the padded sequence and X (two grids); on the product path a held
    # kernel's bins and their single-precision copy (three quarters of a
    # grid) and five words a product's cell, or a lone kernel's sine tables
    # and four words a cell: X and the block the kernel forms, which then
    # takes |X|; and the screen's single-precision tables and products
    screen = _screen_bytes(S, M)
    price = (2, 4, _lone_kernel_bytes(M) + screen) if kernel is None else (2, 5, 6.0 * M + screen)
    if _take_product(S, M, "pseudorandom_gauge", price):
        lone = kernel is None
        if lone:
            kernel = DirichletKernel(N, M)
            bins_at, single_at = kernel.block, kernel.single_block
        else:
            # formed before the product's tables
            held, held_single = kernel.bins, kernel.single_bins
            bins_at = lambda j0, n: held[j0 : j0 + n]
            single_at = lambda j0, n: held_single[j0 : j0 + n]
        tables = _product_tables(2 * nu.index + 1 - N, nu.weights, M)
        scale = float(np.abs(nu.weights).sum()) + N
        which = None
        if scale < _SINGLE_SCALE:
            chunks = _half_grid_product(tables, dtype=np.float32)
            peaks = [top for top, _ in _chunk_peaks(chunks, single_at, lone)]
            which = _screen_band(peaks, _screen_bound(S, scale))
        found = _chunk_peaks(_half_grid_product(tables, which=which), bins_at, lone)
    else:
        mag = np.abs(_padded_rfft(nu.index, nu.weights, M, N))
        k = int(mag.argmax())
        found = [(float(mag[k]), k)]
    peak, j = -1.0, 0
    for top, at in found:
        if top > peak:
            peak, j = top, at
    D = peak / N
    sigma_used = None
    if nu.W > 1:
        for sigma in _SIGMA_CHAIN:
            try:
                ArcParams.for_sequence(nu.W, N, nu.k, sigma=sigma)
            except ValueError:
                continue
            sigma_used = sigma
            break
    return GaugeReport(
        D=D,
        argmax_j=j,
        argmax_alpha=j / M,
        N=N,
        M=M,
        W=nu.W,
        b=nu.b,
        k=nu.k,
        sigma=sigma_used,
    )


@dataclass
class RestrictionReport:
    """A grid L^q norm of the spectrum and its scale-free constant."""

    norm: float
    constant: float
    exponent: float
    N: int
    M: int
    W: int
    b: int
    k: int

    def to_dict(self) -> dict:
        return _json_row(self, None, self.constant)


def require_exponent(exponent: float) -> None:
    """The one restriction exponent rule: finite and >= 2, not NaN or inf."""
    if not 2 <= exponent < math.inf:
        raise ValueError(f"exponent must be finite and >= 2, got {exponent}")


def restriction_norm(
    seq: WeightedSequence, exponent: float, M: int | None = None
) -> RestrictionReport:
    """Riemann-grid L^exponent norm of the spectrum, and K = norm/N^(1-1/q).

    Real input has |X(j)| = |X(M - j)|, so the full-grid sum counts bin 0
    of the half spectrum (_half_spectrum) once, bin M/2 once when M is
    even, and every other bin twice.

    Exponents below 2 and non-finite ones are rejected (require_exponent);
    exponent exactly 2 is kept as a reference mode where the constant is
    pinned to 1 for the interval by the energy identity.
    """
    require_exponent(exponent)
    N = seq.N
    if M is None:
        M = default_grid(N)
    if M < 4 * N:
        raise ValueError(f"grid M = {M} must be >= 4N = {4 * N}")
    total = 0.0
    # the padded sequence and X (two grids), or five words a product's
    # cell: X, |X| and its power, some held over from the last
    buf = None  # |X|^exponent, one buffer the first, longest, chunk sizes
    for j0, X in _half_spectrum(seq.index, seq.weights, M, "restriction_norm", (2, 5, 0)):
        if buf is None:
            buf = np.empty(len(X))
        mag = np.abs(X, out=buf[: len(X)])
        mag **= exponent
        total += 2.0 * mag.sum()
        if j0 == 0:
            total -= mag[0]
        if M % 2 == 0 and j0 + len(mag) == M // 2 + 1:
            total -= mag[-1]
    norm = float((total / M) ** (1.0 / exponent))
    constant = norm / N ** (1.0 - 1.0 / exponent)
    return RestrictionReport(
        norm=norm,
        constant=constant,
        exponent=exponent,
        N=N,
        M=M,
        W=seq.W,
        b=seq.b,
        k=seq.k,
    )
