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

import numpy as np

from .core_arith import FactoredModulus, LimitExceededError, rational_approx, require_bytes
from .local_structure import power_residues, sigma_b
from .majorant import WeightedSequence, support_index, write_binary, write_csv

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


def _padded_rfft(values: np.ndarray, M: int, shift: float = 0.0) -> np.ndarray:
    """The rfft of values - shift at positions 1..N of a zero array of
    length M: the FFT path's half spectrum, and the package's one rfft of a
    sequence.  The gauge's shift of 1 takes the interval off."""
    arr = np.zeros(M)
    np.subtract(values, shift, out=arr[1 : len(values) + 1])
    return np.fft.rfft(arr)


# most cells of one phase block (256 KiB of complex X); blocks of 2^13 to
# 2^16 cells ran within host noise of it
_PRODUCT_BLOCK = 1 << 14
# multiply-adds in one block's real matrix product.  OpenBLAS 0.3.31
# (numpy 2.4's wheels) runs a product of up to 100 x 100 x 100 on the
# calling thread; on a 2-core VM each threaded call whose worker had gone
# idle stalled for 7-16 ms, so a lone gauge at M = 2^15 took 16 ms against
# 0.5 ms.  Grids of up to _GROUPED_ABOVE points keep one such product a
# block: products of two blocks made the 54 gauges of a report on 2^17
# points slower, 60 -> 91 ms with threads and 64 -> 83 ms without.
_SERIAL_MACS = 10**6
# above this many grid points, one matrix product stacks the rows of
# consecutive blocks up to _CHUNK_CELLS cells: at M = 2^22, S = 55 the
# 482 serial products of 17 x 110 x 512 ran at 27 GFLOP/s, where products
# of 64 to 1024 rows reach 51-76 on two cores
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


def _half_grid_shape(S: int, M: int) -> tuple[int, int, int, int]:
    """Bins j = 0..M//2 as j = u T + t for S support points: the bin
    count, T, the row count and the rows of one block.  A block holds at
    most min(_PRODUCT_BLOCK, _SERIAL_MACS / 4S) cells, so that its real
    product, 4 S multiply-adds a cell, stays on the calling thread where a
    block is one product (_blocks_per_product).  T is
    the power of two at or above the bin count's square root, which keeps
    R + T near its least: the S (R + T) complex products that form A and
    E.  It no longer sets the cos/sin count, which the factored tables
    (_phase_table) hold to the order of S sqrt(R + T); gauges at T / 8 to
    T ran within host noise of each other.  T is halved until a block
    holds 16 rows: products of one or two rows ran 2-4 times slower per
    multiply-add.  The shape of S = 1 also blocks the Dirichlet kernel
    (DirichletKernel), whatever the support of the gauge that reads it."""
    half = M // 2 + 1
    block = min(_PRODUCT_BLOCK, _SERIAL_MACS // max(4 * S, 1))
    T = 1 << ((half - 1).bit_length() + 1) // 2
    while T > 1 and 16 * T > block:
        T //= 2
    return half, T, -(-half // T), max(1, block // T)


def _blocks_per_product(M: int, block: int) -> int:
    """How many consecutive blocks of block cells one matrix product of
    _half_grid_product stacks: one on grids of up to _GROUPED_ABOVE
    points, else as many as _CHUNK_CELLS cells hold."""
    return max(1, _CHUNK_CELLS // block) if M > _GROUPED_ABOVE else 1


def _product_bytes(S: int, M: int, block_words: int) -> float:
    """Peak of the product path: E with its complex phase table (48 bytes a
    cell), the within-block phases with their table (32), the stacked A of
    one product (16), the w-weighted phase of each block's first row, the
    Dirichlet kernel's phase tables in the shape of S = 1
    (DirichletKernel), then block_words float64 arrays the size of one
    product's chunk of bins."""
    _, T, rows, step = _half_grid_shape(S, M)
    _, kernel_T, kernel_rows, _ = _half_grid_shape(1, M)
    blocks = -(-rows // step)
    chunk = step * min(_blocks_per_product(M, step * T), blocks)
    return (
        48.0 * S * T
        + 32.0 * S * step
        + 16.0 * S * chunk
        + 16.0 * S * blocks
        + 64.0 * (kernel_rows + kernel_T)
        + 8.0 * block_words * chunk * T
    )


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


def _half_grid_product(c: np.ndarray, w: np.ndarray, M: int):
    """X(j) = sum_s w_s e(-c_s j / 2M) on the bins j = 0..M//2, in chunks.

    With j = u T + t, X is the matrix product of A[u, s] = w_s e(-c_s u T /
    2M) and E[s, t] = e(-c_s t / 2M).  Block i holds rows u = i R_b + r,
    so its rows of A are w times the block's phase at r = 0 times the
    within-block phases at r, which every block shares; all three tables
    come from _phase_table.  One real product forms the bins of
    _blocks_per_product consecutive blocks, their rows of A stacked: one
    block on grids of up to _GROUPED_ABOVE points, a product that stays on
    the calling thread (see _SERIAL_MACS), and about _CHUNK_CELLS cells
    above.  A is viewed as real, Re and Im of each point side by side,
    times the 2S x 2T matrix whose columns 2t and 2t + 1 give Re X and Im
    X, so the result reads as complex X with no copy.  Yields (j0, X) with
    X the bins j0, j0 + 1, ... of one product, flattened and cut at M//2.
    """
    S = len(c)
    half, T, rows, step = _half_grid_shape(S, M)
    # rows 2s and 2s + 1 of E take Re A_s and Im A_s: (a + ib) e = a e + b (i e)
    phases = _phase_table(c, T, 1, M).T
    E = np.empty((2 * S, T), dtype=complex)
    E[0::2] = phases
    np.negative(phases.imag, out=E[1::2].real)
    E[1::2].imag = phases.real
    E = E.view(float)
    del phases
    blocks = _phase_table(c, -(-rows // step), step * T, M)
    blocks *= w
    within = _phase_table(c, step, T, M)
    group = _blocks_per_product(M, step * T)
    for i in range(0, len(blocks), group):
        u0 = i * step
        A = (blocks[i : i + group, None] * within).reshape(-1, S)[: rows - u0]
        j0 = u0 * T
        yield j0, (A.view(float) @ E).view(complex).ravel()[: half - j0]


def _take_product(values: np.ndarray, M: int, what: str, price):
    """The one path rule for every spectral consumer, from the support size
    S of values and M alone: the support's indices (support_index) for the
    blocked matrix product (_use_product: S >= 1, M >= 2^15 and 64 S^2 <=
    min(M, 2^18)), None for one np.fft.rfft of the sequence zero-padded to M.
    Both agree to rounding.

    Refuses the product path on M with 2 M^2 >= 2^63, where its exact
    int64 phase numerators could overflow.  price = (fft_grids,
    block_words, grids) then passes require_bytes, under the name what and
    before the path allocates, fft_grids float64 grids of length M on the
    FFT path, or on the product path _product_bytes with block_words
    arrays of one product's bins, plus grids grids of length M; or the support
    scan's len(values) bytes of mask and 8 S of indices, when they weigh
    more.
    """
    idx = support_index(values)
    product = _use_product(len(idx), M)
    if product and 2 * M * M >= 1 << 63:
        raise LimitExceededError(f"{what} on M = {M} needs 2M^2 < 2^63 for exact phases")
    if price is not None:
        fft_grids, block_words, grids = price
        if product:
            path = _product_bytes(len(idx), M, block_words) + 8.0 * grids * M
        else:
            path = 8.0 * fft_grids * M
        # the scan's mask is gone before the path allocates: the larger counts
        require_bytes(max(len(values) + 8.0 * len(idx), path), what)
    return idx if product else None


def _half_spectrum(values: np.ndarray, M: int, what: str, price=None):
    """X(j) = sum_n values[n - 1] e(-n j / M) on the bins j = 0..M//2, which
    hold a real sequence's whole spectrum since X(M - j) = conj X(j), as
    (j0, X) chunks of consecutive bins: many chunks of the matrix product
    over the support (_half_grid_product), or one chunk of the rfft, as
    _take_product rules after it has refused or priced the call.
    """
    idx = _take_product(values, M, what, price)
    if idx is None:
        yield 0, _padded_rfft(values, M)
        return
    yield from _half_grid_product(2 * idx + 2, values[idx], M)


def _dirichlet_sines(N: int, M: int, rows: int, T: int):
    """The tables of the Dirichlet kernel's sines sin(a + b), a = pi c u T /
    M and b = pi c t / M at c = N and c = 1, from two _phase_table calls:
    with e(-a) = cos a - i sin a, sin(a + b) = -(Re e(-a) Im e(-b) + Im
    e(-a) Re e(-b)).  Returns the u-table, Re and Im at N then at 1, and
    the t-tables of the numerator and the denominator."""
    u_ri = _phase_table((N, 1), rows, T, M).view(float)
    t_ri = -_phase_table((N, 1), T, 1, M).view(float).T
    return u_ri, t_ri[[1, 0]], t_ri[[3, 2]]


def _dirichlet_block(N: int, T: int, sines, j0: int, n: int) -> np.ndarray:
    """The Dirichlet kernel sin(pi N j / M) / sin(pi j / M), exactly N at
    j = 0, on the bins j0..j0 + n - 1 of one block of _half_grid_product:
    two rank-two products of the tables of _dirichlet_sines over the
    block's rows, and one division."""
    u_ri, num_t, den_t = sines
    u = slice(j0 // T, -(-(j0 + n) // T))
    top = (u_ri[u, :2] @ num_t).ravel()[:n]
    bottom = (u_ri[u, 2:] @ den_t).ravel()[:n]
    if j0 == 0:
        top[0], bottom[0] = N, 1.0
    top /= bottom
    return top


class DirichletKernel:
    """The interval's half spectrum on the product path: the bins 0..M//2
    that every product-path pseudorandom_gauge of length N on the grid M
    reads, 8 (M//2 + 1) bytes.

    The gauge turns both transforms by e((N + 1) j / 2M), which moves into
    the product's phases and turns the interval's transform into the real
    Dirichlet kernel (_dirichlet_block), a function of N and M alone.  The
    bins are formed once, on first use, in the blocks of the shape of S =
    1 (_half_grid_shape), and the sine tables are dropped.  A gauge with
    no kernel forms its own; wglab report gives the residues of each N one
    kernel, so a report at w = 3, k = 2, N = 2^14 and 2^15 forms the bins
    twice.  Formed in the blocks of another S's shape, the bins would
    differ by at most 5.7 ulps of N over M = 2^15..2^22 and S = 1..64:
    too little to move a report row or the benchmark's gauges
    (TestKernelInProductShape in the tests).
    """

    def __init__(self, N: int, M: int):
        self.N, self.M = N, M

    @cached_property
    def bins(self) -> np.ndarray:
        half, T, rows, step = _half_grid_shape(1, self.M)
        sines = _dirichlet_sines(self.N, self.M, rows, T)
        bins = np.empty(half)
        for j0 in range(0, half, step * T):
            n = min(step * T, half - j0)
            bins[j0 : j0 + n] = _dirichlet_block(self.N, T, sines, j0, n)
        bins.flags.writeable = False  # read by every gauge given the kernel
        return bins


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
    for j0, X in _half_spectrum(seq.values, M, "dft_spectrum", (3, 4, 2)):
        if j0 == 0:
            values = np.empty(M, dtype=complex)
        # conj flips to the e(+n alpha) convention
        np.conjugate(X, out=values[j0 : j0 + len(X)])
    np.conjugate(values[(M + 1) // 2 - 1 : 0 : -1], out=values[M // 2 + 1 :])
    source = {"kind": seq.kind, "W": seq.W, "b": seq.b, "k": seq.k, "N": N}
    return Spectrum(M=M, values=values, source=source)


def transform_at(seq: WeightedSequence, alpha: float) -> complex:
    """Direct evaluation of the transform at one frequency (support only)."""
    idx = support_index(seq.values)
    ns = idx + 1
    return complex(np.sum(seq.values[idx] * np.exp(2j * np.pi * alpha * ns)))


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


# the arc exponents pseudorandom_gauge tries at its argmax, in order
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
    arc: Arc | None

    def to_dict(self) -> dict:
        return _json_row(self, self.sigma, self.D)


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

    The support is found by one scan (support_index) that also sizes the
    path.  The product path reads the bins of kernel, a DirichletKernel of
    the same N and M, or of its own when none is given, formed before the
    product's tables; the result is the same bit for bit either way, and
    so is the price, which counts the bins as half a grid.  A kernel of
    another N or M is refused with ValueError.  The FFT path forms no
    bins.

    The argmax frequency is classified into major/minor arcs using the
    first exponent in _SIGMA_CHAIN that yields a nondegenerate P < Q; the
    exponent actually used is recorded in the report.
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
    # the padded sequence and X (two grids), or the kernel's bins (half a
    # grid) and five words a product's cell: the last product's X and |X|
    # held while the next product's X is formed
    idx = _take_product(nu.values, M, "pseudorandom_gauge", (2, 5, 0.5))
    if idx is None:
        bins, blocks = None, [(0, _padded_rfft(nu.values, M, 1.0))]
    else:
        bins = (kernel or DirichletKernel(N, M)).bins
        blocks = _half_grid_product(2 * idx + 1 - N, nu.values[idx], M)
    peak, j = -1.0, 0
    for j0, X in blocks:
        if bins is not None:
            X.real -= bins[j0 : j0 + len(X)]
        mag = np.abs(X)
        k = int(mag.argmax())
        if mag[k] > peak:
            peak, j = float(mag[k]), j0 + k
    D = peak / N
    arc = None
    sigma_used = None
    if nu.W > 1:
        for sigma in _SIGMA_CHAIN:
            try:
                params = ArcParams.for_sequence(nu.W, N, nu.k, sigma=sigma)
            except ValueError:
                continue
            arc = arc_decompose(params, j / M)
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
        arc=arc,
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
    for j0, X in _half_spectrum(seq.values, M, "restriction_norm", (2, 5, 0)):
        mag = np.abs(X) ** exponent
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
