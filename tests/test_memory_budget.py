"""The one memory budget: every array-heavy path prices its peak first.

Each budgeted path passes one byte estimate to core_arith.require_bytes
before it allocates.  These tests check that a call just over
MEMORY_BUDGET is refused at once, with almost nothing allocated, and that
no estimate understates the tracemalloc peak of its path.
"""

import time
import tracemalloc

import numpy as np
import pytest

from wglab import cli, core_arith, majorant, representation, spectral
from wglab.core_arith import (
    MEMORY_BUDGET,
    LimitExceededError,
    PrimeSet,
    compute_W,
    sieve_primes,
)
from wglab.majorant import SubsetSpec, WeightedSequence, build_nu, gen_subset
from wglab.representation import count_representations, coverage_probe, transference_gauge
from wglab.local_structure import power_residues
from wglab.spectral import (
    _half_grid_shape,
    _lone_kernel_bytes,
    _product_bytes,
    _screen_bytes,
    _use_product,
    DirichletKernel,
    dft_spectrum,
    pseudorandom_gauge,
    restriction_norm,
)

# interpreter objects and prime lists, which do not grow with the arrays
OBJECT_BYTES = 16 << 10
BUDGETED = (core_arith, majorant, spectral, representation)


class _Probe(Exception):
    pass


def probed_estimate(monkeypatch, call):
    """The estimate call passes to require_bytes; the call stops there, so
    nothing is allocated whatever the estimate."""

    def probe(estimate, what):
        raise _Probe(estimate)

    with monkeypatch.context() as m:
        for mod in BUDGETED:
            m.setattr(mod, "require_bytes", probe)
        with pytest.raises(_Probe) as info:
            call()
    return info.value.args[0]


# Each factory returns (small, under, over): calls at a small size and at
# the adjacent sizes where the estimate crosses the budget.


def _dense(N):
    """N stride-0 weights: dense, so every grid size takes the FFT path."""
    return WeightedSequence(values=np.broadcast_to(1.0, N), kind="custom", W=0, b=0, k=0)


def _spectral_sizes(monkeypatch, path):
    seq = _dense(4096)
    small = 4 * seq.N
    rate = probed_estimate(monkeypatch, lambda: path(seq, small)) / small
    over = int(MEMORY_BUDGET / rate) + 1
    return tuple((lambda M=M: path(seq, M)) for M in (small, over - 1, over))


def sizes_sieve(monkeypatch):
    # the estimate is limit + 1 + 9 (isqrt(limit) + 1): at 4,294,377,508,
    # whose root is 65,531, it is the budget plus one
    over = 4_294_377_508
    return tuple((lambda n=n: sieve_primes(n)) for n in (1000, over - 1, over))


def sizes_gen_subset(monkeypatch):
    # a prime set of 2^32 + 1 integers whose mask is one stride-0 byte; the
    # recipe all is priced at its copy of the mask alone
    mask = np.lib.stride_tricks.as_strided(
        np.zeros(1, bool), shape=(MEMORY_BUDGET + 1,), strides=(0,)
    )
    ps = PrimeSet(mask)
    return tuple(
        (lambda n=n: gen_subset(SubsetSpec.all(), n, ps))
        for n in (1000, MEMORY_BUDGET - 1, MEMORY_BUDGET)
    )


def sizes_drop_classes(monkeypatch):
    # 200 bytes a class: the budget holds 21,474,836 classes
    over = MEMORY_BUDGET // 200 + 1
    return tuple((lambda m=m: SubsetSpec.drop_classes(m, {1})) for m in (1000, over - 1, over))


def sizes_intended_density(monkeypatch):
    # 17 bytes a class and 9 an allowed class: one allowed class of
    # 252,645,135 tips the estimate over the budget
    over = (MEMORY_BUDGET - 9) // 17 + 1
    specs = [SubsetSpec.residue_classes(m, {1}) for m in (1000, over - 1, over)]
    return tuple((lambda spec=spec: spec.intended_density) for spec in specs)


def sizes_pseudorandom_gauge(monkeypatch):
    return _spectral_sizes(monkeypatch, pseudorandom_gauge)


def sizes_restriction_norm(monkeypatch):
    return _spectral_sizes(monkeypatch, lambda seq, M: restriction_norm(seq, 6.5, M))


def sizes_dft_spectrum(monkeypatch):
    return _spectral_sizes(monkeypatch, dft_spectrum)


def sizes_count(monkeypatch):
    # 6173 and 6197 are consecutive primes: at s = 2 and hi = p^2 the top
    # 2 p^2 goes from 76,211,858 to 76,805,618, so the grid, the least
    # 5-smooth integer above it, goes from 76,527,504 = 2^4 3^14 points
    # to 77,760,000; with the 8 (hi + 1) bytes of the result the estimate
    # crosses the budget there
    sub = gen_subset(SubsetSpec.all(), 6500)

    def count(hi):
        return lambda: count_representations(sub, 2, 2, hi, method="fft")

    return count(1000), count(6173**2), count(6197**2)


def sizes_transference(monkeypatch):
    # one-point sequences, since the price reads N alone: at s = 2 the
    # window's top hi goes from 82,012,499 to 82,012,500 = 2^2 3^8 5^5, so
    # the grid, the least 5-smooth integer above hi, goes from 82,012,500
    # points to 82,944,000.  The window, 256,289 points, is wider than a
    # third of a column, so the one-irfft route's 6.5 grids are the price
    def gauge(N):
        f = WeightedSequence.spike(N, 0.5)
        return lambda: transference_gauge([f, f])

    return gauge(1000), gauge(81_757_009), gauge(81_757_010)


def sizes_indicator(monkeypatch):
    # N int64 positions, N float64 ones and from_support's N-byte check
    # mask: 17 N bytes pass the budget at N = 252,645,136
    over = MEMORY_BUDGET // 17 + 1
    return tuple((lambda N=N: WeightedSequence.indicator(N)) for N in (1000, over - 1, over))


def sizes_count_bitset(monkeypatch):
    # six masks of hi + 1 bits and 9 bytes a position: the estimate passes
    # the budget at hi = 440,509,463
    sub = gen_subset(SubsetSpec.all(), 100)
    return tuple(
        (lambda hi=hi: count_representations(sub, 2, 2, hi, method="bitset"))
        for hi in (1000, 440_509_462, 440_509_463)
    )


def sizes_coverage(monkeypatch):
    # the window [0, hi] at k = 2, s = 5, filtered: six masks, 2 bytes a
    # position and 48 for each n = 5 (mod 24); over the budget from hi =
    # 904,203,632
    sub = gen_subset(SubsetSpec.all(), 100)
    return tuple(
        (lambda hi=hi: coverage_probe(sub, 2, 5, (0, hi)))
        for hi in (1000, 904_203_631, 904_203_632)
    )


SIZES = {
    "sieve_primes": sizes_sieve,
    "gen_subset": sizes_gen_subset,
    "drop_classes": sizes_drop_classes,
    "intended_density": sizes_intended_density,
    "pseudorandom_gauge": sizes_pseudorandom_gauge,
    "restriction_norm": sizes_restriction_norm,
    "dft_spectrum": sizes_dft_spectrum,
    "count_representations(method='fft')": sizes_count,
    "transference_gauge": sizes_transference,
    "WeightedSequence.indicator": sizes_indicator,
    "count_representations(method='bitset')": sizes_count_bitset,
    "coverage_probe": sizes_coverage,
}


@pytest.mark.parametrize("name", list(SIZES))
def test_just_over_budget_refused_before_allocating(name, monkeypatch):
    small, under, over = SIZES[name](monkeypatch)
    # a path that skips require_bytes fails here, at a harmless size
    assert probed_estimate(monkeypatch, small) <= MEMORY_BUDGET
    assert probed_estimate(monkeypatch, under) <= MEMORY_BUDGET
    assert probed_estimate(monkeypatch, over) > MEMORY_BUDGET
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(LimitExceededError) as info:
            over()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 5
    assert peak < 1 << 20
    message = str(info.value)
    assert message.startswith(f"{name} needs about ")
    assert message.endswith("over the memory budget of 4 GiB")


def _sparse(N, S, seed):
    """S random support points among N: sparse enough for the product path."""
    rng = np.random.default_rng(seed)
    vals = np.zeros(N)
    vals[rng.choice(N, S, replace=False)] = 1 + rng.random(S)
    return WeightedSequence(values=vals, kind="custom", W=0, b=0, k=0)


def _small_calls(name):
    """Calls of the path at small sizes, set up outside the trace."""
    if name == "sieve_primes":
        return [lambda: sieve_primes(1 << 20), lambda: sieve_primes(1 << 23)]
    if name == "gen_subset":
        ps = sieve_primes(1 << 22)
        specs = [
            SubsetSpec.all(),
            SubsetSpec.bernoulli(0.5, 3),
            SubsetSpec.residue_classes(10, {1, 3, 7}),
            SubsetSpec.window_drop([(10, 1 << 19)]),
        ]
        sizes = (1 << 16, 1 << 20)
        return [lambda spec=spec, n=n: gen_subset(spec, n, ps) for spec in specs for n in sizes]
    if name == "drop_classes":
        # 19,894 classes sit just past a hash table's growth: the most
        # bytes a class of any modulus from 10^2 to 2 10^6
        return [lambda m=m: SubsetSpec.drop_classes(m, {1, 3}) for m in (19_894, 10**5)]
    if name == "intended_density":
        specs = [SubsetSpec.drop_classes(10**5, {1}), SubsetSpec.residue_classes(10**6, {1, 7})]
        return [lambda spec=spec: spec.intended_density for spec in specs]
    if name == "count_representations(method='fft')":
        sub = gen_subset(SubsetSpec.all(), 2000)
        calls = [lambda hi=hi: count_representations(sub, 2, 3, hi) for hi in (10**5, 10**6)]
        # 25 prime cubes on a grid of 1,843,200 points: the product path;
        # then hi far above the top 2 * 97^2, where the result outweighs the grid
        small = gen_subset(SubsetSpec.all(), 100)
        return calls + [
            lambda: count_representations(sub, 3, 2, 10**6),
            lambda: count_representations(small, 2, 2, 10**6),
        ]
    if name == "count_representations(method='bitset')":
        sub = gen_subset(SubsetSpec.all(), 1100)
        return [
            lambda: count_representations(sub, 2, 5, 1 << 20, method="bitset"),
            lambda: count_representations(sub, 3, 2, 1 << 18, method="bitset"),
        ]
    if name == "coverage_probe":
        sub = gen_subset(SubsetSpec.all(), 1100)
        # an unfiltered window where almost every n is listed (few sums of
        # two cubes), a filtered one where the readout's temporaries set
        # the peak, and a window that leaves out most of the masks' bits
        return [
            lambda: coverage_probe(sub, 3, 2, (0, 1 << 20), use_filter=False),
            lambda: coverage_probe(sub, 4, 5, (0, 1 << 20)),
            lambda: coverage_probe(sub, 2, 5, ((1 << 20) - 100, 1 << 20)),
        ]
    if name == "WeightedSequence.indicator":
        return [lambda N=N: WeightedSequence.indicator(N) for N in (1 << 16, 1 << 20)]
    if name == "transference_gauge":
        rng = np.random.default_rng(0)
        calls = []
        for N, s, distinct in ((1000, 2, 2), (1 << 12, 44, 44)):
            base = [
                WeightedSequence(values=rng.random(N), kind="custom", W=0, b=0, k=0)
                for _ in range(distinct)
            ]
            calls.append(lambda f_list=(base * s)[:s]: transference_gauge(f_list))
        # three sparse parts on 729,000 points, a split grid: the streamed
        # route's lattices; then a dense and a sparse part on 364,500
        # points, whose rfft is read by columns beside the lattices
        base = [_sparse(1 << 15, 20, seed) for seed in range(3)]
        mixed = [WeightedSequence(values=rng.random(1 << 14), kind="custom", W=0, b=0, k=0)]
        mixed.append(_sparse(1 << 14, 20, 5))
        # the streamed route's price at the benchmark's shapes: three sparse
        # parts on 729,000 and 1,458,000 points; a dense part alone
        chain = [_sparse(1 << 16, 14, seed) for seed in range(3)]
        return calls + [
            lambda f_list=(base * 44)[:44]: transference_gauge(f_list),
            lambda f_list=(chain * 44)[:44]: transference_gauge(f_list),
            lambda f_list=mixed * 22: transference_gauge(f_list),
            lambda f_list=mixed[:1] * 44: transference_gauge(f_list),
        ]
    W = compute_W(3, 2)
    path = {
        "pseudorandom_gauge": pseudorandom_gauge,
        "restriction_norm": lambda nu: restriction_norm(nu, 6.5),
        "dft_spectrum": dft_spectrum,
    }[name]
    # build_nu at w = 3 is sparse enough for the product path, and so is
    # one point on a grid of 2^18, where the product arrays outweigh every
    # fixed term; on 2^20 points, above spectral._GROUPED_ABOVE, nu and 64
    # points take products of spectral._CHUNK_CELLS cells; a dense sequence
    # keeps the FFT path's estimate under test too
    calls = [lambda nu=build_nu(W, 1, 2, N): path(nu) for N in (1 << 12, 1 << 14, 1 << 17)]
    calls += [lambda seq=_sparse(3 << 13, 1, 0): path(seq), lambda seq=_dense(1 << 12): path(seq)]
    calls.append(lambda seq=_sparse(1 << 17, 64, 2): path(seq))
    # 58 points on 2^18, where building E writes through a full ufunc buffer
    calls.append(lambda seq=_sparse(1 << 15, 58, 4): path(seq))
    if name == "pseudorandom_gauge":
        # a lone gauge on 2^24 points forms its kernel's sine tables and
        # each product's bins alone, never the half grid its price counts
        calls.append(lambda seq=_sparse(1 << 21, 64, 3): path(seq))
        # a family on 2^18 points, gauged in the order given with one
        # kernel, its bins formed by the first member and read by the rest,
        # whose block shapes differ (64 points); no rfft member, whose two
        # grids would outweigh the kernel
        bs = power_residues(W, 2).units.tolist()[:3]
        nus = [build_nu(W, b, 2, 1 << 14) for b in bs]
        nus.insert(1, _sparse(1 << 14, 64, 1))

        def family():
            kernel = DirichletKernel(1 << 14, 1 << 18)
            for nu in nus:
                pseudorandom_gauge(nu, 1 << 18, kernel)

        family.members = len(nus)
        calls.append(family)
    return calls


@pytest.mark.parametrize("name", list(SIZES))
def test_estimate_covers_peak(name, monkeypatch):
    """At two small sizes the estimate is at least the traced peak, up to
    OBJECT_BYTES; a warm-up call first keeps one-time FFT setup and lazy
    imports out of the peak.  A gauge family prices each of its members
    once; the largest of those prices covers the peak."""
    seen = []
    real = core_arith.require_bytes

    def record(estimate, what):
        seen.append((what, estimate))
        real(estimate, what)

    for mod in BUDGETED:
        monkeypatch.setattr(mod, "require_bytes", record)
    for call in _small_calls(name):
        call()
        seen.clear()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [what for what, _ in seen] == [name] * getattr(call, "members", 1)
        assert max(estimate for _, estimate in seen) + OBJECT_BYTES >= peak


@pytest.mark.parametrize("S, M", [(58, 1 << 18), (8, 1 << 15), (55, 1 << 22)])
def test_product_price_covers_building_E(monkeypatch, S, M):
    """Stepped to the end of building E, the product path's traced peak is
    E and its phase table, plus the buffer numpy gives the strided write of
    E's second half: the price less the products' tables, which do not
    exist yet (48 bytes a cell of C rows, 16 a product a point)."""
    rng = np.random.default_rng(S)
    c = 2 * np.sort(rng.choice(M // 8, S, replace=False)) + 2
    w = 1 + rng.random(S)
    _, _, rows, C = spectral._half_grid_shape(S, M)
    real = spectral._phase_table

    def stepped():
        # the second phase table starts the products' tables, after E
        calls = []

        def probe(*args):
            calls.append(tracemalloc.get_traced_memory()[1])
            if len(calls) == 2:
                raise _Probe
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(spectral, "_phase_table", probe)
            with pytest.raises(_Probe):
                spectral._product_tables(c, w, M)
        return calls[-1]

    stepped()
    tracemalloc.start()
    try:
        peak = stepped()
    finally:
        tracemalloc.stop()
    price = _product_bytes(S, M, 0) - 48 * S * C - 16 * S * -(-rows // C)
    assert peak <= price + OBJECT_BYTES


def _recorded_prices(monkeypatch, call):
    seen = []
    monkeypatch.setattr(spectral, "require_bytes", lambda estimate, what: seen.append(estimate))
    call()
    return seen


def test_lone_and_held_gauges_price_what_they_form(monkeypatch):
    """On the product path a gauge given a DirichletKernel prices the
    kernel's bins and their single-precision copy, three quarters of a
    grid, and five words a product cell; a gauge given none prices the
    sine tables of S = 1 and four words a cell, far less.  Both add the
    screen's single-precision E, A, X and block.  An rfft member prices
    its two grids either way."""
    W, N, M = compute_W(3, 2), 1 << 14, 1 << 18
    nus = [build_nu(W, b, 2, N) for b in power_residues(W, 2).units.tolist()[:2]]
    members = [nus[0], _sparse(N, 64, 1), _dense(N), nus[1]]
    sizes = [len(seq.index) for seq in members]
    paths = [_use_product(S, M) for S in sizes]
    assert paths == [True, True, False, True]
    lone = [
        _recorded_prices(monkeypatch, lambda seq=seq: pseudorandom_gauge(seq, M))
        for seq in members
    ]

    def family():
        held = DirichletKernel(N, M)
        for seq in members:
            pseudorandom_gauge(seq, M, held)

    held = _recorded_prices(monkeypatch, family)
    _, T, rows, _ = _half_grid_shape(1, M)
    sines = 32.0 * rows + 112.0 * T
    for (price,), held_price, S, product in zip(lone, held, sizes, paths):
        if product:
            _, T, _, C = _half_grid_shape(S, M)
            screen = 16.0 * S * T + 8.0 * S * C + 12.0 * C * T
            assert price == _product_bytes(S, M, 4) + sines + screen
            assert held_price == _product_bytes(S, M, 5) + 6.0 * M + screen
            assert price < held_price / 2
        else:
            assert price == held_price == 16.0 * M


def test_lone_product_gauge_within_its_product_price():
    W, N = compute_W(3, 2), 1 << 14
    nu = build_nu(W, 1, 2, N)
    S, M = len(nu.index), 8 * N
    pseudorandom_gauge(nu)
    tracemalloc.start()
    try:
        pseudorandom_gauge(nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # four words a block cell, the sine tables of S = 1 and the screen
    price = _product_bytes(S, M, 4) + _lone_kernel_bytes(M) + _screen_bytes(S, M)
    assert peak <= price + OBJECT_BYTES


def test_report_holds_one_dense_sequence(tmp_path):
    """wglab report gauges the 54 residues of N one by one as it builds
    them, with one kernel: its peak stays below the 54 N float64 of
    every nu at once."""
    N = 1 << 14
    cfg = tmp_path / "report.cfg"
    cfg.write_text(f"k=2\nw=3\nn_list={N}\n", encoding="utf-8")
    argv = ["report", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert len((tmp_path / "out" / f"gauge_N{N}.jsonl").read_text().splitlines()) == 54
    tracemalloc.start()
    try:
        cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 54 * N * 8


def _streamed_chain(N, s=44):
    """Three distinct sparse parts of 14 points, s in all, as the
    transference benchmark's chain has them at N = 2^15 and 2^16."""
    parts = [_sparse(N, 14, seed) for seed in range(3)]
    return (parts * s)[:s]


@pytest.mark.parametrize("N, grid", [(1 << 15, 729_000), (1 << 16, 1_458_000)])
def test_streamed_route_prices_what_it_allocates(monkeypatch, N, grid):
    """On a split grid transference_gauge prices the streamed route's
    workspace, tables and window, under one grid for sparse parts; the
    one-irfft route keeps its 6.5 grids."""
    f_list = _streamed_chain(N)
    assert representation._window_split(grid, 2260 * N >> 15)
    streamed = probed_estimate(monkeypatch, lambda: transference_gauge(f_list))
    assert streamed < 8 * grid
    with monkeypatch.context() as m:
        m.setattr(representation, "_window_split", lambda grid, width: 0)
        whole = probed_estimate(monkeypatch, lambda: transference_gauge(f_list))
    assert whole == 6.5 * 8 * grid


def test_streamed_route_refuses_overflowing_phases():
    """A window of 672 points on 2,149,908,480 points takes the
    streamed route, priced at a few MB; its sparse parts' exact int64
    phases could overflow there, so it is refused before allocating."""
    f = WeightedSequence.spike(1 << 31, 0.5)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(LimitExceededError, match="2M\\^2 < 2\\^63"):
            transference_gauge([f, f], epsilon=1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 5
    assert peak < 1 << 20
