import cmath
import dataclasses
import json
import math
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wglab.cli import _json_line
from wglab.core_arith import (
    MEMORY_BUDGET,
    FactoredModulus,
    LimitExceededError,
    compute_W,
    rational_approx,
)
from wglab.local_structure import power_residues
from wglab.majorant import (
    SubsetSpec,
    WeightedSequence,
    build_f,
    build_nu,
    gen_subset,
    support_index,
)
from wglab.representation import transference_gauge
from wglab.spectral import (
    ArcParams,
    DirichletKernel,
    arc_decompose,
    dft_spectrum,
    exp_sum_factor,
    exp_sum_Sstar,
    integral_I,
    interval_transform_at,
    major_arc_model,
    major_arc_residual,
    pseudorandom_gauge,
    restriction_norm,
    transform_at,
)
from wglab import cli, spectral
from wglab.spectral import (
    _CHUNK_CELLS,
    _GROUPED_ABOVE,
    _PRODUCT_BLOCK,
    _SERIAL_MACS,
    _cos_sin,
    _half_grid_shape,
    _phase_table,
    _use_product,
)


def fm(n):
    return FactoredModulus.from_value(n)


class TestSpectrum:
    def test_mass_at_zero(self):
        sp = dft_spectrum(WeightedSequence.indicator(100), 256)
        assert sp.values[0] == pytest.approx(100)
        assert abs(sp.values[0].imag) < 1e-12

    def test_closed_form_at_random_grid_points(self):
        N, M = 200, 512
        sp = dft_spectrum(WeightedSequence.indicator(N), M)
        rng = random.Random(1)
        for _ in range(100):
            j = rng.randrange(M)
            assert sp.values[j] == pytest.approx(
                interval_transform_at(N, j / M), abs=1e-9 * N
            )

    def test_parseval(self):
        rng = np.random.default_rng(3)
        vals = rng.random(300)
        seq = WeightedSequence(values=vals, kind="custom", W=0, b=0, k=0)
        sp = dft_spectrum(seq, 1024)
        grid = (np.abs(sp.values) ** 2).sum() / 1024
        direct = (vals**2).sum()
        assert grid == pytest.approx(direct, rel=1e-9)

    def test_conjugate_symmetry(self):
        seq = build_nu(compute_W(2, 2), 1, 2, 256)
        sp = dft_spectrum(seq, 1024)
        for j in (1, 17, 333, 511):
            assert sp.values[1024 - j] == pytest.approx(np.conj(sp.values[j]), abs=1e-9)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            dft_spectrum(WeightedSequence.indicator(100), 150)

    def test_direct_eval_matches_grid(self):
        seq = build_nu(compute_W(2, 2), 1, 2, 512)
        sp = dft_spectrum(seq, 2048)
        for j in (0, 5, 600):
            assert transform_at(seq, j / 2048) == pytest.approx(sp.values[j], abs=1e-8 * 512)

    def test_exports(self, tmp_path):
        seq = WeightedSequence.indicator(32)
        sp = dft_spectrum(seq, 64)
        csv = tmp_path / "spec.csv"
        sp.to_csv(csv)
        lines = csv.read_text().splitlines()
        assert lines[0] == "j,re,im"
        assert len(lines) == 65
        binp = tmp_path / "spec.bin"
        sp.to_binary(binp)
        assert binp.stat().st_size == 40 + 16 * 64

    def test_binary_bytes(self, tmp_path):
        """The header (kind code, W, b, k, M) as little-endian int64, then
        re and im of each grid value, interleaved, as little-endian float64."""
        seq = build_nu(compute_W(2, 2), 1, 2, 100)
        sp = dft_spectrum(seq, 256)
        path = tmp_path / "spec.bin"
        sp.to_binary(path)
        pairs = (struct.pack("<dd", v.real, v.imag) for v in sp.values.tolist())
        assert path.read_bytes() == struct.pack("<5q", 0, 16, 1, 2, 256) + b"".join(pairs)


class TestArcs:
    def test_params_reject_degenerate(self):
        with pytest.raises(ValueError):
            ArcParams.for_sequence(16, 4096, 2, sigma=4.0)

    def test_simple_rationals_are_major(self):
        params = ArcParams.for_sequence(16, 2**17, 2, sigma=2.0)
        half = arc_decompose(params, 0.5)
        assert (half.q, half.a, half.classification) == (2, 1, "major")
        third = arc_decompose(params, 1 / 3)
        assert (third.q, third.a, third.classification) == (3, 1, "major")

    def test_golden_ratio_is_minor(self):
        params = ArcParams.for_sequence(16, 2**17, 2, sigma=2.0)
        gold = (math.sqrt(5) - 1) / 2
        arc = arc_decompose(params, gold)
        assert arc.classification == "minor"
        # the Dirichlet witness for the minor case still approximates well
        assert abs(gold - arc.a / arc.q) <= 1 / (arc.q * params.Q)

    def test_consistency_with_direct_scan(self):
        params = ArcParams(sigma=2.0, sigma0=2.0, L=3.0, P=9.0, Q=5000.0)
        rng = random.Random(77)
        for _ in range(1000):
            alpha = rng.random()
            arc = arc_decompose(params, alpha)
            is_major = False
            for q in range(1, int(params.P) + 1):
                a = round(alpha * q)
                if math.gcd(a, q) == 1 and abs(alpha - a / q) <= 1 / params.Q:
                    is_major = True
                    break
            assert (arc.classification == "major") == is_major
            assert math.gcd(arc.a, arc.q) == 1
            assert 1 <= arc.q <= params.Q
            if arc.classification == "major":
                assert arc.q <= params.P
                assert abs(alpha - arc.a / arc.q) <= 1 / params.Q
            else:
                assert abs(alpha - arc.a / arc.q) <= 1 / (arc.q * int(params.Q))

    def test_witness_matches_dirichlet_for_minor(self):
        params = ArcParams(sigma=2.0, sigma0=2.0, L=3.0, P=9.0, Q=5000.0)
        alpha = 0.3137515
        arc = arc_decompose(params, alpha)
        if arc.classification == "minor":
            assert (arc.a, arc.q) == rational_approx(alpha, int(params.Q))


class TestExpSums:
    def setup_method(self):
        self.W16 = compute_W(2, 2)

    def test_trivial_modulus(self):
        assert exp_sum_Sstar(1, 0, self.W16, 2, 1, 1).value == pytest.approx(1)

    def test_hand_computed_case(self):
        v = exp_sum_Sstar(3, 1, self.W16, 2, 1, 1)
        assert v.value == pytest.approx(2)  # r=0,1 contribute 1 each, r=2 dropped

    def test_rejects_mismatched_root(self):
        with pytest.raises(ValueError):
            exp_sum_Sstar(3, 1, self.W16, 2, 1, 3)  # 3^2 = 9 != 1 mod 16

    def test_triangle_bound(self):
        rng = random.Random(12)
        W = compute_W(3, 2)
        units = [z for z in range(1, 1296) if math.gcd(z, 1296) == 1]
        for _ in range(50):
            q = rng.randint(1, 60)
            a = rng.choice([x for x in range(q)] or [0])
            if math.gcd(a, q) != 1:
                continue
            z = rng.choice(units)
            b = pow(z, 2, 1296)
            val = exp_sum_Sstar(q, a, W, 2, b, z)
            assert abs(val.value) <= q + 1e-9

    def test_sum_over_roots_vanishes_when_q_divides_k(self):
        # k = 4, progression modulus 256: the z-sum of the complete sums
        # collapses to zero for q in {2, 4}
        W = compute_W(2, 4)
        assert W.value == 256
        units = [z for z in range(1, 256) if z % 2 == 1]
        bs = sorted({pow(z, 4, 256) for z in units})
        for q in (2, 4):
            for a in range(1, q):
                if math.gcd(a, q) != 1:
                    continue
                for b in bs:
                    zs = [z for z in units if pow(z, 4, 256) == b]
                    total = sum(exp_sum_Sstar(q, a, W, 4, b, z).value for z in zs)
                    assert abs(total) < 1e-6, (q, a, b)

    def test_factorization_identity_random(self):
        rng = random.Random(2024)
        W = compute_W(3, 2)
        units = [z for z in range(1, 1296) if math.gcd(z, 1296) == 1]
        checked = 0
        while checked < 100:
            q = rng.randint(2, 1000)
            a = rng.randint(1, q - 1)
            if math.gcd(a, q) != 1:
                continue
            z = rng.choice(units)
            parts = exp_sum_factor(q, a, W, 2, z)
            assert parts.identity_gap < 1e-9, (q, a, z)
            assert parts.u * parts.v == q
            checked += 1

    def test_smooth_part_vanishes_when_h_misses_k(self):
        W = compute_W(3, 2)
        rng = random.Random(5)
        units = [z for z in range(1, 1296) if math.gcd(z, 1296) == 1]
        for u in (4, 8, 16, 9, 27, 12, 72):
            h = math.gcd(u, 1296)
            assert 2 % h != 0  # all chosen smooth parts force vanishing
            for _ in range(3):
                a = rng.choice([x for x in range(1, u) if math.gcd(x, u) == 1])
                z = rng.choice(units)
                parts = exp_sum_factor(u, a, W, 2, z)
                assert parts.vanishing_forced
                assert abs(parts.s_u) < 1e-9, (u, a, z)

    def test_smooth_part_survives_when_h_divides_k(self):
        W = compute_W(3, 2)
        parts = exp_sum_factor(2, 1, W, 2, 5)
        assert not parts.vanishing_forced
        assert abs(parts.s_u) == pytest.approx(2.0)

    def test_star_diamond_twist_identity(self):
        rng = random.Random(31)
        W = compute_W(3, 2)
        units = [z for z in range(1, 1296) if math.gcd(z, 1296) == 1]
        for _ in range(30):
            q = rng.randint(2, 50)
            a = rng.randint(1, q - 1)
            if math.gcd(a, q) != 1:
                continue
            z = rng.choice(units)
            b = pow(z, 2, 1296)
            star = exp_sum_Sstar(q, a, W, 2, b, z).value
            diamond = exp_sum_factor(q, a, W, 2, z).direct
            twist = cmath.exp(2j * cmath.pi * a * (pow(z, 2) - b) / (1296 * q))
            assert star == pytest.approx(twist * diamond, abs=1e-9)


class TestIntegral:
    def test_zero_frequency(self):
        assert integral_I(0.0, 777) == pytest.approx(777)

    def test_full_period(self):
        assert abs(integral_I(1 / 512, 512)) < 1e-10

    def test_half_period_magnitude(self):
        N = 1000
        assert abs(integral_I(1 / (2 * N), N)) == pytest.approx(2 * N / math.pi)


class TestMajorArcModel:
    def setup_method(self):
        self.W = compute_W(2, 2)

    def test_trivial_arc_is_exact_mass(self):
        assert major_arc_model(1, 0, 0.0, self.W, 2, 1, 4096) == pytest.approx(4096)

    def test_cancellation_at_q2(self):
        assert abs(major_arc_model(2, 1, 0.0, self.W, 2, 1, 4096)) < 1e-9

    def test_linear_in_integral(self):
        beta = 1 / 9000
        m0 = major_arc_model(3, 1, 0.0, self.W, 2, 1, 4096)
        mb = major_arc_model(3, 1, beta, self.W, 2, 1, 4096)
        assert mb / m0 == pytest.approx(integral_I(beta, 4096) / 4096, rel=1e-12)

    def test_residual_helper(self):
        nu = build_nu(self.W, 1, 2, 4096)
        res, hat, model = major_arc_residual(nu, 1, 0)
        assert res == pytest.approx(abs(nu.total() - 4096) / 4096, rel=1e-9)
        assert model == pytest.approx(4096)

    def test_residual_for_b_past_W(self):
        # b = 1 + 2W puts every weight 2 places lower than b = 1 does (n = 1
        # and 2 carry none there), and each complete sum turns by e(-2a/q)
        N, m = 4096, 2
        seq = build_nu(self.W, 1 + m * 16, 2, N)
        base = build_nu(self.W, 1, 2, N + m)
        assert seq.b == 33
        assert not base.values[:m].any()
        np.testing.assert_array_equal(seq.values, base.values[m:])
        assert exp_sum_Sstar(3, 1, self.W, 2, 33, 1).b == 33
        for q, a in ((1, 0), (3, 1), (5, 2), (8, 3)):
            turn = cmath.exp(-2j * cmath.pi * a * m / q)
            model_1 = major_arc_model(q, a, 0.0, self.W, 2, 1, N)
            hat_1 = transform_at(base, a / q)
            res, hat, model = major_arc_residual(seq, q, a)
            assert model == pytest.approx(turn * model_1, rel=1e-9, abs=1e-9)
            assert hat == pytest.approx(turn * hat_1, rel=1e-9)
            assert res == pytest.approx(abs(hat_1 - model_1) / N, rel=1e-9, abs=1e-12)


class TestGauge:
    def test_indicator_gauge_is_zero(self):
        rep = pseudorandom_gauge(WeightedSequence.indicator(512), 2048)
        assert rep.D == pytest.approx(0.0, abs=1e-12)

    def test_spike_gauge_near_one(self):
        N = 4096
        rep = pseudorandom_gauge(WeightedSequence.spike(N), 8 * N)
        assert 1.0 - 1e-9 <= rep.D <= 1.5

    def test_gauge_matches_direct_maximum(self):
        N = 256
        nu = build_nu(compute_W(2, 2), 1, 2, N)
        M = 2 * N
        rep = pseudorandom_gauge(nu, M)
        direct = max(
            abs(transform_at(nu, j / M) - interval_transform_at(N, j / M)) for j in range(M)
        )
        assert rep.D == pytest.approx(direct / N, rel=1e-9)

    def test_argmax_is_classified(self):
        nu = build_nu(compute_W(2, 2), 1, 2, 4096)
        rep = pseudorandom_gauge(nu, 8 * 4096)
        assert rep.sigma is not None  # degenerate exponents skipped, used one recorded
        params = ArcParams.for_sequence(nu.W, nu.N, nu.k, sigma=rep.sigma)
        assert arc_decompose(params, rep.argmax_alpha).classification in ("major", "minor")

    def test_json_row_keys(self):
        nu = build_nu(compute_W(2, 2), 1, 2, 512)
        for rep in (pseudorandom_gauge(nu), restriction_norm(nu, 6.5)):
            row = rep.to_dict()
            assert set(row) == {"N", "M", "w", "k", "b", "sigma", "value"}
            assert row["w"] == 2 and row["k"] == 2 and row["b"] == 1

    def test_repeated_runs_bitwise_identical(self):
        nu = build_nu(compute_W(2, 2), 1, 2, 1024)
        a = pseudorandom_gauge(nu, 4096)
        b = pseudorandom_gauge(nu, 4096)
        assert a.D == b.D and a.argmax_j == b.argmax_j
        assert _json_line(a.to_dict()) == _json_line(b.to_dict())


class TestRestriction:
    def test_reference_mode_constant_one(self):
        rep = restriction_norm(WeightedSequence.indicator(4096), 2.0)
        assert rep.constant == pytest.approx(1.0, rel=1e-9)

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            restriction_norm(WeightedSequence.indicator(64), 1.5)
        with pytest.raises(ValueError):
            restriction_norm(WeightedSequence.indicator(64), 2.0, M=128)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_exponent(self, exponent):
        # NaN once passed the exponent < 2 test and gave a NaN norm, inf a
        # norm of 1.0 with a numpy RuntimeWarning
        message = rf"^exponent must be finite and >= 2, got {exponent}$"
        with pytest.raises(ValueError, match=message):
            restriction_norm(WeightedSequence.indicator(64), exponent)

    def test_spike_constant_grows_like_a_power(self):
        for N in (2**12, 2**14):
            rep = restriction_norm(WeightedSequence.spike(N), 6.5)
            assert rep.constant == pytest.approx(N ** (1 / 6.5), rel=1e-6)

    def test_indicator_constant_stable(self):
        consts = []
        for e in range(12, 17):
            rep = restriction_norm(WeightedSequence.indicator(2**e), 6.5)
            consts.append(rep.constant)
        assert max(consts) / min(consts) <= 1.5

    def test_thinned_sequence_rows(self):
        N = 2**12
        W = compute_W(2, 2)
        sub = gen_subset(SubsetSpec.all(), math.isqrt(16 * N + 16) + 1)
        rep = restriction_norm(build_f(W, 1, 2, N, sub), 6.5)
        row = rep.to_dict()
        assert row["value"] == pytest.approx(rep.constant)
        assert row["sigma"] is None


class TestHalfGridKernels:
    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(1, 300),
        extra=st.integers(0, 1200),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.0, 1.0),
        exponent=st.sampled_from([2.0, 3.0, 6.5]),
    )
    def test_match_full_complex_fft(self, N, extra, seed, density, exponent):
        rng = np.random.default_rng(seed)
        vals = 10 * rng.random(N) * (rng.random(N) < density)
        seq = WeightedSequence(values=vals, kind="custom", W=0, b=0, k=0)
        for M in (2 * N + extra, 2 * N + extra + 1):
            arr = np.zeros(M)
            arr[1 : N + 1] = vals
            ones = np.zeros(M)
            ones[1 : N + 1] = 1.0
            full = np.abs(np.fft.fft(arr) - np.fft.fft(ones))
            rep = pseudorandom_gauge(seq, M)
            assert rep.D == pytest.approx(full.max() / N, rel=1e-12)
            assert rep.argmax_j <= M // 2 and rep.argmax_alpha <= 0.5
            assert full[rep.argmax_j] == pytest.approx(full.max(), rel=1e-12)

            Mr = M + 2 * N  # restriction_norm needs M >= 4N
            arr = np.zeros(Mr)
            arr[1 : N + 1] = vals
            norm = (np.sum(np.abs(np.fft.fft(arr)) ** exponent) / Mr) ** (1 / exponent)
            assert restriction_norm(seq, exponent, Mr).norm == pytest.approx(norm, rel=1e-12)

    def test_one_rfft_of_length_M_per_call(self, monkeypatch):
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            real = getattr(np.fft, name)

            def counted(a, *args, _name=name, _real=real, **kwargs):
                calls.append((_name, len(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        nu = build_nu(compute_W(2, 2), 1, 2, 1000)
        pseudorandom_gauge(nu, 8000)
        assert calls == [("rfft", 8000)]
        calls.clear()
        restriction_norm(nu, 6.5, 4001)
        assert calls == [("rfft", 4001)]
        calls.clear()
        dft_spectrum(nu, 4001)
        assert calls == [("rfft", 4001)]

    def test_grid_cap_refuses_before_allocating(self):
        # dense stride-0 weights: a sparse input this size takes the product path
        seq = WeightedSequence(values=np.broadcast_to(1.0, 4096), kind="custom", W=0, b=0, k=0)
        M = MEMORY_BUDGET // 16 + 1
        tracemalloc.start()
        try:
            with pytest.raises(LimitExceededError):
                dft_spectrum(seq, M)
            with pytest.raises(LimitExceededError):
                pseudorandom_gauge(seq, M)
            with pytest.raises(LimitExceededError):
                restriction_norm(seq, 6.5, M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestEmptySupport:
    """A sequence with no support takes one rfft even on grids where
    _use_product holds for S >= 1, and reads the closed forms: D = 1 at
    j = 0 from the interval alone, norm 0 and an all-zero spectrum."""

    @pytest.mark.parametrize("N, M", [(1 << 12, None), (1 << 14, None), (1 << 13, 1 << 15)])
    def test_zero_sequence(self, monkeypatch, N, M):
        grid = M or spectral.default_grid(N)
        assert grid >= 1 << 15 and _use_product(1, grid) and not _use_product(0, grid)
        calls = []
        real = np.fft.rfft

        def counted(a, *args, **kwargs):
            calls.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        zero = WeightedSequence(values=np.zeros(N), kind="custom", W=0, b=0, k=0)
        rep = pseudorandom_gauge(zero, M)
        assert (rep.D, rep.argmax_j) == (1.0, 0)
        norm = restriction_norm(zero, 6.5, M)
        assert norm.norm == 0.0 and norm.constant == 0.0
        spec = dft_spectrum(zero, M)
        assert spec.M == grid and not spec.values.any()
        assert calls == [grid] * 3


_ULP = np.finfo(float).eps
# grids on both sides of the product path's least M and of the grouped
# products' bound
_EDGE_GRIDS = [
    (1 << 15) - 1,
    1 << 15,
    (1 << 15) + 1,
    _GROUPED_ABOVE - 1,
    _GROUPED_ABOVE,
    _GROUPED_ABOVE + 1,
    _GROUPED_ABOVE + 2,
]


class TestDegenerateInputs:
    """Every spectral path on the least sequences, against closed forms:
    the zero sequence's half spectrum is 0, so the gauge reads the
    interval alone (D = 1, reached at j = 0) and the norm is 0; one point
    of weight w at n has X(j) = w e(-n j / M), of modulus w at every j,
    so its norm is w, and at N = 1 its gauge reads |w - 1|.  On every
    grid the bins of the interval of N = 1 all have modulus 1, so there
    the argmax is wherever rounding puts it."""

    @settings(max_examples=40, deadline=None)
    @given(
        S=st.sampled_from([0, 1]),
        N=st.sampled_from([1, 2]),
        grid=st.one_of(st.sampled_from(["2N", "4N"]), st.sampled_from(_EDGE_GRIDS)),
        w=st.floats(0.25, 8.0),
        at=st.integers(0, 1),
    )
    @example(S=1, N=2, grid=_GROUPED_ABOVE + 1, w=2.5, at=1)
    @example(S=0, N=2, grid=_GROUPED_ABOVE + 1, w=1.0, at=0)
    @example(S=1, N=1, grid=1 << 15, w=0.5, at=0)
    @example(S=0, N=1, grid="2N", w=1.0, at=0)
    def test_closed_forms(self, S, N, grid, w, at):
        M = {"2N": 2 * N, "4N": 4 * N}.get(grid, grid)
        n = min(at, N - 1) + 1  # the point's position
        values = np.zeros(N)
        values[n - 1] = w if S else 0.0
        seq = WeightedSequence(values=values, kind="custom", W=0, b=0, k=0)
        weight = w if S else 0.0
        spec = dft_spectrum(seq, M)
        assert spec.M == M
        if S:
            assert np.abs(np.abs(spec.values) - w).max() <= 4 * _ULP * w
            j = np.arange(M)
            assert np.abs(spec.values - w * np.exp(2j * np.pi * (n * j % M) / M)).max() <= 1e-13 * w
        else:
            assert not spec.values.any()
        rep = pseudorandom_gauge(seq, M)
        if S == 0:
            assert abs(rep.D - 1.0) <= 32 * _ULP
            if N == 2:
                assert rep.argmax_j == 0
        elif N == 1:
            assert abs(rep.D - abs(w - 1)) <= 32 * _ULP * max(w, 1)
        if M >= 4 * N:
            norm = restriction_norm(seq, 6.5, M).norm
            assert abs(norm - weight) <= 4 * _ULP * weight


def _rfft_gauge_magnitudes(seq, M):
    """pseudorandom_gauge's rfft path: |rfft(seq - 1)| on bins 0..M/2."""
    arr = np.zeros(M)
    arr[1 : seq.N + 1] = seq.values
    arr[1 : seq.N + 1] -= 1.0
    return np.abs(np.fft.rfft(arr))


def _rfft_restriction_norm(seq, exponent, M):
    """restriction_norm's rfft path."""
    arr = np.zeros(M)
    arr[1 : seq.N + 1] = seq.values
    mag = np.abs(np.fft.rfft(arr)) ** exponent
    total = mag[0] + 2.0 * mag[1 : (M + 1) // 2].sum()
    if M % 2 == 0:
        total += mag[M // 2]
    return float((total / M) ** (1.0 / exponent))


def _product_grid(S, M):
    """The least M * 2^i whose grid takes the product path for S points."""
    assert _use_product(S, 1 << 40)
    while not _use_product(S, M):
        M *= 2
    return M


class TestSparseProduct:
    """The half-grid product path against the rfft path it replaces."""

    def assert_matches_rfft(self, seq, M, exponent):
        S = int(np.count_nonzero(seq.values))
        assert _use_product(S, M) and M >= 2 * seq.N
        rep = pseudorandom_gauge(seq, M)
        diff = _rfft_gauge_magnitudes(seq, M)
        top = diff.max()
        assert rep.D == pytest.approx(top / seq.N, rel=1e-12)
        second = np.partition(diff, -2)[-2] if len(diff) > 1 else 0.0
        if top - second > 1e-9 * top:
            assert rep.argmax_j == int(diff.argmax())
        else:
            assert diff[rep.argmax_j] == pytest.approx(top, rel=1e-9)
        Mr = M + 2 * seq.N  # restriction_norm needs M >= 4N
        assert _use_product(S, Mr)
        norm = restriction_norm(seq, exponent, Mr).norm
        assert norm == pytest.approx(_rfft_restriction_norm(seq, exponent, Mr), rel=1e-12)
        # dft_spectrum's old path: the conjugated complex FFT of the whole grid
        arr = np.zeros(M)
        arr[1 : seq.N + 1] = seq.values
        full = np.conj(np.fft.fft(arr))
        assert np.abs(dft_spectrum(seq, M).values - full).max() <= 1e-12 * np.abs(full).max()

    @settings(max_examples=40, deadline=None)
    @given(
        N=st.integers(1, 4096),
        extra=st.integers(0, 1 << 16),
        share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.sampled_from([2.0, 3.0, 6.5]),
    )
    def test_random_supports(self, N, extra, share, seed, exponent):
        M = _product_grid(1, 2 * N) + extra  # even or odd
        bound = max(S for S in range(1, N + 1) if _use_product(S, M))
        S = 1 + int(share * (bound - 1))
        rng = np.random.default_rng(seed)
        vals = np.zeros(N)
        vals[rng.choice(N, S, replace=False)] = 0.1 + 10 * rng.random(S)
        seq = WeightedSequence(values=vals, kind="custom", W=0, b=0, k=0)
        self.assert_matches_rfft(seq, M, exponent)

    @settings(max_examples=30, deadline=None)
    @given(
        w=st.sampled_from([2, 3]),
        N=st.integers(64, 4096),
        pick=st.integers(0, 53),
        thinned=st.booleans(),
        extra=st.integers(0, 1 << 14),
        exponent=st.sampled_from([2.0, 6.5]),
    )
    def test_majorant_sequences(self, w, N, pick, thinned, extra, exponent):
        W = compute_W(w, 2)
        bs = power_residues(W, 2).units.tolist()
        b = bs[pick % len(bs)]
        if thinned:
            sub = gen_subset(SubsetSpec.bernoulli(0.8, pick), max(100, math.isqrt(W.value * (N + 1)) + 1))
            seq = build_f(W, b, 2, N, sub)
        else:
            seq = build_nu(W, b, 2, N)
        S = int(np.count_nonzero(seq.values))
        if S:
            self.assert_matches_rfft(seq, _product_grid(S, 2 * N) + extra, exponent)

    def test_rule_picks_one_path(self, monkeypatch):
        calls = []
        real = np.fft.rfft

        def counted(a, *args, **kwargs):
            calls.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        M = 1 << 16
        bound = max(S for S in range(1, 1000) if _use_product(S, M))
        for S, expected in ((bound, []), (bound + 1, [M])):
            vals = np.zeros(2000)
            vals[:: 2000 // S][:S] = 1.5
            seq = WeightedSequence(values=vals, kind="custom", W=0, b=0, k=0)
            assert np.count_nonzero(seq.values) == S
            pseudorandom_gauge(seq, M)
            assert calls == expected
            calls.clear()
            restriction_norm(seq, 6.5, M)
            assert calls == expected
            calls.clear()
            dft_spectrum(seq, M)
            assert calls == expected
            calls.clear()
        # two equal parts of N = 2^15 convolve on the least 5-smooth grid
        # above the window top 32,870
        grid = 33_750
        bound = max(S for S in range(1, 1000) if _use_product(S, grid))
        for S, expected in ((bound, []), (bound + 1, [grid])):
            vals = np.zeros(1 << 15)
            vals[:: (1 << 15) // S][:S] = 1.5
            f = WeightedSequence(values=vals, kind="custom", W=0, b=0, k=0)
            assert np.count_nonzero(f.values) == S
            transference_gauge([f, f])
            assert calls == expected
            calls.clear()

    def test_repeated_runs_bitwise_identical(self):
        nu = build_nu(compute_W(3, 2), 1, 2, 4096)
        M = _product_grid(int(np.count_nonzero(nu.values)), 8 * 4096)
        a = pseudorandom_gauge(nu, M)
        b = pseudorandom_gauge(nu, M)
        assert a.D == b.D and a.argmax_j == b.argmax_j
        assert _json_line(a.to_dict()) == _json_line(b.to_dict())
        assert restriction_norm(nu, 6.5, M).norm == restriction_norm(nu, 6.5, M).norm

    def test_blocks_cover_the_half_grid_in_serial_products(self):
        """Every shape's R rows of T cover the half grid; up to
        _GROUPED_ABOVE points a product of C rows stays within one serial
        block, above it holds as many whole rows as _CHUNK_CELLS cells."""
        grids = (1 << 15, 3 << 15, (1 << 18) + 1, _GROUPED_ABOVE, _GROUPED_ABOVE + 1)
        for M in grids + (1 << 22, (1 << 31) - 1):
            for S in range(65):
                half, T, rows, C = _half_grid_shape(S, M)
                assert (rows - 1) * T < half <= rows * T
                if M <= _GROUPED_ABOVE:
                    assert C * T <= _PRODUCT_BLOCK
                    assert 4 * S * C * T <= _SERIAL_MACS
                else:
                    assert C * T <= _CHUNK_CELLS < (C + 1) * T

    @settings(max_examples=4, deadline=None)
    @given(
        S=st.integers(1, 64),
        M=st.one_of(
            st.integers(1 << 15, _GROUPED_ABOVE),
            st.integers(_GROUPED_ABOVE + 1, 1 << 21),
            st.sampled_from([_GROUPED_ABOVE, _GROUPED_ABOVE + 1, 1 << 21, (1 << 21) - 1]),
        ),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.sampled_from([2.0, 6.5]),
    )
    @example(S=55, M=1 << 22, seed=0, exponent=6.5)  # the transference gauge's shape
    # last products of one row, above and below _GROUPED_ABOVE
    @example(S=64, M=_GROUPED_ABOVE + 1, seed=1, exponent=6.5)
    @example(S=1, M=1 << 15, seed=2, exponent=2.0)
    def test_grids_on_both_sides_of_the_grouped_bound(self, S, M, seed, exponent):
        """Products of both sizes _half_grid_shape gives against the rfft
        path, with N = M / 8 as the default grid has it.  On each side a
        last product of one row, which numpy forms as a matrix-vector
        product whose sums round apart from a matrix product's, is among
        the examples: R = 8193 rows in products of C = 256 at S = 55,
        M = 2^22."""
        N = M // 8
        S = min(S, max(s for s in range(1, 65) if _use_product(s, M)))
        rng = np.random.default_rng(seed)
        vals = np.zeros(N)
        vals[rng.choice(N, S, replace=False)] = 0.1 + 10 * rng.random(S)
        seq = WeightedSequence(values=vals, kind="custom", W=0, b=0, k=0)
        self.assert_matches_rfft(seq, M, exponent)

    @settings(max_examples=60, deadline=None)
    @given(
        S=st.integers(1, 64),
        M=st.one_of(
            st.integers(2, 1 << 15),
            st.integers(1 << 15, _GROUPED_ABOVE),
            st.sampled_from([_GROUPED_ABOVE - 1, _GROUPED_ABOVE]),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(S=1, M=1 << 15, seed=0)  # a last product of one row
    @example(S=10, M=1 << 17, seed=1)  # a report gauge at N = 2^14 (S = 8..14)
    @example(S=64, M=1 << 18, seed=2)
    def test_serial_products_keep_their_bits(self, S, M, seed):
        """Up to _GROUPED_ABOVE points, the product path against its form
        before one shape sized every product, inlined here: the serial
        block's shape, E built by negate-and-assign and one product a
        block, the block's first-row phase times the within-block table.
        Every bin bit for bit, which keeps wglab report's rows
        byte-identical."""
        rng = np.random.default_rng(seed)
        c = rng.integers(-2 * M, 2 * M, S)
        w = rng.random(S) + 0.1
        half = M // 2 + 1
        block = min(_PRODUCT_BLOCK, _SERIAL_MACS // (4 * S))
        T = 1 << ((half - 1).bit_length() + 1) // 2
        while T > 1 and 16 * T > block:
            T //= 2
        rows, step = -(-half // T), max(1, block // T)
        assert _half_grid_shape(S, M) == (half, T, rows, step)
        phases = _phase_table(c, T, 1, M).T
        E = np.empty((2 * S, T), dtype=complex)
        E[0::2] = phases
        np.negative(phases.imag, out=E[1::2].real)
        E[1::2].imag = phases.real
        E = E.view(float)
        blocks = _phase_table(c, -(-rows // step), step * T, M)
        blocks *= w
        within = _phase_table(c, step, T, M)
        want = []
        for i, u0 in enumerate(range(0, rows, step)):
            A = (blocks[i : i + 1, None] * within).reshape(-1, S)[: rows - u0]
            want.append((u0 * T, (A.view(float) @ E).view(complex).ravel()[: half - u0 * T]))
        # a chunk is valid until the next is drawn: each is copied
        chunks = spectral._half_grid_product(spectral._product_tables(c, w, M))
        got = [(o, j0, X.copy()) for o, j0, (X,) in chunks]
        assert {o for o, _, _ in got} == {0}
        got = [(j0, X) for _, j0, X in got]
        assert [j0 for j0, _ in got] == [j0 for j0, _ in want]
        for (_, X), (_, Y) in zip(got, want):
            assert X.tobytes() == Y.tobytes()

    def test_phase_bound_refuses_before_allocating(self):
        seq = WeightedSequence.spike(64)
        M = 1 << 31  # 2 M^2 = 2^63
        assert _use_product(1, M)
        tracemalloc.start()
        try:
            for call in (pseudorandom_gauge, lambda s, m: restriction_norm(s, 6.5, m)):
                with pytest.raises(LimitExceededError, match="2M\\^2 < 2\\^63"):
                    call(seq, M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _family_member(N, M, kind, S, seed):
    """A sparse sequence of min(S, the product path's bound) random points,
    a dense one (the rfft path), or nu at w = 2, k = 2 and the unit b
    picked by seed (W > 1, so the gauge records sigma)."""
    if kind == "nu":
        W = compute_W(2, 2)
        bs = power_residues(W, 2).units.tolist()
        return build_nu(W, bs[seed % len(bs)], 2, N)
    rng = np.random.default_rng(seed)
    vals = np.zeros(N)
    if kind == "dense":
        vals[:] = 0.1 + rng.random(N)
    else:
        S = min(S, max(s for s in range(1, 65) if _use_product(s, M)))
        vals[rng.choice(N, S, replace=False)] = 0.1 + 10 * rng.random(S)
    return WeightedSequence(values=vals, kind="custom", W=0, b=0, k=0)


def _gauge_bits(rep):
    return rep.D.hex(), rep.argmax_j, rep.argmax_alpha.hex(), rep.sigma


# at M = 2^18: six product members in three block shapes of two T, S = 64
# twice and S = 62 (T = 128), S = 10 twice with the nu (T = 512), all
# reading one kernel formed in the shape of S = 1; and one dense rfft member
_SHAPES_EXAMPLE = [
    ("sparse", 64, 1),
    ("sparse", 10, 2),
    ("sparse", 64, 3),
    ("dense", 0, 4),
    ("sparse", 10, 5),
    ("nu", 0, 3),
    ("sparse", 62, 6),
]


def _gauged_with_one_kernel(seqs, M):
    """pseudorandom_gauge of each sequence, all of one N, in the order
    given, with one DirichletKernel, as wglab report gauges its residues."""
    kernel = DirichletKernel(seqs[0].N, M)
    return [pseudorandom_gauge(seq, M, kernel) for seq in seqs]


class TestGaugeFamily:
    """Gauges that share a DirichletKernel against one lone
    pseudorandom_gauge call per member."""

    @settings(max_examples=40, deadline=None)
    @given(
        N=st.integers(128, 2048),
        base=st.sampled_from([1 << 15, 1 << 18]),
        extra=st.integers(0, 4096),
        members=st.lists(
            st.tuples(
                st.sampled_from(["sparse", "sparse", "dense", "nu"]),
                st.one_of(st.integers(1, 64), st.integers(58, 64)),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @example(N=512, base=1 << 18, extra=0, members=_SHAPES_EXAMPLE)
    @example(N=777, base=1 << 18, extra=1, members=_SHAPES_EXAMPLE)
    # one T, and at S = 1 a last block of one row (bin M/2)
    @example(N=128, base=1 << 15, extra=2, members=[("sparse", 1, 0), ("sparse", 16, 0)])
    def test_members_equal_single_calls_bit_for_bit(self, N, base, extra, members):
        M = base + extra  # odd M too
        seqs = [_family_member(N, M, *member) for member in members]
        family = _gauged_with_one_kernel(seqs, M)
        singles = [pseudorandom_gauge(seq, M) for seq in seqs]
        assert [_gauge_bits(rep) for rep in family] == [_gauge_bits(rep) for rep in singles]

    def test_example_holds_several_shapes_of_one_T_and_both_paths(self):
        M = 1 << 18
        seqs = [_family_member(512, M, *member) for member in _SHAPES_EXAMPLE]
        sizes = [int(np.count_nonzero(seq.values)) for seq in seqs]
        shapes = [_half_grid_shape(S, M) for S in sizes if _use_product(S, M)]
        assert len(shapes) == 6 and len(set(shapes)) == 3
        assert len({T for _, T, _, _ in shapes}) == 2
        assert any(not _use_product(S, M) for S in sizes)

    @settings(max_examples=60, deadline=None)
    @given(
        M=st.one_of(
            st.sampled_from([1 << 15, 32770, 99999, (1 << 18) + 1, 1 << 20]),
            st.integers(1 << 15, 1 << 20),
        ),
        N=st.one_of(st.integers(1, 8), st.integers(1, 1 << 19)),
    )
    @example(M=1 << 22, N=7)
    @example(M=1330465, N=2)
    def test_bins_equal_the_closed_form(self, M, N):
        """The bins against sin(pi N j / M) / sin(pi j / M), N at j = 0, in
        extended precision from the exact numerators N j mod 2M and j mod
        2M: within 4 ulps of N, plus the reference's own rounding.  The
        worst found was 3.5 ulps, at N = 2, M = 1,330,465."""
        N = min(N, M // 2)
        bins = DirichletKernel(N, M).bins
        assert bins.shape == (M // 2 + 1,) and bins[0] == N
        j = np.arange(1, M // 2 + 1, dtype=np.int64)
        pi = 4 * np.arctan(np.longdouble(1))
        top = np.sin(pi * (N * j % (2 * M)).astype(np.longdouble) / M)
        bottom = np.sin(pi * (j % (2 * M)).astype(np.longdouble) / M)
        tol = 4 * (np.finfo(float).eps + np.finfo(np.longdouble).eps) * N
        assert np.abs(bins[1:] - top / bottom).max() <= tol

    def test_bins_formed_once_a_kernel(self, monkeypatch):
        calls = []
        real = spectral._dirichlet_sines

        def counted(N, M, rows, T):
            calls.append((N, M, rows, T))
            return real(N, M, rows, T)

        monkeypatch.setattr(spectral, "_dirichlet_sines", counted)
        N, M = 512, 1 << 18
        kernel = DirichletKernel(N, M)
        assert calls == []
        seqs = [_family_member(N, M, *member) for member in _SHAPES_EXAMPLE]
        for seq in seqs:
            pseudorandom_gauge(seq, M, kernel)
        assert kernel.bins is kernel.bins
        _, T, rows, _ = _half_grid_shape(1, M)
        assert calls == [(N, M, rows, T)]
        # the dense member takes the rfft and forms no bins
        pseudorandom_gauge(seqs[3], M)
        assert len(calls) == 1

    def test_other_N_or_M_refused(self):
        kernel = DirichletKernel(64, 1 << 16)
        with pytest.raises(ValueError, match="N = 64 on M = 65536 cannot gauge N = 65"):
            pseudorandom_gauge(WeightedSequence.spike(65), 1 << 16, kernel)
        with pytest.raises(ValueError, match="cannot gauge N = 64 on M = 32768"):
            pseudorandom_gauge(WeightedSequence.spike(64), 1 << 15, kernel)

    @pytest.mark.parametrize("N, shapes", [(1 << 14, 1), (1 << 15, 6)])
    def test_kernel_tables_once_per_T(self, monkeypatch, N, shapes):
        """The 54 residues of a report at N = 2^14 (one block shape) and at
        2^15 (six shapes), on M = 8N, share one kernel, so its tables at c
        = (N, 1) are one pair, as one lone gauge forms."""
        W, M = compute_W(3, 2), 8 * N
        nus = [build_nu(W, b, 2, N) for b in power_residues(W, 2).units.tolist()]
        sizes = [int(np.count_nonzero(nu.values)) for nu in nus]
        assert len(nus) == 54 and all(_use_product(S, M) for S in sizes)
        assert len({_half_grid_shape(S, M) for S in sizes}) == shapes
        assert len({_half_grid_shape(S, M)[1] for S in sizes}) == 1
        kernel_tables = []
        real = spectral._phase_table

        def counted(c, count, step, M):
            if isinstance(c, tuple) and c == (N, 1):
                kernel_tables.append((count, step))
            return real(c, count, step, M)

        monkeypatch.setattr(spectral, "_phase_table", counted)
        _gauged_with_one_kernel(nus, M)
        assert len(kernel_tables) == 2
        kernel_tables.clear()
        pseudorandom_gauge(nus[0], M)
        assert len(kernel_tables) == 2


def _gauge_in_product_shape(nu, M):
    """D and argmax_j of pseudorandom_gauge with the Dirichlet kernel formed
    as it was before one kernel served every support size: block by block
    in the product's own shape, and dropped."""
    N = nu.N
    idx = support_index(nu.values)
    _, T, rows, _ = _half_grid_shape(len(idx), M)
    sines = spectral._dirichlet_sines(N, M, rows, T)
    peak, j = -1.0, 0
    for _, j0, (X,) in spectral._half_grid_product(
        spectral._product_tables(2 * idx + 1 - N, nu.values[idx], M)
    ):
        work = np.empty((2, -(-len(X) // T) + 1, T))
        X.real -= spectral._dirichlet_block(N, T, sines, j0, len(X), work)
        mag = np.abs(X)
        k = int(mag.argmax())
        if mag[k] > peak:
            peak, j = float(mag[k]), j0 + k
    return peak / N, j


class TestKernelInProductShape:
    """The one kernel, formed in the shape of S = 1, against the kernel it
    replaced, formed in the shape of each gauge's product."""

    def test_report_gauges_bit_for_bit(self):
        """The 54 report gauges at N = 2^15, M = 2^18, in six shapes."""
        W, N, M = compute_W(3, 2), 1 << 15, 1 << 18
        nus = [build_nu(W, b, 2, N) for b in power_residues(W, 2).units.tolist()]
        assert len({_half_grid_shape(len(support_index(nu.values)), M) for nu in nus}) == 6
        got = [(rep.D.hex(), rep.argmax_j) for rep in _gauged_with_one_kernel(nus, M)]
        want = [(D.hex(), j) for D, j in (_gauge_in_product_shape(nu, M) for nu in nus)]
        assert got == want

    def test_transference_gauge_bit_for_bit(self):
        """The gauge of nu at w = 3, k = 2, b = 1, N = 2^19 on M = 2^22."""
        nu = build_nu(compute_W(3, 2), 1, 2, 1 << 19)
        rep = pseudorandom_gauge(nu)
        assert rep.M == 1 << 22 and _use_product(len(support_index(nu.values)), rep.M)
        D, j = _gauge_in_product_shape(nu, rep.M)
        assert (rep.D.hex(), rep.argmax_j) == (D.hex(), j)

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(64, 4096),
        M=st.one_of(st.integers(1 << 15, 1 << 19).map(lambda m: m | 1), st.just(32770)),
        S=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sparse_sequences_on_odd_grids(self, N, M, S, seed):
        seq = _family_member(N, M, "sparse", S, seed)
        rep = pseudorandom_gauge(seq, M)
        D, j = _gauge_in_product_shape(seq, M)
        assert abs(rep.D - D) <= 4e-16 * D
        assert rep.argmax_j == j


class TestGaugeOrder:
    """wglab report gauges the residues of each N in order of b, with one
    kernel; the product's block shape still changes with S."""

    @pytest.mark.parametrize(
        "M", [1 << e for e in range(15, 25)] + [32770, 3 << 15, (1 << 18) + 1, (1 << 22) + 5]
    )
    def test_shape_never_returns_as_S_grows(self, M):
        """_half_grid_shape as S grows: a block's cells, then T and, at one
        T, the rows of a block never grow, so a shape once left never comes
        back."""
        shapes = [_half_grid_shape(S, M) for S in range(513) if _use_product(S, M)]
        runs = [shape for i, shape in enumerate(shapes) if i == 0 or shape != shapes[i - 1]]
        assert len(runs) == len(set(runs))

    def test_report_forms_one_kernel_per_N(self, monkeypatch, tmp_path):
        """wglab report at w = 3, k = 2, N = 2^14 and 2^15 forms the
        kernel's bins once an N, with its 108 gauges called through
        cli.pseudorandom_gauge in order of b and the rows in order of b."""
        formed, gauges = [], []
        sines, gauge = spectral._dirichlet_sines, cli.pseudorandom_gauge

        def counted_sines(N, M, rows, T):
            formed.append(N)
            return sines(N, M, rows, T)

        def counted_gauge(nu, M=None, kernel=None):
            gauges.append(nu.b)
            return gauge(nu, M, kernel)

        monkeypatch.setattr(spectral, "_dirichlet_sines", counted_sines)
        monkeypatch.setattr(cli, "pseudorandom_gauge", counted_gauge)
        cfg = tmp_path / "report.cfg"
        cfg.write_text("k=2\nw=3\nn_list=16384,32768\n", encoding="utf-8")
        assert cli.main(["report", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert formed == [1 << 14, 1 << 15]
        units = power_residues(compute_W(3, 2), 2).units.tolist()
        assert gauges == units * 2
        for N in (1 << 14, 1 << 15):
            rows = (tmp_path / "out" / f"gauge_N{N}.jsonl").read_text().splitlines()
            assert [json.loads(row)["b"] for row in rows] == units


class TestPhaseTable:
    """_phase_table, the one generator of the product path's phases,
    against _cos_sin of the same exact numerators computed directly."""

    @settings(max_examples=200, deadline=None)
    @given(
        M=st.one_of(
            st.integers(1, 64), st.integers(1, 1 << 20), st.integers((1 << 31) - 64, (1 << 31) - 1)
        ),
        S=st.integers(1, 5),
        count=st.integers(1, 300),
        step=st.integers(0, 1 << 33),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_phases(self, M, S, count, step, seed):
        # counts that are no square, step * count far past 2M, odd M, and
        # M up to 2^31 - 1, where a product of two residues mod 2M would
        # overflow int64
        rng = random.Random(seed)
        c = [rng.randint(-4 * M, 4 * M) for _ in range(S)]
        p = np.array([[cs * m * step % (2 * M) for cs in c] for m in range(count)], dtype=np.int64)
        cos, sin = _cos_sin(p, M)
        table = _phase_table(c, count, step, M)
        assert table.shape == (count, S)
        # a few ulps of an angle below 2 pi, the rounding of each direct phase
        assert np.abs(table - (cos - 1j * sin)).max() <= 4 * np.spacing(2 * np.pi)

    def test_gauge_evaluates_few_cos_sin(self, monkeypatch):
        """One N = 2^19, w = 3 gauge (S = 55 on M = 2^22) took cos and sin
        of 481,593 numerators with each row of A and E formed directly."""
        used = []
        real = spectral._cos_sin

        def counted(p, M):
            used.append(np.size(p))
            return real(p, M)

        monkeypatch.setattr(spectral, "_cos_sin", counted)
        pseudorandom_gauge(build_nu(compute_W(3, 2), 1, 2, 2**19))
        assert 20 * sum(used) <= 481_593


def _bits(c):
    return struct.pack("<dd", c.real, c.imag)


def _old_sstar(q, a, Wv, k, b, z):
    """exp_sum_Sstar's loop before the shared complete sum."""
    total = 0j
    for r in range(q):
        t = z + Wv * r
        if math.gcd(t, Wv * q) != 1:
            continue
        T = (t**k - b) // Wv
        total += np.exp(2j * np.pi * ((a * T) % q) / q)
    return complex(total)


def _old_diamond(m, am, Wv, k, z):
    """The b-free loop exp_sum_factor used before the shared complete sum."""
    total = 0j
    zk = z**k
    for r in range(m):
        t = z + Wv * r
        if math.gcd(t, m) != 1:
            continue
        poly = (t**k - zk) // Wv
        total += np.exp(2j * np.pi * ((am * poly) % m) / m)
    return complex(total)


def _old_model(q, a, beta, W, k, b, N):
    """major_arc_model with sigma counted from its own root list."""
    Wv = W.value
    zs = [z for z in range(1, Wv + 1) if math.gcd(z, Wv) == 1 and pow(z, k, Wv) == b % Wv]
    Wq = W.scaled_by(FactoredModulus.from_value(q))
    coef = W.euler_phi / (Wq.euler_phi * len(zs))
    total = sum(_old_sstar(q, a, Wv, k, b, z) for z in zs)
    return coef * total * integral_I(beta, N)


class TestOneCompleteSum:
    """exp_sum_Sstar, exp_sum_factor and major_arc_model are bit-equal to
    the separate loops that the one complete sum replaced."""

    @pytest.mark.parametrize("w, k", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_sums_equal_old_loops(self, w, k):
        W = compute_W(w, k)
        Wv = W.value
        units = [z for z in range(1, Wv) if math.gcd(z, Wv) == 1]
        zs = units[:: max(1, len(units) // 5)]
        checked = 0
        for q in (*range(1, 25), 36, 60, 64, 81, 100):
            coprime = [a for a in range(q) if math.gcd(a, q) == 1]
            for a in {*coprime[:2], coprime[-1]}:
                for z in zs:
                    b = pow(z, k, Wv)
                    for given_b in (b, b + Wv):
                        got = exp_sum_Sstar(q, a, W, k, given_b, z).value
                        assert _bits(got) == _bits(_old_sstar(q, a, Wv, k, given_b, z))
                    parts = exp_sum_factor(q, a, W, k, z)
                    assert _bits(parts.direct) == _bits(_old_diamond(q, a, Wv, k, z))
                    assert _bits(parts.s_u) == _bits(_old_diamond(parts.u, parts.a1, Wv, k, z))
                    assert _bits(parts.s_v) == _bits(_old_diamond(parts.v, parts.a2, Wv, k, z))
                    checked += 1
        assert checked >= 400

    @pytest.mark.parametrize("w, k", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_model_equals_old_root_count(self, w, k):
        W = compute_W(w, k)
        bs = power_residues(W, k).units.tolist()
        bs = bs[:: max(1, len(bs) // 3)]
        qs = range(1, 13) if W.value < 10**4 else (1, 2, 3, 4, 6)
        for b in bs:
            for q in qs:
                for a in (a for a in range(q) if math.gcd(a, q) == 1):
                    for beta in (0.0, 1 / 9000):
                        got = major_arc_model(q, a, beta, W, k, b, 4096)
                        assert _bits(got) == _bits(_old_model(q, a, beta, W, k, b, 4096))

    def test_model_rejects_non_unit_b(self):
        with pytest.raises(ValueError, match=r"^b = 3 is not a unit k-th power residue mod 16$"):
            major_arc_model(2, 1, 0.0, compute_W(2, 2), 2, 3, 4096)


class TestLoneKernel:
    """A gauge given no DirichletKernel forms each product's bins alone
    (DirichletKernel.block): rows in the shape of S = 1, read from an
    offset where the product's T is the smaller, and no bins array."""

    @pytest.mark.parametrize(
        "N, M, S",
        [
            (1 << 19, 1 << 22, 55),
            (1 << 15, 1 << 18, 16),
            (1 << 17, 1 << 20, 30),
            (1000, 1 << 15, 3),
            ((1 << 19) + 3, (1 << 22) + 6, 40),
            (1 << 14, 1 << 18, 64),
        ],
    )
    def test_blocks_equal_the_bins_bit_for_bit(self, N, M, S):
        half, T, _, C = _half_grid_shape(S, M)
        lone = DirichletKernel(N, M)
        # a block is valid until the next: each is copied
        blocks = [lone.block(j0, min(C * T, half - j0)).copy() for j0 in range(0, half, C * T)]
        assert "bins" not in vars(lone)
        assert np.concatenate(blocks).tobytes() == DirichletKernel(N, M).bins.tobytes()

    def test_some_blocks_start_inside_a_kernel_row(self):
        """At S = 64 on 2^18 points a product's rows are a quarter of the
        kernel's, and its 30 rows of 128 bins start every other block 256
        bins into a kernel row."""
        half, T, _, C = _half_grid_shape(64, 1 << 18)
        T1 = _half_grid_shape(1, 1 << 18)[1]
        assert 4 * T == T1 and any(j0 % T1 for j0 in range(0, half, C * T))

    def test_lone_gauge_holds_no_bins(self):
        nu = build_nu(compute_W(3, 2), 1, 2, 1 << 19)
        M = 1 << 22
        pseudorandom_gauge(nu, M)
        tracemalloc.start()
        try:
            lone = pseudorandom_gauge(nu, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (M // 2 + 1) / 2
        held = pseudorandom_gauge(nu, M, DirichletKernel(nu.N, M))
        assert _gauge_bits(lone) == _gauge_bits(held)


def _dense_values(kind, N, seed):
    rng = np.random.default_rng(seed)
    if kind == "zeros":
        return np.zeros(N)
    if kind == "indicator":
        return np.ones(N)
    if kind == "random":
        return rng.random(N)
    vals = np.zeros(N)
    at = rng.choice(N, min(N, 1 + seed % 40), replace=False)
    vals[at] = 0.5 + rng.random(len(at))
    if kind == "negzero":
        vals[rng.choice(N, N // 2, replace=False)] = -0.0
    elif kind == "nan":
        vals[at[0]] = np.nan
    return vals


class TestSupportStorage:
    """A sequence holds its support and the weights there: dense weights
    are converted once (support_index), and every spectral consumer reads
    the pair."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["zeros", "negzero", "nan", "random", "indicator", "sparse"]),
        N=st.integers(1, 3000),
        grid=st.sampled_from([0, 1 << 15]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dense_and_pair_agree_bit_for_bit(self, kind, N, grid, seed):
        """On both paths: 1 << 15 points take the product for up to 22
        support points, the default grid of 8 (a power of two >= N) the
        rfft for any of these N."""
        vals = _dense_values(kind, N, seed)
        dense = WeightedSequence(values=vals, kind="custom", W=0, b=0, k=0)
        idx = support_index(vals)
        pair = WeightedSequence.from_support(N, idx, vals[idx], "custom", 0, 0, 0)
        assert np.array_equal(dense.values, vals, equal_nan=True)
        M = max(grid, 4 * N)

        def bits(seq):
            gauge = pseudorandom_gauge(seq, M)
            norm = restriction_norm(seq, 6.5, M)
            conv = transference_gauge([seq, seq])
            return (
                seq.values.tobytes(),
                dft_spectrum(seq, M).values.tobytes(),
                gauge.D.hex(),
                gauge.argmax_j,
                norm.norm.hex(),
                transform_at(seq, 0.2137),
                conv.values.tobytes(),
            )

        got = bits(dense)
        assert repr(got) == repr(bits(pair))
        if kind != "nan":
            # the rfft path against the parent's dense zero padding
            padded = np.zeros(M)
            padded[1 : N + 1] = vals
            want = np.fft.rfft(padded)
            if not _use_product(len(idx), M):
                half = np.conj(dft_spectrum(dense, M).values[: M // 2 + 1])
                assert np.array_equal(half, want)

    def test_builders_hold_no_dense_array(self):
        W = compute_W(3, 2)
        nu = build_nu(W, 1, 2, 1 << 15)
        assert set(vars(nu)) == {"N", "index", "weights", "kind", "W", "b", "k", "subset"}
        assert nu.index.dtype == np.int64 and len(nu.index) == len(nu.weights) < 100
        assert np.array_equal(nu.index, support_index(nu.values))
        assert nu.total() == math.fsum(nu.values)

    def test_product_path_never_reads_values(self, monkeypatch):
        """Gauges, norms, spectra, transforms and the convolution gauge of
        builder outputs read index and weights, never the N-array."""
        W, N = compute_W(3, 2), 1 << 14
        nu = build_nu(W, 1, 2, N)
        sub = gen_subset(SubsetSpec.bernoulli(0.97, 5), 5000)
        f_list = [build_f(W, b, 2, N, sub) for b in (1, 1, 25, 49)]
        reads = []
        values = WeightedSequence.values

        def counted(seq):
            reads.append(seq.N)
            return values.fget(seq)

        monkeypatch.setattr(WeightedSequence, "values", property(counted))
        M = 8 * N
        assert _use_product(len(nu.index), M)
        pseudorandom_gauge(nu)
        pseudorandom_gauge(nu, M, DirichletKernel(N, M))
        restriction_norm(nu, 6.5)
        dft_spectrum(nu)
        transform_at(nu, 0.25)
        major_arc_residual(nu, 4, 1)
        transference_gauge(f_list)
        nu.total(), nu.mean(), nu.value_at(18), nu.support()
        assert reads == []


_BLAS_PROBE = """
import hashlib
from wglab.core_arith import compute_W
from wglab.majorant import build_nu
from wglab.spectral import dft_spectrum, pseudorandom_gauge, restriction_norm
nu = build_nu(compute_W(3, 2), 1, 2, 1 << 17)
M = 1 << 20
g = pseudorandom_gauge(nu, M)
r = restriction_norm(nu, 6.5, M)
X = dft_spectrum(nu, M).values
print(g.D.hex(), g.argmax_j, r.norm.hex(), hashlib.sha256(X.tobytes()).hexdigest())
"""


def test_grouped_products_do_not_depend_on_blas_threads():
    """A gauge, a norm and a spectrum on 2^20 points, above _GROUPED_ABOVE
    where the products may run on OpenBLAS threads, give the same bytes in
    a process held to one thread and in one left to the default (the
    thread variables removed)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    assert 1 << 20 > _GROUPED_ABOVE
    src = str(Path(spectral.__file__).resolve().parent.parent)
    base = {**os.environ, "PYTHONPATH": src}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS"):
        base.pop(var, None)
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        for env in (base, {**base, "OPENBLAS_NUM_THREADS": "1"})
    ]
    assert outputs[0] and outputs[0] == outputs[1]


_KERNEL_PROBE = """
import ctypes, glob, os, sys
import numpy as np
from wglab.core_arith import compute_W
from wglab.majorant import build_nu
from wglab.spectral import dft_spectrum, pseudorandom_gauge
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) if libs else None
if corename is None:
    print("")
    sys.exit()
corename.restype = ctypes.c_char_p
nu = build_nu(compute_W(3, 2), 1, 2, 1 << 17)
M = 1 << 20
np.save(sys.argv[1], dft_spectrum(nu, M).values)
print(corename().decode(), pseudorandom_gauge(nu, M).argmax_j)
"""


def test_spectrum_within_ulps_on_another_blas_kernel(tmp_path):
    """Byte-identity holds for one BLAS kernel only: under
    OPENBLAS_CORETYPE=Prescott (SSE3, no FMA) the product path's bins of
    nu's spectrum at N = 2^17 on 2^20 points move, but by at most 4 ulps
    of max|X|, and the gauge's argmax stays.  Skipped where the bundled
    OpenBLAS cannot report its core or does not take the one asked for."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(spectral.__file__).resolve().parent.parent)
    base = {**os.environ, "PYTHONPATH": src}
    base.pop("OPENBLAS_CORETYPE", None)
    runs = []
    for name, env in (("default", base), ("prescott", {**base, "OPENBLAS_CORETYPE": "Prescott"})):
        path = tmp_path / f"{name}.npy"
        out = subprocess.run(
            [sys.executable, "-c", _KERNEL_PROBE, str(path)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout.split()
        if not out:
            pytest.skip("the bundled OpenBLAS does not report its core")
        runs.append((out[0], int(out[1]), np.load(path)))
    (core, argmax, X), (other, other_argmax, Y) = runs
    if other == core:
        pytest.skip(f"OPENBLAS_CORETYPE=Prescott left the core at {core}")
    assert other_argmax == argmax
    assert np.abs(Y - X).max() <= 4 * np.finfo(float).eps * np.abs(X).max()


def _product_bins(c, w, M, dtype=float):
    """Every product-path bin of _half_grid_product in dtype, as one array."""
    chunks = spectral._half_grid_product(spectral._product_tables(c, w, M), dtype=dtype)
    return np.concatenate([X.copy() for _, _, (X,) in chunks])


# grids on both sides of _GROUPED_ABOVE, even and odd
_SCREEN_GRIDS = st.one_of(
    st.integers(1 << 15, _GROUPED_ABOVE),
    st.integers(_GROUPED_ABOVE + 1, 1 << 21),
    st.sampled_from([_GROUPED_ABOVE, _GROUPED_ABOVE + 1, 1 << 21, (1 << 21) - 1]),
)


def _screened_member(S, M, seed, scale, N=None):
    """min(S, the product path's bound) random points among N (M // 8 by
    default), weights 0.1..10 times scale."""
    N = N or M // 8
    S = min(S, max(s for s in range(1, 65) if _use_product(s, M)), N)
    rng = np.random.default_rng(seed)
    vals = np.zeros(N)
    vals[rng.choice(N, S, replace=False)] = (0.1 + 10 * rng.random(S)) * scale
    return WeightedSequence(values=vals, kind="custom", W=0, b=0, k=0)


class TestProductErrorScale:
    """The product path's bins are off by ulps of sum |w|, not of |X|."""

    @settings(max_examples=25, deadline=None)
    @given(S=st.integers(1, 64), M=_SCREEN_GRIDS, seed=st.integers(0, 2**32 - 1))
    @example(S=55, M=1 << 21, seed=0)
    def test_bins_within_ulps_of_the_weight_sum(self, S, M, seed):
        """Against np.fft.rfft, weights from 1e-6 to 1e6: within 4 (2S +
        log2 M) ulps of sum |w|, the product's dot products of 2S terms of
        total size sum |w| and the rfft's log2 M stages.  The worst of 150
        random draws was 1.63 (2S + log2 M) ulps."""
        S = min(S, max(s for s in range(1, 65) if _use_product(s, M)))
        rng = np.random.default_rng(seed)
        index = np.sort(rng.choice(M // 2, S, replace=False))
        w = 10.0 ** rng.uniform(-6, 6, S)
        padded = np.zeros(M)
        padded[index + 1] = w
        err = np.abs(_product_bins(2 * index + 2, w, M) - np.fft.rfft(padded)).max()
        assert err <= 4 * (2 * S + math.log2(M)) * 2.0**-53 * w.sum()


def _unscreened_gauge(seq, M, held):
    """D and argmax_j of pseudorandom_gauge's product path before the
    screen: every product in double precision, less a held kernel's bins
    or a lone kernel's blocks."""
    N = seq.N
    kernel = DirichletKernel(N, M)
    bins_at = (lambda j0, n: kernel.bins[j0 : j0 + n]) if held else kernel.block
    tables = spectral._product_tables(2 * seq.index + 1 - N, seq.weights, M)
    peak, j = -1.0, 0
    for _, j0, (X,) in spectral._half_grid_product(tables):
        X.real -= bins_at(j0, len(X))
        mag = np.abs(X)
        k = int(mag.argmax())
        if mag[k] > peak:
            peak, j = float(mag[k]), j0 + k
    return peak / N, j


class TestScreen:
    """pseudorandom_gauge screens every product in single precision and
    confirms in double those within 2B of the largest screened maximum."""

    def assert_screen_keeps_the_bits(self, seq, M, held):
        kernel = DirichletKernel(seq.N, M) if held else None
        rep = pseudorandom_gauge(seq, M, kernel)
        D, j = _unscreened_gauge(seq, M, held)
        assert (rep.D.hex(), rep.argmax_j) == (D.hex(), j)
        old = dataclasses.replace(rep, D=D, argmax_j=j, argmax_alpha=j / M)
        assert _json_line(rep.to_dict()) == _json_line(old.to_dict())

    @settings(max_examples=40, deadline=None)
    @given(
        S=st.integers(1, 64),
        M=_SCREEN_GRIDS,
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 1.0, 1e30, 1e-30, 1e38]),
        held=st.booleans(),
    )
    # last products of one row, above and below _GROUPED_ABOVE
    @example(S=64, M=_GROUPED_ABOVE + 1, seed=1, scale=1.0, held=False)
    @example(S=1, M=1 << 15, seed=2, scale=1.0, held=True)
    @example(S=55, M=1 << 21, seed=3, scale=1e-30, held=False)
    @example(S=20, M=(1 << 18) + 1, seed=4, scale=1e30, held=True)
    # sum |w| past float32's range: every product is confirmed
    @example(S=30, M=1 << 20, seed=5, scale=1e38, held=True)
    def test_screened_gauge_equals_the_double_scan(self, S, M, seed, scale, held):
        self.assert_screen_keeps_the_bits(_screened_member(S, M, seed, scale), M, held)

    @pytest.mark.parametrize("held", [True, False])
    def test_maximum_in_two_products(self, held):
        """nu = 1 on the even n <= 64: |X - bins| reaches N/2 = 32 exactly
        at j = 0 and j = M/2, the first and the last of 18 products; the
        first is the argmax."""
        N, M = 64, 1 << 18
        vals = np.zeros(N)
        vals[1::2] = 1.0
        seq = WeightedSequence(values=vals, kind="custom", W=0, b=0, k=0)
        kernel = DirichletKernel(N, M)
        tables = spectral._product_tables(2 * seq.index + 1 - N, seq.weights, M)
        peaks = [
            float(np.abs(X - kernel.bins[j0 : j0 + len(X)]).max())
            for _, j0, (X,) in spectral._half_grid_product(tables)
        ]
        assert len(peaks) == 18 and peaks[0] == peaks[-1] == max(peaks) == 32.0
        assert peaks.count(32.0) == 2
        self.assert_screen_keeps_the_bits(seq, M, held)
        assert pseudorandom_gauge(seq, M).argmax_j == 0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("weights", [[1.0, float("nan")], [1.0, float("inf")], [1e39, 1.0]])
    def test_non_finite_screens_confirm_every_product(self, monkeypatch, weights):
        """A NaN, an infinite weight or a sum |w| past float32's range:
        every product in double, as before the screen."""
        N, M = 256, 1 << 16
        vals = np.zeros(N)
        vals[[3, 200]] = weights
        seq = WeightedSequence(values=vals, kind="custom", W=0, b=0, k=0)
        formed = _count_products(monkeypatch)
        rep = pseudorandom_gauge(seq, M)
        _, _, rows, C = _half_grid_shape(2, M)
        assert formed.count(np.complex128) == -(-rows // C) == 3
        D, j = _unscreened_gauge(seq, M, False)
        assert (rep.D.hex(), rep.argmax_j) == (D.hex(), j)

    @settings(max_examples=30, deadline=None)
    @given(
        S=st.integers(1, 64),
        M=_SCREEN_GRIDS,
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 1e-6, 1e6]),
    )
    def test_single_bins_within_the_bound(self, S, M, seed, scale):
        """At every bin the screen's single-precision |X - bins| is within
        B (_screen_bound) of the double one; the worst of 300 random draws
        came to 0.235 B, at S = 1."""
        N = int(np.random.default_rng(seed).integers(1, M // 2 + 1))
        seq = _screened_member(S, M, seed, scale, N)
        c, w = 2 * seq.index + 1 - N, seq.weights
        kernel = DirichletKernel(N, M)
        m64 = np.abs(_product_bins(c, w, M) - kernel.bins)
        m32 = np.abs(_product_bins(c, w, M, np.float32) - kernel.single_bins)
        bound = spectral._screen_bound(len(w), float(np.abs(w).sum()) + N)
        assert np.abs(m32 - m64).max() <= bound

    def test_screen_bins_are_the_double_bins_rounded(self):
        """A held kernel's single bins and a lone kernel's single blocks are
        the double bins rounded to float32, never formed in single."""
        N, M, S = 1 << 14, 1 << 18, 16
        half, T, _, C = _half_grid_shape(S, M)
        kernel = DirichletKernel(N, M)
        assert kernel.single_bins.tobytes() == kernel.bins.astype(np.float32).tobytes()
        lone = DirichletKernel(N, M)
        starts = range(0, half, C * T)
        blocks = [lone.single_block(j0, min(C * T, half - j0)).copy() for j0 in starts]
        assert np.concatenate(blocks).tobytes() == kernel.single_bins.tobytes()

    def test_band_keeps_its_edge(self):
        bound = 0.125
        peaks = [3.0, 3.0 - 2 * bound, 2.5, 3.0 - 2 * bound - 2.0**-50]
        assert spectral._screen_band(peaks, bound).tolist() == [0, 1]
        assert spectral._screen_band([1.0, float("nan")], bound) is None

    def test_nu_confirms_one_product(self, monkeypatch):
        """nu at w = 3, k = 2, b = 1, N = 2^17 on 2^20 points: of its 9
        products, one is formed again in double precision."""
        nu = build_nu(compute_W(3, 2), 1, 2, 1 << 17)
        formed = _count_products(monkeypatch)
        pseudorandom_gauge(nu, 1 << 20)
        assert formed.count(np.complex64) > 1
        assert formed.count(np.complex128) == 1


def _count_products(monkeypatch) -> list:
    """The dtype of each chunk _half_grid_product yields from now on."""
    formed = []
    real = spectral._half_grid_product

    def counted(*args, **kwargs):
        for chunk in real(*args, **kwargs):
            formed.append(chunk[2].dtype.type)
            yield chunk

    monkeypatch.setattr(spectral, "_half_grid_product", counted)
    return formed
