"""Tests for the semicircle-envelope rejection sampler."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sampler_reference as ref
from qortho.qcore import NonConvergenceError, ParameterError, support
from qortho.densities import density_ratio, fCN, fK, fN, fR, fT, fU
from qortho.sampler import (
    EnvelopeViolationError,
    _grid_sup,
    envelope_constant,
    ks_statistic,
    sample,
)


def dkw_bound(n, alpha=1e-9):
    """Dvoretzky-Kiefer-Wolfowitz bound on the KS distance at level alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


class TestEnvelopeConstant:
    def test_reference_value(self):
        # fN/fU peaks at x = 0, a grid node, at sum q^{k(k+1)/2} = 1.6416325...;
        # M adds D h^2/8 with D = 44.685 and h = 2e-4 (the series bound was 3.2435)
        peak = sum(0.5 ** (k * (k + 1) // 2) for k in range(12))
        assert envelope_constant(fN(0.5)) == pytest.approx(1.6416327841, abs=1e-10)
        assert envelope_constant(fN(0.5)) - peak == pytest.approx(44.685224 * 5e-9, rel=1e-6)

    def test_q_zero_is_unity(self):
        # at q=0 the target IS the semicircle
        assert envelope_constant(fN(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_q(self):
        ms = [envelope_constant(fN(q)) for q in (0.0, 0.3, 0.5, 0.7)]
        assert all(b > a for a, b in zip(ms, ms[1:]))

    @pytest.mark.parametrize("q", [-0.75, 0.0, 0.5, 0.85, 0.9])
    def test_dominates_and_stays_tight(self, q):
        # M against the ratio on a 160 001-point grid, 16 points per interval of
        # the sampler's own: above every value, and within 5% of the largest
        L = support(q).radius
        x = np.linspace(-L, L, 160_001)
        targets = [fN(q)] + [fCN(y * L, rho, q) for rho in (0.77, -0.77, 0.3)
                             for y in (0.0, 0.3, 0.9)]
        for dens in targets:
            M = envelope_constant(dens)
            top = float(np.max(density_ratio(dens, fU(q), x)))
            assert top <= M <= 1.05 * top, (dens, M, top)

    @pytest.mark.parametrize("y,rho,q", [
        # gamma_2 = rho^2 (1-q)(y^2-1) - q = 0: with the zero terms at n = 0 and
        # 1 this one zero ended the slack sum at D = 0, and M fell below the ratio
        (math.sqrt(1 + 0.2 / (0.77 ** 2 * 0.8)), 0.77, 0.2),
        # near y = 0 every odd gamma_n is 0 or tiny, and gamma_2 = 0 at this q
        (0.0, 0.5, -1 / 3),
        (1e-9, 0.5, -1 / 3),
        # |rho| near 1: D settles past n = 400, and D h^2/8 is most of M
        (0.0, 0.95, 0.5),
    ])
    def test_a_zero_or_slow_coefficient_keeps_its_slack(self, y, rho, q):
        dens = fCN(y, rho, q)
        L = support(q).radius
        top = float(np.max(density_ratio(dens, fU(q), np.linspace(-L, L, 160_001))))
        M = envelope_constant(dens)
        assert top <= M <= (2.5 if rho > 0.9 else 1.05) * top
        assert M > _grid_sup(dens)
        res = sample(dens, 10, seed=1, batch=256)
        assert res.samples.shape == (10,) and res.envelope == M

    def test_a_stalled_series_is_refused(self):
        # at rho = 0.999 sum |gamma_n| U_n''(1) has not settled by n = 4095;
        # the 1.05 sup fallback it replaces let a proposal exceed M
        dens = fCN(2.8, 0.999, 0.5)
        with pytest.raises(NonConvergenceError, match="the fcn series .* by n = 4095$"):
            envelope_constant(dens)
        with pytest.raises(NonConvergenceError):
            sample(dens, 10, batch=256)


class TestProposalStream:
    def test_semicircle_law(self):
        # at q=0 the target is fU itself and M=1, so every proposal is kept
        # and the samples are the raw proposal stream
        n = 120_000
        res = sample(fN(0.0), n, seed=5)
        assert res.acceptance_rate == 1.0
        assert np.all(np.abs(res.samples) <= support(0.0).radius)
        assert ks_statistic(res.samples, fU(0.0)) < dkw_bound(n)


class TestSample:
    def test_deterministic(self):
        a = sample(fN(0.5), 1000, seed=7)
        b = sample(fN(0.5), 1000, seed=7)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_seed_changes_stream(self):
        a = sample(fN(0.5), 1000, seed=7)
        b = sample(fN(0.5), 1000, seed=8)
        assert not np.array_equal(a.samples, b.samples)

    def test_support_respected(self):
        q = 0.3
        L = support(q).radius
        res = sample(fN(q), 5000, seed=1)
        assert res.samples.size == 5000
        assert np.all(np.abs(res.samples) <= L)

    def test_acceptance_near_reciprocal_envelope(self):
        res = sample(fN(0.5), 50_000, seed=42)
        expect = 1.0 / res.envelope
        sigma = math.sqrt(expect * (1.0 - expect) / res.n_proposed)
        assert abs(res.acceptance_rate - expect) < 4.0 * sigma

    @pytest.mark.parametrize("q", [0.3, 0.7])
    def test_ks_against_target(self, q):
        n = 120_000
        res = sample(fN(q), n, seed=42)
        d = ks_statistic(res.samples, fN(q))
        assert d < dkw_bound(n)

    def test_conditional_target(self):
        q = 0.4
        L = support(q).radius
        dens = fCN(0.3 * L, 0.5, q)
        n = 120_000
        res = sample(dens, n, seed=3)
        d = ks_statistic(res.samples, dens)
        assert d < dkw_bound(n)

    def test_bad_envelope_detected_before_sampling(self):
        with pytest.raises(EnvelopeViolationError):
            sample(fN(0.5), 100, seed=0, envelope=1.0)

    @pytest.mark.parametrize("envelope,message", [
        (math.inf, "positive and finite"),
        (-math.inf, "positive and finite"),
        (0.0, "positive and finite"),
        (-1, "positive and finite"),
        (10 ** 400, "positive and finite"),
        ("3", "a real number"),
        (3j, "a real number"),
        (True, "a real number"),
    ])
    def test_bad_envelope_refused_before_drawing(self, monkeypatch, envelope, message):
        # an infinite envelope used to loop forever (u * inf <= r never holds)
        # and "3" raised a raw TypeError; now nothing is drawn
        def no_draws(*args):
            raise AssertionError("drew proposals")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ParameterError, match=message):
            sample(fN(0.5), 10, seed=0, envelope=envelope)

    def test_exact_envelope_is_a_float(self):
        res = sample(fN(0.5), 10, seed=0, envelope=4)
        assert type(res.envelope) is float and res.envelope == 4.0

    def test_nan_envelope_detected_before_sampling(self):
        # no proposal is ever accepted under a NaN envelope, so it must fail
        # here; it is not positive, so the parameter rule refuses it
        msg = "^envelope must be positive and finite, got nan$"
        with pytest.raises(ParameterError, match=msg):
            sample(fN(0.5), 100, seed=0, envelope=math.nan)

    @pytest.mark.parametrize("batch", [0, -5])
    def test_nonpositive_batch_rejected(self, batch):
        with pytest.raises(ParameterError):
            sample(fN(0.5), 10, seed=0, batch=batch)

    @pytest.mark.parametrize("kw,message", [
        (dict(n=-1), "n must be an integer >= 0, got -1"),
        (dict(n=2.5), "n must be an integer >= 0, got 2.5"),
        (dict(n=True), "n must be an integer >= 0, got True"),
        (dict(n=10, batch=2.5), "batch must be an integer >= 1, got 2.5"),
        (dict(n=10, batch=0), "batch must be an integer >= 1, got 0"),
        # seeds follow the same rule: 2.5 raised a raw TypeError from numpy,
        # -1 a raw ValueError, and True or a numpy integer were taken as seeds
        (dict(n=1, seed=2.5), "seed must be an integer >= 0, got 2.5"),
        (dict(n=1, seed=-1), "seed must be an integer >= 0, got -1"),
        (dict(n=1, seed=True), "seed must be an integer >= 0, got True"),
        (dict(n=1, seed=np.int64(3)), "seed must be an integer >= 0, got "
         + re.escape(repr(np.int64(3)))),
        (dict(n=1, seed=2 ** 64), "seed must be at most sys.maxsize = %d, got %d"
         % (sys.maxsize, 2 ** 64)),
    ])
    def test_counts_must_be_ints(self, kw, message):
        # 2.5 used to raise a raw TypeError from numpy
        with pytest.raises(ParameterError, match="^%s$" % message):
            sample(fN(0.5), **{"seed": 0, **kw})

    def test_golden_stream(self):
        # pins the proposal stream; a change here changes every seeded draw
        res = sample(fN(0.5), 8, seed=7)
        assert [float(v).hex() for v in res.samples] == [
            "-0x1.314fdf2d70fc6p-2",
            "0x1.6521b699f96adp-1",
            "0x1.ff626ac84d2c6p-1",
            "-0x1.3aebf42501a5ap-4",
            "-0x1.99c5b6d64ef3fp-1",
            "-0x1.ddf876a7d4d30p-1",
            "-0x1.03c2717624b4fp+0",
            "0x1.57c94a2ee41ebp-3",
        ]
        # one segment of the first batch: need = 8 M = 13.1, + 6 sqrt(need) + 16
        assert res.n_proposed == 51


def _target(kind, q, y, rho):
    if kind == "fn":
        return fN(q)
    return fCN(y * support(q).radius, rho, q)


class TestSegmentsMatchFullBatches:
    """The ratio evaluated in prefix segments keeps every bit of the samples."""

    @given(kind=st.sampled_from(("fn", "fcn")), q=st.floats(-0.8, 0.9),
           y=st.floats(-0.8, 0.8), rho=st.floats(-0.8, 0.8),
           seed=st.integers(0, 2 ** 32 - 1), batch=st.sampled_from((256, 4096, 65536)),
           n=st.sampled_from((0, 1, 37, "multi")))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    # every target, batch and n > 1 at least once, at the top of the q range
    # and the fCN envelopes (M up to about 10) the workload reaches
    @example(kind="fn", q=0.88, y=0.0, rho=0.0, seed=11, batch=256, n=37)
    @example(kind="fn", q=-0.75, y=0.0, rho=0.0, seed=12, batch=4096, n="multi")
    @example(kind="fn", q=0.6, y=0.0, rho=0.0, seed=13, batch=65536, n=37)
    @example(kind="fn", q=0.85, y=0.0, rho=0.0, seed=14, batch=65536, n="multi")
    @example(kind="fcn", q=0.89, y=0.7, rho=-0.79, seed=15, batch=256, n="multi")
    @example(kind="fcn", q=-0.6, y=-0.4, rho=0.75, seed=16, batch=4096, n=37)
    @example(kind="fcn", q=0.4, y=0.2, rho=0.5, seed=17, batch=65536, n=1)
    @example(kind="fcn", q=0.7, y=-0.79, rho=0.6, seed=18, batch=65536, n="multi")
    def test_matches_reference(self, kind, q, y, rho, seed, batch, n):
        dens = _target(kind, q, y, rho)
        M = envelope_constant(dens)
        multi = n == "multi"
        if multi:
            # about two batches of proposals at acceptance 1/M
            n = int(2 * batch / M) + 1
        res = sample(dens, n, seed=seed, batch=batch)
        want = ref.sample(dens, n, M, seed=seed, batch=batch)
        assert res.envelope == M
        assert [v.hex() for v in res.samples.tolist()] == [
            v.hex() for v in want.samples.tolist()]
        assert res.n_proposed <= want.n_proposed
        assert want.n_proposed > batch or not multi
        if res.n_proposed:
            p = 1.0 / M
            sigma = math.sqrt(p * (1.0 - p) / res.n_proposed)
            assert abs(res.acceptance_rate - p) <= 4.0 * sigma
        else:
            assert n == 0 and res.acceptance_rate == 0.0

    @pytest.mark.parametrize("kind,q,y,rho,seed", [
        ("fcn", 0.89, 0.7, -0.79, 48),
        ("fn", 0.88, 0.0, 0.0, 1167),
    ])
    def test_later_segment_of_a_batch(self, kind, q, y, rho, seed):
        # these seeds accept fewer than 37 in the first segment, so a second
        # segment of the same batch runs and must read its own uniforms
        dens = _target(kind, q, y, rho)
        M = envelope_constant(dens)
        need = 37 * M
        first = math.ceil(need + 6.0 * math.sqrt(need)) + 16
        res = sample(dens, 37, seed=seed)
        want = ref.sample(dens, 37, M, seed=seed)
        assert first < res.n_proposed < 65536
        assert [v.hex() for v in res.samples.tolist()] == [
            v.hex() for v in want.samples.tolist()]


class TestKsStatistic:
    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            ks_statistic(np.array([]), fN(0.5))

    def test_nan_rejected(self):
        # it returned nan
        with pytest.raises(ParameterError, match="NaN"):
            ks_statistic([math.nan, 0.1], fN(0.5))

    @pytest.mark.parametrize("bad", ["x", 0.5j, 10 ** 400, True])
    def test_sample_that_is_not_a_float_rejected(self, bad):
        # a str, complex or huge int escaped as a raw ValueError, TypeError or
        # OverflowError, and a bool counted as the sample 1.0
        with pytest.raises(ParameterError, match="samples"):
            ks_statistic([0.1, bad], fN(0.5))

    def test_samples_off_the_support(self):
        # the CDF is exactly 0 below S(q) and 1 above it, infinities included
        assert ks_statistic([-math.inf, math.inf], fN(0.5)) == 0.5
        assert ks_statistic([-7.0, 5.0], fN(0.5)) == 0.5

    @pytest.mark.parametrize("q", [0.5, -0.3, 0.9])
    def test_ft_against_the_arcsine_cdf(self, q):
        # the CDF table evaluated fT at its poles, theta = 0 and pi, and raised
        # BoundaryError; fT's CDF is the arcsine law 1/2 + arcsin(x/L)/pi
        L = support(q).radius
        s = np.sort(np.append(L * np.linspace(-0.99, 0.99, 9), [-2 * L, 2 * L]))
        cdf = 0.5 + np.arcsin(np.clip(s / L, -1.0, 1.0)) / math.pi
        i = np.arange(1, s.size + 1)
        want = max(np.max(cdf - (i - 1) / s.size), np.max(i / s.size - cdf))
        assert ks_statistic(s, fT(q)) == pytest.approx(want, abs=1e-5)

    @pytest.mark.parametrize("dens", [
        fU(0.5), fN(-0.7), fN(0.9), fCN(0.3, 0.5, 0.3), fK(0.2, 0.4, 0.0), fR(-0.6, 0.5),
    ])
    def test_other_densities_keep_their_bits(self, dens):
        # their integrand is 0 at theta = 0 and pi, where the density is 0
        s = np.random.default_rng(5).uniform(-1.1, 1.1, 50) * support(dens.q).radius
        assert ks_statistic(s, dens).hex() == ref.ks_statistic(s, dens).hex()

    def test_wrong_density_is_detected(self):
        n = 20_000
        res = sample(fN(0.7), n, seed=42)
        d = ks_statistic(res.samples, fN(0.2))
        # far above the usual alpha=0.05 acceptance threshold
        assert d > 2.0 * 1.36 / math.sqrt(n)
