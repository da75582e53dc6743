"""Tests for the semicircle-envelope rejection sampler."""

import math

import numpy as np
import pytest

from qortho.qcore import ParameterError, support
from qortho.densities import fCN, fN, fU
from qortho.sampler import (
    EnvelopeViolationError,
    envelope_constant,
    ks_statistic,
    sample,
)


def dkw_bound(n, alpha=1e-9):
    """Dvoretzky-Kiefer-Wolfowitz bound on the KS distance at level alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


class TestEnvelopeConstant:
    def test_reference_value(self):
        # the series bound sum (2k+1) q^{k(k+1)/2} at q=0.5; it dominates the
        # grid sup of fN/fU, which is about 1.64
        assert envelope_constant(fN(0.5)) == pytest.approx(3.2435060, abs=1e-6)

    def test_q_zero_is_unity(self):
        # at q=0 the target IS the semicircle
        assert envelope_constant(fN(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_q(self):
        ms = [envelope_constant(fN(q)) for q in (0.0, 0.3, 0.5, 0.7)]
        assert all(b > a for a, b in zip(ms, ms[1:]))


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

    def test_nan_envelope_detected_before_sampling(self):
        # no proposal is ever accepted under a NaN envelope, so it must fail here
        with pytest.raises(EnvelopeViolationError):
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
    ])
    def test_counts_must_be_ints(self, kw, message):
        # 2.5 used to raise a raw TypeError from numpy
        with pytest.raises(ParameterError, match="^%s$" % message):
            sample(fN(0.5), seed=0, **kw)

    def test_golden_stream(self):
        # pins the proposal stream; a change here changes every seeded draw
        res = sample(fN(0.5), 8, seed=7)
        assert [float(v).hex() for v in res.samples] == [
            "-0x1.314fdf2d70fc6p-2",
            "-0x1.3aebf42501a5ap-4",
            "-0x1.99c5b6d64ef3fp-1",
            "0x1.682e30e95fe00p-1",
            "-0x1.8a08309072923p+0",
            "-0x1.46451e3711192p-3",
            "-0x1.efef1fd7ce4ccp-1",
            "0x1.ed94b9d28a345p-1",
        ]
        assert res.n_proposed == 65536


class TestKsStatistic:
    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            ks_statistic(np.array([]), fN(0.5))

    def test_wrong_density_is_detected(self):
        n = 20_000
        res = sample(fN(0.7), n, seed=42)
        d = ks_statistic(res.samples, fN(0.2))
        # far above the usual alpha=0.05 acceptance threshold
        assert d > 2.0 * 1.36 / math.sqrt(n)
