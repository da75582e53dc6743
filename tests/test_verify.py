"""Tests for the quadrature backend and the verification checks."""

import math
import re
from unittest import mock

import numpy as np
import pytest

import series_reference as ref
from qortho.qcore import NonConvergenceError, ParameterError, q_factorial, support
from qortho.densities import density_eval, fCN, fN, fR, fT, fU
from qortho.polyfam import ASC, ChebT_hat, ChebU_hat, QHermite, Rogers, eval_all
from qortho import sampler, verify
from qortho.connect import gamma_coeff
from qortho.verify import (
    check_chapman,
    check_D_integral,
    check_orthogonality,
    check_projection,
    integrate,
    run_all,
)


class TestIntegrate:
    def test_density_mass(self):
        res = integrate(lambda x: density_eval(fU(0.5), x), 0.5)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.error_estimate <= 1e-10
        # fU in theta is (2/pi) sin^2(theta): exact on 32 nodes, confirmed on 64
        assert res.nodes == 64

    def test_polynomial_exact(self):
        # int x^2 fU dx = 1/(1-q): second moment of the semicircle on S(q)
        q = 0.3
        res = integrate(lambda x: x * x * density_eval(fU(q), x), q)
        assert res.value == pytest.approx(1.0 / (1.0 - q), rel=1e-12)

    def test_kink_fails_to_converge(self):
        with pytest.raises(NonConvergenceError):
            integrate(lambda x: np.abs(x - 0.37), 0.5, tol=1e-14)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_integrand_stops_at_the_first_estimate(self, value):
        calls = []

        def f(x):
            calls.append(len(x))
            return np.full_like(x, value)

        with pytest.raises(NonConvergenceError, match="integrand is not finite on 32 nodes"):
            integrate(f, 0.5)
        assert calls == [32]


class TestOrthogonality:
    @pytest.mark.parametrize("q", [-0.5, 0.0, 0.3, 0.7])
    def test_qhermite_norms(self, q):
        for n in range(5):
            for m in range(n + 1):
                rep = check_orthogonality(QHermite(q), fN(q), n, m)
                assert rep.passed, (q, n, m, rep.residual)

    def test_diagonal_value(self):
        q = 0.5
        rep = check_orthogonality(QHermite(q), fN(q), 3, 3)
        # residual is against [3]_q! exactly
        assert rep.residual < 1e-10

    def test_mismatched_pair_rejected(self):
        with pytest.raises(ParameterError):
            check_orthogonality(QHermite(0.5), fU(0.5), 1, 1)
        with pytest.raises(ParameterError):
            check_orthogonality(Rogers(0.2, 0.5), fR(0.3, 0.5), 1, 1)

    @pytest.mark.parametrize("fam,dens", [
        (QHermite(0.5), fN(0.3)),
        (ASC(0.2, 0.4, 0.5), fCN(0.2, 0.45, 0.5)),
        (Rogers(0.2, 0.5), fR(0.3, 0.5)),
    ])
    def test_mismatch_refused_before_quadrature(self, fam, dens):
        # off the diagonal too, and before any Gram matrix is built
        with mock.patch.object(verify, "_gram", side_effect=AssertionError):
            with pytest.raises(ParameterError, match="mismatch"):
                check_orthogonality(fam, dens, 0, 1)

    @pytest.mark.parametrize("q", [0.72, 0.8, 0.9])
    def test_chebt_hat_near_unit_q(self, q):
        # the fT weight's 1/sqrt edge is never evaluated by the midpoint rule
        for n in range(7):
            for m in range(7):
                rep = check_orthogonality(ChebT_hat(q), fT(q), n, m)
                assert rep.passed, (n, m, rep.residual, rep.params["quad_err"])

    @pytest.mark.parametrize("k", range(6))
    def test_gram_entry_is_the_integral(self, k):
        # one rule: the Gram matrix entry and integrate agree within tol
        fam, dens = verify._family_density_pairs(0.7)[k]
        n, m, tol = 5, 3, 1e-10
        G, quad_err = verify._gram(fam, fam, dens, n, tol)

        def f(x):
            rows = eval_all(fam, n, x)
            return rows[n] * rows[m] * density_eval(dens, x)

        res = integrate(f, dens.q, tol)
        assert quad_err <= tol
        assert abs(G[n, m] - res.value) <= tol

    def test_cross_gram_entry_is_the_integral(self):
        # two families: entry (4, 2) of the (ChebU_hat, ASC) matrix under fCN
        q, tol = 0.7, 1e-10
        y, rho = 0.3 * support(q).radius, 0.5
        uhat, asc, dens = ChebU_hat(q), ASC(y, rho, q), fCN(y, rho, q)
        G, quad_err = verify._gram(uhat, asc, dens, 4, tol)
        res = integrate(lambda x: eval_all(uhat, 4, x)[4] * eval_all(asc, 2, x)[2]
                        * density_eval(dens, x), q, tol)
        assert quad_err <= tol
        assert abs(G[4, 2] - res.value) <= tol

    def test_chebt_hat_constant_norm(self):
        q = 0.4
        r0 = check_orthogonality(ChebT_hat(q), fT(q), 0, 0)
        r2 = check_orthogonality(ChebT_hat(q), fT(q), 2, 2)
        assert r0.passed and r2.passed


@pytest.mark.parametrize("check,args,name", [
    (check_orthogonality, (QHermite(0.5), fN(0.5), -1, 0), "n"),
    (check_orthogonality, (QHermite(0.5), fN(0.5), 2, -1), "m"),
    (check_projection, (-1, 0.3, 0.5, 0.5), "n"),
    (check_D_integral, (-1, 2, 0.3, 0.5, 0.5), "k"),
    (check_D_integral, (1, -2, 0.3, 0.5, 0.5), "n"),
])
def test_negative_index_is_refused(check, args, name):
    # a negative index used to read the Gram matrix from its far end
    with pytest.raises(ParameterError, match="^index %s must be an integer >= 0, got -" % name):
        check(*args)


@pytest.mark.parametrize("check,args,name", [
    (check_orthogonality, (QHermite(0.5), fN(0.5), 2.5, 0), "n"),
    (check_orthogonality, (QHermite(0.5), fN(0.5), 1, True), "m"),
    (check_projection, (True, 0.3, 0.5, 0.5), "n"),
    (check_D_integral, (1, 2.0, 0.3, 0.5, 0.5), "n"),
])
def test_index_must_be_an_int(check, args, name):
    # these were refused deep inside, by a message naming another argument
    with pytest.raises(ParameterError, match="^index %s must be an integer >= 0, got " % name):
        check(*args)


class TestProjection:
    def test_small_orders(self):
        q = 0.5
        L = support(q).radius
        for n in (0, 1, 4):
            rep = check_projection(n, 0.25 * L, 0.5, q)
            assert rep.passed, (n, rep.residual)

    def test_unsettled_quadrature_is_a_failing_report(self):
        # rho near 1 peaks fCN too sharply for 1024 nodes: the residual is
        # within tol, but the quadrature difference is not within its own tol
        q, tol = 0.5, 1e-8
        rep = check_projection(0, 0.3 * support(q).radius, 0.99, q, tol)
        assert rep.residual <= tol
        assert rep.params["quad_err"] > min(tol * 1e-2, 1e-9)
        assert not rep.passed


class TestChapman:
    def test_composition_of_correlations(self):
        q = 0.3
        L = support(q).radius
        rep = check_chapman(0.2 * L, -0.3 * L, 0.5, 0.4, q)
        assert rep.passed
        assert rep.residual < 1e-8


class TestDIntegral:
    def test_entries(self):
        q = 0.5
        L = support(q).radius
        for k, n in ((0, 1), (1, 1), (0, 3), (2, 5)):
            rep = check_D_integral(k, n, 0.3 * L, 0.5, q)
            assert rep.passed, (k, n, rep.residual)


class TestRunAll:
    def test_reduced_battery(self):
        reports, ok = run_all(
            {"q_grid": (0.3,), "tol": 1e-9,
             "suites": ("normalization", "orthogonality", "identities")}
        )
        assert ok
        ids = {r.check_id for r in reports}
        assert any(i.startswith("normalization") for i in ids)
        assert any(i.startswith("orthogonality") for i in ids)
        assert any(i.startswith("i1") for i in ids)

    @pytest.mark.parametrize("config,err", [
        ({"suites": ("orthogonallity",)}, "unknown suite 'orthogonallity'"),
        ({"suites": ("identities", "bogus")}, "unknown suite 'bogus'"),
        ({"q_gird": (0.3,)}, "unknown run_all config key 'q_gird'"),
        ({"tol": math.nan}, "tol must be positive and finite"),
        # the knobs that only tests set are gone: tol and q_grid set every suite
        ({"tol_identity": 1e-10}, "unknown run_all config key 'tol_identity'"),
        ({"tol_chapman": 1e-6}, "unknown run_all config key 'tol_chapman'"),
        ({"suites": ("orthogonality",), "n_max": 3}, "unknown run_all config key 'n_max'"),
        ({"envelope_q_grid": (0.3,)}, "unknown run_all config key 'envelope_q_grid'"),
        ({"suites": "orthogonality"}, "suites must be a sequence of suite names"),
    ])
    def test_bad_config_is_refused_before_any_check(self, config, err):
        with mock.patch.object(verify, "check_normalization") as check:
            with pytest.raises(ParameterError, match="^" + err):
                run_all(dict(config, q_grid=(0.3,)))
        check.assert_not_called()

    @pytest.mark.parametrize("config,err", [
        # each raised a raw TypeError
        ({"q_grid": 0.3}, "q_grid must be a sequence of q values, got 0.3"),
        ({"q_grid": None}, "q_grid must be a sequence of q values, got None"),
        ({"q_grid": "0.3"}, "q_grid must be a sequence of q values, got '0.3'"),
        ({"suites": None}, "suites must be a sequence of suite names, got None"),
        ({"suites": 3, "q_grid": (0.3,)}, "suites must be a sequence of suite names, got 3"),
    ])
    def test_config_that_is_not_a_sequence_is_refused(self, config, err):
        with mock.patch.object(verify, "check_normalization") as check:
            with pytest.raises(ParameterError, match="^" + re.escape(err) + "$"):
                run_all(config)
        check.assert_not_called()

    def test_q_grid_may_be_any_iterable(self):
        # a generator serves every suite, not only the first
        reports, ok = run_all({"suites": ("normalization", "chapman"),
                               "q_grid": (q for q in (0.3,))})
        assert ok
        assert {r.check_id.split(":")[0] for r in reports} == {"normalization", "chapman"}

    def test_one_tol_sets_every_suite_but_chapman_and_envelope(self):
        reports, ok = run_all({"q_grid": (0.3,), "tol": 1e-9})
        assert ok
        tols = {}
        for r in reports:
            tols.setdefault(r.check_id.split(":")[0], set()).add(r.tolerance)
        assert tols.pop("chapman") == {1e-6}
        assert tols.pop("envelope") == {1e-9}  # the sampler's slack
        assert set(tols) == {"normalization", "orthogonality", "projection", "d-integral",
                             "i1", "i2", "i3", "i4", "i5", "i6", "i7", "i8"}
        assert all(t == {1e-9} for t in tols.values())
        # q_grid sets the identities' and envelope's grids too
        assert {r.params["q"] for r in reports} == {0.3}

    @pytest.mark.parametrize("suite,calls", [
        ("orthogonality", 6), ("projection", 1), ("d-integral", 1),
    ])
    def test_one_quadrature_per_pair_and_q(self, suite, calls):
        # every entry of a suite's sweep is read from one Gram matrix
        with mock.patch.object(verify, "_quadrature", wraps=verify._quadrature) as quad:
            reports, ok = run_all({"suites": (suite,), "q_grid": (0.3,)})
        assert ok and reports
        assert quad.call_count == calls

    @pytest.mark.parametrize("tol", [math.nan, -1e-10, 0.0, math.inf])
    def test_integrate_tolerance(self, tol):
        with pytest.raises(ParameterError, match="tol must be positive and finite"):
            integrate(lambda x: x, 0.5, tol=tol)


class TestEnvelopeSuite:
    @pytest.mark.parametrize("constant", [1.0])
    def test_a_constant_below_the_grid_sup_fails(self, constant):
        with mock.patch.object(sampler, "envelope_constant", lambda dens: constant):
            reports, ok = run_all({"suites": ("envelope",)})
        assert not ok
        assert len(reports) == 4 and not any(r.passed for r in reports)
        assert all(r.residual > r.tolerance for r in reports)

    def test_the_grid_sup_alone_fails_between_the_nodes(self):
        # with no curvature slack M is the sampler grid's own sup; at q = 0.3
        # the fCN ratio peaks between two nodes, where the suite evaluates it
        with mock.patch.object(sampler, "_curvature_slack", lambda dens: 0.0):
            reports, ok = run_all({"suites": ("envelope",), "q_grid": (0.3,)})
        assert [r.passed for r in reports] == [True, False]

    def test_reports_the_sampler_constant(self):
        # M = grid sup + D h^2/8, with the slack summed here by a scalar loop
        # over the per-k gamma_coeff instead of the sampler's float gamma row
        reports, ok = run_all({"suites": ("envelope",), "q_grid": (0.45,)})
        assert ok
        L = support(0.45).radius
        dens = fCN(0.3 * L, 0.5, 0.45)
        slack = ref.curvature_loop(lambda n: gamma_coeff(n, dens.y, dens.rho, dens.q),
                                   1.0 / (2.0 * 10000 ** 2))
        want = sampler._grid_sup(dens) + slack
        assert reports[1].params["M"] == pytest.approx(want, rel=1e-15)
