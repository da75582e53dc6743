"""Acceptance battery: ten end-to-end criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one PASS/FAIL line per
criterion (add ``-s`` to also see the printed summary lines with worst
residuals and timings).
"""

import math
import time
from fractions import Fraction

import numpy as np

from qortho.qcore import q_binomial, support
from qortho.polyfam import (
    ASC,
    BigB,
    ChebT,
    ChebU,
    ChebU_hat,
    ClassicalHermite,
    Kesten,
    KestenHat,
    QHermite,
    RationalPoly,
    Rogers,
    coeffs,
    eval_all,
    special_values,
)
from qortho.polyfam import eval as poly_eval
from qortho.densities import (
    density_eval,
    fCN,
    fK,
    fN,
    fR,
    fT,
    fU,
    normalize_check,
    pm_ratio,
)
from qortho.connect import (
    PAIRS,
    connection,
    oracle_connection,
    ratio_connection,
)
from qortho.expand import (
    ExpansionSpec,
    expansion_eval,
    identity_suite,
    target_density,
)
from qortho.verify import check_chapman, check_orthogonality
from qortho.sampler import ks_statistic, sample

F = Fraction


def _line(num, name, ok, detail=""):
    msg = "ACCEPTANCE %2d %s: %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        msg += " (%s)" % detail
    print(msg)


def _unit_rat(rng, nonzero=True):
    """Random rational strictly inside (-1, 1) with denominator <= 9."""
    while True:
        d = int(rng.integers(3, 10))
        v = F(int(rng.integers(-(d - 1), d)), d)
        if v != 0 or not nonzero:
            return v


def _draw_pair(pair, rng):
    """(target family, source family, connection params) for one random draw."""
    q = _unit_rat(rng)
    y = _unit_rat(rng, nonzero=False)
    rho = _unit_rat(rng)
    beta = _unit_rat(rng)
    gamma = _unit_rat(rng)
    table = {
        "asc-from-h": (ASC(y, rho, q), QHermite(q), dict(y=y, rho=rho, q=q)),
        "h-from-asc": (QHermite(q), ASC(y, rho, q), dict(y=y, rho=rho, q=q)),
        "uhat-from-h": (ChebU_hat(q), QHermite(q), dict(q=q)),
        "h-from-uhat": (QHermite(q), ChebU_hat(q), dict(q=q)),
        "rogers-from-rogers": (Rogers(gamma, q), Rogers(beta, q),
                               dict(beta=beta, gamma=gamma, q=q)),
        "rogers-from-h": (Rogers(gamma, q), QHermite(q), dict(gamma=gamma, q=q)),
        "h-from-rogers": (QHermite(q), Rogers(beta, q), dict(beta=beta, q=q)),
        "uhat-from-asc": (ChebU_hat(q), ASC(y, rho, q), dict(y=y, rho=rho, q=q)),
        "kesten-from-asc": (KestenHat(y, rho, q), ASC(y, rho, q),
                            dict(y=y, rho=rho, q=q)),
        "t-from-u": (ChebT(), ChebU(), {}),
        "u-from-t": (ChebU(), ChebT(), {}),
        "mehler": (ClassicalHermite(), ASC(y, rho, 1), dict(y=y, rho=rho)),
    }
    return table[pair]


class TestAcceptance:
    def test_01_exact_connections(self):
        """All 12 closed-form connection triangles match the elimination
        oracle with exact rational equality, n <= 12, 20 draws per pair."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        n_max = 12
        checked = 0
        for pair in PAIRS:
            for _ in range(20):
                target, source, params = _draw_pair(pair, rng)
                closed = connection(pair, n_max, **params)
                oracle = oracle_connection(target, source, n_max)
                for n in range(n_max + 1):
                    for k in range(n + 1):
                        assert closed.coeff(n, k) == oracle.coeff(n, k), (
                            pair, params, n, k)
                checked += 1
        elapsed = time.perf_counter() - t0
        ok = checked == 240 and elapsed < 60.0
        _line(1, "exact connection suite", ok,
              "240 draws, %.1fs" % elapsed)
        assert ok

    def test_02_orthogonality_norms(self):
        """Orthogonality and norm residuals < 1e-8 for the three weighted
        families at every q in the grid, n, m <= 10."""
        t0 = time.perf_counter()
        worst = 0.0
        ok = True
        for q in (-0.5, 0.0, 0.3, 0.7):
            settings = [(QHermite(q), fN(q))]
            for y, rho in ((0.0, 0.5), (1.0, 0.3)):
                settings.append((ASC(y, rho, q), fCN(y, rho, q)))
            for beta in (0.2, 0.6):
                settings.append((Rogers(beta, q), fR(beta, q)))
            for fam, dens in settings:
                for n in range(11):
                    for m in range(n + 1):
                        rep = check_orthogonality(fam, dens, n, m, tol=1e-8)
                        worst = max(worst, rep.residual)
                        ok = ok and rep.passed
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 120.0
        _line(2, "orthogonality/norms", ok,
              "worst residual %.2e, %.1fs" % (worst, elapsed))
        assert ok

    def test_03_poisson_mehler(self):
        """Bilinear kernel sum times fN reproduces fCN within 1e-8, and the
        kernel times its reciprocal series is 1 within 1e-6, on 21x21 grids.

        The reciprocal check runs on the 19 interior x nodes: at the support
        endpoints both fN and fCN vanish, so the series/density quotient is
        0/0 there and the product is undefined rather than wrong.
        """
        worst_sum = 0.0
        worst_rec = 0.0
        for q, rho in ((0.3, 0.5), (0.7, 0.4), (-0.5, 0.6)):
            L = support(q).radius
            xs = np.linspace(-L, L, 21)
            for y in xs:
                dens = fCN(float(y), rho, q)
                tgt = density_eval(dens, xs)
                spec = ExpansionSpec("cn_over_n",
                                     {"q": q, "rho": rho, "y": float(y)})
                val = expansion_eval(spec, xs, tol=1e-12).value
                worst_sum = max(worst_sum, float(np.max(np.abs(val - tgt))))

                xin = xs[1:-1]
                lhs = pm_ratio(xin, float(y), rho, q)
                rec = ExpansionSpec("n_over_cn",
                                    {"q": q, "rho": rho, "y": float(y)})
                series = (expansion_eval(rec, xin, tol=1e-9).value
                          / density_eval(dens, xin))
                worst_rec = max(worst_rec,
                                float(np.max(np.abs(lhs * series - 1.0))))
        ok = worst_sum < 1e-8 and worst_rec < 1e-6
        _line(3, "poisson-mehler kernel", ok,
              "sum %.2e, reciprocal %.2e" % (worst_sum, worst_rec))
        assert ok

    def test_04_density_expansions(self):
        """Each of the six density-over-density expansions reproduces its
        target within 1e-7 on an 11-point grid, adaptive truncation K <= 500."""
        cases = [
            ("n_over_u", {"q": 0.3}), ("n_over_u", {"q": 0.7}),
            ("u_over_n", {"q": 0.3}), ("u_over_n", {"q": 0.7}),
            ("r_over_n", {"q": 0.3, "beta": 0.2}),
            ("r_over_n", {"q": 0.7, "beta": 0.6}),
            ("n_over_r", {"q": 0.3, "gamma": 0.2}),
            ("n_over_r", {"q": 0.7, "gamma": 0.6}),
            ("cn_over_u", {"q": 0.3, "y": 0.5, "rho": 0.5}),
            ("cn_over_u", {"q": 0.7, "y": 1.0, "rho": 0.3}),
            ("cn_over_k", {"q": 0.3, "y": 0.5, "rho": 0.5}),
            ("cn_over_k", {"q": 0.7, "y": 1.0, "rho": 0.3}),
        ]
        worst = 0.0
        max_terms = 0
        for id_, params in cases:
            L = support(params["q"]).radius
            xs = np.linspace(-0.95 * L, 0.95 * L, 11)
            res = expansion_eval(ExpansionSpec(id_, params), xs, tol=1e-9)
            tgt = density_eval(target_density(id_, params), xs)
            worst = max(worst, float(np.max(np.abs(res.value - tgt))))
            max_terms = max(max_terms, res.n_terms)
        ok = worst < 1e-7 and max_terms <= 501
        _line(4, "density expansions", ok,
              "worst %.2e, max terms %d" % (worst, max_terms))
        assert ok

    def test_05_q_series_identities(self):
        """Identity battery (series vs truncated products) with residual
        < 1e-10 at q in {0.2, 0.5, 0.8}, rho in {0.3, 0.6}."""
        reports = identity_suite(q_grid=(0.2, 0.5, 0.8), rho_grid=(0.3, 0.6),
                                 tol=1e-10)
        wanted = [r for r in reports
                  if r.check_id.split(":")[0] in
                  {"i1", "i2", "i3", "i4", "i5", "i6", "i7"}]
        ok = bool(wanted) and all(r.passed for r in wanted)
        worst = max(r.residual for r in wanted)
        _line(5, "q-series identities", ok,
              "%d checks, worst %.2e" % (len(wanted), worst))
        assert ok

    def test_06_chapman_kolmogorov(self):
        """Correlation composition: integrating the two-step transition
        reproduces the one-step density at rho1*rho2, residual < 1e-6."""
        q, rho1, rho2 = 0.3, 0.5, 0.4
        L = support(q).radius
        grid = np.linspace(-0.9 * L, 0.9 * L, 5)
        worst = 0.0
        slowest = 0.0
        ok = True
        for x in grid:
            for z in grid:
                t0 = time.perf_counter()
                rep = check_chapman(float(x), float(z), rho1, rho2, q,
                                    tol=1e-6)
                dt = time.perf_counter() - t0
                worst = max(worst, rep.residual)
                slowest = max(slowest, dt)
                ok = ok and rep.passed and dt <= 10.0
        _line(6, "chapman-kolmogorov", ok,
              "worst %.2e, slowest point %.2fs" % (worst, slowest))
        assert ok

    def test_07_special_values_and_degenerations(self):
        """Tabulated special values and family degenerations, exact rational
        arithmetic for n <= 20; density degenerations at float roundoff."""
        qs = (F(1, 3), F(-2, 5))
        y, rho, beta = F(2, 3), F(1, 4), F(1, 5)
        for n in range(21):
            # tabulated values at rational abscissae
            for pt in (0, 1, -1, F(1, 2)):
                assert special_values(ChebU(), n, pt) == poly_eval(ChebU(), n, F(pt))
            for q in qs:
                assert special_values(QHermite(q), n, 0) == poly_eval(QHermite(q), n, F(0))
                assert special_values(BigB(q), n, 0) == poly_eval(BigB(q), n, F(0))
                assert special_values(Rogers(beta, q), n, 0) == poly_eval(Rogers(beta, q), n, F(0))
            for pt in (0, 1):
                assert special_values(Kesten(y, rho), n, pt) == poly_eval(Kesten(y, rho), n, F(pt))
            # the edge table: exact for even n via the even part in t = x^2
            q = F(1, 3)
            t = 4 / (1 - q)
            c = coeffs(QHermite(q), n).coeffs
            if n % 2 == 0:
                even = sum(c[2 * j] * t ** j for j in range(n // 2 + 1))
                assert special_values(QHermite(q), n, "edge") == even
            else:
                odd = sum(c[2 * j + 1] * t ** j for j in range((n + 1) // 2))
                approx = math.sqrt(float(t)) * float(odd)
                got = special_values(QHermite(q), n, "edge")
                assert math.isclose(got, approx, rel_tol=1e-12)

        # family degenerations, exact on rational points
        pts = (F(0), F(1, 2), F(-2, 3), F(7, 5))
        q = F(1, 3)
        rho35 = F(3, 5)  # 1 - rho^2 = (4/5)^2 keeps the Gaussian case rational
        for n in range(21):
            for x in pts:
                assert poly_eval(QHermite(0), n, x) == poly_eval(ChebU(), n, x / 2)
                assert poly_eval(Rogers(0, q), n, x) == poly_eval(QHermite(q), n, x)
                assert poly_eval(ASC(y, 0, q), n, x) == poly_eval(QHermite(q), n, x)
                assert poly_eval(ASC(x, rho, q), n, x) == poly_eval(Rogers(rho, q), n, x)
                assert poly_eval(ASC(y, rho, 0), n, x) == poly_eval(Kesten(y, rho), n, x)
                assert poly_eval(QHermite(1), n, x) == poly_eval(ClassicalHermite(), n, x)
                gauss = F(4, 5) ** n * poly_eval(
                    ClassicalHermite(), n, (x - rho35 * y) / F(4, 5))
                assert poly_eval(ASC(y, rho35, 1), n, x) == gauss

        # density degenerations (closed-form branches agree at roundoff)
        xs = np.linspace(-1.9, 1.9, 9)
        np.testing.assert_allclose(
            density_eval(fN(0.0), xs), np.sqrt(4.0 - xs * xs) / (2.0 * np.pi),
            atol=1e-14)
        q = 0.4
        xr = np.linspace(-0.9, 0.9, 7) * support(q).radius
        np.testing.assert_allclose(
            density_eval(fR(1.0, q), xr), density_eval(fT(q), xr), atol=1e-15)
        xg = np.linspace(-3.0, 3.0, 9)
        np.testing.assert_allclose(
            density_eval(fN(1.0), xg),
            np.exp(-xg * xg / 2.0) / math.sqrt(2.0 * math.pi), atol=1e-15)
        yv, rv = 0.7, 0.5
        var = 1.0 - rv * rv
        np.testing.assert_allclose(
            density_eval(fCN(yv, rv, 1.0), xg),
            np.exp(-((xg - rv * yv) ** 2) / (2.0 * var))
            / math.sqrt(2.0 * math.pi * var), atol=1e-15)
        _line(7, "special values and degenerations", True, "n <= 20 exact")

    def test_08_ratio_reconstruction(self):
        """Arcsine/semicircle ratio instance: phi_4 comes out exactly,
        both reconstruction directions hold for n <= 10, and the two
        rational-ratio connections are band 2."""
        rc = ratio_connection({0: F(1), 2: F(-1, 4)}, 10)
        monic_t = [coeffs(ChebT(), 0)] + [
            coeffs(ChebT(), n) / 2 ** (n - 1) for n in range(1, 11)]
        monic_u = [coeffs(ChebU(), n) / 2 ** n for n in range(11)]

        phi4 = RationalPoly(())
        for i, c in rc.phi_row(4).items():
            phi4 = phi4 + monic_t[i] * c
        ok = phi4.coeffs == (F(1, 16), F(0), F(-3, 4), F(0), F(1))

        for n in range(11):
            built = RationalPoly(())
            for i, c in rc.phi_row(n).items():
                built = built + monic_t[i] * c
            ok = ok and built == monic_u[n]
            back = RationalPoly(())
            for i, c in rc.reconstruction_row(n).items():
                back = back + monic_u[i] * c
            ok = ok and back == monic_t[n]

        ok = ok and rc.band() == 2
        kes = oracle_connection(KestenHat(F(2, 5), F(1, 4), F(1, 3)),
                                ChebU_hat(F(1, 3)), 10)
        ok = ok and kes.band() == 2
        _line(8, "ratio reconstruction and bands", ok,
              "phi_4 exact, bands 2/2")
        assert ok

    def test_09_sampler(self):
        """Rejection sampler at n = 1e5: KS below 1.36/sqrt(n) (one retry
        allowed), acceptance within 4 sigma of 1/M, envelope holds on a
        dense grid."""
        t0 = time.perf_counter()
        n = 100_000
        ok = True
        details = []
        for q in (0.3, 0.7):
            res = sample(fN(q), n, seed=42)
            L = support(q).radius
            grid = np.linspace(-L, L, 10001)[1:-1]
            ratio = density_eval(fN(q), grid) / density_eval(fU(q), grid)
            ok = ok and float(np.max(ratio)) <= res.envelope * (1 + 1e-9)

            d = ks_statistic(res.samples, fN(q))
            if d >= 1.36 / math.sqrt(n):  # one re-draw allowed
                res = sample(fN(q), n, seed=4242)
                d = ks_statistic(res.samples, fN(q))
            ok = ok and d < 1.36 / math.sqrt(n)

            p = 1.0 / res.envelope
            sigma = math.sqrt(p * (1.0 - p) / res.n_proposed)
            ok = ok and abs(res.acceptance_rate - p) < 4.0 * sigma
            details.append("q=%s KS=%.4f" % (q, d))
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 30.0
        _line(9, "rejection sampler", ok,
              "%s, %.1fs" % (", ".join(details), elapsed))
        assert ok

    def test_10_normalization(self):
        """All six densities integrate to one within 1e-8 across the q grid."""
        worst = 0.0
        ok = True
        count = 0
        for q in (-0.5, 0.0, 0.3, 0.7):
            batch = [fN(q), fU(q), fT(q)]
            batch += [fCN(y, r, q) for y, r in ((0.0, 0.5), (1.0, 0.3))]
            batch += [fR(b, q) for b in (0.2, 0.6)]
            batch += [fK(y, r, q) for y, r in ((0.0, 0.5), (1.0, 0.3))]
            for dens in batch:
                passed, residual = normalize_check(dens, tol=1e-8)
                worst = max(worst, residual)
                ok = ok and passed
                count += 1
        _line(10, "density normalization", ok,
              "%d densities, worst %.2e" % (count, worst))
        assert ok
