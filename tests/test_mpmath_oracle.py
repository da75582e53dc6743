"""High-precision oracle for the density products.

mpmath evaluates each density at 40 digits in its angle form, x = L cos(theta)
with L = 2/sqrt(1-q), where every product is a complex q-Pochhammer symbol::

    prod_{k>=1} fac_k   = |(q e^{2 i theta}; q)_inf|^2
    prod_{k>=0} den_k   = |(b e^{2 i theta}; q)_inf|^2
    prod_{k>=0} w_k     = |(r e^{i(theta+phi)}; q)_inf (r e^{i(theta-phi)}; q)_inf|^2

with y = L cos(phi).  The complex symbols come from Euler's series
(a;q)_inf = sum_n (-1)^n q^{n(n-1)/2} a^n / (q;q)_n, which is checked against
``mpmath.qp`` and is ten times faster; the real ones come from ``mpmath.qp``.
This route shares no code and no formula with the float products in
``qortho.densities``.  The float value must match to a relative
trunc_eps + 2 K u, where K is the largest product depth ``truncation_order``
picks for the value and u = 2**-53: the truncation error plus one rounding in
each factor and in each addition of its log.
"""

from functools import lru_cache

import numpy as np
import pytest

from qortho.densities import density_eval, fCN, fN, fR, pm_ratio
from qortho.qcore import support, truncation_order

mp = pytest.importorskip("mpmath").mp

EPS = 1e-14
U = 2.0 ** -53
QS = (-0.8, 0.3, 0.7, 0.9)
FRACS = np.linspace(-0.97, 0.97, 20)
Y_FRAC, RHO, BETA = -0.35, 0.7, -0.6


def _bound(q, *amplitudes):
    K = max(truncation_order(a, q, EPS) for a in amplitudes)
    return EPS + 2 * K * U


def _angle(v, q):
    return mp.acos(mp.mpf(v) * mp.sqrt(1 - mp.mpf(q)) / 2)


@lru_cache(maxsize=None)
def _qp(a, q):
    """(a;q)_inf for a real a, from mpmath."""
    return mp.qp(mp.mpf(a), mp.mpf(q))


def _euler(a, q):
    """(a;q)_inf for a complex a by Euler's series, to the working precision."""
    q = mp.mpf(q)
    tiny = mp.mpf(10) ** (-mp.dps - 5)
    total = term = mp.mpf(1)
    n = 0
    while n < 3 or abs(term) >= tiny:
        term = -term * a * q ** n / (1 - q ** (n + 1))
        total += term
        n += 1
    return total


@lru_cache(maxsize=None)
def _fn(x, q):
    t = _angle(x, q)
    prod = abs(_euler(q * mp.exp(2j * t), q)) ** 2
    return mp.sqrt(1 - mp.mpf(q)) * _qp(q, q) * 2 * abs(mp.sin(t)) * prod / (2 * mp.pi)


def _pm(x, y, rho, q):
    t, s = _angle(x, q), _angle(y, q)
    w = _euler(rho * mp.exp(1j * (t + s)), q) * _euler(rho * mp.exp(1j * (t - s)), q)
    return _qp(rho * rho, q) / abs(w) ** 2


def _fr_over_fn(x, beta, q):
    den = abs(_euler(beta * mp.exp(2j * _angle(x, q)), q)) ** 2
    return _qp(beta * beta, q) / (_qp(beta, q) * _qp(beta * q, q) * den)


def _rel_errors(got, want):
    return [abs((mp.mpf(float(g)) - w) / w) for g, w in zip(got, want)]


@pytest.fixture(autouse=True)
def _digits():
    with mp.workdps(40):
        yield


@pytest.mark.parametrize("q", QS)
class TestProductsAgainstMpmath:
    def points(self, q):
        return support(q).radius * FRACS

    def test_fn(self, q):
        xs = self.points(q)
        got = density_eval(fN(q, trunc_eps=EPS), xs)
        errs = _rel_errors(got, [_fn(x, q) for x in xs])
        assert max(errs) <= _bound(q, 7.0), float(max(errs))

    def test_fcn(self, q):
        xs = self.points(q)
        y = support(q).radius * Y_FRAC
        got = density_eval(fCN(y, RHO, q, trunc_eps=EPS), xs)
        want = [_fn(x, q) * _pm(x, y, RHO, q) for x in xs]
        errs = _rel_errors(got, want)
        assert max(errs) <= _bound(q, 7.0, 19.0 * RHO), float(max(errs))

    def test_fr(self, q):
        xs = self.points(q)
        got = density_eval(fR(BETA, q, trunc_eps=EPS), xs)
        want = [_fn(x, q) * _fr_over_fn(x, BETA, q) for x in xs]
        errs = _rel_errors(got, want)
        assert max(errs) <= _bound(q, 7.0, 7.0 * abs(BETA)), float(max(errs))

    @pytest.mark.parametrize("rho", (-0.9, RHO))
    def test_pm_ratio(self, q, rho):
        xs = self.points(q)
        y = support(q).radius * Y_FRAC
        got = pm_ratio(xs, y, rho, q, EPS)
        errs = _rel_errors(got, [_pm(x, y, rho, q) for x in xs])
        assert max(errs) <= _bound(q, 19.0 * abs(rho)), float(max(errs))


@pytest.mark.parametrize("q", QS)
def test_euler_series_matches_mpmath_qp(q):
    for a in (0.7 * mp.exp(0.4j), -0.95 * mp.exp(2.4j), mp.mpf(q)):
        want = mp.qp(a, mp.mpf(q))
        assert abs(_euler(a, q) - want) <= 1e-30 * abs(want)


def test_oracle_matches_the_semicircle_at_q0():
    # q = 0 leaves no product: fN is sqrt(4 - x^2) / (2 pi)
    for x in (0.0, 0.5, -1.9):
        assert abs(_fn(x, 0.0) - mp.sqrt(4 - mp.mpf(x) ** 2) / (2 * mp.pi)) < 1e-35
