"""The paper's density-ratio rule ties every expansion kernel to a connection pair.

If f_B/f_A = sum_n c_n a_n with (a_n) orthogonal under f_A, and
a_n = sum_k gamma_{n,k} b_k with (b_k) orthogonal under f_B, then
integrating against f_B gives c_n ||a_n||^2 = gamma_{n,0}.  Each kernel's
a_n is s_n w_n p_n, where p_n is the target family of its pair, w_n a weight
(H_n(y|q) or B_n(y) for the weighted kernels, else 1) and s_n = (1-q)^{n/2}
where the kernel's a_n is U_n(x sqrt(1-q)/2) or the Kesten k_n and p_n their
rescaled hat family (else 1).  So

    c_n w_n s_n ||p_n||^2 = gamma_{n,0},

with ||p_n||^2 from ``polyfam._NORMS``.  The test checks this exactly, in
Fractions, with gamma_{n,0} read both from the closed form ``connection``
and from the elimination ``oracle_connection``, which involves no closed form.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qortho.connect import connection, oracle_connection
from qortho.expand import expansion_coeff
from qortho.polyfam import (
    ASC,
    BigB,
    ChebU_hat,
    KestenHat,
    QHermite,
    Rogers,
    _NORMS,
    eval_all,
)

# kernel -> (pair, pair target p_n, pair source, weight family in y, scaled)
RULES = {
    "n_over_u": ("uhat-from-h", lambda p: ChebU_hat(p["q"]),
                 lambda p: QHermite(p["q"]), None, True),
    "u_over_n": ("h-from-uhat", lambda p: QHermite(p["q"]),
                 lambda p: ChebU_hat(p["q"]), None, False),
    "cn_over_n": ("h-from-asc", lambda p: QHermite(p["q"]),
                  lambda p: ASC(p["y"], p["rho"], p["q"]), QHermite, False),
    "n_over_cn": ("asc-from-h", lambda p: ASC(p["y"], p["rho"], p["q"]),
                  lambda p: QHermite(p["q"]), BigB, False),
    "r_over_n": ("h-from-rogers", lambda p: QHermite(p["q"]),
                 lambda p: Rogers(p["beta"], p["q"]), None, False),
    "n_over_r": ("rogers-from-h", lambda p: Rogers(p["gamma"], p["q"]),
                 lambda p: QHermite(p["q"]), None, False),
    "cn_over_u": ("uhat-from-asc", lambda p: ChebU_hat(p["q"]),
                  lambda p: ASC(p["y"], p["rho"], p["q"]), None, True),
    "cn_over_k": ("kesten-from-asc", lambda p: KestenHat(p["y"], p["rho"], p["q"]),
                  lambda p: ASC(p["y"], p["rho"], p["q"]), None, True),
}

POINT = dict(q=F(1, 3), y=F(2, 5), rho=F(1, 4), beta=F(1, 3), gamma=F(-1, 4))
N = 10


def _half_power(v, n):
    """v^{n/2} as a Fraction, or None when it is irrational."""
    if n % 2 == 0:
        return v ** (n // 2)
    num, den = math.isqrt(v.numerator), math.isqrt(v.denominator)
    if num * num != v.numerator or den * den != v.denominator:
        return None
    return F(num, den) ** n


def _check(kernel, p, n_max, oracle=True):
    pair, target, source, weight, scaled = RULES[kernel]
    columns = [connection(pair, n_max, **p)]
    if oracle:
        columns.append(oracle_connection(target(p), source(p), n_max))
    norm = _NORMS[target(p).tag][1]
    w = eval_all(weight(p["q"]), n_max, p["y"]) if weight else [1] * (n_max + 1)
    checked = 0
    for n in range(n_max + 1):
        s = _half_power(1 - p["q"], n) if scaled else 1
        if s is None:  # c_n is a float: (1-q)^{1/2} is irrational
            continue
        c = expansion_coeff(kernel, n, **p)
        lhs = c * w[n] * s * norm(target(p), n)
        for m in columns:
            assert lhs == m.coeff(n, 0), (kernel, n, m.pair)
        checked += 1
    return checked


@pytest.mark.parametrize("kernel", sorted(RULES))
def test_column_zero_over_norm(kernel):
    assert _check(kernel, POINT, N) >= N // 2 + 1


@pytest.mark.parametrize("kernel", ["cn_over_u", "cn_over_k"])
def test_odd_coefficients_where_one_minus_q_is_a_square(kernel):
    # 1 - q = 1/4: every c_n is a Fraction, odd n included
    assert _check(kernel, dict(POINT, q=F(3, 4)), N) == N + 1


def _rational(bound=1, max_den=9):
    """Fractions n/d strictly inside (-bound, bound), 2 <= d <= max_den."""
    return st.integers(2, max_den).flatmap(
        lambda d: st.integers(1 - bound * d, bound * d - 1).map(lambda n: F(n, d)))


@given(q=_rational(), y=_rational(3), rho=_rational(), beta=_rational(),
       gamma=_rational())
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
def test_column_zero_over_norm_at_drawn_points(q, y, rho, beta, gamma):
    p = dict(q=q, y=y, rho=rho, beta=beta, gamma=gamma)
    for kernel in RULES:
        _check(kernel, p, 8)
