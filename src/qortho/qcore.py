"""Scalar q-series primitives: brackets, factorials, binomials, Pochhammer symbols.

Conventions::

    [n]_q   = 1 + q + ... + q^{n-1},      [0]_q = 0
    [n]_q!  = [1]_q [2]_q ... [n]_q,      [0]_q! = 1
    [n k]_q = [n]_q! / ([k]_q! [n-k]_q!)  (0 when k < 0 or k > n)
    (a;q)_n = prod_{i=0}^{n-1} (1 - a q^i)
    (a1,...,am;q)_n = prod_j (aj;q)_n     (sequence first argument)

All finite operations are exact on rational inputs (``int`` /
``fractions.Fraction``) and work in floating point otherwise.  The infinite
product is floating-point only and truncated with a controlled tail bound.

This module is the one source of every running q-quantity.  Loops that
read many of these values build them once per call instead of once per
term.  :func:`q_binomial_table` is one lazily grown q-Pascal triangle,
[n k] = [n-1 k-1] + q^k [n-1 k] (Gasper & Rahman, *Basic Hypergeometric
Series*, 1.3).  ``_brackets(q)``, ``_factorials(q)`` and
``_pochhammers(a, q)`` are the endless prefix rows [0]_q, [1]_q, ...;
[0]_q!, [1]_q!, ... (products of the bracket row's values); and (a;q)_0,
(a;q)_1, ....  :func:`q_bracket`, :func:`q_factorial` and
:func:`q_pochhammer` are their n-th values, so each row entry is bit for
bit the scalar value.  A ``_Row`` wraps such a generator as a lazy list:
index n takes values once, in order, up to n and no further.
:func:`q_binomial` keeps its product form as the scalar primitive and the
independent check of the table.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice


class QOrthoError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(QOrthoError):
    """A parameter lies outside its documented domain."""


class IrrationalParameterError(ParameterError):
    """A non-rational parameter reached an exact-arithmetic path."""


class NonConvergenceError(QOrthoError):
    """A truncation/tolerance target could not be met within the iteration cap."""


#: Hard cap on the number of factors kept in any infinite product.  With the
#: stopping rule |a| |q|^K <= eps (1-|q|)/4 this is enough for |q| <= 0.9 at
#: eps = 1e-14; larger |q| raises NonConvergenceError instead of silently
#: degrading.
POCHHAMMER_KMAX = 400


def is_exact(*values):
    """True when every value is an int or Fraction (bools excluded)."""
    return all(
        isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in values
    )


def div(a, b):
    """a / b: an exact Fraction when both are rational, float division otherwise."""
    if is_exact(a, b):
        return Fraction(a) / Fraction(b)
    return a / b


def ensure_exact(**named):
    for name, v in named.items():
        if not is_exact(v):
            raise IrrationalParameterError(
                "exact path requires rational %s, got %r" % (name, v)
            )


def _zero(q):
    return q * 0


def _one(q):
    return q * 0 + 1


class _Row:
    """Lazy list over an iterator: row[n] takes values once, in order, up to n."""

    def __init__(self, values):
        self._it = iter(values)
        self._vals = []

    def __getitem__(self, n):
        while len(self._vals) <= n:
            self._vals.append(next(self._it))
        return self._vals[n]


def _nth(values, n):
    return next(islice(values, n, None))


def _brackets(q):
    """Endless [0]_q, [1]_q, ...; one term q^i per value."""
    br = _zero(q)
    p = _one(q)
    while True:
        yield br
        br = br + p
        p = p * q


def q_bracket(n, q):
    """[n]_q = 1 + q + ... + q^{n-1}; [0]_q = 0."""
    if n < 0:
        raise ParameterError("q_bracket needs n >= 0, got %r" % (n,))
    return _nth(_brackets(q), n)


def _factorials(q):
    """Endless [0]_q!, [1]_q!, ...; one factor [i]_q per value."""
    out = _one(q)
    for br in islice(_brackets(q), 1, None):
        yield out
        out = out * br


def q_factorial(n, q):
    """[n]_q! = prod_{i=1}^{n} [i]_q; [0]_q! = 1."""
    if n < 0:
        raise ParameterError("q_factorial needs n >= 0, got %r" % (n,))
    return _nth(_factorials(q), n)


def q_binomial(n, k, q):
    """Gaussian binomial coefficient [n k]_q; 0 when k < 0 or k > n."""
    if k < 0 or k > n:
        return _zero(q)
    k = min(k, n - k)
    if q == 1:
        return math.comb(n, k) * _one(q)
    # [n k]_q = prod_{i=1}^{k} (1 - q^{n-k+i}) / (1 - q^i); no zero denominators
    # for |q| < 1, and exact for rational q.
    num = _one(q)
    den = _one(q)
    qn = q ** (n - k)
    qi = _one(q)
    for _ in range(k):
        qn = qn * q
        qi = qi * q
        num = num * (1 - qn)
        den = den * (1 - qi)
    return div(num, den)


def q_binomial_table(q):
    """B(n, k) = [n k]_q from one q-Pascal triangle grown on demand; 0 off it.

    Row n is built once, from row n-1, by [n k] = [n-1 k-1] + q^k [n-1 k]
    (two operations per entry, no division), so reading every [n k] with
    n <= N costs O(N^2) in all.  Entries have the type :func:`q_binomial`
    returns: Fractions for rational q, ints at q = int 1, floats otherwise.
    """
    zero = _zero(q)
    rows = [[q_binomial(0, 0, q)]]
    powers = [_one(q)]  # q^j

    def B(n, k):
        if k < 0 or k > n:
            return zero
        while len(rows) <= n:
            prev = rows[-1]
            powers.append(q ** len(powers))
            row = [prev[0]]
            for j in range(1, len(prev)):
                row.append(prev[j - 1] + powers[j] * prev[j])
            row.append(prev[-1])
            rows.append(row)
        return rows[n][k]

    return B


def _pochhammers(a, q):
    """Endless (a;q)_0, (a;q)_1, ...; one factor (1 - a q^i) per value."""
    out = _one(q)
    p = _one(q)
    while True:
        yield out
        out = out * (1 - a * p)
        p = p * q


def q_pochhammer(a, q, n):
    """(a;q)_n; `a` may be a sequence, meaning the product of the symbols."""
    if isinstance(a, (tuple, list)):
        out = _one(q)
        for ai in a:
            out = out * q_pochhammer(ai, q, n)
        return out
    if n < 0:
        raise ParameterError("q_pochhammer needs n >= 0, got %r" % (n,))
    return _nth(_pochhammers(a, q), n)


def truncation_order(amplitude, q, eps):
    """Smallest K with amplitude * |q|^K <= eps (1-|q|)/4, capped at POCHHAMMER_KMAX.

    This is the shared stopping rule for all infinite products: past index K
    the log-tail is bounded by 2 amplitude |q|^K / (1-|q|) <= eps/2, so the
    truncated product carries a relative error below eps.
    """
    aq = abs(float(q))
    if aq >= 1.0:
        raise ParameterError("infinite products require |q| < 1, got q=%r" % (q,))
    thresh = eps * (1.0 - aq) / 4.0
    t = abs(float(amplitude))
    k = 0
    while t > thresh:
        t *= aq
        k += 1
        if k > POCHHAMMER_KMAX:
            raise NonConvergenceError(
                "product truncation needs more than %d factors (q=%r, eps=%g)"
                % (POCHHAMMER_KMAX, q, eps)
            )
    return k


def q_pochhammer_inf(a, q, eps=1e-14):
    """(a;q)_inf for |q| < 1, truncated so the relative error is below eps."""
    if isinstance(a, (tuple, list)):
        out = 1.0
        for ai in a:
            out *= q_pochhammer_inf(ai, q, eps)
        return out
    af = float(a)
    if af == 0.0:
        return 1.0
    if eps <= 0:
        raise ParameterError("eps must be positive, got %r" % (eps,))
    qf = float(q)
    K = truncation_order(af, qf, eps)
    out = 1.0
    p = 1.0
    for _ in range(K):
        out *= 1.0 - af * p
        p *= qf
    return out


@dataclass(frozen=True)
class SupportInterval:
    """S(q) = [-2/sqrt(1-q), 2/sqrt(1-q)], the common support of the densities."""

    lo: float
    hi: float

    @property
    def radius(self):
        return self.hi


def support(q):
    """Support interval S(q); rejects q = 1 (support degenerates to the line)."""
    qf = float(q)
    if not -1.0 < qf < 1.0:
        raise ParameterError("S(q) requires -1 < q < 1, got q=%r" % (q,))
    half = 2.0 / math.sqrt(1.0 - qf)
    return SupportInterval(-half, half)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one numeric check: residual against tolerance."""

    check_id: str
    params: dict
    residual: float
    tolerance: float
    passed: bool
