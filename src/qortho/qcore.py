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

``_sum_series`` is the one truncated-sum loop: the expansions, every
identity-battery series and the sampler envelope sum through it, with one
stop rule, one cap and one overflow rule.  ``_plain_sum`` feeds it a series
whose terms are their own bounds, such as ``_theta_series``.
:func:`q_pochhammer_inf` is the ``_pochhammers`` row read at the truncation
order K of :func:`truncation_order`.

:func:`check_params` is the one rule for a real argument, read by name from
one table: -1 < q < 1 (q = 1 too for the Gaussian cases, any finite q for
the q-primitives, which are polynomials in q), |rho|, |beta|, |gamma| < 1,
a positive finite tolerance (``tol``, the sampler's ``envelope``), a
relative truncation eps in (0, 1) (``eps``, ``trunc_eps``) and a finite
value for any other name (y, a product's amplitude, a Pochhammer a).
Finite means a real number, not a bool, whose magnitude fits a float, so
10**400 is refused on the exact paths too.  Every entry point checks the
real arguments it reads through it, and :func:`check_degree` checks a
degree, an index or a count, at most sys.maxsize.  The rules left
elsewhere are not about one argument's domain: y in S(q) (``densities``)
and the q = 1 and rho^2 < 1/2 kernel rules (``expand``).

:func:`resolve` is the one alias rule: an id that is a special case of a
general kernel or pair is an :class:`Alias` of it at fixed exact parameters.
``EXPANSION_IDS`` names the expansion registry's ids.
"""

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice


class QOrthoError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(QOrthoError):
    """A parameter lies outside its documented domain."""


class IrrationalParameterError(ParameterError):
    """A non-rational parameter reached an exact-arithmetic path."""


class NonConvergenceError(QOrthoError):
    """A truncation/tolerance target could not be met within the iteration cap."""


class TruncationError(NonConvergenceError):
    """Adaptive truncation could not certify the requested tolerance."""


#: Hard cap on the number of factors kept in any infinite product.  With the
#: stopping rule |a| |q|^K <= eps (1-|q|)/4 this is enough for |q| <= 0.9 at
#: eps = 1e-14; larger |q| raises NonConvergenceError instead of silently
#: degrading.
POCHHAMMER_KMAX = 400


#: real types accepted without the slower ``numbers.Real`` check
_PLAIN_REALS = frozenset((int, float, Fraction))


def _finite(v):
    """Whether the real v has a magnitude that fits a float (10**400 does not)."""
    try:
        return math.isfinite(v)
    except OverflowError:  # an int or Fraction past the float range
        return False


# A domain is (test of a real value, message when it fails, message for a
# value that is not real); a parameter's messages name its owner, a
# numerical control's only itself.
_NEEDS_REAL = "{owner} needs a real {name}, got {v!r}"
_MUST_BE_REAL = "{name} must be a real number, got {v!r}"
_DISC = (lambda v: -1 < v < 1, "{owner} needs |{name}| < 1, got {v!r}", _NEEDS_REAL)
_FINITE = (_finite, "{owner} needs a finite {name}, got {v!r}", _NEEDS_REAL)
_POSITIVE = (lambda v: 0 < v and _finite(v), "{name} must be positive and finite, got {v!r}",
             _MUST_BE_REAL)
_UNIT = (lambda v: 0 < v < 1, "{name} must lie in (0, 1), got {v!r}", _MUST_BE_REAL)
_Q_OPEN = (lambda v: -1 < v < 1, "{owner} needs -1 < q < 1, got q={v!r}", _NEEDS_REAL)
_Q_UNIT = (lambda v: -1 < v <= 1, "{owner} needs -1 < q <= 1, got q={v!r}", _NEEDS_REAL)

#: name -> domain of every real argument; a name not listed must be finite
_DOMAINS = {
    "rho": _DISC, "beta": _DISC, "gamma": _DISC,
    "tol": _POSITIVE, "envelope": _POSITIVE, "eps": _UNIT, "trunc_eps": _UNIT,
}


def check_params(owner, params, names, unit_q=False, any_q=False):
    """The values of ``params`` under ``names``, in order, each in its domain.

    Each value must be a real number (``numbers.Real``, so a numpy float or
    integer too), and not a bool.  q must lie in (-1, 1), in (-1, 1] with
    ``unit_q``, or be finite with ``any_q``; every other name has the domain
    of ``_DOMAINS`` (see the module docstring), finite when it is not
    listed.  A missing (absent or None), non-real or out-of-domain value
    raises ParameterError naming the argument, and a parameter's ``owner``.
    Values are compared as given, so an exact rational is never rounded, and
    nothing outside ``names`` is read.
    """
    values = []
    for name in names:
        v = params.get(name)
        if v is None:
            raise ParameterError("%s needs parameter %r" % (owner, name))
        if name != "q":
            domain = _DOMAINS.get(name, _FINITE)
        else:
            domain = _FINITE if any_q else _Q_UNIT if unit_q else _Q_OPEN
        if not (type(v) in _PLAIN_REALS
                or not isinstance(v, bool) and isinstance(v, numbers.Real)):
            raise ParameterError(domain[2].format(owner=owner, name=name, v=v))
        if not domain[0](v):
            raise ParameterError(domain[1].format(owner=owner, name=name, v=v))
        values.append(v)
    return values


@dataclass(frozen=True)
class Alias:
    """A registry id that runs as the entry ``of`` at the ``fixed`` parameters."""

    of: str
    fixed: dict


#: the expansion registry ids, the keys of ``expand._KERNELS`` in order; they
#: live here, with no numpy, so that the CLI can list them without importing
#: ``expand``
EXPANSION_IDS = ("n_over_u", "u_over_n", "cn_over_n", "n_over_cn", "r_over_n",
                 "n_over_r", "cn_over_k", "cn_over_u", "mehler_classical", "pm_q0")


def resolve(table, id, params):
    """(entry, params) of table[id]; an Alias gives its general entry, with its
    fixed values over any the caller passed for them."""
    entry = table[id]
    if isinstance(entry, Alias):
        return table[entry.of], {**params, **entry.fixed}
    return entry, params


def check_degree(n, name="n_max", least=0):
    """n, once it is an int, least <= n <= sys.maxsize; ParameterError otherwise.

    A bool is not a degree, and neither is a numpy integer: arithmetic on it
    wraps silently at 2**63 on the exact paths, where a Python int grows.
    (A numpy integer is a real parameter all the same, see ``check_params``.)
    """
    if type(n) is not int or n < least:
        raise ParameterError("%s must be an integer >= %d, got %r" % (name, least, n))
    if n > sys.maxsize:
        raise ParameterError("%s must be at most sys.maxsize = %d, got %r"
                             % (name, sys.maxsize, n))
    return n


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
    check_degree(n, "q_bracket n")
    check_params("q_bracket", {"q": q}, ("q",), any_q=True)
    return _nth(_brackets(q), n)


def _factorials(q):
    """Endless [0]_q!, [1]_q!, ...; one factor [i]_q per value."""
    out = _one(q)
    for br in islice(_brackets(q), 1, None):
        yield out
        out = out * br


def q_factorial(n, q):
    """[n]_q! = prod_{i=1}^{n} [i]_q; [0]_q! = 1."""
    check_degree(n, "q_factorial n")
    check_params("q_factorial", {"q": q}, ("q",), any_q=True)
    return _nth(_factorials(q), n)


def q_binomial(n, k, q):
    """Gaussian binomial coefficient [n k]_q; 0 when the int k < 0 or k > n."""
    check_degree(n, "q_binomial n")
    check_params("q_binomial", {"q": q}, ("q",), any_q=True)
    if type(k) is not int:
        raise ParameterError("q_binomial k must be an integer, got %r" % (k,))
    if k < 0 or k > n:
        return _zero(q)
    k = min(k, n - k)
    if q == 1:
        return math.comb(n, k) * _one(q)
    if q == -1:
        # the product divides by 1 - q^2 = 0; by the q-Pascal rule [n k]_{-1} is
        # C(n//2, k//2), and 0 for an even n and odd k
        return div((0 if n % 2 == 0 and k % 2 else math.comb(n // 2, k // 2)) * _one(q), 1)
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
    check_degree(n, "q_pochhammer n")
    if isinstance(a, (tuple, list)):
        check_params("q_pochhammer", {"q": q}, ("q",), any_q=True)
        out = _one(q)
        for ai in a:
            out = out * q_pochhammer(ai, q, n)
        return out
    check_params("q_pochhammer", {"q": q, "a": a}, ("q", "a"), any_q=True)
    return _nth(_pochhammers(a, q), n)


def _sum_series(terms, stop=1e-16, consecutive=2, cap=1500,
                message="series did not settle"):
    """(sum, terms summed) of a truncated series given as (term, bound) pairs.

    It stops at the ``consecutive``-th bound in a row <= stop, or at the end
    of a finite iterable (a fixed order K is ``islice(terms, K + 1)``), and
    raises TruncationError(message) if cap + 1 terms did not stop it.  An
    OverflowError while a term is formed ends the sum as NaN, that term counted.
    """
    total, n, small = 0.0, 0, 0
    try:
        for term, bound in terms:
            total = term if n == 0 else total + term
            n += 1
            small = small + 1 if bound <= stop else 0
            if small >= consecutive:
                break
            if n > cap:
                raise TruncationError(message)
    except OverflowError:
        return math.nan, n + 1
    return total, n


def _plain_sum(terms, stop=1e-18, consecutive=1, cap=1500):
    """The :func:`_sum_series` sum of a series whose terms are their own bounds."""
    return _sum_series(((t, abs(t)) for t in terms), stop, consecutive, cap)[0]


def _theta_series(q, signed, weighted):
    """sum_k s^k (2k+1 if weighted else 1) q^{k(k+1)/2} with s = -1 if signed."""
    s = -1 if signed else 1
    return _plain_sum(
        s ** k * (2 * k + 1 if weighted else 1) * q ** (k * (k + 1) // 2) for k in count()
    )


def truncation_order(amplitude, q, eps):
    """Smallest K with amplitude * |q|^K <= eps (1-|q|)/4, capped at POCHHAMMER_KMAX.

    This is the shared stopping rule for all infinite products: past index K
    the log-tail is bounded by 2 amplitude |q|^K / (1-|q|) <= eps/2, so the
    truncated product carries a relative error below eps.  q, eps (in (0, 1))
    and the amplitude (finite) are checked as given, by ``check_params``.
    """
    check_params("infinite product", {"q": q, "eps": eps, "amplitude": amplitude},
                 ("q", "eps", "amplitude"))
    aq = abs(float(q))
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
        check_params("infinite product", {"q": q, "eps": eps}, ("q", "eps"))
        out = 1.0
        for ai in a:
            out *= q_pochhammer_inf(ai, q, eps)
        return out
    k = truncation_order(a, q, eps)  # checks q and eps as given
    af = float(a)
    if af == 0.0:
        return 1.0
    return _nth(_pochhammers(af, float(q)), k)


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
    check_params("S(q)", {"q": q}, ("q",))
    half = 2.0 / math.sqrt(1.0 - float(q))
    return SupportInterval(-half, half)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one numeric check: residual against tolerance."""

    check_id: str
    params: dict
    residual: float
    tolerance: float
    passed: bool
