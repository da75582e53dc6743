"""Closed-form special values p_n(point) of the polynomial families.

An oracle for the recurrence engine: tests compare ``polyfam.eval`` with
these tabulated values, so they live beside the tests and not in the
library.
"""

from fractions import Fraction
from itertools import islice

from qortho.polyfam import _w_terms, validate
from qortho.qcore import ParameterError, is_exact, q_pochhammer


def q_double_factorial_odd(k, q):
    """[2k-1]_q!! = prod_{i=1}^{k} [2i-1]_q; 1 when k = 0."""
    if k < 0:
        raise ParameterError("q_double_factorial_odd needs k >= 0, got %r" % (k,))
    out = q * 0 + 1
    br = q * 0
    p = q * 0 + 1
    for i in range(1, 2 * k):
        br = br + p  # br == [i]_q
        p = p * q
        if i % 2 == 1:
            out = out * br
    return out


def special_values(fam, n, point):
    """Closed-form value p_n(point) for the tabulated (family, point) pairs.

    Supported: chebu at 0, 1, -1, 1/2; qhermite at 0 and "edge"; kesten at 0
    and 1; bigb at 0; rogers at 0.  Exact on rational parameters.
    """
    validate(fam)
    if n < 0:
        raise ParameterError("degree must be >= 0, got %r" % (n,))
    tag = fam.tag
    if tag == "chebu":
        if point == 0:
            if n % 2 == 1:
                return 0
            return (-1) ** (n // 2)
        if point == 1:
            return n + 1
        if point == -1:
            return (-1) ** n * (n + 1)
        if point == Fraction(1, 2):
            return (1, 1, 0, -1, -1, 0)[n % 6]
    elif tag == "qhermite":
        q = fam.q
        if point == 0:
            if n % 2 == 1:
                return q * 0
            k = n // 2
            return (-1) ** k * q_double_factorial_odd(k, q)
        if point == "edge":
            # right endpoint of S(q); exact W_n over an exact power when n even
            w = next(islice(_w_terms(q), n, None))
            if is_exact(q) and n % 2 == 0:
                return w / (1 - Fraction(q)) ** (n // 2)
            return float(w) / (1.0 - float(q)) ** (n / 2.0)
    elif tag == "kesten":
        y, r = fam.y, fam.rho
        if point == 0:
            if n == 0:
                return 1 + 0 * r
            if n % 2 == 0:
                return (-1) ** (n // 2) * (1 - r * r)
            k = (n + 1) // 2
            return (-1) ** k * r * y
        if point == 1:
            if n == 0:
                return 1 + 0 * r
            m, rem = divmod(n, 3)
            if rem == 0:
                return (-1) ** m * (1 - r * r)
            if rem == 2:  # n = 3(m+1) - 1
                return (-1) ** m * (-r * y + r * r)
            return (-1) ** m * (1 - r * y)  # n = 3(m+1) - 2
    elif tag == "bigb":
        q = fam.q
        if point == 0:
            if n % 2 == 1:
                return q * 0
            k = n // 2
            return q ** (k * (k - 1)) * q_double_factorial_odd(k, q)
    elif tag == "rogers":
        q, b = fam.q, fam.beta
        if point == 0:
            if n % 2 == 1:
                return q * 0
            k = n // 2
            return (-1) ** k * q_pochhammer(b * b, q * q, k) * q_double_factorial_odd(k, q)
    raise ParameterError(
        "no tabulated special value for family %r at point %r" % (tag, point)
    )
