"""Truncated-sum loops written out, to check ``qortho.qcore._sum_series`` against.

The first two are loops that ``_sum_series`` replaced, as they were written
before the merge, each over an iterable of (term, bound) pairs, so tests can
feed the same sequence to one of them and to the merged loop and compare sum
bits, term counts and exceptions:

- ``expansion_loop``: the inline loop of ``expand.expansion_eval``, fixed K
  or adaptive under ``K_CAP`` (at least three terms), with the tail read
  from the next two bounds;
- ``identity_sum``: the identity battery's ``_sum_series``, and
  ``diagonal_sum``, its wrapper that turned an OverflowError into NaN.

``curvature_loop`` is the sampler's curvature slack D h^2/8, with
D = sum_n |c_n| U_n''(1), as a scalar loop over exact coefficients with the
sampler's stop rule.
"""

import math

from qortho.qcore import NonConvergenceError, TruncationError

K_CAP = 500


def expansion_loop(gen, zero, K=None, tol=1e-9, name="id"):
    """(acc, tail_series, n_terms) of the inline expansion loop."""
    gen = iter(gen)
    fixed = K is not None
    acc = zero
    small = 0
    n = -1
    while True:
        n += 1
        term, bound = next(gen)
        acc = acc + term
        if fixed:
            if n >= K:
                break
        else:
            if bound <= tol:
                small += 1
                if small >= 2 and n >= 2:
                    break
            else:
                small = 0
            if n >= K_CAP:
                raise TruncationError(
                    "expansion %r did not reach tol=%g within %d terms"
                    % (name, tol, K_CAP)
                )
    tail_series = next(gen)[1] + next(gen)[1]
    return acc, tail_series, n + 1


def identity_sum(gen, stop=1e-16, consecutive=2, cap=1500):
    acc = None
    small = 0
    for n, (term, size) in enumerate(gen):
        acc = term if acc is None else acc + term
        if size <= stop:
            small += 1
            if small >= consecutive:
                return acc
        else:
            small = 0
        if n >= cap:
            raise NonConvergenceError("identity series did not settle")
    raise NonConvergenceError("identity series generator exhausted")


def diagonal_sum(gen, **rule):
    try:
        return identity_sum(gen, **rule)
    except OverflowError:
        return math.nan


def curvature_loop(c, scale):
    """sum_{n>=2} |c(n)| (n-1)n(n+1)(n+2)(n+3)/15 scale in floats, c(n) exact,
    ended by six terms in a row < 1e-12; None if n = 4095 does not end it."""
    total, small = 0.0, 0
    for n in range(2, 4096):
        t = float(abs(c(n)) * ((n - 1) * n * (n + 1) * (n + 2) * (n + 3) // 15)) * scale
        total += t
        small = small + 1 if t < 1e-12 else 0
        if small >= 6:
            return total
    return None
