"""Fuzz test of the library's real arguments: every call ends in a documented way.

``SLOTS`` is a table of public callables, each with one real argument left
open and the documented domain of that argument.  Each value drawn for the
slot (NaN, +-inf, 2.5, True, -1, 0, 1, 10**400, numpy integers and floats,
a string, a complex number and small Fractions) must end the call in one of
two ways:

- the value lies outside the slot's domain: a ParameterError whose message
  names the argument;
- the value lies inside it: a finite result of the documented type, or any
  QOrthoError (a y outside S(q), an envelope below the ratio, a truncation
  that does not settle).

No other exception may escape, and a RuntimeWarning is an error.  "Finite"
means a real number, not a bool, whose magnitude fits a float, so 10**400 is
outside every domain.  A point x is finite or +-inf (a NaN, a string, a
complex number or 10**400 is refused), and a polynomial point is an exact
number of any size or a finite float; only scalar points are drawn here.
Integer counts are not slots here: ``check_degree`` and the CLI fuzz test
cover them.
"""

import dataclasses
import math
import numbers
import re
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qortho import (
    ASC, ConnectionMatrix, KestenHat, ParameterError, QHermite, QOrthoError, Rogers,
    SupportInterval, connection, eval, q_binomial, q_bracket, q_factorial, q_pochhammer,
    q_pochhammer_inf, support, truncation_order,
)
from qortho.connect import beta_coeff, c_hat_entry, d_hat_entry, gamma_coeff
from qortho.densities import (
    DensityId, density_eval, density_ratio, fCN, fK, fN, fR, fU, normalize_check, pm_ratio,
)
from qortho.expand import (
    ExpansionResult, ExpansionSpec, expansion_coeff, expansion_eval, identity_suite,
)
from qortho.polyfam import eval_all
from qortho.qcore import VerificationReport
from qortho.sampler import SampleResult, ks_statistic, sample
from qortho.verify import IntegralResult, check_chapman, check_projection, integrate, run_all

LISTED = [math.nan, math.inf, -math.inf, 2.5, True, np.True_, -1, 0, 1, 10 ** 400,
          np.int64(3), np.float64(0.5), "x", 0.5j, F(1, 3), F(-5, 4)]


def _fits(v):
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


#: the documented domains, restated here independently of ``qcore``
DOMAINS = {
    "finite": _fits,
    "(-1, 1)": lambda v: -1 < v < 1,
    "(-1, 1]": lambda v: -1 < v <= 1,
    "(0, 1)": lambda v: 0 < v < 1,
    "positive": lambda v: 0 < v and _fits(v),
    "point": lambda v: _fits(v) or v in (math.inf, -math.inf),
    # a polynomial point: an int or Fraction of any size stays exact
    "exact point": lambda v: not isinstance(v, float) or math.isfinite(v),
}

F2, F3 = F(1, 2), F(1, 3)
Real = numbers.Real

#: (callable, argument, domain, call at the value, documented result type)
SLOTS = [
    ("q_bracket", "q", "finite", lambda v: q_bracket(3, v), Real),
    ("q_factorial", "q", "finite", lambda v: q_factorial(3, v), Real),
    ("q_binomial", "q", "finite", lambda v: q_binomial(4, 2, v), Real),
    ("q_pochhammer", "a", "finite", lambda v: q_pochhammer(v, F2, 2), Real),
    ("q_pochhammer", "q", "finite", lambda v: q_pochhammer(F2, v, 2), Real),
    ("q_pochhammer_inf", "amplitude", "finite", lambda v: q_pochhammer_inf(v, 0.5), float),
    ("q_pochhammer_inf", "q", "(-1, 1)", lambda v: q_pochhammer_inf(0.5, v), float),
    ("q_pochhammer_inf", "eps", "(0, 1)", lambda v: q_pochhammer_inf(0.5, 0.5, v), float),
    # an empty sequence of symbols checks q and eps too
    ("q_pochhammer_inf@()", "q", "(-1, 1)", lambda v: q_pochhammer_inf((), v), float),
    ("q_pochhammer_inf@()", "eps", "(0, 1)", lambda v: q_pochhammer_inf((), 0.5, v), float),
    ("truncation_order", "amplitude", "finite", lambda v: truncation_order(v, 0.5, 1e-14), int),
    ("truncation_order", "eps", "(0, 1)", lambda v: truncation_order(1.0, 0.5, v), int),
    ("support", "q", "(-1, 1)", support, SupportInterval),
    ("QHermite", "q", "(-1, 1]", lambda v: eval(QHermite(v), 2, F(1, 10)), Real),
    ("Rogers", "beta", "(-1, 1)", lambda v: eval(Rogers(v, F2), 2, F(1, 10)), Real),
    ("ASC", "y", "finite", lambda v: eval(ASC(v, F2, F3), 2, F(1, 10)), Real),
    ("ASC", "rho", "(-1, 1)", lambda v: eval(ASC(F(1, 10), v, F3), 2, F(1, 10)), Real),
    ("KestenHat", "q", "(-1, 1)", lambda v: eval(KestenHat(F3, F2, v), 2, F(1, 10)), Real),
    ("eval", "x", "exact point", lambda v: eval(QHermite(F2), 2, v), Real),
    ("eval_all", "x", "exact point", lambda v: eval_all(QHermite(F2), 2, v), list),
    # a float row: an int point too large to meet it has overflowed
    ("eval@float_q", "x", "exact point", lambda v: eval(QHermite(0.5), 2, v), Real),
    ("eval_all@float_q", "x", "exact point", lambda v: eval_all(QHermite(0.5), 2, v), list),
    ("connection", "y", "finite",
     lambda v: connection("asc-from-h", 3, y=v, rho=F2, q=F3), ConnectionMatrix),
    ("connection", "gamma", "(-1, 1)",
     lambda v: connection("rogers-from-rogers", 3, q=F2, beta=F3, gamma=v), ConnectionMatrix),
    ("d_hat_entry", "y", "finite", lambda v: d_hat_entry(1, 3, v, F2, F3), Real),
    ("d_hat_entry", "rho", "(-1, 1)", lambda v: d_hat_entry(1, 3, F3, v, F3), Real),
    ("d_hat_entry", "q", "(-1, 1)", lambda v: d_hat_entry(1, 3, F3, F2, v), Real),
    ("c_hat_entry", "y", "finite", lambda v: c_hat_entry(1, 3, v, F2, F3), Real),
    ("c_hat_entry", "rho", "(-1, 1)", lambda v: c_hat_entry(1, 3, F3, v, F3), Real),
    ("c_hat_entry", "q", "(-1, 1)", lambda v: c_hat_entry(1, 3, F3, F2, v), Real),
    ("gamma_coeff", "y", "finite", lambda v: gamma_coeff(3, v, F2, F3), Real),
    ("gamma_coeff", "rho", "(-1, 1)", lambda v: gamma_coeff(3, F3, v, F3), Real),
    ("gamma_coeff", "q", "(-1, 1)", lambda v: gamma_coeff(3, F3, F2, v), Real),
    ("beta_coeff", "y", "finite", lambda v: beta_coeff(3, v, F2, F3), Real),
    ("beta_coeff", "rho", "(-1, 1)", lambda v: beta_coeff(3, F3, v, F3), Real),
    ("beta_coeff", "q", "(-1, 1)", lambda v: beta_coeff(3, F3, F2, v), Real),
    ("fN", "q", "(-1, 1]", fN, DensityId),
    ("fN", "trunc_eps", "(0, 1)", lambda v: fN(0.5, trunc_eps=v), DensityId),
    ("fCN", "y", "finite", lambda v: fCN(v, 0.5, 0.5), DensityId),
    ("fCN", "rho", "(-1, 1)", lambda v: fCN(0.1, v, 0.5), DensityId),
    ("fR", "beta", "(-1, 1]", lambda v: fR(v, 0.5), DensityId),  # beta = 1 is the fT limit
    ("fU", "q", "(-1, 1)", fU, DensityId),
    ("fK", "y", "finite", lambda v: fK(v, 0.5, 0.5), DensityId),
    ("pm_ratio", "eps", "(0, 1)", lambda v: pm_ratio(0.1, 0.2, 0.5, 0.5, v), float),
    ("pm_ratio", "x", "point", lambda v: pm_ratio(v, 0.2, 0.5, 0.5), float),
    ("density_eval", "x", "point", lambda v: density_eval(fN(0.5), v), float),
    ("density_ratio", "x", "point", lambda v: density_ratio(fN(0.5), fU(0.5), v), float),
    ("normalize_check", "tol", "positive", lambda v: normalize_check(fU(0.5), v), tuple),
    ("expansion_coeff", "q", "(-1, 1)", lambda v: expansion_coeff("n_over_u", 3, q=v), Real),
    ("expansion_coeff", "rho", "(-1, 1)",
     lambda v: expansion_coeff("cn_over_n", 3, q=F2, rho=v), Real),
    ("expansion_eval", "y", "finite",
     lambda v: expansion_eval(ExpansionSpec("cn_over_n", {"q": 0.5, "rho": 0.5, "y": v}), 0.1),
     ExpansionResult),
    ("expansion_eval", "x", "point",
     lambda v: expansion_eval(ExpansionSpec("n_over_u", {"q": 0.5}), v), ExpansionResult),
    ("expansion_eval", "tol", "positive",
     lambda v: expansion_eval(ExpansionSpec("n_over_u", {"q": 0.5}), 0.1, tol=v),
     ExpansionResult),
    ("identity_suite", "tol", "positive", lambda v: identity_suite(q_grid=(), tol=v), list),
    ("identity_suite", "q", "(-1, 1)", lambda v: identity_suite(q_grid=(v,), rho_grid=()), list),
    ("integrate", "q", "(-1, 1)", lambda v: integrate(np.cos, v), IntegralResult),
    ("integrate", "tol", "positive", lambda v: integrate(np.cos, 0.5, tol=v), IntegralResult),
    ("run_all", "tol", "positive", lambda v: run_all({"suites": (), "tol": v}), tuple),
    ("check_projection", "y", "finite", lambda v: check_projection(1, v, 0.5, 0.5),
     VerificationReport),
    ("check_projection", "tol", "positive", lambda v: check_projection(1, 0.1, 0.5, 0.5, v),
     VerificationReport),
    ("check_chapman", "tol", "positive", lambda v: check_chapman(0.1, 0.2, 0.5, 0.5, 0.5, v),
     VerificationReport),
    ("sample", "envelope", "positive", lambda v: sample(fN(0.5), 0, envelope=v), SampleResult),
    ("ks_statistic", "samples", "point", lambda v: ks_statistic([v], fN(0.5)), float),
]


def _all_finite(r):
    """Whether every number inside r (a dataclass, container or array) is finite."""
    if r is None or isinstance(r, (bool, np.bool_, str, int, F)):
        return True
    if isinstance(r, Real):
        return math.isfinite(r)
    if isinstance(r, np.ndarray):
        return bool(np.all(np.isfinite(r)))
    if dataclasses.is_dataclass(r):
        return all(_all_finite(getattr(r, f.name)) for f in dataclasses.fields(r))
    if isinstance(r, dict):
        return all(_all_finite(v) for v in r.values())
    return all(_all_finite(v) for v in r)


def _check(slot, v):
    owner, name, domain, call, kind = slot
    inside = isinstance(v, Real) and not isinstance(v, bool) and DOMAINS[domain](v)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = call(v)
        except QOrthoError as exc:
            if not inside:
                assert isinstance(exc, ParameterError), (owner, name, v, exc)
                assert re.search(r"(?<!\w)%s(?!\w)" % name, str(exc)), (owner, name, v, exc)
            return
    assert inside, "%s(%s=%r) returned %r" % (owner, name, v, result)
    assert isinstance(result, kind) and not isinstance(result, bool), (owner, name, v, result)
    assert _all_finite(result), (owner, name, v, result)


@pytest.mark.parametrize("slot", SLOTS, ids=["%s-%s" % slot[:2] for slot in SLOTS])
def test_every_listed_value(slot):
    for v in LISTED:
        _check(slot, v)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SLOTS), st.one_of(
    st.sampled_from(LISTED),
    st.fractions(-2, 2, max_denominator=6),
    st.floats(-3.0, 3.0),
    st.integers(-3, 3),
))
def test_drawn_values(slot, v):
    _check(slot, v)
