"""Each alias id equals its general entry at the parameters it fixes.

An alias is a special case of a general registry entry at fixed exact
parameters (``qcore.Alias``): the kernels ``mehler_classical`` and ``pm_q0``
are ``cn_over_n`` at q = 1 and ``cn_over_u`` at q = 0; the pairs ``mehler``,
``rogers-from-h`` and ``h-from-rogers`` are ``h-from-asc`` at q = 1 and
``rogers-from-rogers`` at beta = 0 and at gamma = 0; the families
``ClassicalHermite()`` and ``Kesten(y, rho)`` are ``QHermite(1)`` and
``KestenHat(y, rho, 0)``.  A value the caller passes for a fixed parameter
is ignored.  Outputs are compared by type and bits, errors by type.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qortho.connect import connection
from qortho.expand import ExpansionSpec, expansion_coeff, expansion_eval
from qortho.polyfam import ClassicalHermite, Kesten, KestenHat, QHermite, eval_all
from qortho.qcore import QOrthoError

#: alias id -> (general id, fixed parameters)
KERNELS = {"mehler_classical": ("cn_over_n", {"q": 1}), "pm_q0": ("cn_over_u", {"q": 0})}
PAIRS = {
    "mehler": ("h-from-asc", {"q": 1}),
    "rogers-from-h": ("rogers-from-rogers", {"beta": 0}),
    "h-from-rogers": ("rogers-from-rogers", {"gamma": 0}),
}
NAMES = ("q", "y", "rho", "beta", "gamma")


def _bits(v):
    if isinstance(v, np.ndarray):
        return v.dtype, v.tobytes()
    return type(v), v.hex() if isinstance(v, float) else v


def _outcome(fn, *args, **kwargs):
    """The bits of fn's value, or the type of the error it raised."""
    try:
        out = fn(*args, **kwargs)
    except QOrthoError as exc:
        return type(exc)
    if hasattr(out, "n_terms"):
        return _bits(out.value), _bits(out.tail), out.n_terms
    if hasattr(out, "rows"):
        return {n: {k: _bits(v) for k, v in row.items()} for n, row in out.rows.items()}
    if isinstance(out, list):
        return [_bits(v) for v in out]
    return _bits(out)


@st.composite
def parameters(draw):
    """q, y, rho, beta, gamma, all rational or all float; y in [-1.8, 1.8]."""
    if draw(st.booleans()):
        unit = st.fractions(Fraction(-8, 9), Fraction(8, 9), max_denominator=9)
    else:
        unit = st.floats(-0.9, 0.9)
    p = {name: draw(unit) for name in NAMES}
    p["y"] = 2 * p["y"]
    return p


def _fixed_and_passed(draw, fixed, p):
    """The general entry's parameters, and the alias's: sometimes with a
    drawn value of each fixed parameter, which the alias must ignore."""
    general = {**p, **fixed}
    passed = {k: v for k, v in p.items() if k not in fixed or draw(st.booleans())}
    return general, passed


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data(), parameters())
def test_kernel_alias(data, p):
    for alias, (general_id, fixed) in KERNELS.items():
        general, passed = _fixed_and_passed(data.draw, fixed, p)
        for n in range(13):
            assert _outcome(expansion_coeff, alias, n, **passed) == _outcome(
                expansion_coeff, general_id, n, **general), (alias, n)
        L = 2.0 if general["q"] == 0 else 3.0
        xs = L * np.linspace(-0.9, 0.9, 5)
        floats = {k: float(v) for k, v in passed.items()}
        assert _outcome(expansion_eval, ExpansionSpec(alias, floats), xs) == _outcome(
            expansion_eval, ExpansionSpec(general_id, {**floats, **fixed}), xs), alias


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data(), parameters())
def test_pair_alias(data, p):
    for alias, (general_id, fixed) in PAIRS.items():
        general, passed = _fixed_and_passed(data.draw, fixed, p)
        assert _outcome(connection, alias, 8, **passed) == _outcome(
            connection, general_id, 8, **general), alias
        mat = connection(alias, 2, **passed)
        assert (mat.pair, mat.params) == (alias, passed)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(parameters(), st.sampled_from([Fraction(1, 3), Fraction(-7, 4), 0.3, -1.7]))
def test_family_alias(p, x):
    y, rho = p["y"], p["rho"]
    for alias, general in ((ClassicalHermite(), QHermite(1)),
                           (Kesten(y, rho), KestenHat(y, rho, 0))):
        assert _outcome(eval_all, alias, 12, x) == _outcome(eval_all, general, 12, x)
