"""The one truncated-sum loop, ``qcore._sum_series``, against the loops it replaced.

``series_reference`` keeps two of those loops as they were.  Random (term,
bound) sequences go through each old loop and through the code that now
calls ``_sum_series`` in its place (``expansion_eval`` with its term
generator replaced, and ``_sum_series`` with the identity battery's rules);
sums must agree bit for bit, with the same term counts and the same
exceptions.  The sampler's curvature slack, which also runs through
``_sum_series``, is checked against a scalar loop over exact coefficients.

Every sequence is endless unless a fixed order cuts it, as the production
term generators are: it is a drawn prefix followed by a tail that settles
(zero bounds), stalls (bounds that never get small) or, for the identity
loop, raises OverflowError.  Two differences from the old loops are by
design and are checked on their own below: a finite iterable now ends the
sum instead of raising, and an OverflowError ends it as NaN wherever it is
raised, not only in the battery's diagonal series.  The adaptive expansion
loop also lost its three-term minimum; it only mattered when the n = 0
bound, which is 1 for every kernel, was under tol, so the expansion draws
start, as every kernel does, with the term 1 and the bound 1.
"""

import math
from fractions import Fraction
from itertools import chain, repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import series_reference as ref
from qortho import connect, expand, sampler
from qortho.densities import density_eval, fCN, fN, fU
from qortho.qcore import NonConvergenceError, TruncationError, _sum_series


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _counted(seq, log):
    for item in seq:
        log.append(item)
        yield item


def _overflow():
    raise OverflowError("term too large for a float")
    yield  # pragma: no cover


TERMS = st.floats(-1e6, 1e6)
STOPS = (1e-16, 1e-3, 0.5)


def bounds(stops):
    edges = [0.0, 1.0, math.nan, math.inf]
    for s in stops:
        edges += [s, math.nextafter(s, math.inf)]
    return st.one_of(st.sampled_from(edges), st.floats(0.0, 2.0))


TAILS = {
    "settle": lambda: repeat((1e-20, 0.0)),
    "stall": lambda: repeat((0.25, 1.0)),
    "overflow": _overflow,
}


class TestIdentityLoop:
    @given(
        prefix=st.lists(st.tuples(TERMS, bounds(STOPS)), max_size=25),
        tail=st.sampled_from(sorted(TAILS)),
        arrays=st.booleans(),
        stop=st.sampled_from(STOPS),
        consecutive=st.integers(1, 4),
        cap=st.integers(0, 40),
    )
    # a lone -0.0 term: the sum starts from the first term, not from +0.0
    @example(prefix=[(-0.0, 0.0)], tail="settle", arrays=False, stop=1e-16,
             consecutive=1, cap=0)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, prefix, tail, arrays, stop, consecutive, cap):
        def seq():
            terms = chain(prefix, TAILS[tail]())
            if arrays:
                return ((np.array([t, 0.5 * t - 1.0]), b) for t, b in terms)
            return terms

        rule = dict(stop=stop, consecutive=consecutive, cap=cap)
        old_log, new_log = [], []
        try:
            want = ref.diagonal_sum(_counted(seq(), old_log), **rule)
        except NonConvergenceError as exc:
            assert str(exc) == "identity series did not settle"
            with pytest.raises(TruncationError):
                _sum_series(_counted(seq(), new_log), **rule)
            assert len(new_log) == len(old_log) == cap + 1
            return
        got, n = _sum_series(_counted(seq(), new_log), **rule)
        assert _bits(got) == _bits(want)
        assert len(new_log) == len(old_log)
        # the prefix sums are finite, so NaN means the tail overflowed; the
        # overflowing term is counted, though it never reached the sum
        overflowed = np.ndim(want) == 0 and math.isnan(want)
        assert n == len(new_log) + overflowed


class TestExpansionLoop:
    # cn_over_u has a term of every degree, as the old loop had; an even
    # kernel's stream holds only its nonzero terms (tests/test_expand.py)
    XS = np.array([0.3, -1.1])
    P = {"q": 0.5, "y": 0.3, "rho": 0.4}

    @given(
        prefix=st.lists(st.tuples(TERMS, TERMS, bounds(STOPS)), max_size=25),
        tail=st.sampled_from(["settle", "stall"]),
        K=st.one_of(st.none(), st.integers(0, 30)),
        tol=st.sampled_from(STOPS),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, prefix, tail, K, tol):
        def seq():
            first = [(1.0, 1.0, 1.0)]
            pairs = ((np.array([a, b]), bound) for a, b, bound in chain(first, prefix))
            return chain(pairs, ((np.full(2, t), b) for t, b in TAILS[tail]()))

        base = density_eval(fU(self.P["q"]), self.XS)
        try:
            acc, tail_series, n = ref.expansion_loop(
                seq(), np.zeros_like(self.XS), K, tol, name="cn_over_u")
        except TruncationError as exc:
            want = exc
        else:
            want = (base * acc, np.abs(base) * tail_series, n)
        with mock.patch.object(expand, "_terms", lambda kernel, p, x: seq()):
            spec = expand.ExpansionSpec("cn_over_u", self.P, K)
            if isinstance(want, TruncationError):
                with pytest.raises(TruncationError) as exc:
                    expand.expansion_eval(spec, self.XS, tol=tol)
                assert str(exc.value) == str(want)
            elif not all(np.all(np.isfinite(v)) for v in want[:2]):
                with pytest.raises(NonConvergenceError, match="overflowed") as exc:
                    expand.expansion_eval(spec, self.XS, tol=tol)
                assert not isinstance(exc.value, TruncationError)
            else:
                res = expand.expansion_eval(spec, self.XS, tol=tol)
                assert (_bits(res.value), _bits(res.tail), res.n_terms) == (
                    _bits(want[0]), _bits(want[1]), want[2])


class TestCurvatureSum:
    """The sampler's curvature slack D h^2/8, D = sum |c_n| U_n''(1) read from the
    float gamma row, against ``series_reference.curvature_loop`` over exact
    coefficients."""

    H2_8 = 1.0 / (2.0 * 10000 ** 2)  # h^2/8 on the sampler's 10 001-point grid

    @pytest.mark.parametrize("y,rho,q", [
        (Fraction(1, 3), Fraction(1, 2), Fraction(4, 7)),
        (Fraction(-6, 5), Fraction(-3, 10), Fraction(-2, 5)),
        (Fraction(0), Fraction(7, 10), Fraction(0)),
        # gamma_2 = rho^2 (1-q)(y^2-1) - q = 0, and at y = 0 every odd gamma_n
        # is 0 too: neither may end the sum (the terms at n = 0 and 1 are 0)
        (Fraction(3, 2), Fraction(1, 2), Fraction(5, 21)),
        (Fraction(0), Fraction(1, 2), Fraction(-1, 3)),
    ])
    def test_fcn_matches_the_exact_loop(self, y, rho, q):
        want = ref.curvature_loop(connect._gamma_rule(y, rho, q), self.H2_8)
        got = sampler._curvature_slack(sampler._row(fCN(float(y), float(rho), float(q))))
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(-3, 4), Fraction(9, 10)])
    def test_fn_matches_the_exact_loop(self, q):
        # the n_over_u coefficients: (-1)^k q^{k(k+1)/2} at n = 2k
        want = ref.curvature_loop(
            lambda n: 0 if n % 2 else (-1) ** (n // 2) * q ** (n // 2 * (n // 2 + 1) // 2),
            self.H2_8)
        got = sampler._curvature_slack(sampler._row(fN(float(q))))
        assert got == pytest.approx(want, rel=1e-13)


class TestSumSeries:
    def test_finite_iterable_ends_the_sum(self):
        assert _sum_series([(1.0, 1.0), (2.0, 1.0)], 0.5) == (3.0, 2)
        assert _sum_series([], 0.5) == (0.0, 0)

    def test_overflow_ends_the_sum_as_nan(self):
        def terms():
            yield 1.0, 1.0
            yield 10.0 ** 400, 1.0  # a Python float power raises OverflowError

        total, n = _sum_series(terms(), 0.5)
        assert math.isnan(total) and n == 2

    def test_cap_message_is_the_callers(self):
        with pytest.raises(TruncationError, match="^custom$"):
            _sum_series(repeat((1.0, 1.0)), 0.5, cap=3, message="custom")
