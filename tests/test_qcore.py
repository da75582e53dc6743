"""Tests for q-brackets, q-factorials, q-binomials and Pochhammer symbols."""

import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qortho.qcore import (
    NonConvergenceError,
    ParameterError,
    div,
    ensure_exact,
    is_exact,
    q_binomial,
    q_binomial_table,
    q_bracket,
    q_factorial,
    q_pochhammer,
    q_pochhammer_inf,
    support,
    truncation_order,
    _factorials,
    _pochhammers,
)

import row_reference as ref
from special_values import q_double_factorial_odd

# small rationals in (-1, 1), denominators kept tame so Fractions stay fast
rationals = st.fractions(
    min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=12
)


class TestQBracket:
    def test_base_cases(self):
        q = Fraction(1, 2)
        assert q_bracket(0, q) == 0
        assert q_bracket(1, q) == 1
        assert q_bracket(3, q) == Fraction(7, 4)

    def test_q_one_gives_integers(self):
        assert q_bracket(5, 1) == 5

    @given(n=st.integers(0, 30), q=rationals)
    def test_geometric_sum(self, n, q):
        # (1-q) [n]_q = 1 - q^n
        assert (1 - q) * q_bracket(n, q) == 1 - q ** n


class TestQFactorial:
    def test_small_values(self):
        q = Fraction(1, 2)
        assert q_factorial(0, q) == 1
        assert q_factorial(3, q) == Fraction(1, 1) * Fraction(3, 2) * Fraction(7, 4)

    def test_q_one_is_factorial(self):
        assert q_factorial(6, 1) == math.factorial(6)

    @given(n=st.integers(0, 15), q=rationals)
    def test_pochhammer_relation(self, n, q):
        # (q;q)_n = (1-q)^n [n]_q!
        assert q_pochhammer(q, q, n) == (1 - q) ** n * q_factorial(n, q)


class TestQBinomial:
    def test_four_choose_two(self):
        # [4 2]_q = 1 + q + 2q^2 + q^3 + q^4
        for q in (Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4)):
            expect = 1 + q + 2 * q ** 2 + q ** 3 + q ** 4
            assert q_binomial(4, 2, q) == expect

    def test_out_of_range_is_zero(self):
        q = Fraction(1, 2)
        assert q_binomial(3, -1, q) == 0
        assert q_binomial(3, 4, q) == 0

    def test_q_one_is_comb(self):
        assert q_binomial(10, 4, 1) == math.comb(10, 4)

    def test_float_q_gives_float(self):
        v = q_binomial(4, 2, 0.5)
        assert isinstance(v, float)
        assert v == pytest.approx(35 / 16)

    @given(n=st.integers(0, 12), k=st.integers(0, 12), q=rationals)
    def test_symmetry(self, n, k, q):
        assert q_binomial(n, k, q) == q_binomial(n, n - k, q)

    @given(n=st.integers(1, 12), k=st.integers(0, 12), q=rationals)
    @settings(max_examples=60)
    def test_pascal_recurrence(self, n, k, q):
        lhs = q_binomial(n, k, q)
        rhs = q_binomial(n - 1, k - 1, q) + q ** k * q_binomial(n - 1, k, q)
        assert lhs == rhs


class TestQBinomialTable:
    """The q-Pascal table against the product-form q_binomial as oracle."""

    @given(
        q=st.one_of(
            rationals,
            st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2), 0, 1]),
        ),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_equals_product_form(self, q, data):
        B = q_binomial_table(q)
        # rows in random order, so the table grows by jumps and is reread
        for n in data.draw(st.lists(st.integers(0, 30), min_size=1, max_size=4)):
            for k in range(-2, n + 3):  # k < 0 and k > n give 0
                got, want = B(n, k), q_binomial(n, k, q)
                assert got == want and type(got) is type(want), (n, k)

    @pytest.mark.parametrize("q", [-0.95, -0.5, 0.3, 0.9, 0.99])
    def test_float_entries_within_4e15_of_exact(self, q):
        # against the exact value at the float's own rational value (the exact
        # table is checked against the product form above); the product form
        # itself reaches 2e-14 at q = 0.99 on the same entries
        B, exact = q_binomial_table(q), q_binomial_table(Fraction(q))
        for n in range(41):
            for k in range(n + 1):
                want = exact(n, k)
                if want:
                    assert abs(Fraction(B(n, k)) - want) <= 4e-15 * abs(want), (n, k)


class TestPrefixRows:
    @given(q=st.one_of(rationals, st.floats(-0.95, 0.95)), a=rationals)
    @settings(max_examples=40)
    def test_scalars_are_row_entries(self, q, a):
        # the same products in the same order: equal bit for bit on floats too
        fact, poch = _factorials(q), _pochhammers(a, q)
        for n in range(16):
            assert repr(next(fact)) == repr(q_factorial(n, q))
            assert repr(next(poch)) == repr(q_pochhammer(a, q, n))


class TestBracketRows:
    """The bracket row reproduces the per-n bracket loop bit for bit."""

    @given(q=st.one_of(rationals, st.floats(-0.95, 0.95)))
    @settings(max_examples=40)
    def test_rows_match_reference(self, q):
        want = ref.factorials(q, 60)
        got = list(islice(_factorials(q), 61))
        assert [repr(v) for v in got] == [repr(v) for v in want]
        for n in range(61):
            assert repr(q_bracket(n, q)) == repr(ref.bracket(n, q))


class TestQDoubleFactorialOdd:
    def test_small_values(self):
        q = Fraction(1, 2)
        assert q_double_factorial_odd(0, q) == 1
        assert q_double_factorial_odd(1, q) == 1
        # [1][3] = 1 * (1 + q + q^2)
        assert q_double_factorial_odd(2, q) == Fraction(7, 4)
        assert q_double_factorial_odd(3, q) == Fraction(7, 4) * q_bracket(5, q)

    @given(k=st.integers(0, 10), q=rationals)
    def test_odd_pochhammer_relation(self, k, q):
        # (1-q)^k [2k-1]_q!! = (q; q^2)_k
        lhs = (1 - q) ** k * q_double_factorial_odd(k, q)
        assert lhs == q_pochhammer(q, q * q, k)


class TestQPochhammer:
    def test_frozen_value(self):
        assert q_pochhammer(Fraction(1, 2), Fraction(1, 2), 3) == Fraction(21, 64)

    def test_empty_product(self):
        assert q_pochhammer(0.3, 0.5, 0) == 1

    def test_multi_symbol_first_argument(self):
        a, b, q = Fraction(1, 3), Fraction(-1, 4), Fraction(1, 2)
        combined = q_pochhammer((a, b), q, 4)
        assert combined == q_pochhammer(a, q, 4) * q_pochhammer(b, q, 4)


class TestQPochhammerInf:
    def test_zero_first_argument(self):
        assert q_pochhammer_inf(0.0, 0.5) == 1.0

    def test_euler_value(self):
        # (1/2; 1/2)_inf, truncation error below 1e-13
        v = q_pochhammer_inf(0.5, 0.5)
        assert v == pytest.approx(0.2887880950866024, abs=1e-13)

    def test_matches_finite_product(self):
        q = 0.4
        direct = 1.0
        for k in range(200):
            direct *= 1.0 - 0.3 * q ** k
        assert q_pochhammer_inf(0.3, q) == pytest.approx(direct, rel=1e-14)

    def test_requires_contracting_q(self):
        with pytest.raises(ParameterError):
            q_pochhammer_inf(0.5, 1.0)


class TestTruncationOrder:
    def test_zero_amplitude(self):
        assert truncation_order(0.0, 0.5, 1e-14) == 0

    def test_monotone_in_eps(self):
        k_loose = truncation_order(7.0, 0.6, 1e-6)
        k_tight = truncation_order(7.0, 0.6, 1e-14)
        assert k_loose <= k_tight

    def test_cap_raises(self):
        # |q| close enough to 1 that the bound needs more than the cap
        with pytest.raises(NonConvergenceError):
            truncation_order(7.0, 0.95, 1e-14)


class TestSupport:
    def test_radius(self):
        s = support(0.5)
        assert s.hi == pytest.approx(2.0 / math.sqrt(0.5))
        assert s.lo == -s.hi

    def test_q_outside_open_interval_raises(self):
        for q in (1.0, -1.0, 1.2):
            with pytest.raises(ParameterError):
                support(q)


class TestExactness:
    def test_is_exact(self):
        assert is_exact(3)
        assert is_exact(Fraction(1, 2))
        assert not is_exact(0.5)
        assert not is_exact(True)  # bools are not numeric parameters here

    def test_ensure_exact_rejects_float(self):
        with pytest.raises(ParameterError):
            ensure_exact(q=0.5)
        ensure_exact(q=Fraction(1, 2), y=3)  # no raise

    def test_div_is_exact_only_on_rationals(self):
        assert type(div(1, 3)) is Fraction and div(1, 3) == Fraction(1, 3)
        assert div(Fraction(1, 2), 4) == Fraction(1, 8)
        assert type(div(1.0, 4)) is float and div(1.0, 4) == 0.25
