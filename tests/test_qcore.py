"""Tests for q-brackets, q-factorials, q-binomials and Pochhammer symbols."""

import math
import sys
from decimal import Decimal
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
    check_degree,
    check_params,
)

import product_reference
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

    @pytest.mark.parametrize("q", [-1, Fraction(-1), -1.0])
    def test_q_minus_one_is_the_pascal_value(self, q):
        # the product form divided by 1 - q^2 = 0 and raised ZeroDivisionError
        B = q_binomial_table(q)
        for n in range(12):
            for k in range(n + 1):
                got, want = q_binomial(n, k, q), B(n, k)
                assert got == want and type(got) is type(want), (n, k)

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

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(-3.0, 3.0),
        q=st.floats(-0.95, 0.95),
        eps=st.floats(1e-16, 0.5),
    )
    def test_prefix_row_matches_the_scalar_loop(self, a, q, eps):
        # the value is the _pochhammers row at K = truncation_order(a, q, eps),
        # bit for bit the loop it replaced
        try:
            want = product_reference.q_pochhammer_inf(a, q, eps)
        except NonConvergenceError:
            with pytest.raises(NonConvergenceError):
                q_pochhammer_inf(a, q, eps)
            return
        assert q_pochhammer_inf(a, q, eps).hex() == want.hex()

    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf, 1.0])
    def test_eps_must_be_positive_and_finite(self, eps):
        # and below 1, the one rule of every relative truncation eps
        with pytest.raises(ParameterError, match=r"eps must lie in \(0, 1\)"):
            q_pochhammer_inf(0.5, 0.5, eps)

    @pytest.mark.parametrize("q,eps,err", [
        (False, 1e-14, "^infinite product needs a real q, got False$"),
        (1, 1e-14, "^infinite product needs -1 < q < 1, got q=1$"),
        (0.5, -1.0, r"^eps must lie in \(0, 1\), got -1.0$"),
    ])
    @pytest.mark.parametrize("a", [0.5, 0])
    def test_q_and_eps_are_checked_as_given(self, a, q, eps, err):
        # q used to be checked after float(), so q = False read as 0, and
        # a = 0 returned 1.0 before any check
        with pytest.raises(ParameterError, match=err):
            q_pochhammer_inf(a, q, eps)


class TestCheckParams:
    def test_returns_the_named_values_in_order(self):
        p = {"q": Fraction(1, 2), "y": 3, "rho": -0.5, "beta": 7}
        assert check_params("f", p, ("rho", "q", "y")) == [-0.5, Fraction(1, 2), 3]

    @pytest.mark.parametrize("params", [{}, {"q": None}])
    def test_missing(self, params):
        with pytest.raises(ParameterError, match="^f needs parameter 'q'$"):
            check_params("f", params, ("q",))

    @pytest.mark.parametrize("q,unit_q,ok", [
        (0.999, False, True), (-0.999, False, True), (Fraction(-1, 3), False, True),
        (1, False, False), (1.0, True, True), (Fraction(1), True, True),
        (-1, True, False), (Fraction(3, 2), True, False), (math.nan, True, False),
        (math.inf, True, False), (10 ** 400, True, False),
    ])
    def test_q_domain(self, q, unit_q, ok):
        if ok:
            assert check_params("f", {"q": q}, ("q",), unit_q) == [q]
        else:
            with pytest.raises(ParameterError, match="^f needs -1 < q <=? 1, got q="):
                check_params("f", {"q": q}, ("q",), unit_q)

    @pytest.mark.parametrize("name", ["rho", "beta", "gamma"])
    @pytest.mark.parametrize("v,ok", [
        (0.5, True), (Fraction(-9, 10), True), (1, False), (-1.0, False),
        (math.nan, False), (-math.inf, False),
    ])
    def test_unit_disc(self, name, v, ok):
        if ok:
            assert check_params("f", {name: v}, (name,), unit_q=True) == [v]
        else:
            with pytest.raises(ParameterError, match=r"^f needs \|%s\| < 1" % name):
                check_params("f", {name: v}, (name,), unit_q=True)

    @pytest.mark.parametrize("v,ok", [
        (1e300, True), (-7, True), (10 ** 400, False), (Fraction(5, 3), True),
        (Fraction(10 ** 400, 3), False), (math.nan, False), (math.inf, False),
    ])
    def test_other_names_must_be_finite(self, v, ok):
        # finite means a magnitude that fits a float, so an exact 10**400 is
        # refused too
        if ok:
            assert check_params("f", {"y": v}, ("y",)) == [v]
        else:
            with pytest.raises(ParameterError, match="^f needs a finite y"):
                check_params("f", {"y": v}, ("y",))

    @pytest.mark.parametrize("name", ["q", "rho", "y"])
    @pytest.mark.parametrize("v", [True, False, np.bool_(True), "0.5", 0.5j,
                                   Decimal("0.5"), np.array(0.5)])
    def test_non_real_values_are_refused(self, name, v):
        # a bool used to pass as 0 or 1 (fN(True) was the Gaussian), and a
        # string or complex value raised a raw TypeError from the comparison
        with pytest.raises(ParameterError, match="^f needs a real %s, got " % name):
            check_params("f", {name: v}, (name,), unit_q=True)

    @pytest.mark.parametrize("v", [np.float64(0.5), np.float32(-0.25), np.int64(0)])
    def test_numpy_reals_are_accepted(self, v):
        assert check_params("f", {"q": v, "rho": v, "y": v}, ("q", "rho", "y")) == [v, v, v]

    def test_unnamed_parameters_are_not_read(self):
        bad = {"q": 2.0, "rho": math.nan, "y": math.inf}
        assert check_params("f", dict(bad, beta=0.5), ("beta",)) == [0.5]

    @pytest.mark.parametrize("tol,ok", [
        (1e-300, True), (2.0, True), (0.0, False), (-1.0, False), (math.nan, False),
        (math.inf, False), (10 ** 400, False),
    ])
    def test_tolerance(self, tol, ok):
        if ok:
            assert check_params("f", {"tol": tol}, ("tol",)) == [tol]
        else:
            with pytest.raises(ParameterError, match="^tol must be positive and finite"):
                check_params("f", {"tol": tol}, ("tol",))

    @pytest.mark.parametrize("eps,ok", [
        (1e-300, True), (Fraction(1, 2), True), (0.0, False), (1.0, False), (2, False),
        (math.nan, False), (math.inf, False),
    ])
    @pytest.mark.parametrize("name", ["eps", "trunc_eps"])
    def test_relative_eps(self, name, eps, ok):
        # every relative truncation eps has one domain, (0, 1)
        if ok:
            assert check_params("f", {name: eps}, (name,)) == [eps]
        else:
            with pytest.raises(ParameterError, match=r"^%s must lie in \(0, 1\), got " % name):
                check_params("f", {name: eps}, (name,))

    @pytest.mark.parametrize("name", ["tol", "eps", "envelope"])
    @pytest.mark.parametrize("v", [True, "x", 0.5j])
    def test_non_real_controls_are_refused(self, name, v):
        with pytest.raises(ParameterError, match="^%s must be a real number, got " % name):
            check_params("f", {name: v}, (name,))

    @pytest.mark.parametrize("q", [2.5, -7, Fraction(-9, 2), np.float64(3.0)])
    def test_any_q_is_any_finite_q(self, q):
        assert check_params("f", {"q": q}, ("q",), any_q=True) == [q]
        for bad in (math.nan, math.inf, 10 ** 400):
            with pytest.raises(ParameterError, match="^f needs a finite q, got "):
                check_params("f", {"q": bad}, ("q",), any_q=True)

    @pytest.mark.parametrize("n,ok", [
        (0, True), (7, True), (-1, False), (2.5, False), (2.0, False), (True, False),
        (np.int64(3), False), (None, False),
    ])
    def test_degree(self, n, ok):
        # an int >= 0 passes as it is; a bool, a float or a numpy integer does
        # not (numpy integer arithmetic wraps at 2**63 on the exact paths)
        if ok:
            assert check_degree(n) is n
        else:
            with pytest.raises(ParameterError, match="^n_max must be an integer >= 0, got "):
                check_degree(n)

    @pytest.mark.parametrize("n", [sys.maxsize + 1, 10 ** 400], ids=["maxsize+1", "10**400"])
    def test_degree_past_maxsize(self, n):
        # no count past sys.maxsize can be iterated or allocated
        assert check_degree(sys.maxsize) == sys.maxsize
        msg = "^n_max must be at most sys.maxsize = %d, got %d$" % (sys.maxsize, n)
        with pytest.raises(ParameterError, match=msg):
            check_degree(n)


class TestPrimitiveDegrees:
    """n of each scalar primitive passes the degree rule; q_binomial's k is an int."""

    @pytest.mark.parametrize("n", [-1, 2.5, True, np.int64(3)])
    @pytest.mark.parametrize("name,call", [
        ("q_bracket", lambda n: q_bracket(n, Fraction(1, 3))),
        ("q_factorial", lambda n: q_factorial(n, Fraction(1, 3))),
        ("q_pochhammer", lambda n: q_pochhammer(Fraction(1, 2), Fraction(1, 3), n)),
        ("q_pochhammer", lambda n: q_pochhammer((), Fraction(1, 3), n)),
        ("q_binomial", lambda n: q_binomial(n, 1, Fraction(1, 3))),
    ])
    def test_degree_rule(self, name, call, n):
        # 2.5 used to give a float binomial at a rational q, or a raw ValueError
        # from islice; True a q-factorial of 1
        with pytest.raises(ParameterError, match="^%s n must be an integer >= 0, got " % name):
            call(n)

    @pytest.mark.parametrize("k", [1.0, 2.5, True, None])
    def test_binomial_k_is_an_int(self, k):
        with pytest.raises(ParameterError, match="^q_binomial k must be an integer, got "):
            q_binomial(3, k, Fraction(1, 3))

    @pytest.mark.parametrize("arg,call", [
        ("q_bracket q", lambda: q_bracket(3, math.nan)),
        ("q_factorial q", lambda: q_factorial(3, np.float64(math.nan))),
        ("q_binomial q", lambda: q_binomial(3, 1, math.nan)),
        ("q_pochhammer q", lambda: q_pochhammer(0.5, math.nan, 3)),
        ("q_pochhammer a", lambda: q_pochhammer(math.nan, 0.5, 3)),
        ("q_pochhammer a", lambda: q_pochhammer((0.25, math.nan), 0.5, 3)),
    ])
    def test_nan_is_refused(self, arg, call):
        # each returned nan
        owner, name = arg.split()
        with pytest.raises(ParameterError, match="^%s needs a finite %s, got " % (owner, name)):
            call()

    @pytest.mark.parametrize("call,err", [
        (lambda: q_bracket(3, math.inf), "q_bracket needs a finite q, got inf"),
        (lambda: q_binomial(4, 2, math.inf), "q_binomial needs a finite q, got inf"),
        (lambda: q_factorial(3, 10 ** 400), "q_factorial needs a finite q, got 1000"),
        (lambda: q_bracket(3, "x"), "q_bracket needs a real q, got 'x'"),
        (lambda: q_pochhammer("a", 0.5, 2), "q_pochhammer needs a real a, got 'a'"),
        (lambda: q_pochhammer((), 0.5j, 2), r"q_pochhammer needs a real q, got 0.5j"),
    ])
    def test_q_and_a_are_finite_reals(self, call, err):
        # inf returned nan, 10**400 ran in exact arithmetic, and "x" or 0.5j
        # raised a raw TypeError
        with pytest.raises(ParameterError, match="^" + err):
            call()

    @pytest.mark.parametrize("q", [2.5, -3, Fraction(7, 2)])
    def test_any_finite_q_is_accepted(self, q):
        # the primitives are polynomials in q, defined at every q
        assert q_bracket(3, q) == 1 + q + q * q
        assert q_binomial(2, 1, q) == 1 + q


class TestTruncationOrder:
    def test_zero_amplitude(self):
        assert truncation_order(0.0, 0.5, 1e-14) == 0

    def test_nan_amplitude_is_refused(self):
        # a NaN amplitude used to give K = 0, so (nan; q)_inf read 1.0; inf ran
        # to the factor cap, and 10**400 raised a raw OverflowError
        for a in (math.nan, math.inf, 10 ** 400):
            msg = "^infinite product needs a finite amplitude, got %s$" % (a,)
            with pytest.raises(ParameterError, match=msg):
                truncation_order(a, 0.5, 1e-14)
            with pytest.raises(ParameterError, match=msg):
                q_pochhammer_inf(a, 0.5)

    @pytest.mark.parametrize("amplitude", ["x", 0.5j, True, False, (0.5, "x")])
    def test_amplitude_must_be_a_real_number(self, amplitude):
        # "x" raised a raw ValueError, 0.5j a raw TypeError, and True read as 1,
        # so q_pochhammer_inf(True, 0.5) returned 0.0
        msg = "^infinite product needs a real amplitude, got "
        if not isinstance(amplitude, tuple):
            with pytest.raises(ParameterError, match=msg):
                truncation_order(amplitude, 0.5, 1e-14)
        with pytest.raises(ParameterError, match=msg):
            q_pochhammer_inf(amplitude, 0.5)

    def test_numpy_reals_are_amplitudes(self):
        assert truncation_order(np.float64(7.0), 0.6, 1e-14) == truncation_order(7.0, 0.6, 1e-14)
        assert q_pochhammer_inf(np.int64(0), 0.5) == 1.0

    def test_infinite_amplitude_hits_the_cap(self):
        # an infinite amplitude is refused (above); the largest finite ones
        # need more than the cap
        with pytest.raises(NonConvergenceError, match="more than 400 factors"):
            q_pochhammer_inf(1e300, 0.5)

    @pytest.mark.parametrize("eps", [0.0, -1, math.nan, math.inf, 1, 2.0, "x", 1j])
    def test_eps_must_be_positive_and_finite(self, eps):
        # and below 1: eps = -1 used to run to the 400-factor cap, NaN gave
        # K = 0, and "x" or 1j raised a raw TypeError
        err = r"^eps must (lie in \(0, 1\)|be a real number), got "
        with pytest.raises(ParameterError, match=err):
            truncation_order(1, 0.5, eps)

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
