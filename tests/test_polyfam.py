"""Tests for the polynomial families: recurrences, degenerations, bounds."""

import math
from fractions import Fraction
from itertools import count, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qortho.qcore import (
    IrrationalParameterError,
    ParameterError,
    q_binomial,
    q_bracket,
    q_factorial,
    q_pochhammer,
    _Row,
)
from qortho import polyfam
from qortho.expand import _hermite_bound, _rogers_bound
from qortho.polyfam import (
    ASC,
    BigB,
    ChebT,
    ChebT_hat,
    ChebU,
    ChebU_hat,
    ClassicalHermite,
    Kesten,
    KestenHat,
    QHermite,
    RationalPoly,
    Rogers,
    coeffs,
    eval as fam_eval,
    eval_all,
    _recurrence,
    _v_terms,
    _w_terms,
)
import row_reference as ref
from special_values import q_double_factorial_odd, special_values

F = Fraction


def deflate(poly, root):
    """Synthetic division of a RationalPoly by (x - root): (quotient, remainder)."""
    root = Fraction(root)
    acc = Fraction(0)
    out = []
    for c in reversed(poly.coeffs):
        acc = acc * root + c
        out.append(acc)
    if not out:
        return RationalPoly(), Fraction(0)
    rem = out.pop()
    out.reverse()
    return RationalPoly(out), rem


q_rationals = st.fractions(
    min_value=F(-9, 10), max_value=F(9, 10), max_denominator=10
)


class TestRationalPoly:
    def test_construction_drops_trailing_zeros(self):
        p = RationalPoly((F(1), F(0), F(0)))
        assert p.coeffs == (F(1),)
        assert RationalPoly(()).degree == -1

    def test_rejects_floats(self):
        with pytest.raises(IrrationalParameterError):
            RationalPoly((0.5,))

    def test_arithmetic(self):
        x = RationalPoly.x()
        p = (x + 1) * (x - 1)
        assert p.coeffs == (F(-1), F(0), F(1))
        assert (p - p).coeffs == ()
        assert (p / 2)(F(3)) == F(8, 2)

    def test_horner_eval(self):
        p = RationalPoly((F(1), F(-2), F(1)))  # (x-1)^2
        assert p(F(3)) == 4
        assert p(1.0) == 0.0  # float argument stays float

    def test_deflate(self):
        x = RationalPoly.x()
        p = (x - 2) * (x + 3)
        quot, rem = deflate(p, F(2))
        assert rem == 0
        assert quot.coeffs == (F(3), F(1))
        quot2, rem2 = deflate(p, F(1))
        assert rem2 == (1 - 2) * (1 + 3)

    def test_lead(self):
        p = 3 * RationalPoly.x() ** 2
        assert p.lead() == 3
        assert p.degree == 2


class TestRecurrences:
    """Each family satisfies its three-term recurrence with exact coefficients."""

    def test_qhermite_h3(self):
        # H_3 = x^3 - (2+q) x
        q = F(1, 2)
        assert coeffs(QHermite(q), 3).coeffs == (F(0), F(-5, 2), F(0), F(1))

    def test_qhermite_float_point(self):
        assert fam_eval(QHermite(0.5), 3, 1.0) == pytest.approx(-1.5)

    def test_monic_leading_coefficient(self):
        q, y, rho = F(1, 3), F(2, 5), F(1, 4)
        for fam in (QHermite(q), ASC(y, rho, q), ChebU_hat(q),
                    ClassicalHermite(), Kesten(y, rho), KestenHat(y, rho, q)):
            for n in range(7):
                assert coeffs(fam, n).lead() == 1, fam.tag
        # non-monic families: B_n leads with (-1)^n q^{...}, That_n with 1/2
        assert coeffs(BigB(q), 1).lead() == -1
        assert coeffs(ChebT_hat(q), 3).lead() == F(1, 2)

    def test_chebyshev_classical_values(self):
        # U_n(cos t) = sin((n+1)t)/sin(t) sanity on a numeric grid
        t = np.linspace(0.1, 3.0, 17)
        x = np.cos(t)
        vals = eval_all(ChebU(), 5, x)
        np.testing.assert_allclose(vals[5], np.sin(6 * t) / np.sin(t), atol=1e-12)
        tv = eval_all(ChebT(), 5, x)
        np.testing.assert_allclose(tv[5], np.cos(5 * t), atol=1e-12)

    def test_rogers_beta_zero_is_qhermite(self):
        q = F(2, 5)
        for n in range(9):
            assert coeffs(Rogers(F(0), q), n) == coeffs(QHermite(q), n)

    def test_asc_rho_zero_is_qhermite(self):
        q = F(2, 5)
        for n in range(9):
            assert coeffs(ASC(F(1, 2), F(0), q), n) == coeffs(QHermite(q), n)

    def test_validate_rejects_bad_parameters(self):
        # validation happens at use time, not construction
        with pytest.raises(ParameterError):
            coeffs(ChebU_hat(1), 2)  # hat families need -1 < q < 1
        with pytest.raises(ParameterError):
            coeffs(Rogers(F(3, 2), F(1, 2)), 2)
        with pytest.raises(ParameterError):
            coeffs(ASC(F(1, 2), F(5, 4), F(1, 2)), 2)
        with pytest.raises(ParameterError):
            coeffs(KestenHat(F(1, 2), F(1, 4), F(3, 2)), 2)

    def test_coeffs_requires_rational_parameters(self):
        with pytest.raises(IrrationalParameterError):
            coeffs(QHermite(0.5), 3)


class TestDegenerations:
    def test_qhermite_q0_is_chebu_halved(self):
        # H_n(x|0) = U_n(x/2)
        x = RationalPoly.x()
        for n in range(11):
            lhs = coeffs(QHermite(F(0)), n)
            rhs_vals = [fam_eval(ChebU(), n, F(t, 7) / 2) for t in range(-3, 4)]
            lhs_vals = [lhs(F(t, 7)) for t in range(-3, 4)]
            assert lhs_vals == rhs_vals

    def test_qhermite_q1_is_classical(self):
        for n in range(13):
            assert coeffs(QHermite(1), n) == coeffs(ClassicalHermite(), n)

    def test_kesten_hat_q0_is_kesten(self):
        y, rho = F(2, 5), F(1, 4)
        for n in range(11):
            assert coeffs(KestenHat(y, rho, 0), n) == coeffs(Kesten(y, rho), n)

    def test_asc_y_equals_x_is_rogers(self):
        # P_n(x | y=x, rho, q) = R_n(x | rho, q) pointwise
        q, rho = F(1, 3), F(1, 4)
        for x0 in (F(0), F(1, 2), F(-2, 3)):
            for n in range(9):
                lhs = fam_eval(ASC(x0, rho, q), n, x0)
                rhs = fam_eval(Rogers(rho, q), n, x0)
                assert lhs == rhs

    def test_asc_q1_is_shifted_scaled_hermite(self):
        # P_n(x|y,rho,1) = (1-rho^2)^{n/2} He_n((x-rho y)/sqrt(1-rho^2)):
        # with He_n = sum h_i t^i this is sum h_i (x-rho y)^i (1-rho^2)^{(n-i)/2},
        # rational because i and n share parity.
        y, rho = F(2, 5), F(1, 4)
        s2 = 1 - rho * rho
        x = RationalPoly.x()
        for n in range(11):
            he = coeffs(ClassicalHermite(), n)
            rhs = RationalPoly(())
            for i, h in enumerate(he.coeffs):
                if h == 0:
                    continue
                rhs = rhs + (x - rho * y) ** i * (h * s2 ** ((n - i) // 2))
            assert coeffs(ASC(y, rho, 1), n) == rhs

    def test_bigb_q1_alternating_hermite(self):
        # B_n(y|1) = i^n He_n(iy): flip the sign of every other coefficient
        for n in range(11):
            he = coeffs(ClassicalHermite(), n).coeffs
            expect = tuple(
                c * (-1) ** ((n + j) // 2 % 2) if (n + j) % 2 == 0 else c
                for j, c in enumerate(he)
            )
            assert coeffs(BigB(1), n).coeffs == expect

    def test_bigb_q0_terminates(self):
        # B_0 = 1, B_1 = -x, B_2 = 1, B_n = 0 beyond
        got = [coeffs(BigB(0), n) for n in range(7)]
        x = RationalPoly.x()
        assert got[0] == RationalPoly((F(1),))
        assert got[1] == -1 * x
        assert got[2] == RationalPoly((F(1),))
        for n in range(3, 7):
            assert got[n].coeffs == ()

    def test_rogers_beta_to_one_gives_chebt_hat(self):
        # R_n(x0|beta,q)/(beta;q)_n -> 2 That_n(x0), checked exactly by
        # running the recurrence over polynomials in beta and deflating the
        # simple zero at beta = 1.
        q, x0 = F(1, 2), F(1, 3)
        b = RationalPoly.x()  # beta as the polynomial variable
        prev, cur = RationalPoly(()), RationalPoly((F(1),))
        polys = [cur]
        for n in range(8):
            a_n = x0 * (RationalPoly((F(1),)) - b * q ** n)
            c_n = (
                RationalPoly(())
                if n == 0
                else q_bracket(n, q) * (RationalPoly((F(1),)) - b * b * q ** (n - 1))
            )
            nxt = a_n * cur - c_n * prev
            prev, cur = cur, nxt
            polys.append(cur)
        for n in range(1, 9):
            quot, rem = deflate(polys[n], F(1))
            assert rem == 0  # R_n(x0|1,q) = 0 for n >= 1
            # (beta;q)_n / (beta - 1) at beta = 1 equals -(q;q)_{n-1}
            scale = -q_pochhammer(q, q, n - 1)
            assert quot(F(1)) / scale == 2 * fam_eval(ChebT_hat(q), n, x0)


class TestSpecialValues:
    def test_chebu_table(self):
        for n in range(21):
            assert special_values(ChebU(), n, 0) == fam_eval(ChebU(), n, F(0))
            assert special_values(ChebU(), n, 1) == n + 1
            assert special_values(ChebU(), n, -1) == (-1) ** n * (n + 1)
            assert special_values(ChebU(), n, F(1, 2)) == fam_eval(
                ChebU(), n, F(1, 2)
            )

    def test_qhermite_at_zero(self):
        q = F(1, 3)
        for n in range(17):
            expect = fam_eval(QHermite(q), n, F(0))
            assert special_values(QHermite(q), n, 0) == expect
            if n % 2 == 0:
                k = n // 2
                assert expect == (-1) ** k * q_double_factorial_odd(k, q)

    def test_qhermite_at_edge(self):
        # H_n(2/sqrt(1-q)) = W_n / (1-q)^{n/2}, exact for even n
        q = F(1, 2)
        W = list(islice(_w_terms(q), 9))
        for n in (0, 2, 4, 6, 8):
            v = special_values(QHermite(q), n, "edge")
            assert v == W[n] / (1 - q) ** (n // 2)

    def test_kesten_tables(self):
        y, rho = F(2, 5), F(1, 4)
        fam = Kesten(y, rho)
        for n in range(21):
            assert special_values(fam, n, 0) == fam_eval(fam, n, F(0))
            assert special_values(fam, n, 1) == fam_eval(fam, n, F(1))

    def test_bigb_rogers_at_zero(self):
        q = F(1, 3)
        for n in range(17):
            assert special_values(BigB(q), n, 0) == fam_eval(BigB(q), n, F(0))
        beta = F(1, 5)
        for n in range(17):
            got = special_values(Rogers(beta, q), n, 0)
            assert got == fam_eval(Rogers(beta, q), n, F(0))

    def test_unsupported_point_raises(self):
        with pytest.raises(ParameterError):
            special_values(ChebU(), 3, F(1, 3))
        with pytest.raises(ParameterError):
            special_values(ClassicalHermite(), 3, 1)


class TestGrowth:
    def test_w_growth_is_binomial_sum(self):
        q = F(1, 3)
        W = list(islice(_w_terms(q), 10))
        for n in range(10):
            assert W[n] == sum(q_binomial(n, i, q) for i in range(n + 1))

    def test_v_growth_direct_sum(self):
        q, beta = F(1, 3), F(1, 4)
        V = list(islice(_v_terms(q, beta), 8))
        for n in range(8):
            direct = sum(
                q_pochhammer(beta, q, i)
                * q_pochhammer(beta, q, n - i)
                / (q_pochhammer(q, q, i) * q_pochhammer(q, q, n - i))
                for i in range(n + 1)
            )
            assert V[n] == direct

    # the sup-norm bound rules that certify expansion truncations, read with
    # a = |c_n| = 1
    @given(q=st.floats(0.05, 0.9), frac=st.floats(-1.0, 1.0), n=st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_qhermite_bound_dominates(self, q, frac, n):
        L = 2.0 / math.sqrt(1.0 - q)
        x = frac * L
        bound = _hermite_bound({"q": q}, None)(n, 1.0)
        assert abs(fam_eval(QHermite(q), n, x)) <= bound * (1 + 1e-12)

    @given(q=st.floats(0.05, 0.9), beta=st.floats(0.0, 0.8),
           frac=st.floats(-1.0, 1.0), n=st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_rogers_bound_dominates(self, q, beta, frac, n):
        L = 2.0 / math.sqrt(1.0 - q)
        x = frac * L
        bound = _rogers_bound({"q": q, "gamma": beta}, None)(n, 1.0)
        assert abs(fam_eval(Rogers(beta, q), n, x)) <= bound * (1 + 1e-12)


class TestEvalAll:
    def test_numpy_matches_scalar(self):
        q = 0.4
        xs = np.linspace(-2.0, 2.0, 9)
        vec = eval_all(QHermite(q), 6, xs)
        for i, x in enumerate(xs):
            scal = eval_all(QHermite(q), 6, float(x))
            for n in range(7):
                assert vec[n][i] == pytest.approx(scal[n], abs=1e-13)

    def test_fraction_input_stays_exact(self):
        vals = eval_all(QHermite(F(1, 2)), 4, F(1, 3))
        assert all(isinstance(v, Fraction) for v in vals)

    def test_length(self):
        assert len(eval_all(ChebU(), 0, 0.3)) == 1
        assert len(eval_all(ChebU(), 5, 0.3)) == 6


class TestRows:
    def test_row_takes_each_value_once_and_no_further(self):
        taken = []

        def squares():
            for n in count():
                taken.append(n)
                yield n * n

        row = _Row(squares())
        assert row[3] == 9 and taken == [0, 1, 2, 3]
        assert row[1] == 1 and taken == [0, 1, 2, 3]
        assert row[5] == 25 and taken == [0, 1, 2, 3, 4, 5]

    def test_row_runs_one_step_per_new_degree(self, monkeypatch):
        steps = []
        abc = polyfam._abc

        def counting(fam):
            rule = abc(fam)
            return lambda n: steps.append(n) or rule(n)

        monkeypatch.setattr(polyfam, "_abc", counting)
        row = _Row(_recurrence(QHermite(F(1, 2)), F(1, 3)))
        row[4], row[2], row[6]
        assert steps == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("fam", [QHermite(F(1, 3)), KestenHat(F(1, 2), F(1, 4), F(-1, 3)),
                                     ChebT_hat(F(1, 5)), BigB(F(2, 3))])
    def test_eval_all_is_a_prefix_of_the_row(self, fam):
        row = _Row(_recurrence(fam, F(2, 7)))
        assert eval_all(fam, 9, F(2, 7)) == [row[n] for n in range(10)]


@st.composite
def q_hermite_type(draw):
    """(family, x) for qhermite, rogers, asc or bigb, on floats or on Fractions."""
    if draw(st.booleans()):
        num, point = st.floats(-0.95, 0.95), st.floats(-3.0, 3.0)
    else:
        num = point = q_rationals
    tag = draw(st.sampled_from(("qhermite", "rogers", "asc", "bigb")))
    q = draw(num)
    fam = {
        "qhermite": lambda: QHermite(q),
        "rogers": lambda: Rogers(draw(num), q),
        "asc": lambda: ASC(draw(point), draw(num), q),
        "bigb": lambda: BigB(q),
    }[tag]()
    return fam, draw(point)


class TestRowReference:
    """Rows with C_n from the bracket row equal the per-step bracket form bit for bit."""

    @given(case=q_hermite_type())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_reference(self, case):
        fam, x = case
        got = list(islice(_recurrence(fam, x), 61))
        assert [repr(v) for v in got] == [repr(v) for v in ref.row(fam, x, 60)]
