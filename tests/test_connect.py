"""Tests for connection coefficients: closed forms vs the recurrence oracle, and
the coordinate recurrence vs the references it replaced: the oracle vs
triangular elimination, and ``coeffs`` (the monomials as the source) vs
evaluation at the polynomial x."""

import json
import math
import re
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import connect_reference as ref
import poly_reference
from poly_reference import Poly

from qortho.qcore import (
    IrrationalParameterError,
    NonConvergenceError,
    ParameterError,
    TruncationError,
    q_binomial_table,
    q_pochhammer,
)
from qortho.polyfam import (
    ASC,
    BigB,
    ChebT,
    ChebU,
    ChebT_hat,
    ChebU_hat,
    ClassicalHermite,
    FamilyId,
    Kesten,
    KestenHat,
    QHermite,
    Rogers,
    _DOMAINS,
    coeffs,
    eval_all,
)
from qortho.connect import (
    PAIRS,
    _from_parts,
    _gamma_rule,
    _gamma_terms,
    beta_coeff,
    c_hat_entry,
    connection,
    d_hat_entry,
    gamma_coeff,
    oracle_connection,
    ratio_connection,
)

F = Fraction

Q, Y, RHO, BETA, GAMMA = F(1, 3), F(2, 5), F(1, 4), F(1, 5), F(2, 7)


def _target_source(pair, y=Y, rho=RHO, q=Q, beta=BETA, gamma=GAMMA):
    """Families whose oracle expansion must match the closed form."""
    table = {
        "asc-from-h": (ASC(y, rho, q), QHermite(q), dict(y=y, rho=rho, q=q)),
        "h-from-asc": (QHermite(q), ASC(y, rho, q), dict(y=y, rho=rho, q=q)),
        "uhat-from-h": (ChebU_hat(q), QHermite(q), dict(q=q)),
        "h-from-uhat": (QHermite(q), ChebU_hat(q), dict(q=q)),
        "rogers-from-rogers": (
            Rogers(gamma, q), Rogers(beta, q), dict(beta=beta, gamma=gamma, q=q)),
        "rogers-from-h": (Rogers(gamma, q), QHermite(q), dict(gamma=gamma, q=q)),
        "h-from-rogers": (QHermite(q), Rogers(beta, q), dict(beta=beta, q=q)),
        "uhat-from-asc": (ChebU_hat(q), ASC(y, rho, q), dict(y=y, rho=rho, q=q)),
        "kesten-from-asc": (KestenHat(y, rho, q), ASC(y, rho, q),
                            dict(y=y, rho=rho, q=q)),
        "t-from-u": (ChebT(), ChebU(), {}),
        "u-from-t": (ChebU(), ChebT(), {}),
        "mehler": (ClassicalHermite(), ASC(y, rho, 1), dict(y=y, rho=rho)),
    }
    return table[pair]


class TestClosedForms:
    @pytest.mark.parametrize("pair", PAIRS)
    def test_matches_oracle(self, pair):
        target, source, params = _target_source(pair)
        closed = connection(pair, 8, **params)
        oracle = oracle_connection(target, source, 8)
        for n in range(9):
            for k in range(n + 1):
                assert closed.coeff(n, k) == oracle.coeff(n, k), (pair, n, k)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_matches_oracle_at_degree_24(self, pair):
        # deep rows read the q-binomial table and the prefix rows far from
        # their first entries
        target, source, params = _target_source(pair)
        closed = connection(pair, 24, **params)
        oracle = oracle_connection(target, source, 24)
        for n in range(25):
            for k in range(n + 1):
                assert closed.coeff(n, k) == oracle.coeff(n, k), (pair, n, k)

    def test_t_from_u_row(self):
        m = connection("t-from-u", 4)
        assert m.rows[2] == {2: F(1, 2), 0: F(-1, 2)}
        assert m.rows[0] == {0: F(1)}

    def test_u_from_t_row(self):
        m = connection("u-from-t", 4)
        assert m.rows[3] == {3: 2, 1: 2}
        assert m.rows[4] == {4: 2, 2: 2, 0: 1}

    def test_rogers_identity_when_parameters_match(self):
        m = connection("rogers-from-rogers", 6, beta=BETA, gamma=BETA, q=Q)
        for n in range(7):
            assert m.rows[n] == {n: 1}

    def test_alternating_qhermite_sum_vanishes(self):
        # sum_j [n j]_q B_{n-j}(x) H_j(x) = 0 for n > 0: the h-from-asc and
        # asc-from-h triangles are mutually inverse, and this is their n-row.
        from qortho.polyfam import BigB
        from qortho.qcore import q_binomial

        x0 = F(1, 2)
        B = eval_all(BigB(Q), 8, x0)
        H = eval_all(QHermite(Q), 8, x0)
        for n in range(1, 9):
            total = sum(q_binomial(n, j, Q) * B[n - j] * H[j] for j in range(n + 1))
            assert total == 0

    @pytest.mark.parametrize("pair,name,bad", [
        (pair, name, bad)
        for pair in PAIRS
        for name, bad in (("q", 1), ("q", F(-1)), ("q", F(3, 2)), ("rho", F(3, 2)),
                          ("rho", -1), ("beta", 1), ("gamma", F(-7, 5)))
        if name in _target_source(pair)[2]
    ])
    def test_domain_matches_oracle(self, pair, name, bad):
        # connection refuses exactly the parameters the oracle's families refuse
        target, source, params = _target_source(pair, **{name: bad})

        def refused(build):
            try:
                build()
            except ParameterError:
                return True
            return False

        assert refused(lambda: connection(pair, 4, **params)) == refused(
            lambda: oracle_connection(target, source, 4))

    def test_unknown_pair_rejected(self):
        with pytest.raises(ParameterError):
            connection("h-from-nowhere", 3, q=Q)

    def test_missing_parameter_rejected(self):
        with pytest.raises(ParameterError):
            connection("asc-from-h", 3, q=Q)

    def test_negative_order_rejected(self):
        with pytest.raises(ParameterError, match="n_max must be an integer >= 0"):
            connection("t-from-u", -1)

    @pytest.mark.parametrize("n_max", [-1, 2.5, True])
    def test_order_must_be_a_non_negative_int(self, n_max):
        # -1 used to give an empty oracle matrix and f = (1,) from
        # ratio_connection, 2.5 a raw ValueError, True a matrix
        for build in (lambda: connection("t-from-u", n_max),
                      lambda: oracle_connection(QHermite(Q), ChebU_hat(Q), n_max),
                      lambda: ratio_connection({0: 1, 1: F(1, 2)}, n_max)):
            with pytest.raises(ParameterError, match="^n_max must be an integer >= 0, got "):
                build()

    def test_unused_parameters_are_not_checked(self):
        m = connection("uhat-from-h", 2, q=Q, y=float("nan"), rho=5, beta=1, gamma=-3)
        assert m.rows == connection("uhat-from-h", 2, q=Q).rows


class TestMatrixContainer:
    def test_band(self):
        assert connection("t-from-u", 9).band() == 2
        assert connection("asc-from-h", 6, y=Y, rho=RHO, q=Q).band() == 6

    def test_coeff_outside_triangle_is_zero(self):
        m = connection("t-from-u", 5)
        assert m.coeff(3, 2) == 0
        assert m.coeff(2, 5) == 0


class TestHatEntries:
    def test_c_hat_frozen_values(self):
        assert c_hat_entry(2, 2, Y, RHO, Q) == 1
        assert c_hat_entry(1, 2, Y, RHO, Q) == Q * RHO * Y
        assert c_hat_entry(0, 2, Y, RHO, Q) == -Q * (1 - RHO ** 2) / (1 - Q)
        assert c_hat_entry(0, 0, Y, RHO, Q) == 1

    def test_d_hat_frozen_values(self):
        assert d_hat_entry(0, 1, Y, RHO, Q) == RHO * Y
        for n in range(6):
            assert d_hat_entry(n, n, Y, RHO, Q) == 1

    def test_off_the_triangle_is_zero(self):
        assert d_hat_entry(4, 3, Y, RHO, Q) == 0
        assert c_hat_entry(1, 0, Y, RHO, Q) == 0

    def test_beta_matches_kesten_column(self):
        # beta_k = Chat_{0,k} (1-q)^{k/2} / (1-rho^2) for k >= 1; both sides
        # rational after the parity split, so compare exactly.
        for k in range(1, 9):
            r, half = ref.beta_parts(k, Y, RHO, Q)
            ch = c_hat_entry(0, k, Y, RHO, Q)
            expect = ch * (1 - Q) ** ((k - half) // 2) / (1 - RHO ** 2)
            assert r == expect, k

    def test_gamma_parity_split(self):
        for k in range(9):
            r, half = ref.gamma_parts(k, Y, RHO, Q)
            assert half == k % 2
            v = gamma_coeff(k, Y, RHO, Q)
            if half:
                assert isinstance(v, float)
            else:
                assert v == r

    @pytest.mark.parametrize("y,rho,q", [
        (F(1, 3), F(1, 4), 0), (0, 0, 0), (F(1, 3), F(1, 4), F(1, 4)),
        (0.3, F(1, 4), 0), (F(1, 3), 0.25, F(1, 4)), (F(1, 3), F(1, 4), 0.25),
    ])
    def test_zero_entries_share_one_type(self, y, rho, q):
        # C_{0,0} = D_{0,0} = beta_0 = gamma_0 = 1, exact exactly when y, rho
        # and q are; an int q gave C_{0,0} and beta_0 as int 1
        ones = (c_hat_entry(0, 0, y, rho, q), d_hat_entry(0, 0, y, rho, q),
                beta_coeff(0, y, rho, q), gamma_coeff(0, y, rho, q))
        exact = all(isinstance(v, (int, F)) for v in (y, rho, q))
        assert [type(v) for v in ones] == [F if exact else float] * 4
        assert ones == (1, 1, 1, 1)

    def test_gamma_k1(self):
        v = gamma_coeff(1, 0.4, 0.3, 0.5)
        assert v == pytest.approx(math.sqrt(0.5) * 0.3 * 0.4, rel=1e-15)


class TestArgumentRule:
    """The four public ASC functions check their arguments by name."""

    CALLS = {
        "d_hat_entry": lambda y, rho, q: d_hat_entry(1, 3, y, rho, q),
        "c_hat_entry": lambda y, rho, q: c_hat_entry(1, 3, y, rho, q),
        "gamma_coeff": lambda y, rho, q: gamma_coeff(3, y, rho, q),
        "beta_coeff": lambda y, rho, q: beta_coeff(3, y, rho, q),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    @pytest.mark.parametrize("y,rho,q,err", [
        # rho = 2 returned -0.81, NaN nan, "x" and True raised raw errors
        (0.1, 2.0, 0.5, "needs |rho| < 1, got 2.0"),
        (0.1, math.nan, 0.5, "needs |rho| < 1, got nan"),
        (0.1, "x", 0.5, "needs a real rho, got 'x'"),
        (0.1, True, 0.5, "needs a real rho, got True"),
        # q = 1 returned -0.0 or inf; both ASC pairs refuse it
        (0.1, 0.5, 1, "needs -1 < q < 1, got q=1"),
        (math.inf, 0.5, 0.5, "needs a finite y, got inf"),
        (10 ** 400, F(1, 2), F(1, 2), "needs a finite y, got 1000"),
    ])
    def test_parameters(self, name, y, rho, q, err):
        with pytest.raises(ParameterError, match="^%s %s" % (name, re.escape(err))):
            self.CALLS[name](y, rho, q)

    @pytest.mark.parametrize("call,err", [
        # gamma_coeff(-1, ...) blamed "n_max"
        (lambda: gamma_coeff(-1, 0.1, 0.5, 0.5), "k must be an integer >= 0, got -1"),
        (lambda: beta_coeff(2.0, 0.1, 0.5, 0.5), "k must be an integer >= 0, got 2.0"),
        (lambda: d_hat_entry(1, -3, 0.1, 0.5, 0.5), "n must be an integer >= 0, got -3"),
        (lambda: c_hat_entry(True, 3, 0.1, 0.5, 0.5), "k must be an integer >= 0, got True"),
    ])
    def test_indices(self, call, err):
        with pytest.raises(ParameterError, match="^%s$" % re.escape(err)):
            call()

    @pytest.mark.parametrize("call,err", [
        # gamma_coeff returned inf
        (lambda: gamma_coeff(3, 1e300, 0.5, 0.5), "gamma_coeff(3) overflowed"),
        (lambda: beta_coeff(4, 1e300, 0.5, 0.5), "beta_coeff(4) overflowed"),
        (lambda: d_hat_entry(0, 3, 1e300, 0.5, 0.5), "d_hat_entry(0, 3) overflowed"),
        (lambda: c_hat_entry(1, 3, 1e300, 0.5, 0.5), "c_hat_entry(1, 3) overflowed"),
        # an exact value too large for float(), times sqrt(1-q) on an odd index
        (lambda: gamma_coeff(3, 10 ** 300, F(1, 2), F(1, 2)), "gamma_coeff(3) overflowed"),
    ])
    def test_float_past_the_float_range(self, call, err):
        with pytest.raises(NonConvergenceError, match="^%s$" % re.escape(err)):
            call()


def _rational(bound=1, max_den=9):
    """Fractions n/d strictly inside (-bound, bound), 2 <= d <= max_den."""
    return st.integers(2, max_den).flatmap(
        lambda d: st.integers(1 - bound * d, bound * d - 1).map(lambda n: F(n, d)))


class TestColumnZeroReference:
    """gamma_coeff / beta_coeff, now column 0 of the scaled ASC sums, against
    the loops they replaced (tests/connect_reference.py)."""

    @given(q=st.floats(-0.95, 0.95), yf=st.floats(-1.0, 1.0),
           rho=st.floats(-0.999, 0.999))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_gamma_float_bits(self, q, yf, rho):
        y = yf * 2.0 / math.sqrt(1.0 - q)
        H = eval_all(QHermite(q), 60, y)
        B = q_binomial_table(q)
        for k in range(61):
            want = _from_parts(ref.gamma_parts(k, y, rho, q, H, B), q)
            got = gamma_coeff(k, y, rho, q)
            assert type(got) is type(want)
            assert got.hex() == want.hex(), k

    @given(q=_rational(), y=_rational(3), rho=_rational())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_beta_fractions(self, q, y, rho):
        H = eval_all(QHermite(q), 16, y)
        B = q_binomial_table(q)
        for k in range(17):
            want = _from_parts(ref.beta_parts(k, y, rho, q, H, B), q)
            got = beta_coeff(k, y, rho, q)
            assert type(got) is type(want) and got == want, k


class TestGammaRow:
    """The float gamma terms (``connect._gamma_terms``), computed a row at a
    time, against the exact gamma_coeff rule, relative to the largest entry."""

    @pytest.mark.parametrize("q", [F(4, 7), F(-2, 5), F(0)])
    @pytest.mark.parametrize("y,rho", [
        (F(1, 3), F(3, 4)), (F(-7, 5), F(-1, 2)), (F(0), F(77, 100)), (F(6, 5), F(1, 10)),
    ])
    def test_matches_exact_gamma(self, q, y, rho):
        # indices 0-31 come from the first row, 32-60 from the second
        gamma = _gamma_rule(y, rho, q)
        want = np.array([float(gamma(k)) for k in range(61)])
        for K in (0, 1, 7, 31, 60):
            row = np.array(list(islice(_gamma_terms(y, rho, q, K), K + 1)))
            assert np.max(np.abs(row - want[:K + 1])) <= 1e-14 * np.max(np.abs(want[:K + 1]))

    def test_later_rows_and_the_cap(self):
        # rows of 32, 32, 64 and then 22 entries: the later ones against the
        # exact gamma_coeff too; gamma_150 is past the cap
        y, rho, q = F(1, 2), F(9, 10), F(1, 2)
        gamma = _gamma_rule(y, rho, q)
        want = np.array([float(gamma(k)) for k in range(150)])
        terms = _gamma_terms(y, rho, q, 149)
        got = np.array([next(terms) for _ in range(150)])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        with pytest.raises(TruncationError, match="^gamma row did not settle within 150 terms$"):
            next(terms)


class TestOracle:
    def test_round_trip_inverse(self):
        # oracle(A<-B) composed with oracle(B<-A) is the identity
        a = oracle_connection(QHermite(Q), ASC(Y, RHO, Q), 6)
        b = oracle_connection(ASC(Y, RHO, Q), QHermite(Q), 6)
        for n in range(7):
            for m in range(n + 1):
                total = sum(
                    a.coeff(n, k) * b.coeff(k, m) for k in range(m, n + 1)
                )
                assert total == (1 if n == m else 0)

    def test_rejects_irrational(self):
        with pytest.raises(IrrationalParameterError):
            oracle_connection(QHermite(0.5), ChebU_hat(0.5), 3)

    @pytest.mark.parametrize("target,source", [
        (ASC(F(-5, 9), F(2, 7), F(4, 7)), ChebU_hat(F(4, 7))),
        (Rogers(BETA, Q), ChebU_hat(Q)),
        (QHermite(Q), ChebT_hat(Q)),
    ], ids=["asc-chebu_hat", "rogers-chebu_hat", "qhermite-chebt_hat"])
    def test_vice_versa_round_trip(self, target, source):
        # the paper's "vice versa" directions that PAIRS lacks: the T<-S and
        # S<-T triangles are exact inverses of each other
        there = oracle_connection(target, source, 16)
        back = oracle_connection(source, target, 16)
        for a, b in ((there, back), (back, there)):
            for n in range(17):
                for m in range(n + 1):
                    total = sum(a.coeff(n, k) * b.coeff(k, m) for k in range(m, n + 1))
                    assert total == (1 if n == m else 0), (a.pair, n, m)


def _family(tag):
    """A family with tag ``tag`` at exact parameters: q, rho and beta in
    (-1, 1), q = 1 too where the family allows it, and |y| < 3."""
    names, unit_q = _DOMAINS[tag]

    def value(name):
        if name == "q" and unit_q:
            return st.one_of(_rational(), st.just(1))
        return _rational(3 if name == "y" else 1)

    return st.fixed_dictionaries({n: value(n) for n in names}).map(
        lambda p: FamilyId(tag, **p))


def _outcome(build):
    """(label, n_max, repr of rows), or (error type, message) when build raises."""
    try:
        m = build()
    except ParameterError as e:
        return type(e), str(e)
    return m.pair, m.n_max, repr(m.rows)


class TestOracleReference:
    """The connection-coefficient recurrence against the triangular
    elimination it replaced (tests/connect_reference.py)."""

    @pytest.mark.parametrize("target,source", [(t, s) for t in _DOMAINS for s in _DOMAINS])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    def test_recurrence_is_elimination(self, target, source, data):
        t, s = data.draw(_family(target)), data.draw(_family(source))
        n = data.draw(st.integers(0, 12))
        assert _outcome(lambda: oracle_connection(t, s, n)) == _outcome(
            lambda: ref.oracle_by_elimination(t, s, n))

    @pytest.mark.parametrize("target,source,err", [
        (QHermite(Q), BigB(0), "^source family degenerates at degree 2; cannot invert$"),
        (QHermite(Q), ChebU_hat(0.5), "^exact path requires rational q, got 0.5$"),
        (ASC(Y, 0.25, Q), QHermite(Q), "^exact path requires rational rho, got 0.25$"),
    ])
    def test_same_refusal(self, target, source, err):
        for build in (oracle_connection, ref.oracle_by_elimination):
            with pytest.raises(ParameterError, match=err):
                build(target, source, 4)


class TestCoeffsReference:
    """coeffs, the coordinate recurrence onto the monomials, against the
    family evaluated at the polynomial x (tests/poly_reference.py)."""

    @pytest.mark.parametrize("tag", list(_DOMAINS))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    def test_coordinates_are_evaluation(self, tag, data):
        fam = data.draw(_family(tag))
        for n in range(17):
            assert repr(coeffs(fam, n)) == repr(poly_reference.coeffs(fam, n)), n

    @pytest.mark.parametrize("fam", [
        BigB(0), QHermite(1), Rogers(BETA, 1), ASC(Y, RHO, 1), BigB(1),
    ], ids=["bigb-q0", "qhermite-q1", "rogers-q1", "asc-q1", "bigb-q1"])
    def test_zero_and_unit_q(self, fam):
        for n in range(17):
            assert repr(coeffs(fam, n)) == repr(poly_reference.coeffs(fam, n)), n


def _monic_chebyshev():
    """Monic T_0..T_10 and U_0..U_10 as Poly values."""
    monic_t = [Poly(coeffs(ChebT(), 0).coeffs)] + [
        Poly(coeffs(ChebT(), n).coeffs) / 2 ** (n - 1) for n in range(1, 11)
    ]
    monic_u = [Poly(coeffs(ChebU(), n).coeffs) / 2 ** n for n in range(11)]
    return monic_t, monic_u


class TestRatioConnection:
    def test_worked_instance(self):
        # w expresses monic T in monic U on [-1,1]; its formal reciprocal f
        # rebuilds monic U from monic T, with phi_4 = x^4 - 3/4 x^2 + 1/16.
        rc = ratio_connection({0: F(1), 2: F(-1, 4)}, 10)
        assert rc.band() == 2
        for k in range(0, 11, 2):
            assert rc.f[k] == F(1, 4 ** (k // 2))
        for k in range(1, 11, 2):
            assert rc.f[k] == 0

    def test_reciprocal_convolution_is_delta(self):
        rc = ratio_connection({0: F(1), 2: F(-1, 4)}, 10)
        w = {0: F(1), 2: F(-1, 4)}
        for n in range(11):
            total = sum(w.get(n - i, F(0)) * rc.f[i] for i in range(n + 1))
            assert total == (1 if n == 0 else 0)

    def test_phi_rows_rebuild_monic_chebu(self):
        rc = ratio_connection({0: F(1), 2: F(-1, 4)}, 10)
        monic_t, monic_u = _monic_chebyshev()
        for n in range(11):
            phi = Poly(())
            for i, c in rc.phi_row(n).items():
                phi = phi + monic_t[i] * c
            assert phi == monic_u[n], n
        assert monic_u[4].coeffs == (F(1, 16), F(0), F(-3, 4), F(0), F(1))

    def test_reconstruction_rows_recover_monic_chebt(self):
        rc = ratio_connection({0: F(1), 2: F(-1, 4)}, 10)
        monic_t, monic_u = _monic_chebyshev()
        for n in range(11):
            rebuilt = Poly(())
            for i, c in rc.reconstruction_row(n).items():
                rebuilt = rebuilt + monic_u[i] * c
            assert rebuilt == monic_t[n], n

    def test_validation(self):
        with pytest.raises(ParameterError):
            ratio_connection({0: F(2)}, 4)  # w_0 must be 1
        with pytest.raises(IrrationalParameterError):
            ratio_connection({0: F(1), 2: -0.25}, 4)
        with pytest.raises(ParameterError):
            ratio_connection({0: F(1), -1: F(1)}, 4)
        # 1.5 used to raise a raw TypeError
        for index in (-1, 1.5):
            with pytest.raises(ParameterError,
                               match="^moment index must be an integer >= 0, got "):
                ratio_connection({0: 1, index: F(1, 2)}, 3)


class TestKestenBand:
    def test_kesten_in_monic_u_basis_has_band_two(self):
        m = oracle_connection(KestenHat(Y, RHO, Q), ChebU_hat(Q), 8)
        assert m.band() == 2
        m0 = oracle_connection(Kesten(Y, RHO), ChebU_hat(0), 8)
        assert m0.band() == 2


# ---------------------------------------------------------------------------
# golden values: the repr of every connection row at n = 12 (and of two oracle
# triangles at n = 10), recorded from the per-pair implementation; repr pins
# each entry's type and, for floats, every bit.  The float rows of the six
# pairs that read q-binomials were re-recorded when those came from the
# q-Pascal table (each moved entry checked against the exact path at the
# float-rounded parameters)
# ---------------------------------------------------------------------------

GOLDEN = json.loads((Path(__file__).parent / "data" / "connect_golden.json").read_text())
GOLDEN_PARAMS = {
    "exact": dict(q=F(1, 3), y=F(2, 5), rho=F(1, 4), beta=F(1, 5), gamma=F(2, 7)),
    "float": dict(q=0.3, y=0.7, rho=0.45, beta=0.35, gamma=-0.25),
}
GOLDEN_ORACLES = {
    "kesten_hat<-asc": (KestenHat(Y, RHO, Q), ASC(Y, RHO, Q)),
    "rogers<-qhermite": (Rogers(GAMMA, Q), QHermite(Q)),
}


class TestGolden:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_PARAMS))
    @pytest.mark.parametrize("pair", PAIRS)
    def test_connection_rows(self, kind, pair):
        got = connection(pair, 12, **GOLDEN_PARAMS[kind]).rows
        assert repr(got) == GOLDEN[kind][pair]

    @pytest.mark.parametrize("name", sorted(GOLDEN_ORACLES))
    def test_oracle_rows(self, name):
        target, source = GOLDEN_ORACLES[name]
        assert repr(oracle_connection(target, source, 10).rows) == GOLDEN["oracle"][name]
