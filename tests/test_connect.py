"""Tests for connection coefficients: closed forms vs the elimination oracle."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qortho.qcore import (
    IrrationalParameterError,
    ParameterError,
    q_pochhammer,
)
from qortho.polyfam import (
    ASC,
    ChebT,
    ChebU,
    ChebT_hat,
    ChebU_hat,
    ClassicalHermite,
    Kesten,
    KestenHat,
    QHermite,
    RationalPoly,
    Rogers,
    coeffs,
    eval_all,
)
from qortho.connect import (
    PAIRS,
    beta_coeff,
    beta_parts,
    c_hat_entry,
    connection,
    d_hat_entry,
    gamma_coeff,
    gamma_parts,
    oracle_connection,
    ratio_connection,
)

F = Fraction

Q, Y, RHO, BETA, GAMMA = F(1, 3), F(2, 5), F(1, 4), F(1, 5), F(2, 7)


def _target_source(pair):
    """Families whose oracle expansion must match the closed form."""
    table = {
        "asc-from-h": (ASC(Y, RHO, Q), QHermite(Q), dict(y=Y, rho=RHO, q=Q)),
        "h-from-asc": (QHermite(Q), ASC(Y, RHO, Q), dict(y=Y, rho=RHO, q=Q)),
        "uhat-from-h": (ChebU_hat(Q), QHermite(Q), dict(q=Q)),
        "h-from-uhat": (QHermite(Q), ChebU_hat(Q), dict(q=Q)),
        "rogers-from-rogers": (
            Rogers(GAMMA, Q), Rogers(BETA, Q), dict(beta=BETA, gamma=GAMMA, q=Q)),
        "rogers-from-h": (Rogers(GAMMA, Q), QHermite(Q), dict(gamma=GAMMA, q=Q)),
        "h-from-rogers": (QHermite(Q), Rogers(BETA, Q), dict(beta=BETA, q=Q)),
        "uhat-from-asc": (ChebU_hat(Q), ASC(Y, RHO, Q), dict(y=Y, rho=RHO, q=Q)),
        "kesten-from-asc": (KestenHat(Y, RHO, Q), ASC(Y, RHO, Q),
                            dict(y=Y, rho=RHO, q=Q)),
        "t-from-u": (ChebT(), ChebU(), {}),
        "u-from-t": (ChebU(), ChebT(), {}),
        "mehler": (ClassicalHermite(), ASC(Y, RHO, 1), dict(y=Y, rho=RHO)),
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

    @pytest.mark.parametrize("pair", ["kesten-from-asc", "rogers-from-rogers"])
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

    def test_unknown_pair_rejected(self):
        with pytest.raises(ParameterError):
            connection("h-from-nowhere", 3, q=Q)

    def test_missing_parameter_rejected(self):
        with pytest.raises(ParameterError):
            connection("asc-from-h", 3, q=Q)


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

    def test_beta_matches_kesten_column(self):
        # beta_k = Chat_{0,k} (1-q)^{k/2} / (1-rho^2) for k >= 1; both sides
        # rational after the parity split, so compare exactly.
        for k in range(1, 9):
            r, half = beta_parts(k, Y, RHO, Q)
            ch = c_hat_entry(0, k, Y, RHO, Q)
            expect = ch * (1 - Q) ** ((k - half) // 2) / (1 - RHO ** 2)
            assert r == expect, k

    def test_gamma_parity_split(self):
        for k in range(9):
            r, half = gamma_parts(k, Y, RHO, Q)
            assert half == k % 2
            v = gamma_coeff(k, Y, RHO, Q)
            if half:
                assert isinstance(v, float)
            else:
                assert v == r

    def test_gamma_k1(self):
        import math

        v = gamma_coeff(1, 0.4, 0.3, 0.5)
        assert v == pytest.approx(math.sqrt(0.5) * 0.3 * 0.4, rel=1e-15)


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
        monic_t = [coeffs(ChebT(), 0)] + [
            coeffs(ChebT(), n) / 2 ** (n - 1) for n in range(1, 11)
        ]
        monic_u = [coeffs(ChebU(), n) / 2 ** n for n in range(11)]
        for n in range(11):
            phi = RationalPoly(())
            for i, c in rc.phi_row(n).items():
                phi = phi + monic_t[i] * c
            assert phi == monic_u[n], n
        assert monic_u[4].coeffs == (F(1, 16), F(0), F(-3, 4), F(0), F(1))

    def test_reconstruction_rows_recover_monic_chebt(self):
        rc = ratio_connection({0: F(1), 2: F(-1, 4)}, 10)
        monic_t = [coeffs(ChebT(), 0)] + [
            coeffs(ChebT(), n) / 2 ** (n - 1) for n in range(1, 11)
        ]
        monic_u = [coeffs(ChebU(), n) / 2 ** n for n in range(11)]
        for n in range(11):
            rebuilt = RationalPoly(())
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
