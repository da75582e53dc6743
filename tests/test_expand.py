"""Tests for density-expansion kernels and the q-series identity battery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qortho.qcore import ParameterError, q_bracket, q_factorial, q_pochhammer, support
from qortho.polyfam import ChebU, eval as fam_eval
from qortho.densities import density_eval
from qortho.expand import (
    EXPANSION_IDS,
    ExpansionSpec,
    TruncationError,
    base_density,
    expansion_coeff,
    expansion_eval,
    identity_suite,
    target_density,
)

F = Fraction


class TestCoefficients:
    def test_n_over_u(self):
        q = F(1, 2)
        for k in range(5):
            assert expansion_coeff("n_over_u", 2 * k, q=q) == (-1) ** k * q ** (
                k * (k + 1) // 2
            )
            assert expansion_coeff("n_over_u", 2 * k + 1, q=q) == 0

    def test_u_over_n_closed_form(self):
        # c_{2k} = q^k (1-q)^{k+1} / ((q)_k (q)_{k+1}), equivalently
        # ([2k k]_q - q [2k k-1]_q) (1-q)^{-k} q^k / [2k]_q!
        from qortho.qcore import q_binomial

        q = F(1, 2)
        for k in range(7):
            got = expansion_coeff("u_over_n", 2 * k, q=q)
            direct = q ** k * (1 - q) ** (k + 1) / (
                q_pochhammer(q, q, k) * q_pochhammer(q, q, k + 1)
            )
            alt = (
                (q_binomial(2 * k, k, q) - q * q_binomial(2 * k, k - 1, q))
                * q ** k
                / ((1 - q) ** k * q_factorial(2 * k, q))
            )
            assert got == direct == alt, k
            assert expansion_coeff("u_over_n", 2 * k + 1, q=q) == 0

    def test_cn_over_n(self):
        q, rho = F(1, 2), F(1, 4)
        for n in range(6):
            expect = rho ** n / q_factorial(n, q)
            assert expansion_coeff("cn_over_n", n, rho=rho, q=q) == expect

    def test_n_over_cn(self):
        q, rho = F(1, 2), F(1, 4)
        for n in range(6):
            expect = rho ** n / (
                q_pochhammer(rho * rho, q, n) * q_factorial(n, q)
            )
            assert expansion_coeff("n_over_cn", n, rho=rho, q=q) == expect

    def test_r_over_n_and_back_are_reciprocal_in_series(self):
        # check via the evaluated kernels instead of coefficients: the two
        # expansions multiply to 1 pointwise
        q, beta = 0.5, 0.35
        L = support(q).radius
        xs = L * np.linspace(-0.9, 0.9, 7)
        fwd = expansion_eval(ExpansionSpec("r_over_n", {"beta": beta, "q": q}), xs)
        bwd = expansion_eval(ExpansionSpec("n_over_r", {"gamma": beta, "q": q}), xs)
        fn = density_eval(base_density("r_over_n", {"beta": beta, "q": q}), xs)
        fr = density_eval(base_density("n_over_r", {"gamma": beta, "q": q}), xs)
        np.testing.assert_allclose(
            (fwd.value / fn) * (bwd.value / fr), 1.0, atol=1e-10
        )

    def test_mehler_classical(self):
        rho = F(1, 3)
        for n in range(6):
            assert expansion_coeff("mehler_classical", n, rho=rho) == rho ** n / math.factorial(n)

    def test_pm_q0_uses_chebu(self):
        y, rho = F(2, 5), F(1, 4)
        for n in range(6):
            expect = rho ** n * fam_eval(ChebU(), n, y / 2)
            assert expansion_coeff("pm_q0", n, y=y, rho=rho) == expect

    def test_unknown_id(self):
        with pytest.raises(ParameterError):
            expansion_coeff("n_over_t", 2, q=F(1, 2))

    @pytest.mark.parametrize("eid,params", [
        ("cn_over_n", dict(q=F(1, 2))),
        ("pm_q0", dict(rho=F(1, 2))),
        ("n_over_r", dict(q=F(1, 2), gamma=None)),
    ])
    def test_missing_parameter(self, eid, params):
        with pytest.raises(ParameterError, match="needs parameter"):
            expansion_coeff(eid, 3, **params)


class TestEvaluation:
    @pytest.mark.parametrize("eid,params", [
        ("n_over_u", dict(q=0.5)),
        ("u_over_n", dict(q=0.5)),
        ("cn_over_n", dict(y=0.4, rho=0.45, q=0.3)),
        ("n_over_cn", dict(y=0.4, rho=0.45, q=0.3)),
        ("r_over_n", dict(beta=0.35, q=0.5)),
        ("n_over_r", dict(gamma=0.35, q=0.5)),
        ("cn_over_k", dict(y=0.4, rho=0.45, q=0.3)),
        ("cn_over_u", dict(y=0.4, rho=0.45, q=0.3)),
        ("mehler_classical", dict(y=0.4, rho=0.45)),
        ("pm_q0", dict(y=0.4, rho=0.45)),
    ])
    def test_series_reaches_target_density(self, eid, params):
        q = params.get("q", 1.0)
        L = support(q).radius if q < 1 else 3.0
        xs = L * np.linspace(-0.92, 0.92, 9)
        spec = ExpansionSpec(eid, params)
        res = expansion_eval(spec, xs, tol=1e-10)
        tgt = density_eval(target_density(eid, params), xs)
        np.testing.assert_allclose(res.value, tgt, atol=5e-10)

    def test_tail_reported(self):
        res = expansion_eval(ExpansionSpec("n_over_u", {"q": 0.5}), 0.7, tol=1e-9)
        assert res.tail >= 0.0
        tgt = density_eval(target_density("n_over_u", {"q": 0.5}), 0.7)
        assert abs(res.value - tgt) <= max(res.tail, 1e-12)

    def test_fixed_k_term_count(self):
        res = expansion_eval(ExpansionSpec("n_over_u", {"q": 0.5}, K=7), 0.3)
        assert res.n_terms == 8

    @pytest.mark.parametrize("eid,params", [
        ("n_over_u", {}),
        ("cn_over_n", dict(q=0.5, rho=0.3)),
        ("mehler_classical", dict(rho=0.3)),
    ])
    def test_missing_parameter(self, eid, params):
        with pytest.raises(ParameterError, match="needs parameter"):
            expansion_eval(ExpansionSpec(eid, params), 0.1)

    def test_outside_support_rejected(self):
        L = support(0.5).radius
        with pytest.raises(ParameterError):
            expansion_eval(ExpansionSpec("n_over_u", {"q": 0.5}), 1.01 * L)

    def test_truncation_error_near_unit_q(self):
        with pytest.raises(TruncationError):
            expansion_eval(ExpansionSpec("n_over_u", {"q": 0.9999}), 0.0, tol=1e-12)

    def test_reciprocal_gaussian_needs_small_rho(self):
        with pytest.raises(ParameterError):
            expansion_eval(
                ExpansionSpec("n_over_cn", {"q": 1.0, "rho": 0.8, "y": 0.1}), 0.0
            )
        # rho^2 < 1/2 converges
        res = expansion_eval(
            ExpansionSpec("n_over_cn", {"q": 1.0, "rho": 0.5, "y": 0.1}), 0.2
        )
        tgt = density_eval(target_density("n_over_cn", {"q": 1.0, "rho": 0.5, "y": 0.1}), 0.2)
        assert res.value == pytest.approx(tgt, abs=1e-9)

    def test_ids_registry(self):
        assert set(EXPANSION_IDS) == {
            "n_over_u", "u_over_n", "cn_over_n", "n_over_cn", "r_over_n",
            "n_over_r", "cn_over_k", "cn_over_u", "mehler_classical", "pm_q0",
        }


class TestIdentitySuite:
    def test_reduced_grid_passes(self):
        reports = identity_suite(q_grid=(0.5,), rho_grid=(0.4,), tol=1e-10)
        assert reports
        bad = [r for r in reports if not r.passed]
        assert not bad, [(r.check_id, r.residual) for r in bad]

    def test_report_fields(self):
        reports = identity_suite(q_grid=(0.3,), rho_grid=(0.3,))
        r = reports[0]
        assert r.check_id.startswith("i")
        assert isinstance(r.params, dict)
        assert r.tolerance == 1e-10
        assert isinstance(r.residual, float)


# ---------------------------------------------------------------------------
# golden regression values
# ---------------------------------------------------------------------------
# Literals captured from the reference implementation.  Exact rows hold
# Fractions as "p/q" strings and float entries (odd indices of the
# conditional kernels) as float.hex strings; float rows and evaluations are
# float.hex so that every comparison is bit for bit.  The float-row
# parameters are the exact ones times 1.1; evaluation points are listed
# explicitly.

GOLDEN_EXACT_PARAMS = {
    'n_over_u': dict(q=F('1/3')),
    'u_over_n': dict(q=F('2/5')),
    'cn_over_n': dict(y=F('2/5'), rho=F('1/3'), q=F('1/2')),
    'n_over_cn': dict(y=F('-3/4'), rho=F('2/5'), q=F('1/3')),
    'r_over_n': dict(beta=F('1/3'), q=F('1/2')),
    'n_over_r': dict(gamma=F('2/7'), q=F('-1/3')),
    'cn_over_k': dict(y=F('2/5'), rho=F('1/3'), q=F('1/4')),
    'cn_over_u': dict(y=F('-1/2'), rho=F('3/5'), q=F('-1/4')),
    'mehler_classical': dict(rho=F('1/3')),
    'pm_q0': dict(y=F('2/5'), rho=F('-1/3')),
}
GOLDEN_EXACT_ROWS = {
    'n_over_u': ['1', '0', '-1/3', '0', '1/27', '0', '-1/729', '0', '1/59049', '0', '-1/14348907', '0', '1/10460353203'],
    'u_over_n': ['1', '0', '10/21', '0', '2500/17199', '0', '15625000/408493449', '0', '2441406250000/256484458264671', '0', '9536743164062500000/4114880449363298339361', '0', '931322574615478515625000000/1664758989831426879643250749479'],
    'cn_over_n': ['1', '1/3', '2/27', '8/567', '64/25515', '1024/2372895', '32768/448477155', '2097152/170869796055', '268435456/130715393982075', '68719476736/200386698974520975', '35184372088832/614986779152804872275', '36028797018963968/3776633810777374720640775', '73786976294838206464/46395946365400048443071920875'],
    'n_over_cn': ['1', '10/21', '75/497', '60750/1427881', '22143375/1916216302', '726413416875/234296725353691', '214469929265259375/258879606371250967102', '569890568393293537546875/2577865260652893155810568703', '2725768922017502797987039171875/46226506706170617524592829312241864', '586677071482791000308337184238870859375/37307810912676055821874603666814567665096052', '1136453589594754222121275713473532205734563671875/271002151500151774132375364885974586435095698957301304', '19812843243297224665606766439798288106631996788175162109375/17717215874668244935798909867798467178393406619997329546451806716', '621748014841683096935671029801050789010374439436421308487535052734375/2084937971689828178803542593588367563282664716830761820082744763859646873392'],
    'r_over_n': ['1', '0', '2/5', '0', '16/165', '0', '512/26565', '0', '65536/18728325', '0', '33554432/55154917125', '0', '68719476736/663679117765125'],
    'n_over_r': ['1', '0', '-5978/20385', '0', '-542626/11421489', '0', '27777332268/14737813510225', '0', '146179948164642/5369984685530960755', '0', '-6281157678840688803168996/49435282019189198816172091334875', '0', '-6205543723036652867658636064956/31074488591830457680340765265401003526275'],
    'cn_over_k': ['1', '0x0.0p+0', '-1/4', '-0x1.d8f7208e6b82dp-8', '107/6400', '0x1.50ca6db0821a7p-11', '-499981/1474560000', '-0x1.143c4fbfe8266p-16', '5241877481/1811939328000000', '0x1.bf2848b4c2decp-23', '-182444549977607/11874725579980800000000', '-0x1.05e4927c569a3p-29', '586891550904673982801/11206397024778552606720000000000'],
    'cn_over_u': ['1', '-0x1.5775c544ff263p-2', '-7/80', '0x1.4edfa05678c54p-3', '-47/1280', '-0x1.871d78a4028d2p-5', '239839/8192000', '0x1.e500083bafdf1p-8', '-8737193339/671088640000', '0x1.be33d251a2da9p-10', '3620455757539319/879609302220800000', '-0x1.054433811b799p-9', '-15000451780422090920227/18446744073709551616000000'],
    'mehler_classical': ['1', '1/3', '1/18', '1/162', '1/1944', '1/29160', '1/524880', '1/11022480', '1/264539520', '1/7142567040', '1/214277011200', '1/7071141369600', '1/254561089305600'],
    'pm_q0': ['1', '-2/15', '-7/75', '92/3375', '341/50625', '-994/253125', '-2561/11390625', '79672/170859375', '-10591/284765625', '-1801162/38443359375', '5985299/576650390625', '11019484/2883251953125', '-215749379/129746337890625'],
}
GOLDEN_FLOAT_ROWS = {
    'n_over_u': (dict(q=0.3666666666666667), ['0x1.0000000000000p+0', '0x0.0p+0', '-0x1.7777777777778p-2', '0x0.0p+0', '0x1.93d5d38d02334p-5', '0x0.0p+0', '-0x1.3e857553d6326p-9', '0x0.0p+0', '0x1.7078c50907fd5p-15', '0x0.0p+0', '-0x1.38965929ce7ebp-22', '0x0.0p+0', '0x1.84edb8215643dp-31']),
    'u_over_n': (dict(q=0.44000000000000006), ['0x1.0000000000000p+0', '0x0.0p+0', '0x1.175d75d75d75ep-1', '0x0.0p+0', '0x1.753d85013f085p-3', '0x0.0p+0', '0x1.a1c7502eee25dp-5', '0x0.0p+0', '0x1.b2f85bffd188dp-7', '0x0.0p+0', '0x1.b714d106e4d24p-9', '0x0.0p+0', '0x1.b55167a4ff201p-11']),
    'cn_over_n': (dict(y=0.44000000000000006, rho=0.3666666666666667, q=0.55), ['0x1.0000000000000p+0', '0x1.7777777777778p-2', '0x1.6347c0df26b8bp-4', '0x1.194895efe589ap-6', '0x1.98b1312d4db2bp-9', '0x1.1c081d2615cd3p-11', '0x1.819869c2fbd21p-14', '0x1.026d656bcf5b0p-16', '0x1.58012ad2b1903p-19', '0x1.c82fda6f599abp-22', '0x1.2dd91275883dbp-24', '0x1.8efec0acde826p-27', '0x1.0789e90b2c2c2p-29']),
    'n_over_cn': (dict(y=-0.8250000000000001, rho=0.44000000000000006, q=0.3666666666666667), ['0x1.0000000000000p+0', '0x1.175d75d75d75ep-1', '0x1.834202df3d821p-3', '0x1.d22e1f5236378p-5', '0x1.0b266cd43cc75p-6', '0x1.2cd2a0900c84ap-8', '0x1.5090d8767e72cp-10', '0x1.77ab857dc9dcfp-12', '0x1.a2f4b9ebb2230p-14', '0x1.d314ecf467ad1p-16', '0x1.04567346bd44fp-17', '0x1.223267a53c94fp-19', '0x1.4379c902c1389p-21']),
    'r_over_n': (dict(beta=0.3666666666666667, q=0.55), ['0x1.0000000000000p+0', '0x0.0p+0', '0x1.d6502ac178403p-2', '0x0.0p+0', '0x1.f48be39da9965p-4', '0x0.0p+0', '0x1.a60a50cfb3362p-6', '0x0.0p+0', '0x1.3d3f3c9e523dap-8', '0x0.0p+0', '0x1.c13fc9a112d9bp-11', '0x0.0p+0', '0x1.341284fabf4f3p-13']),
    'n_over_r': (dict(gamma=0.3142857142857143, q=-0.3666666666666667), ['0x1.0000000000000p+0', '-0x0.0p+0', '-0x1.4a0efc6af1595p-2', '-0x0.0p+0', '-0x1.188385cc6a55ep-4', '-0x0.0p+0', '0x1.dc03db49b3a78p-9', '-0x0.0p+0', '0x1.4dd44427e66cap-14', '-0x0.0p+0', '-0x1.47ba0150e3008p-21', '-0x0.0p+0', '-0x1.dfd5ff44938eap-30']),
    'cn_over_k': (dict(y=0.44000000000000006, rho=0.3666666666666667, q=0.275), ['0x1.0000000000000p+0', '0x0.0p+0', '-0x1.199999999999ap-2', '-0x1.546a304e17390p-7', '0x1.6f84b5852835bp-6', '0x1.305edaaf0ddc6p-10', '-0x1.3fac92df883d3p-11', '-0x1.548de7bd178e2p-15', '0x1.ea3af832af30cp-18', '0x1.8785718ef8238p-21', '-0x1.bff42883486afp-25', '-0x1.45fbd78ba1420p-27', '0x1.849570a30c958p-33']),
    'cn_over_u': (dict(y=-0.55, rho=0.66, q=-0.275), ['0x1.0000000000000p+0', '-0x1.a3b8d13803f69p-2', '-0x1.cc53b73739524p-4', '0x1.efd5000c41d86p-3', '-0x1.10a6e670aa936p-4', '-0x1.486c63c222fe4p-4', '0x1.fb4f10266a6b7p-5', '0x1.3b496f85078e1p-7', '-0x1.fa71203eaecd9p-6', '0x1.15c5bb02e50bfp-7', '0x1.475792b100d28p-7', '-0x1.fe5719058fa56p-8', '-0x1.2ffeb51bf52ffp-10']),
    'mehler_classical': (dict(rho=0.3666666666666667), ['0x1.0000000000000p+0', '0x1.7777777777778p-2', '0x1.13579be02468cp-4', '0x1.0d3937b356ccdp-7', '0x1.8adc73d3d4a3fp-11', '0x1.cf4dc1ee4ed4ep-15', '0x1.c50212f463d5ep-19', '0x1.7ba9f7813dba9p-23', '0x1.166b935ec6de3p-27', '0x1.6afa3b62e8b78p-32', '0x1.a9e4c08f5c25ep-37', '0x1.c64955ee40286p-42', '0x1.bc30f34f5b2d3p-47']),
    'pm_q0': (dict(y=0.44000000000000006, rho=-0.3666666666666667), ['0x1.0000000000000p+0', '-0x1.4a6921735ee41p-3', '-0x1.bc126a65cf67dp-4', '0x1.40f9879af81d8p-5', '0x1.0e7d0465e21ddp-7', '-0x1.b080f3fb351a3p-8', '-0x1.7a1e1e77de90ap-15', '0x1.d4fe957899173p-11', '-0x1.21f2e526e548bp-13', '-0x1.9adf6f2c577d6p-14', '0x1.2080c3493a024p-15', '0x1.ff78cad1c4d7ep-18', '-0x1.88d1854eec7c3p-18']),
}
GOLDEN_EVAL = [
    ('n_over_u', {'q': 0.5}, None, [
        ('-0x1.45d5b5c3f4f6bp+1', '0x1.44da2e9e5b58ep-7', '0x1.dd349fa9be23fp-45', 17),
        ('-0x1.21a1851ff630ap+0', '0x1.d03a860c3034dp-3', '0x1.f5b17f48bf9bfp-44', 17),
        ('0x0.0p+0', '0x1.7a5d75a4c8396p-2', '0x1.11b2378c90ca4p-43', 17),
        ('0x1.b27247aff148ep-1', '0x1.217383a348af4p-2', '0x1.0516e93c91071p-43', 17),
        ('0x1.21a1851ff630ap+1', '0x1.fa6acbfecaad0p-6', '0x1.486f75dbe0f2bp-44', 17),
    ]),
    ('u_over_n', {'q': 0.45}, None, [
        ('-0x1.36abda1871f76p+1', '0x1.a578b4b5acdddp-4', '0x1.1820ca70293c2p-38', 71),
        ('-0x1.1426fac0654dbp+0', '0x1.bb196bf487f0cp-3', '0x1.090b51289a0d7p-34', 71),
        ('0x0.0p+0', '0x1.e376028417961p-3', '0x1.9511385c04dfcp-34', 71),
        ('0x1.9e3a782097f47p-1', '0x1.cd313fa2d0810p-3', '0x1.4106ec0da4062p-34', 71),
        ('0x1.1426fac0654dbp+1', '0x1.22139b1c0e8cep-3', '0x1.780f1d7035031p-37', 71),
    ]),
    ('u_over_n', {'q': -0.3}, None, [
        ('-0x1.9425f94d50144p+0', '0x1.43fcdb8ae07d1p-3', '0x1.daa0fc0e6794ap-36', 43),
        ('-0x1.673e32ef63a04p-1', '0x1.549cf7027a757p-2', '0x1.1610d35714e77p-35', 43),
        ('0x0.0p+0', '0x1.73a3b04548d20p-2', '0x1.c3b9d31968fa0p-36', 43),
        ('0x1.0d6ea6338ab82p-1', '0x1.62857a80a5cc2p-2', '0x1.01d644303ff31p-35', 43),
        ('0x1.673e32ef63a04p+0', '0x1.bdf7a05331370p-3', '0x1.2834417ca809ep-35', 43),
    ]),
    ('cn_over_n', {'y': 0.7, 'rho': 0.45, 'q': 0.3}, None, [
        ('-0x1.136173b180556p+1', '0x1.b0115ddb405eep-7', '0x1.572cd63f6d4a6p-37', 33),
        ('-0x1.e990cdad55ed2p-1', '0x1.557f78725be7dp-3', '0x1.064ada57cb434p-34', 33),
        ('0x0.0p+0', '0x1.83312ba71542fp-2', '0x1.5b81241d08eccp-34', 33),
        ('0x1.6f2c9a420071dp-1', '0x1.a83ce2cf17103p-2', '0x1.29d715ef47a1ep-34', 33),
        ('0x1.e990cdad55ed2p+0', '0x1.a34a9e67025f9p-4', '0x1.4cc6041f9ea4cp-36', 33),
    ]),
    ('cn_over_n', {'y': 0.7, 'rho': 0.45, 'q': 1.0}, None, [
        ('-0x1.599999999999ap+1', '0x1.8826a3d3086c1p-10', '0x1.75f7b6cfd5dc7p-39', 27),
        ('-0x1.3333333333334p+0', '0x1.b1f5b2fe0bfb6p-4', '0x1.0c4752dc05715p-37', 27),
        ('0x0.0p+0', '0x1.addc33ebed24cp-2', '0x1.098b0f1e8eb76p-34', 25),
        ('0x1.cccccccccccccp-1', '0x1.711d7f9243911p-2', '0x1.c0f1fdf17c6fcp-35', 25),
        ('0x1.3333333333334p+1', '0x1.df7dc772ca3cbp-6', '0x1.9a7c6833059e8p-39', 27),
    ]),
    ('n_over_cn', {'y': -0.6, 'rho': 0.4, 'q': 0.35}, None, [
        ('-0x1.1dc6a9cda880ap+1', '0x1.0bcaf87bc44a9p-5', '0x1.1a86e9af6a37ap-52', 11),
        ('-0x1.fc0bd88a0f1d8p-1', '0x1.097416dd44322p-2', '0x1.5715c0ae5072fp-49', 11),
        ('0x0.0p+0', '0x1.6e85b15644609p-2', '0x1.8aa77b340bda8p-49', 11),
        ('0x1.7d08e2678b562p-1', '0x1.331b5485c9d04p-2', '0x1.e8fd1c2f365b2p-50', 11),
        ('0x1.fc0bd88a0f1d8p+0', '0x1.1ccb2597ba2f0p-4', '0x1.e4930fa2c7b45p-53', 11),
    ]),
    ('n_over_cn', {'y': 0.3, 'rho': 0.5, 'q': 1.0}, None, [
        ('-0x1.599999999999ap+1', '0x1.5579231c37bf5p-7', '0x1.6925e059c458dp-40', 42),
        ('-0x1.3333333333334p+0', '0x1.8db16b1c4c1eap-3', '0x1.8525dd51e814ep-35', 39),
        ('0x0.0p+0', '0x1.9884533f4be6ap-2', '0x1.5b61c6f48d99ap-33', 38),
        ('0x1.cccccccccccccp-1', '0x1.1078a6dad26f9p-2', '0x1.33c868faa0ac0p-33', 38),
        ('0x1.3333333333334p+1', '0x1.6ee977cd2b0a6p-6', '0x1.b3371e4dbcac1p-38', 41),
    ]),
    ('r_over_n', {'beta': 0.35, 'q': 0.5}, None, [
        ('-0x1.45d5b5c3f4f6bp+1', '0x1.c2e476941d7f5p-5', '0x1.bfb111e7ea5eep-40', 55),
        ('-0x1.21a1851ff630ap+0', '0x1.c4d1210c03fc3p-3', '0x1.3fe2c66cba992p-35', 55),
        ('0x0.0p+0', '0x1.0ca2460f6af65p-2', '0x1.04b84a899b30fp-34', 55),
        ('0x1.b27247aff148ep-1', '0x1.e9bd17b3c6758p-3', '0x1.8ee77389b5780p-35', 55),
        ('0x1.21a1851ff630ap+1', '0x1.9218a6bcc5909p-4', '0x1.5cf4ea5dfe0d6p-38', 55),
    ]),
    ('n_over_r', {'gamma': 0.3, 'q': 0.4}, None, [
        ('-0x1.2971f372f95b6p+1', '0x1.7f614178f7b96p-6', '0x1.3b51c8c38acacp-48', 15),
        ('-0x1.08654a2d4f6dbp+0', '0x1.002472a965803p-2', '0x1.e28ac77db9dc1p-47', 15),
        ('0x0.0p+0', '0x1.72b0c724c3299p-2', '0x1.14d3b3401e7b5p-46', 15),
        ('0x1.8c97ef43f7247p-1', '0x1.2eb23a29b2856p-2', '0x1.00f6cc02b2d0cp-46', 15),
        ('0x1.08654a2d4f6dbp+1', '0x1.c5dd4757ba221p-5', '0x1.f6575dc69a07cp-48', 15),
    ]),
    ('cn_over_k', {'y': 0.4, 'rho': 0.45, 'q': 0.3}, None, [
        ('-0x1.136173b180556p+1', '0x1.14ad929775a2ep-6', '0x1.4581df1051d48p-39', 16),
        ('-0x1.e990cdad55ed2p-1', '0x1.9fcda15c31f38p-3', '0x1.2cd9bc064a007p-37', 16),
        ('0x0.0p+0', '0x1.a0ab9e2c347c8p-2', '0x1.d10a13ec4bcb7p-37', 16),
        ('0x1.6f2c9a420071dp-1', '0x1.86506b198afc0p-2', '0x1.d5156b699a175p-37', 16),
        ('0x1.e990cdad55ed2p+0', '0x1.38eabd43f5759p-4', '0x1.9e3ff69039b78p-38', 16),
    ]),
    ('cn_over_u', {'y': -0.5, 'rho': 0.55, 'q': 0.25}, None, [
        ('-0x1.0a0b02501c79ap+1', '0x1.52151cae09f65p-5', '0x1.31fbffbff1830p-35', 43),
        ('-0x1.d8f7208e6b82fp-1', '0x1.8a0fabd18890ap-2', '0x1.41af9a57549fbp-34', 43),
        ('0x0.0p+0', '0x1.acf80ea0ca6f0p-2', '0x1.5efcf717c6efap-34', 43),
        ('0x1.62b9586ad0a23p-1', '0x1.cbc261a7493ffp-3', '0x1.4ed244105309ep-34', 43),
        ('0x1.d8f7208e6b82fp+0', '0x1.f19c4d864a467p-6', '0x1.a52f8ee9551f7p-35', 43),
    ]),
    ('mehler_classical', {'y': 0.4, 'rho': 0.45}, None, [
        ('-0x1.599999999999ap+1', '0x1.42ef3a847499cp-9', '0x1.c4e826555316dp-41', 28),
        ('-0x1.3333333333334p+0', '0x1.153a104c45c7cp-3', '0x1.64621627fe982p-36', 26),
        ('0x0.0p+0', '0x1.c0409eb53ee70p-2', '0x1.ff389b005c20ep-36', 25),
        ('0x1.cccccccccccccp-1', '0x1.4a84085a4d010p-2', '0x1.782b0b056fe9ap-36', 26),
        ('0x1.3333333333334p+1', '0x1.4d11ed54ea2c4p-6', '0x1.f5e8cec015b75p-38', 26),
    ]),
    ('pm_q0', {'y': 0.9, 'rho': 0.5}, None, [
        ('-0x1.ccccccccccccdp+0', '0x1.4974ce11962e6p-5', '0x1.591f19c93b128p-36', 38),
        ('-0x1.999999999999ap-1', '0x1.45e53bc1f73a5p-3', '0x1.6ad4d59f63946p-35', 38),
        ('0x0.0p+0', '0x1.3f8ee39701ecap-2', '0x1.8be1a9be238f7p-35', 38),
        ('0x1.3333333333333p-1', '0x1.c2a1b3b3af940p-2', '0x1.79a599d38bae2p-35', 38),
        ('0x1.999999999999ap+0', '0x1.22732c225bb8fp-2', '0x1.db0ecbb0f778dp-36', 38),
    ]),
    ('cn_over_n', {'y': 0.7, 'rho': 0.45, 'q': 0.3}, 6, [
        ('-0x1.136173b180556p+1', '0x1.ade281c7f1bbdp-7', '0x1.2d56d8a8f688bp-9', 7),
        ('-0x1.e990cdad55ed2p-1', '0x1.548caf6d722b6p-3', '0x1.cca23002cac4bp-7', 7),
        ('0x0.0p+0', '0x1.83c9b1f62681fp-2', '0x1.312409fc60791p-6', 7),
        ('0x1.6f2c9a420071dp-1', '0x1.a7657ef8b69e5p-2', '0x1.0587eebdcd17dp-6', 7),
        ('0x1.e990cdad55ed2p+0', '0x1.a0b344cb57414p-4', '0x1.2434a53fc9b2bp-8', 7),
    ]),
]


def _lit(s):
    return float.fromhex(s) if "x" in s else F(s)


class TestGolden:
    @pytest.mark.parametrize("eid", EXPANSION_IDS)
    def test_exact_row(self, eid):
        got = [expansion_coeff(eid, n, **GOLDEN_EXACT_PARAMS[eid]) for n in range(13)]
        want = [_lit(s) for s in GOLDEN_EXACT_ROWS[eid]]
        assert [type(v) for v in got] == [type(v) for v in want]
        assert [v.hex() if isinstance(v, float) else v for v in got] == [
            v.hex() if isinstance(v, float) else v for v in want
        ]

    @pytest.mark.parametrize("eid", EXPANSION_IDS)
    def test_float_row(self, eid):
        params, want = GOLDEN_FLOAT_ROWS[eid]
        got = [expansion_coeff(eid, n, **params) for n in range(13)]
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == want

    @pytest.mark.parametrize(
        "eid,params,K,rows",
        GOLDEN_EVAL,
        ids=["%s-%d" % (g[0], i) for i, g in enumerate(GOLDEN_EVAL)],
    )
    def test_eval(self, eid, params, K, rows):
        for xh, value, tail, n_terms in rows:
            res = expansion_eval(ExpansionSpec(eid, params, K), float.fromhex(xh))
            assert (res.value.hex(), res.n_terms) == (value, n_terms), xh
            assert res.tail == pytest.approx(float.fromhex(tail), rel=1e-12, abs=0.0), xh
