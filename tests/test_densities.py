"""Tests for the infinite-product densities and their ratios."""

import math
from fractions import Fraction
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import product_reference as ref
from qortho import densities
from qortho.qcore import NonConvergenceError, ParameterError, q_pochhammer_inf, support
from qortho.densities import (
    BoundaryError,
    density_eval,
    density_ratio,
    fCN,
    fK,
    fN,
    fR,
    fT,
    fU,
    normalize_check,
    pm_ratio,
)


class TestConstruction:
    def test_q_range(self):
        fN(0.5)
        fN(-0.9)
        fN(1.0)  # fn admits the q = 1 Gaussian limit
        with pytest.raises(ParameterError):
            fU(1.0)
        with pytest.raises(ParameterError):
            fN(1.5)

    def test_fcn_y_must_be_in_support(self):
        L = support(0.5).radius
        fCN(0.99 * L, 0.3, 0.5)
        with pytest.raises(ParameterError):
            fCN(1.01 * L, 0.3, 0.5)
        with pytest.raises(ParameterError):
            fCN(0.0, 1.0, 0.5)
        for q in (0.5, 1.0):
            with pytest.raises(ParameterError):
                fCN(math.nan, 0.3, q)
        with pytest.raises(ParameterError):
            fK(math.nan, 0.3, 0.5)

    def test_fr_beta_one_degenerates_to_ft(self):
        d = fR(1.0, 0.5)
        assert d.tag == "ft"

    def test_trunc_eps_validated(self):
        with pytest.raises(ParameterError):
            fN(0.5, trunc_eps=0.0)
        with pytest.raises(ParameterError):
            fN(0.5, trunc_eps=2.0)

    @pytest.mark.parametrize("build,err", [
        (lambda: fN(math.nan), "fN needs -1 < q <= 1"),
        (lambda: fU(1), "fU needs -1 < q < 1"),
        (lambda: fCN(0.1, -1.0, 0.5), r"fCN needs \|rho\| < 1"),
        (lambda: fCN(math.inf, 0.3, 1.0), "fCN needs a finite y"),
        (lambda: fR(-1.0, 0.5), r"fR needs \|beta\| < 1"),
        (lambda: fK(0.1, 0.2, None), "fK needs parameter 'q'"),
        (lambda: fK(5.0, 0.2, 0.5), r"fK conditioning point must lie in S\(q\)"),
        (lambda: fT(0.5, math.nan), r"trunc_eps must lie in \(0, 1\)"),
        (lambda: fN(True), "fN needs a real q, got True"),
        (lambda: fN("0.5"), "fN needs a real q, got '0.5'"),
        (lambda: fR(True, 0.5), "fR needs a real beta, got True"),  # not the fT limit
        (lambda: fCN(0.1, 0.2, np.bool_(False)), "fCN needs a real q"),
    ])
    def test_one_parameter_rule(self, build, err):
        with pytest.raises(ParameterError, match="^" + err):
            build()

    def test_exact_parameters_give_float_fields(self):
        assert fCN(Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)) == fCN(1 / 3, 0.25, 0.5)


class TestEval:
    def test_scalar_and_array_agree(self):
        # every density gives a point the same bits alone as inside an array
        fracs = (-1.0, -0.99, -0.6, 0.0, 0.13, 0.77, 0.99, 1.0, 1.3)
        for q in (-0.8, 0.4, 0.9):
            L = support(q).radius
            for d in (fN(q), fCN(0.3 * L, -0.6, q), fR(0.45, q), fU(q), fT(q),
                      fK(-0.2 * L, 0.5, q)):
                xs = L * np.asarray(fracs[1:-2] if d.tag == "ft" else fracs)
                arr = density_eval(d, xs)
                assert isinstance(arr, np.ndarray)
                for x, v in zip(xs, arr):
                    s = density_eval(d, float(x))
                    assert isinstance(s, float)
                    assert s.hex() == float(v).hex(), (d.tag, q, x)

    def test_outside_support_is_zero(self):
        q = 0.5
        L = support(q).radius
        for d in (fN(q), fCN(0.3, 0.4, q), fR(0.3, q), fU(q), fK(0.3, 0.4, q)):
            assert density_eval(d, L) == 0.0
            assert density_eval(d, -1.5 * L) == 0.0
            assert density_eval(d, np.inf) == 0.0
            assert density_eval(d, -np.inf) == 0.0

    @pytest.mark.parametrize("d", [fN(0.5), fCN(0.3, 0.4, 0.5), fT(0.5), fN(1.0)],
                             ids=["fn", "fcn", "ft", "fn-q1"])
    def test_nan_point_rejected(self, d):
        with pytest.raises(ParameterError, match="NaN"):
            density_eval(d, math.nan)
        with pytest.raises(ParameterError, match="NaN"):
            density_eval(d, np.array([0.1, math.nan]))

    def test_ft_boundary_raises(self):
        q = 0.5
        L = support(q).radius
        with pytest.raises(BoundaryError):
            density_eval(fT(q), L)
        with pytest.raises(BoundaryError):
            density_eval(fT(q), np.array([0.0, -L]))

    def test_gaussian_limit(self):
        d = fN(1.0)
        for x in (0.0, 0.7, -1.3):
            assert density_eval(d, x) == pytest.approx(
                math.exp(-x * x / 2) / math.sqrt(2 * math.pi), rel=1e-14
            )

    def test_conditional_gaussian_limit(self):
        y, rho = 0.6, 0.4
        d = fCN(y, rho, 1.0)
        s2 = 1 - rho * rho
        for x in (0.0, 0.9):
            expect = math.exp(-((x - rho * y) ** 2) / (2 * s2)) / math.sqrt(
                2 * math.pi * s2
            )
            assert density_eval(d, x) == pytest.approx(expect, rel=1e-14)

    def test_no_q1_for_other_densities(self):
        # only fn/fcn admit the q = 1 limit
        with pytest.raises(ParameterError):
            fR(0.3, 1.0)
        with pytest.raises(ParameterError):
            fT(1.0)
        with pytest.raises(ParameterError):
            fK(0.0, 0.3, 1.0)

    def test_fu_closed_form(self):
        q = 0.3
        x = 0.8
        expect = math.sqrt((1 - q) * (4 - (1 - q) * x * x)) / (2 * math.pi)
        assert density_eval(fU(q), x) == pytest.approx(expect, rel=1e-15)

    def test_fk_closed_form_at_origin(self):
        # q = 0, y = 0: f_K(0) = 1 / (pi (1 - rho^2))
        rho = 0.4
        assert density_eval(fK(0.0, rho, 0.0), 0.0) == pytest.approx(
            1.0 / (math.pi * (1 - rho * rho)), rel=1e-14
        )

    def test_nonconvergence_near_unit_q(self):
        with pytest.raises(NonConvergenceError):
            density_eval(fN(0.95), 0.0)


class TestIdentities:
    def test_fcn_rho_zero_is_fn(self):
        q = 0.4
        xs = np.linspace(-2.5, 2.5, 9)
        np.testing.assert_allclose(
            density_eval(fCN(0.7, 0.0, q), xs), density_eval(fN(q), xs), atol=1e-15
        )

    def test_fcn_on_diagonal_is_fr_scaled(self):
        # f_CN(x | y=x, rho, q) = f_R(x | rho, q) / (1 - rho)
        q, rho = 0.4, 0.35
        L = support(q).radius
        xs = L * np.linspace(-0.9, 0.9, 13)
        lhs = np.array([density_eval(fCN(float(x), rho, q), float(x)) for x in xs])
        rhs = density_eval(fR(rho, q), xs) / (1 - rho)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_fk_rho_zero_is_fu(self):
        q = 0.4
        xs = np.linspace(-2.0, 2.0, 9)
        np.testing.assert_allclose(
            density_eval(fK(0.5, 0.0, q), xs), density_eval(fU(q), xs), atol=1e-15
        )


class TestPmRatio:
    def test_symmetry_and_broadcast(self):
        q, rho = 0.5, 0.4
        xs = np.linspace(-2.0, 2.0, 7)
        a = pm_ratio(xs, 0.3, rho, q)
        b = pm_ratio(0.3, xs, rho, q)
        np.testing.assert_allclose(a, b, atol=0.0)
        assert a.shape == xs.shape

    def test_equals_density_quotient(self):
        q, rho, y = 0.5, 0.4, 0.3
        xs = np.linspace(-2.0, 2.0, 7)
        num = density_eval(fCN(y, rho, q), xs)
        den = density_eval(fN(q), xs)
        np.testing.assert_allclose(pm_ratio(xs, y, rho, q), num / den, rtol=1e-12)

    @pytest.mark.parametrize("rho,q,eps", [(1.0, 0.5, 1e-14), (0.4, 1.0, 1e-14),
                                           (0.4, 0.5, 0.0), (math.nan, 0.5, 1e-14)])
    def test_parameters_checked(self, rho, q, eps):
        with pytest.raises(ParameterError):
            pm_ratio(0.1, 0.2, rho, q, eps)

    def test_rho_zero_is_one(self):
        np.testing.assert_allclose(
            pm_ratio(np.array([0.1, 1.0]), 0.5, 0.0, 0.5), 1.0, atol=0.0
        )

    def test_infinite_point_raises_instead_of_nan(self):
        # the ratio has no value at +-inf; no NaN and no RuntimeWarning leaks out
        x = np.array([np.inf, 0.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="outside S"):
                pm_ratio(x, 0.3, 0.4, 0.5)
            with pytest.raises(ParameterError, match="outside S"):
                density_ratio(fCN(0.3, 0.4, 0.5), fN(0.5), x)
            with pytest.raises(ParameterError, match="outside S"):
                pm_ratio(-np.inf, 0.0, 0.0, 0.5)

    @pytest.mark.parametrize("scale", [1.01, 1.2, 2.0])
    def test_conditioning_point_outside_support_raises(self, scale):
        L = support(0.5).radius
        with pytest.raises(ParameterError, match="outside S"):
            pm_ratio(0.1, scale * L, 0.4, 0.5)

    def test_nan_point_rejected(self):
        with pytest.raises(ParameterError, match="NaN"):
            pm_ratio(math.nan, 0.3, 0.4, 0.5)
        with pytest.raises(ParameterError, match="NaN"):
            pm_ratio(np.array([0.2, 0.3]), math.nan, 0.4, 0.5)


fracs = st.floats(-1.0, 1.0)


@st.composite
def product_points(draw):
    """(q, x, y) with x, y in S(q): scalars, 1-d arrays or a 2-d broadcast pair."""
    q = draw(st.floats(-0.9, 0.9))
    L = support(q).radius

    def row(n):
        return L * np.array(draw(st.lists(fracs, min_size=n, max_size=n)))

    shape = draw(st.sampled_from(("scalar", "1d", "1d-scalar-y", "2d")))
    if shape == "scalar":
        return q, L * draw(fracs), L * draw(fracs)
    n = draw(st.integers(1, 9))
    if shape == "1d":
        return q, row(n), row(n)
    if shape == "1d-scalar-y":
        return q, row(n), L * draw(fracs)
    return q, row(n)[:, None], row(draw(st.integers(1, 9)))[None, :]


def _same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert [float(v).hex() for v in np.ravel(got)] == [float(v).hex() for v in np.ravel(want)]


class TestProductKernelBits:
    """The in-place product kernel reproduces the per-factor loop bit for bit."""

    @given(case=product_points(), rho=st.floats(-0.95, 0.95),
           beta=st.floats(-0.95, 0.95), eps=st.sampled_from((1e-15, 1e-14, 1e-8)))
    @settings(max_examples=80, deadline=None)
    def test_helpers_match_reference(self, case, rho, beta, eps):
        q, x, y = case
        x2s = (1.0 - q) * x * x
        _same_bits(densities._log_fac_sum(x2s, q, eps, 7.0, 1), ref.log_fac_sum(x2s, q, eps))
        _same_bits(densities._log_den_sum(x2s, beta, q, eps),
                   ref.log_den_sum(x2s, beta, q, eps))
        _same_bits(densities._log_w_sum(x, y, rho, q, eps, 19.0 * abs(rho)),
                   ref.log_w_sum(x, y, rho, q, eps))

    @given(case=product_points(), rho=st.floats(-0.95, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_pm_ratio_matches_reference(self, case, rho):
        q, x, y = case
        want = q_pochhammer_inf(rho * rho, q, 1e-14) * np.exp(
            -ref.log_w_sum(np.atleast_1d(x), np.atleast_1d(y), rho, q, 1e-14)
        )
        got = pm_ratio(x, y, rho, q)
        assert isinstance(got, float) == (np.ndim(x) == np.ndim(y) == 0)
        _same_bits(np.ravel(got), np.ravel(want))


MERGED = [
    (fCN(0.3, 0.4, 0.5), fN(0.5)),
    (fR(-0.3, 0.5), fN(0.5)),
    (fN(0.5), fU(0.5)),
    (fCN(0.3, 0.4, 0.5), fU(0.5)),
    (fR(-0.3, 0.5), fU(0.5)),
    # the kernel left sides whose denominator lies below the numerator
    (fU(0.5), fN(0.5)),
    (fN(0.5), fCN(0.3, 0.4, 0.5)),
    (fN(0.5), fR(-0.3, 0.5)),
    (fCN(0.3, 0.4, 0.5), fK(-0.2, 0.6, 0.5)),
]
MERGED_IDS = ["fcn/fn", "fr/fn", "fn/fu", "fcn/fu", "fr/fu", "fu/fn", "fn/fcn", "fn/fr", "fcn/fk"]
# pairs that meet above both tags, or above their one shared tag
MEETING = [
    (fU(0.5), fN(0.5)),
    (fN(0.5), fCN(0.3, 0.4, 0.5)),
    (fN(0.5), fR(-0.3, 0.5)),
    (fCN(0.3, 0.4, 0.5), fK(-0.2, 0.6, 0.5)),
    (fR(0.2, 0.5), fCN(-0.7, -0.5, 0.5)),
    (fK(0.4, 0.3, 0.5), fN(0.5)),
    (fT(0.5), fN(0.5)),
    (fCN(0.1, 0.3, 0.5), fCN(0.5, 0.3, 0.5)),
    (fCN(0.1, 0.3, 0.5), fCN(0.1, -0.6, 0.5)),
    (fR(0.3, 0.5), fR(-0.6, 0.5)),
    (fK(0.1, 0.3, 0.5), fK(0.5, 0.3, 0.5)),
]
MEETING_IDS = ["fu/fn", "fn/fcn", "fn/fr", "fcn/fk", "fr/fcn", "fk/fn", "ft/fn",
               "fcn/fcn-y", "fcn/fcn-rho", "fr/fr", "fk/fk"]


class TestDensityRatio:
    def test_merged_pairs_match_direct_quotients(self):
        q, rho, y, beta = 0.5, 0.4, 0.3, 0.35
        L = support(q).radius
        xs = L * np.linspace(-0.95, 0.95, 11)
        pairs = [
            (fCN(y, rho, q), fN(q)),
            (fR(beta, q), fN(q)),
            (fN(q), fU(q)),
            (fCN(y, rho, q), fU(q)),
            (fR(beta, q), fU(q)),
        ]
        for num, den in pairs:
            direct = density_eval(num, xs) / density_eval(den, xs)
            merged = density_ratio(num, den, xs)
            np.testing.assert_allclose(merged, direct, rtol=1e-11)

    def test_merged_form_is_boundary_finite(self):
        # fN/fU stays finite at the support edge where both densities vanish
        q = 0.5
        L = support(q).radius
        v = density_ratio(fN(q), fU(q), np.array([L, -L]))
        assert np.all(np.isfinite(v))
        assert np.all(v > 0)

    @pytest.mark.parametrize("num,den", MERGED, ids=MERGED_IDS)
    @pytest.mark.parametrize("scale", [1.01, 1.2, 2.0])
    def test_merged_pairs_raise_outside_support(self, num, den, scale):
        # density_eval gives 0 for both densities there, so there is no ratio;
        # the edge itself stays valid
        L = support(0.5).radius
        assert np.all(np.isfinite(density_ratio(num, den, np.array([-L, L]))))
        for x in (scale * L, np.array([0.0, -scale * L])):
            with pytest.raises(ParameterError, match="outside S"):
                density_ratio(num, den, x)

    def test_fr_over_fu_is_the_chain_at_the_edges(self):
        # fR/fU is fR/fN times fN/fU, merged, so it has a value at +-L too
        q = 0.5
        L = support(q).radius
        x = np.array([-L, L])
        got = density_ratio(fR(0.3, q), fU(q), x)
        want = density_ratio(fR(0.3, q), fN(q), x) * density_ratio(fN(q), fU(q), x)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("num,den", MEETING, ids=MEETING_IDS)
    def test_meeting_pairs_match_direct_quotients(self, num, den):
        # one rule for every pair: the links below where the chains meet
        L = support(0.5).radius
        xs = L * np.linspace(-0.95, 0.95, 11)
        direct = density_eval(num, xs) / density_eval(den, xs)
        np.testing.assert_allclose(density_ratio(num, den, xs), direct, rtol=1e-13, atol=0.0)

    def test_same_tag_pair_meets_above_its_tag(self):
        got = density_ratio(fCN(0.1, 0.3, 0.5), fCN(0.5, 0.3, 0.5), 0.2)
        assert got == pytest.approx(0.98854419616296, rel=1e-13)

    def test_fu_over_fu_keeps_the_shape_of_x(self):
        xs = np.array([[-1.0, 0.0, 2.5], [0.3, 1.0, -2.0]])
        out = density_ratio(fU(0.5), fU(0.5), xs)
        assert isinstance(out, np.ndarray) and out.shape == xs.shape
        assert np.all(out == 1.0)
        assert density_ratio(fU(0.5), fU(0.5), 0.4) == 1.0

    @pytest.mark.parametrize("num,den", [
        (fT(0.5), fU(0.5)), (fU(0.5), fT(0.5)), (fT(0.5), fT(0.5)), (fCN(0.3, 0.4, 0.5), fT(0.5)),
    ], ids=["ft/fu", "fu/ft", "ft/ft", "fcn/ft"])
    def test_ft_pole_in_either_slot(self, num, den):
        L = support(0.5).radius
        assert np.all(np.isfinite(density_ratio(num, den, L * np.array([-0.99, 0.0, 0.99]))))
        for x in (L, np.array([0.0, -L])):
            with pytest.raises(BoundaryError):
                density_ratio(num, den, x)

    @pytest.mark.parametrize("num,den", [
        (fN(1.0), fCN(0.3, 0.4, 1.0)), (fCN(0.3, 0.4, 1.0), fCN(0.1, 0.4, 1.0)),
    ], ids=["fn/fcn", "fcn/fcn"])
    def test_every_pair_refuses_unit_q(self, num, den):
        # both have q = 1 closed forms, but no ratio has a product form there
        with pytest.raises(ParameterError, match="^density_ratio needs -1 < q < 1, got q=1.0$"):
            density_ratio(num, den, 0.2)

    def test_merged_ratio_needs_q_below_one(self):
        # fCN and fN both exist at q = 1, but their product form does not
        with pytest.raises(ParameterError, match="^density_ratio needs -1 < q < 1, got q=1.0$"):
            density_ratio(fCN(0.3, 0.4, 1.0), fN(1.0), 0.0)

    def test_mixed_q_rejected(self):
        with pytest.raises(ParameterError):
            density_ratio(fN(0.5), fU(0.4), 0.0)

    @pytest.mark.parametrize("num,den", [
        (fCN(0.3, 0.4, 0.5), fN(0.5)),
        (fR(0.35, 0.5), fN(0.5)),
        (fN(0.5), fU(0.5)),
        (fCN(0.3, 0.4, 0.5), fU(0.5)),
        (fR(0.35, 0.5), fU(0.5)),
        (fK(0.3, 0.4, 0.5), fU(0.5)),
    ], ids=["fcn/fn", "fr/fn", "fn/fu", "fcn/fu", "fr/fu", "fk/fu"])
    def test_nan_point_rejected(self, num, den):
        with pytest.raises(ParameterError, match="NaN"):
            density_ratio(num, den, np.array([0.0, math.nan]))


class TestNormalization:
    def test_all_six_unit_mass(self):
        q = 0.3
        L = support(q).radius
        for d in (fN(q), fCN(0.4 * L, 0.45, q), fR(0.35, q), fU(q), fT(q),
                  fK(0.4 * L, 0.45, q)):
            ok, residual = normalize_check(d)
            assert ok, (d.tag, residual)
            assert residual < 1e-8

    def test_q1_rejected(self):
        with pytest.raises(ParameterError):
            normalize_check(fN(1.0))


# ---------------------------------------------------------------------------
# golden regression values
# ---------------------------------------------------------------------------
# float.hex literals captured from the reference implementation, so every
# comparison is bit for bit.  Points are fractions of the support radius L:
# the edges, the inside and one point outside S(q); rho = 0 and beta = 0 are
# covered, and the ratio pairs are four of the merged product forms plus
# fK/fU, inside S(q), which was a plain quotient until fT and fK joined the
# chain.  The fT and fK rows (at most 2 ulp each) were re-recorded then: fT
# became fU times its fac_0 link and fK fU times its w_0 link.

GOLDEN_QS = (-0.8, -0.1, 0.0, 0.3, 0.7, 0.9)
EDGE_FRACS = (-1.0, -0.93, -0.51, 0.0, 0.37, 0.85, 1.0, 1.2)
INNER_FRACS = (-0.93, -0.51, 0.0, 0.37, 0.85)
DENSITIES = {
    "fn": lambda q, L: fN(q),
    "fcn": lambda q, L: fCN(0.3 * L, 0.6, q),
    "fcn-rho0": lambda q, L: fCN(-0.5 * L, 0.0, q),
    "fr": lambda q, L: fR(-0.45, q),
    "fr-beta0": lambda q, L: fR(0.0, q),
    "fu": lambda q, L: fU(q),
    "ft": lambda q, L: fT(q),
    "fk": lambda q, L: fK(0.3 * L, -0.4, q),
}
RATIOS = (
    ("fcn", "fn"), ("fcn-rho0", "fn"), ("fr", "fn"), ("fr-beta0", "fn"),
    ("fn", "fu"), ("fcn", "fu"), ("fcn-rho0", "fu"), ("fk", "fu"),
)


def golden_density(label, q):
    L = support(q).radius
    fracs = INNER_FRACS if label == "ft" else EDGE_FRACS
    return density_eval(DENSITIES[label](q, L), L * np.asarray(fracs))


def golden_ratio(num, den, q):
    L = support(q).radius
    fracs = INNER_FRACS if (num, den) == ("fk", "fu") else EDGE_FRACS[:-1]
    return density_ratio(DENSITIES[num](q, L), DENSITIES[den](q, L), L * np.asarray(fracs))


def golden_pm(rho, q):
    L = support(q).radius
    return pm_ratio(L * np.asarray(EDGE_FRACS[:-1]), -0.2 * L, rho, q)


GOLDEN_DENSITY = {
    ('fn', -0.8): ['0x0.0p+0', '0x1.78b02a7cdc045p-3', '0x1.e1580d807fe96p-2', '0x1.accf8f54089b1p-8', '0x1.800122f6db82bp-3', '0x1.05e99b6e15c76p-1', '0x0.0p+0', '0x0.0p+0'],
    ('fn', -0.1): ['0x0.0p+0', '0x1.3877864781707p-3', '0x1.278d16eb8c63dp-2', '0x1.3354c730af062p-2', '0x1.2f56832e222cdp-2', '0x1.abff4eb2cb11ap-3', '0x0.0p+0', '0x0.0p+0'],
    ('fn', 0.0): ['0x0.0p+0', '0x1.df391d7c729d2p-4', '0x1.185f8e3b46858p-2', '0x1.45f306dc9c883p-2', '0x1.2ed138b7b6ba6p-2', '0x1.5768af10c1dfbp-3', '0x0.0p+0', '0x0.0p+0'],
    ('fn', 0.3): ['0x0.0p+0', '0x1.097e8706dc1cep-5', '0x1.c1fba97149066p-3', '0x1.6a15bfb07876cp-2', '0x1.1d37ad2eaa3c7p-2', '0x1.03ee2107e235dp-4', '0x0.0p+0', '0x0.0p+0'],
    ('fn', 0.7): ['0x0.0p+0', '0x1.0d40a35b2b282p-13', '0x1.3a72b91631054p-4', '0x1.87bd3fdef250ep-2', '0x1.5e1d543eb86d5p-3', '0x1.3344ed4e5519dp-10', '0x0.0p+0', '0x0.0p+0'],
    ('fn', 0.9): ['0x0.0p+0', '0x1.805a7da979f43p-41', '0x1.c155b1c194bf4p-10', '0x1.9343e54f39067p-2', '0x1.a62a3e33ed010p-6', '0x1.4ecd88d6e9f99p-30', '0x0.0p+0', '0x0.0p+0'],
    ('fcn', -0.8): ['0x0.0p+0', '0x1.c5b13e848117ap-6', '0x1.dd03c7459b511p-2', '0x1.875921220863ep-6', '0x1.2e7790d96f84fp-1', '0x1.ba457021f634bp-3', '0x0.0p+0', '0x0.0p+0'],
    ('fcn', -0.1): ['0x0.0p+0', '0x1.443f0131a82a5p-5', '0x1.1eb3feec353f3p-3', '0x1.7aef3d6377a93p-2', '0x1.06a6468cdf4fap-1', '0x1.6510c710e8b35p-3', '0x0.0p+0', '0x0.0p+0'],
    ('fcn', 0.0): ['0x0.0p+0', '0x1.c72a30707c720p-6', '0x1.fbeab54c6f35cp-4', '0x1.82e22b1690c61p-2', '0x1.0312a4ab7fa6ap-1', '0x1.261be1d200e49p-3', '0x0.0p+0', '0x0.0p+0'],
    ('fcn', 0.3): ['0x0.0p+0', '0x1.35977bec8382dp-8', '0x1.2ed3565c2f1dep-4', '0x1.83f041376c138p-2', '0x1.e8ad6d126c779p-2', '0x1.e0148d9ac1995p-5', '0x0.0p+0', '0x0.0p+0'],
    ('fcn', 0.7): ['0x0.0p+0', '0x1.e0fb6afaf2cdap-20', '0x1.bfcab3190365bp-8', '0x1.4d8e0ac413f10p-2', '0x1.7e4a0f24aa04fp-2', '0x1.536bc00fdf459p-10', '0x0.0p+0', '0x0.0p+0'],
    ('fcn', 0.9): ['0x0.0p+0', '0x1.5899ebd4cbbaap-59', '0x1.6d245650a539bp-20', '0x1.66bb412ebc8e1p-3', '0x1.5249751f9fc76p-3', '0x1.2ddc5921294eap-29', '0x0.0p+0', '0x0.0p+0'],
    ('fcn-rho0', -0.8): ['0x0.0p+0', '0x1.78b02a7cdc045p-3', '0x1.e1580d807fe96p-2', '0x1.accf8f54089b1p-8', '0x1.800122f6db82bp-3', '0x1.05e99b6e15c76p-1', '0x0.0p+0', '0x0.0p+0'],
    ('fcn-rho0', -0.1): ['0x0.0p+0', '0x1.3877864781707p-3', '0x1.278d16eb8c63dp-2', '0x1.3354c730af062p-2', '0x1.2f56832e222cdp-2', '0x1.abff4eb2cb11ap-3', '0x0.0p+0', '0x0.0p+0'],
    ('fcn-rho0', 0.0): ['0x0.0p+0', '0x1.df391d7c729d2p-4', '0x1.185f8e3b46858p-2', '0x1.45f306dc9c883p-2', '0x1.2ed138b7b6ba6p-2', '0x1.5768af10c1dfbp-3', '0x0.0p+0', '0x0.0p+0'],
    ('fcn-rho0', 0.3): ['0x0.0p+0', '0x1.097e8706dc1cep-5', '0x1.c1fba97149066p-3', '0x1.6a15bfb07876cp-2', '0x1.1d37ad2eaa3c7p-2', '0x1.03ee2107e235dp-4', '0x0.0p+0', '0x0.0p+0'],
    ('fcn-rho0', 0.7): ['0x0.0p+0', '0x1.0d40a35b2b282p-13', '0x1.3a72b91631054p-4', '0x1.87bd3fdef250ep-2', '0x1.5e1d543eb86d5p-3', '0x1.3344ed4e5519dp-10', '0x0.0p+0', '0x0.0p+0'],
    ('fcn-rho0', 0.9): ['0x0.0p+0', '0x1.805a7da979f43p-41', '0x1.c155b1c194bf4p-10', '0x1.9343e54f39067p-2', '0x1.a62a3e33ed010p-6', '0x1.4ecd88d6e9f99p-30', '0x0.0p+0', '0x0.0p+0'],
    ('fr', -0.8): ['0x0.0p+0', '0x1.5c03ef132f788p-3', '0x1.15a7f6a246263p-1', '0x1.b3e1a855d1a16p-6', '0x1.58339c1a9b8a0p-2', '0x1.8c56d04cfa8e3p-2', '0x0.0p+0', '0x0.0p+0'],
    ('fr', -0.1): ['0x0.0p+0', '0x1.b2b5d88fa5792p-5', '0x1.c0bfdf2731ad0p-3', '0x1.1db13bda4b93ep-1', '0x1.3d3ef1447c9f9p-2', '0x1.50e728e3a9a97p-4', '0x0.0p+0', '0x0.0p+0'],
    ('fr', 0.0): ['0x0.0p+0', '0x1.1b83e1dc4da78p-5', '0x1.902e094211b81p-3', '0x1.28514c0e5fc1ap-1', '0x1.2f69be9a56e74p-2', '0x1.d74db6ee980d3p-5', '0x0.0p+0', '0x0.0p+0'],
    ('fr', 0.3): ['0x0.0p+0', '0x1.2d25dab337f26p-8', '0x1.e3ac118f3c9b1p-4', '0x1.39959e197a169p-1', '0x1.df3ad56a72287p-3', '0x1.78dd65cfef5c9p-7', '0x0.0p+0', '0x0.0p+0'],
    ('fr', 0.7): ['0x0.0p+0', '0x1.903a0d7988b38p-21', '0x1.7ab4614fbc76bp-7', '0x1.452ca8548d5a4p-1', '0x1.1821a641bb074p-4', '0x1.acccb94c91de9p-17', '0x0.0p+0', '0x0.0p+0'],
    ('fr', 0.9): ['0x0.0p+0', '0x1.100b5412f154cp-64', '0x1.8840d5d2c1299p-19', '0x1.4994e7da63df6p-1', '0x1.94689150ad328p-11', '0x1.a03bb3b910221p-51', '0x0.0p+0', '0x0.0p+0'],
    ('fr-beta0', -0.8): ['0x0.0p+0', '0x1.78b02a7cdc045p-3', '0x1.e1580d807fe96p-2', '0x1.accf8f54089b1p-8', '0x1.800122f6db82bp-3', '0x1.05e99b6e15c76p-1', '0x0.0p+0', '0x0.0p+0'],
    ('fr-beta0', -0.1): ['0x0.0p+0', '0x1.3877864781707p-3', '0x1.278d16eb8c63dp-2', '0x1.3354c730af062p-2', '0x1.2f56832e222cdp-2', '0x1.abff4eb2cb11ap-3', '0x0.0p+0', '0x0.0p+0'],
    ('fr-beta0', 0.0): ['0x0.0p+0', '0x1.df391d7c729d2p-4', '0x1.185f8e3b46858p-2', '0x1.45f306dc9c883p-2', '0x1.2ed138b7b6ba6p-2', '0x1.5768af10c1dfbp-3', '0x0.0p+0', '0x0.0p+0'],
    ('fr-beta0', 0.3): ['0x0.0p+0', '0x1.097e8706dc1cep-5', '0x1.c1fba97149066p-3', '0x1.6a15bfb07876cp-2', '0x1.1d37ad2eaa3c7p-2', '0x1.03ee2107e235dp-4', '0x0.0p+0', '0x0.0p+0'],
    ('fr-beta0', 0.7): ['0x0.0p+0', '0x1.0d40a35b2b282p-13', '0x1.3a72b91631054p-4', '0x1.87bd3fdef250ep-2', '0x1.5e1d543eb86d5p-3', '0x1.3344ed4e5519dp-10', '0x0.0p+0', '0x0.0p+0'],
    ('fr-beta0', 0.9): ['0x0.0p+0', '0x1.805a7da979f43p-41', '0x1.c155b1c194bf4p-10', '0x1.9343e54f39067p-2', '0x1.a62a3e33ed010p-6', '0x1.4ecd88d6e9f99p-30', '0x0.0p+0', '0x0.0p+0'],
    ('fu', -0.8): ['0x0.0p+0', '0x1.4178fe7229f77p-3', '0x1.7829034a85da8p-2', '0x1.b54e916f96415p-2', '0x1.9645a1f5afd23p-2', '0x1.ccbb3e0793360p-3', '0x0.0p+0', '0x0.0p+0'],
    ('fu', -0.1): ['0x0.0p+0', '0x1.f69d0a02be0c5p-4', '0x1.260ed67938a0fp-2', '0x1.55dbc8ea9c871p-2', '0x1.3d98f16e15a5cp-2', '0x1.682b99c6ab086p-3', '0x0.0p+0', '0x0.0p+0'],
    ('fu', 0.0): ['0x0.0p+0', '0x1.df391d7c729d2p-4', '0x1.185f8e3b46858p-2', '0x1.45f306dc9c883p-2', '0x1.2ed138b7b6ba6p-2', '0x1.5768af10c1dfbp-3', '0x0.0p+0', '0x0.0p+0'],
    ('fu', 0.3): ['0x0.0p+0', '0x1.90f26294b9bf9p-4', '0x1.d52779fb63ccap-3', '0x1.10b571eccff97p-2', '0x1.fab5d08739f8dp-3', '0x1.1f5107455d2acp-3', '0x0.0p+0', '0x0.0p+0'],
    ('fu', 0.7): ['0x0.0p+0', '0x1.067b36d374d9ap-4', '0x1.33222e87315a8p-3', '0x1.650f418f5dfd8p-3', '0x1.4bb83e5367606p-3', '0x1.782f852354286p-4', '0x0.0p+0', '0x0.0p+0'],
    ('fu', 0.9): ['0x0.0p+0', '0x1.2f165997bfcf5p-5', '0x1.62a5b1c40eff7p-4', '0x1.9c4c0200b604ep-4', '0x1.7f09736a6dbb5p-4', '0x1.b261b9fa22c5ep-5', '0x0.0p+0', '0x0.0p+0'],
    ('ft', -0.8): ['0x1.297084577029ap-1', '0x1.fc64afa52dba6p-3', '0x1.b54e916f96415p-3', '0x1.d6b669b9f9c59p-3', '0x1.9f12c6df9dfe2p-2'],
    ('ft', -0.1): ['0x1.d109d06a60a1dp-2', '0x1.8d6de877d305ep-3', '0x1.55dbc8ea9c871p-3', '0x1.6ff911cacb574p-3', '0x1.447a4e92b1257p-2'],
    ('ft', 0.0): ['0x1.bb658b4519228p-2', '0x1.7aef1a657ec35p-3', '0x1.45f306dc9c883p-3', '0x1.5ed932152fe57p-3', '0x1.35609db77500dp-2'],
    ('ft', 0.3): ['0x1.72f8e5ead09f2p-2', '0x1.3d09f728955f4p-3', '0x1.10b571eccff97p-3', '0x1.258a75108e05cp-3', '0x1.02d7fd533f2d4p-2'],
    ('ft', 0.7): ['0x1.e5b779bad6567p-3', '0x1.9f19f50ca9883p-4', '0x1.650f418f5dfd8p-4', '0x1.8055cee666ddfp-4', '0x1.52e7ed90d6322p-3'],
    ('ft', 0.9): ['0x1.186dbd32c6b1fp-3', '0x1.df515ba71937bp-5', '0x1.9c4c0200b604ep-5', '0x1.bbcac3b67b84bp-5', '0x1.8755bc4dbe766p-4'],
    ('fk', -0.8): ['0x0.0p+0', '0x1.5201861655f62p-3', '0x1.e95ae206be457p-2', '0x1.e15008b99bb71p-2', '0x1.42ea9f39752cep-2', '0x1.c79c78753d55bp-4', '0x0.0p+0', '0x0.0p+0'],
    ('fk', -0.1): ['0x0.0p+0', '0x1.083b3d86b3b53p-3', '0x1.7e8be17fc87d5p-2', '0x1.7842679990e87p-2', '0x1.f8def131df58bp-3', '0x1.642aec5b0d23fp-4', '0x0.0p+0', '0x0.0p+0'],
    ('fk', 0.0): ['0x0.0p+0', '0x1.f7de992088815p-4', '0x1.6cbe627b173bap-2', '0x1.66bfcf3336bfdp-2', '0x1.e1601fc70a2a9p-3', '0x1.5397b137f7828p-4', '0x0.0p+0', '0x0.0p+0'],
    ('fk', 0.3): ['0x0.0p+0', '0x1.a59146fb5df8fp-4', '0x1.312a9d7bf93f2p-2', '0x1.2c26b2857296ap-2', '0x1.92bf646a2df83p-3', '0x1.1c1f9e5c1fdb5p-4', '0x0.0p+0', '0x0.0p+0'],
    ('fk', 0.7): ['0x0.0p+0', '0x1.13fb0f70c20afp-4', '0x1.8f8e8379c08c4p-3', '0x1.88fd78758adecp-3', '0x1.07a903a25518cp-3', '0x1.740147872f7ddp-5', '0x0.0p+0', '0x0.0p+0'],
    ('fk', 0.9): ['0x0.0p+0', '0x1.3eacd13ff2284p-5', '0x1.cd5e4ad3e53aap-4', '0x1.c5c930e569579p-4', '0x1.3072d6b08268cp-4', '0x1.ad8deb43bc8bap-6', '0x0.0p+0', '0x0.0p+0'],
}
GOLDEN_RATIO = {
    ('fcn', 'fn', -0.8): ['0x1.b21cecc064d04p-4', '0x1.345526aca3481p-3', '0x1.fb6524331093ep-1', '0x1.d3450714930a1p+1', '0x1.9348e4e39bef3p+1', '0x1.b049871c085a9p-2', '0x1.80db7692f83cdp-3'],
    ('fcn', 'fn', -0.1): ['0x1.e56e9a121f283p-3', '0x1.09a68b06482d6p-2', '0x1.f0ac0caefe039p-2', '0x1.3ba4dd8e3f69dp+0', '0x1.bb52932c114f5p+0', '0x1.ab25825f7253dp-1', '0x1.3b1d8adbc3d52p-1'],
    ('fcn', 'fn', 0.0): ['0x1.bb0ce04b518c8p-3', '0x1.e64bd42a9e270p-3', '0x1.cfc34b1ef28dcp-2', '0x1.2fdb897edc4bfp+0', '0x1.b6099234b7c1bp+0', '0x1.b67f380b9ec3ap-1', '0x1.47ae147ae147ap-1'],
    ('fcn', 'fn', 0.3): ['0x1.06fceda5ccfb6p-3', '0x1.2a854193c575dp-3', '0x1.588fa6f319127p-2', '0x1.124764688e740p+0', '0x1.b69e1ee1713f8p+0', '0x1.d8d24648e48adp-1', '0x1.641c7f9fbd0bdp-1'],
    ('fcn', 'fn', 0.7): ['0x1.5432949f17396p-7', '0x1.c94ef12f228b7p-7', '0x1.6c8ef13801ab2p-4', '0x1.b3f415f8edea2p-1', '0x1.17869bba0dcd2p+1', '0x1.1ac97940b8a63p+0', '0x1.6d05ae451bc8bp-1'],
    ('fcn', 'fn', 0.9): ['0x1.7aff6cc44762bp-20', '0x1.cb0bb8242846fp-19', '0x1.a010c31669544p-11', '0x1.c7755630eabf7p-2', '0x1.9a45e4c1dd2e0p+2', '0x1.cd9f7b3f22005p+0', '0x1.37a7a8540d5acp-1'],
    ('fcn-rho0', 'fn', -0.8): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    ('fcn-rho0', 'fn', -0.1): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    ('fcn-rho0', 'fn', 0.0): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    ('fcn-rho0', 'fn', 0.3): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    ('fcn-rho0', 'fn', 0.7): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    ('fcn-rho0', 'fn', 0.9): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    ('fr', 'fn', -0.8): ['0x1.5cb47fc9d17bfp+0', '0x1.d9070ccc0e068p-1', '0x1.2756ef65f893bp+0', '0x1.0438a0cf64f34p+2', '0x1.caee1f109e5e3p+0', '0x1.836459067b457p-1', '0x1.5cb47fc9d17bfp+0'],
    ('fr', 'fn', -0.1): ['0x1.42a62a78507f4p-2', '0x1.6427063e39bf1p-2', '0x1.84b27612618f5p-1', '0x1.dbf35dd3e5dd1p+0', '0x1.0bbccd0253de8p+0', '0x1.9306d315e3150p-2', '0x1.42a62a78507f4p-2'],
    ('fr', 'fn', 0.0): ['0x1.0bdf1ff6425bfp-2', '0x1.2ee80c616fce3p-2', '0x1.6d64400b0e049p-1', '0x1.d1745d1745d17p+0', '0x1.0080f12b5f584p+0', '0x1.5f575b3063a74p-2', '0x1.0bdf1ff6425bfp-2'],
    ('fr', 'fn', 0.3): ['0x1.d6583456c2cd4p-4', '0x1.2260ed7c1307ap-3', '0x1.132a838fe9fcep-1', '0x1.bb6b2ef17b0c7p+0', '0x1.ae2349854bddcp-1', '0x1.732aa45a27c08p-3', '0x1.d6583456c2cd4p-4'],
    ('fr', 'fn', 0.7): ['0x1.b73771976d4f6p-9', '0x1.7c871c6f3b958p-8', '0x1.3450128b526d5p-3', '0x1.a90015f9474d9p+0', '0x1.99a87efca6a54p-2', '0x1.6540a793807e4p-7', '0x1.b73771976d4f6p-9'],
    ('fr', 'fn', 0.9): ['0x1.063d1180020acp-26', '0x1.6a645f50f880ap-24', '0x1.bef532ad6cfb3p-10', '0x1.a272dedaa6c18p+0', '0x1.ea7706061992ap-6', '0x1.3e4395d44e4adp-21', '0x1.063d1180020acp-26'],
    ('fr-beta0', 'fn', -0.8): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    ('fr-beta0', 'fn', -0.1): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    ('fr-beta0', 'fn', 0.0): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    ('fr-beta0', 'fn', 0.3): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    ('fr-beta0', 'fn', 0.7): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    ('fr-beta0', 'fn', 0.9): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    ('fn', 'fu', -0.8): ['0x1.b9c4c4abe45f3p-3', '0x1.2bf8561369dedp+0', '0x1.47957ee00b9b3p+0', '0x1.f60d7eb9aff07p-7', '0x1.e3f002916d2c8p-2', '0x1.230ea74ee987ap+1', '0x1.b9c4c4abe45f3p-3'],
    ('fn', 'fu', -0.1): ['0x1.4b84a94b6a18dp+0', '0x1.3e4d685b93c0dp+0', '0x1.014cc78a1d749p+0', '0x1.cc49dbed0066cp-1', '0x1.e903209051024p-1', '0x1.3035af9b1d5e2p+0', '0x1.4b84a94b6a18dp+0'],
    ('fn', 'fu', 0.0): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    ('fn', 'fu', 0.3): ['0x1.d6f004ba5c0b5p-3', '0x1.5307b72bef6fap-2', '0x1.eb13f9e985e86p-1', '0x1.53e66f87f9e83p+0', '0x1.2031ebec22054p+0', '0x1.cf3287823c0b8p-2', '0x1.d6f004ba5c0b5p-3'],
    ('fn', 'fu', 0.7): ['0x1.3dcfec9ee4179p-14', '0x1.069a9f189fb77p-9', '0x1.0618c9ee139bfp-1', '0x1.18dd3ac987725p+1', '0x1.0e322b9f77c73p+0', '0x1.a233e5d90c80cp-7', '0x1.3dcfec9ee4179p-14'],
    ('fn', 'fu', 0.9): ['0x1.39e82df6475c5p-59', '0x1.44a408682a513p-36', '0x1.44597fe2fa948p-6', '0x1.f4c8c3ca2a867p+1', '0x1.1a26a6dc2bb03p-2', '0x1.8aa0b10555387p-26', '0x1.39e82df6475c5p-59'],
    ('fcn', 'fu', -0.8): ['0x1.7690bfbf29682p-6', '0x1.694a8e5516c69p-3', '0x1.44a33f49919bbp+0', '0x1.ca30fed94df14p-5', '0x1.7d2e501dd7531p+0', '0x1.eb7c531f78e9dp-1', '0x1.4c10ef7a336d0p-5'],
    ('fcn', 'fu', -0.1): ['0x1.3a50c7a0f1f68p-2', '0x1.4a4d34144e8cdp-2', '0x1.f331aef124b57p-2', '0x1.1bc3a7a484957p+0', '0x1.a76b12bd91db1p+0', '0x1.fb961e96ca5bcp-1', '0x1.98127e2914712p-1'],
    ('fcn', 'fu', 0.0): ['0x1.bb0ce04b518c8p-3', '0x1.e64bd42a9e270p-3', '0x1.cfc34b1ef28dcp-2', '0x1.2fdb897edc4bfp+0', '0x1.b6099234b7c1bp+0', '0x1.b67f380b9ec3ap-1', '0x1.47ae147ae147ap-1'],
    ('fcn', 'fu', 0.3): ['0x1.e3caee4897cf8p-6', '0x1.8b577513f6fcap-5', '0x1.4a7b341dd6bf1p-2', '0x1.6c2b6d994e832p+0', '0x1.edc76b3942f59p+0', '0x1.abc0d03b7e293p-2', '0x1.478d19cd4cc90p-3'],
    ('fcn', 'fu', 0.7): ['0x1.a656f160f3bc9p-21', '0x1.d51b00875837fp-16', '0x1.753d97d5332b3p-5', '0x1.de4bb5dbba659p+0', '0x1.2706c02a60712p+1', '0x1.cdf64c04d1727p-7', '0x1.c52881c748acep-15'],
    ('fcn', 'fu', 0.9): ['0x1.d0ba07820e5d1p-79', '0x1.23107bd170449p-54', '0x1.0793564ab3778p-16', '0x1.bd7b2e2c77cd2p+0', '0x1.c42eefc7aed51p+0', '0x1.63cc9b4889e4cp-25', '0x1.7e26a4b39b135p-60'],
    ('fcn-rho0', 'fu', -0.8): ['0x1.b9c4c4abe45f3p-3', '0x1.2bf8561369dedp+0', '0x1.47957ee00b9b3p+0', '0x1.f60d7eb9aff07p-7', '0x1.e3f002916d2c8p-2', '0x1.230ea74ee987ap+1', '0x1.b9c4c4abe45f3p-3'],
    ('fcn-rho0', 'fu', -0.1): ['0x1.4b84a94b6a18dp+0', '0x1.3e4d685b93c0dp+0', '0x1.014cc78a1d749p+0', '0x1.cc49dbed0066cp-1', '0x1.e903209051024p-1', '0x1.3035af9b1d5e2p+0', '0x1.4b84a94b6a18dp+0'],
    ('fcn-rho0', 'fu', 0.0): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    ('fcn-rho0', 'fu', 0.3): ['0x1.d6f004ba5c0b5p-3', '0x1.5307b72bef6fap-2', '0x1.eb13f9e985e86p-1', '0x1.53e66f87f9e83p+0', '0x1.2031ebec22054p+0', '0x1.cf3287823c0b8p-2', '0x1.d6f004ba5c0b5p-3'],
    ('fcn-rho0', 'fu', 0.7): ['0x1.3dcfec9ee4179p-14', '0x1.069a9f189fb77p-9', '0x1.0618c9ee139bfp-1', '0x1.18dd3ac987725p+1', '0x1.0e322b9f77c73p+0', '0x1.a233e5d90c80cp-7', '0x1.3dcfec9ee4179p-14'],
    ('fcn-rho0', 'fu', 0.9): ['0x1.39e82df6475c5p-59', '0x1.44a408682a513p-36', '0x1.44597fe2fa948p-6', '0x1.f4c8c3ca2a867p+1', '0x1.1a26a6dc2bb03p-2', '0x1.8aa0b10555387p-26', '0x1.39e82df6475c5p-59'],
    ('fk', 'fu', -0.8): ['0x1.0d2a834aa0d2cp+0', '0x1.4d0935f88a3d2p+0', '0x1.19c2d14ee4a11p+0', '0x1.96f3bcb79de5cp-1', '0x1.fa4f5ec09737dp-2'],
    ('fk', 'fu', -0.1): ['0x1.0d2a834aa0d2cp+0', '0x1.4d0935f88a3d1p+0', '0x1.19c2d14ee4a11p+0', '0x1.96f3bcb79de5cp-1', '0x1.fa4f5ec09737dp-2'],
    ('fk', 'fu', 0.0): ['0x1.0d2a834aa0d2cp+0', '0x1.4d0935f88a3d2p+0', '0x1.19c2d14ee4a11p+0', '0x1.96f3bcb79de5cp-1', '0x1.fa4f5ec09737dp-2'],
    ('fk', 'fu', 0.3): ['0x1.0d2a834aa0d2cp+0', '0x1.4d0935f88a3d2p+0', '0x1.19c2d14ee4a11p+0', '0x1.96f3bcb79de5dp-1', '0x1.fa4f5ec09737dp-2'],
    ('fk', 'fu', 0.7): ['0x1.0d2a834aa0d2bp+0', '0x1.4d0935f88a3d2p+0', '0x1.19c2d14ee4a11p+0', '0x1.96f3bcb79de5cp-1', '0x1.fa4f5ec09737dp-2'],
    ('fk', 'fu', 0.9): ['0x1.0d2a834aa0d2bp+0', '0x1.4d0935f88a3d2p+0', '0x1.19c2d14ee4a11p+0', '0x1.96f3bcb79de5cp-1', '0x1.fa4f5ec09737ap-2'],
}
GOLDEN_PM = {
    (-0.7, -0.8): ['0x1.692b58431eb9fp-5', '0x1.1d765a734d33fp-4', '0x1.0293f61525ef1p+0', '0x1.11625a4debe1bp+3', '0x1.21502a865a09dp+2', '0x1.7ce62f2662d17p-3', '0x1.0c32d14205042p-4'],
    (-0.7, -0.1): ['0x1.6af1725179ef8p-3', '0x1.944cdafb6ecdbp-3', '0x1.b971138a9bb4dp-2', '0x1.967d58b851656p+0', '0x1.c3bae3b51254ep+0', '0x1.f1973b3740766p-2', '0x1.5ee7b83559630p-2'],
    (-0.7, 0.0): ['0x1.4d640ab028663p-3', '0x1.73bdc4d19c0f1p-3', '0x1.99f91633ee0edp-2', '0x1.81b39daf140a9p+0', '0x1.b5face5afd671p+0', '0x1.f3943f65c6e96p-2', '0x1.64b26b1d2ec5fp-2'],
    (-0.7, 0.3): ['0x1.830546bda2b5dp-4', '0x1.bf4d4681790e3p-4', '0x1.2c74ff5a30b05p-2', '0x1.51d243a4bc73cp+0', '0x1.9b5fa0dfa5dd7p+0', '0x1.d6e28b83991d9p-2', '0x1.49f9ce2c0f1c1p-2'],
    (-0.7, 0.7): ['0x1.8c35b5f3da86dp-8', '0x1.1583c1eec4969p-7', '0x1.28537db430a75p-4', '0x1.0c472efd989dfp+0', '0x1.aae6822e49816p+0', '0x1.13ea205a318f5p-2', '0x1.1e892eb24308cp-3'],
    (-0.7, 0.9): ['0x1.6726f4ceede6ep-22', '0x1.eaf2099ba1da9p-21', '0x1.f3378a9355125p-12', '0x1.3ff8141fd292dp-1', '0x1.4433216dcac95p+1', '0x1.0a5d5ff65e5b0p-5', '0x1.66e77793f96f8p-8'],
    (0.0, -0.8): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    (0.0, -0.1): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    (0.0, 0.0): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    (0.0, 0.3): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    (0.0, 0.7): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    (0.0, 0.9): ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
}


def _hex(values):
    assert isinstance(values, np.ndarray)
    return [float(v).hex() for v in values]


class TestGolden:
    @pytest.mark.parametrize("label", sorted(DENSITIES))
    @pytest.mark.parametrize("q", GOLDEN_QS)
    def test_density_eval(self, label, q):
        assert _hex(golden_density(label, q)) == GOLDEN_DENSITY[label, q]

    @pytest.mark.parametrize("num,den", RATIOS, ids=["%s/%s" % r for r in RATIOS])
    @pytest.mark.parametrize("q", GOLDEN_QS)
    def test_density_ratio(self, num, den, q):
        assert _hex(golden_ratio(num, den, q)) == GOLDEN_RATIO[num, den, q]

    @pytest.mark.parametrize("rho", (-0.7, 0.0))
    @pytest.mark.parametrize("q", GOLDEN_QS)
    def test_pm_ratio(self, rho, q):
        assert _hex(golden_pm(rho, q)) == GOLDEN_PM[rho, q]

    def test_array_in_array_out_at_q0(self):
        xs = np.array([-1.5, 0.0, 0.5])
        for label, make in DENSITIES.items():
            d = make(0.0, 2.0)
            assert density_eval(d, xs).shape == xs.shape, label
        for num, den in RATIOS:
            out = density_ratio(DENSITIES[num](0.0, 2.0), DENSITIES[den](0.0, 2.0), xs)
            assert out.shape == xs.shape, (num, den)
        for rho in (-0.7, 0.0):
            assert pm_ratio(xs, 0.3, rho, 0.0).shape == xs.shape
