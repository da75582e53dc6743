"""Density-expansion kernels: target = base * sum_n c_n a_n, plus the identity suite.

Each registry id (``qcore.EXPANSION_IDS``, in order, re-exported as
``EXPANSION_IDS``) is one entry of the table ``_KERNELS``: a ``qcore.Alias``
(``mehler_classical`` is ``cn_over_n`` at q = 1, ``pm_q0`` is ``cn_over_u``
at q = 0, whatever q the caller passes), or a ``_Kernel`` whose ten fields
say everything about that expansion:

- ``coeff_params`` / ``params``: the parameters the coefficient rule needs,
  and those the evaluated expansion needs, checked by ``qcore.check_params``
  with q = 1 allowed where the kernel has a ``gauss`` rule, as both densities
  exist there (cn_over_n, n_over_cn).  A missing one, q outside (-1, 1), a
  rho, beta or gamma outside (-1, 1) or a y that is not finite is a
  ParameterError.
- ``coeff(p)``: the coefficient rule, exact on rational parameters.  It
  builds what its coefficients read once per call (prefix rows of
  q-factorials and q-Pochhammer symbols; for cn_over_k and cn_over_u, one
  ``connect._asc_rule``) and returns c(n), the coefficient c_n.
  With ``even`` set, c_n = 0 for odd n and c is called with k = n/2 to give
  c_{2k}.
- ``base`` / ``target``: the density constructors, ``(p, trunc_eps)``.
- ``family(p, x)``: the term family a_n and the point it is evaluated at,
  such as ChebU at x sqrt(1-q)/2 or QHermite(q) at x.
- ``y_row(p)``: a family and a point in y whose values Y_n weight each term,
  c_n Y_n a_n(x) (H_n(y) for cn_over_n, B_n(y) for n_over_cn), or None.
- ``bound(p, Y)``: the sup-norm bound rule, giving ``rule(n, a)`` that
  bounds |term_n| on S(q) from a = |c_n| (|c_n Y_n| with a ``y_row``).
- ``gauss(p, x)``: at q = 1 (no S(q)), s and the largest |t| over the points
  x with a_n(x) = s^n He_n(t), for Cramer's bound of the terms at x; n_over_cn's
  refuses rho^2 >= 1/2, where its series diverges.

All c_0 = 1.  Coefficient rules are exact on rational parameters whenever
the closed form is rational (the sqrt(1-q) on odd indices of cn_over_u /
cn_over_k too when 1-q is a rational square, such as q = 0 or 3/4).  A float
q-factorial or q-Pochhammer row value past the float range is an overflow.
cn_over_u and cn_over_k read column 0 of ``uhat-from-asc`` and
``kesten-from-asc``; the other six are O(1) closed forms of the same rule
c_n = gamma_{n,0} / ||a_n||^2, where a column 0 costs O(n) per coefficient.
``_coeff_rule`` builds a rule once for a whole listing c_0..c_K.

:func:`expansion_eval` reconstructs the target density pointwise with either
a fixed truncation K or an adaptive one driven by the bound rule.  ``_terms``
yields a kernel's nonzero terms (degrees 0, 2, 4, ... for an even kernel), so
every sum here stops by one rule: two small bounds in a row.

:func:`identity_suite` checks q-series identities, each side computed
independently.  Where the series side is a registry expansion (n_over_u for
i1, u_over_n for i4, n_over_cn for i8), it sums that kernel's ``_terms``;
i7's E3 reads the float gamma row of ``connect._gamma_terms``, and the other
series read the ``qcore`` prefix rows.  Every series here,
expansion or identity, sums through ``qcore._sum_series``.
"""

import math
from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, Optional

import numpy as np

from .qcore import (
    Alias,
    EXPANSION_IDS,  # the keys of _KERNELS, in order
    NonConvergenceError,
    ParameterError,
    TruncationError,  # re-exported as expand.TruncationError
    VerificationReport,
    check_degree,
    check_params,
    _factorials,
    _plain_sum,
    _pochhammers,
    _Row,
    _sum_series,
    _theta_series,
    div,
    q_binomial_table,
    q_pochhammer_inf,
    resolve,
    support,
)
from .polyfam import (
    ASC,
    BigB,
    ChebU,
    KestenHat,
    QHermite,
    Rogers,
    _recurrence,
    _v_terms,
    _w_terms,
)
from .densities import (
    density_eval,
    density_ratio,
    fCN,
    fK,
    fN,
    fR,
    fU,
    pm_ratio,
    _as_array,
)
from .connect import _beta_rule, _gamma_rule, _gamma_terms


#: Hard truncation cap for adaptive evaluation.
K_CAP = 500

#: last gamma_n index identity i7's E3 reads: the 1 501 triples
#: (gamma_3m, gamma_3m+1, gamma_3m+2) that ``_sum_series``' default cap sums
_E3_CAP = 4502
#: relative truncation of the identity battery's infinite products
_EPS = 1e-15


@dataclass(frozen=True)
class ExpansionSpec:
    id: str
    params: dict
    K: int = None


@dataclass(frozen=True)
class ExpansionResult:
    value: object  # reconstructed target density, same shape as x
    tail: object  # |base| * the next two nonzero term bounds
    n_terms: int  # one past the highest degree covered


@dataclass(frozen=True)
class _Kernel:
    """One registry expansion; the fields are described in the module docstring."""

    coeff_params: tuple
    params: tuple
    coeff: Callable
    base: Callable
    target: Callable
    family: Callable
    bound: Callable
    even: bool = False
    y_row: Optional[Callable] = None
    gauss: Optional[Callable] = None

    @property
    def step(self):
        """The degree step of the nonzero terms: 2 for an even kernel."""
        return 2 if self.even else 1


# -- coefficient rules ------------------------------------------------------
# Each rule(p) returns c(n); the rows it reads are built once per call.


def _finite(v):
    """v, or an OverflowError for a float past the float range: a q-factorial or
    q-Pochhammer row value, read by a coefficient rule where rho^n / inf is 0."""
    if isinstance(v, float) and not math.isfinite(v):
        raise OverflowError("q-series row value %r" % (v,))
    return v


def _c_n_over_u(p):
    # c_{2k} = (-1)^k q^{k(k+1)/2}
    q = p["q"]
    return lambda k: (-1) ** k * q ** (k * (k + 1) // 2)


def _c_u_over_n(p):
    # c_{2k} = q^k (1-q)^{k+1} / ((q;q)_k (q;q)_{k+1})
    q = p["q"]
    qq = _Row(map(_finite, _pochhammers(q, q)))
    return lambda k: div(q ** k * (1 - q) ** (k + 1), qq[k] * qq[k + 1])


def _c_cn_over_n(p):
    # c_n = rho^n / [n]_q!
    rho = p["rho"]
    fact = _Row(map(_finite, _factorials(p["q"])))
    return lambda n: div(rho ** n, fact[n])


def _c_r_over_n(p):
    # c_{2k} = beta^k / ([k]_q! (beta q;q)_k)
    beta, q = p["beta"], p["q"]
    fact = _Row(map(_finite, _factorials(q)))
    bq = _Row(map(_finite, _pochhammers(beta * q, q)))
    return lambda k: div(beta ** k, fact[k] * bq[k])


def _c_n_over_r(p):
    # c_{2k} = (-g)^k q^{k(k-1)/2} (g;q)_k (1 - g q^{2k}) / ((1-g) [k]_q! (g^2;q)_{2k})
    g, q = p["gamma"], p["q"]
    fact = _Row(map(_finite, _factorials(q)))
    gp = _Row(map(_finite, _pochhammers(g, q)))
    g2 = _Row(map(_finite, _pochhammers(g * g, q)))

    def c(k):
        num = (-g) ** k * q ** (k * (k - 1) // 2) * gp[k] * (1 - g * q ** (2 * k))
        return div(num, (1 - g) * fact[k] * g2[2 * k])

    return c


def _c_n_over_cn(p):
    # c_n = rho^n / ((rho^2;q)_n [n]_q!)
    rho, q = p["rho"], p["q"]
    fact = _Row(map(_finite, _factorials(q)))
    r2 = _Row(map(_finite, _pochhammers(rho * rho, q)))
    return lambda n: div(rho ** n, r2[n] * fact[n])


# -- bound rules ------------------------------------------------------------
# |U_n| <= n+1 on [-1,1]; max |H_n| = W_n / (1-q)^{n/2} on S(q); the V-sum
# bound for Rogers (a heuristic outside 0 <= q < 1, where it is unproven);
# |k_n(u|v,r)| <= (n+1) + |r v| n + r^2 (n-1) on [-2,2]; at q = 1, Cramer's
# |He_n(t)| <= 1.086435 sqrt(n!) e^{t^2/4}.


def _cramer(s, t):
    """rule(n, a) = a s^n 1.086435 sqrt(n!) e^{t^2/4}, bounding a |s^n He_n| on [-t, t]."""
    e = 1.086435 * math.exp(t * t / 4.0)
    return lambda n, a: a * s ** n * e * math.sqrt(math.factorial(n))


def _chebu_bound(p, Y):
    return lambda n, a: a * (n + 1)


def _over(num, den):
    """num / den for a bound; inf once den underflows to 0 (large n, q near 1)."""
    return num / den if den else math.inf


def _hermite_bound(p, Y):
    q = p["q"]
    W = _Row(_w_terms(q))
    return lambda n, a: _over(a * W[n], (1.0 - q) ** (n / 2.0))


def _asc_bound(p, Y):
    q, rho = p["q"], p["rho"]
    W = _Row(_w_terms(q))
    B = q_binomial_table(q)

    def rule(n, a):
        # |P_n| <= sum_j [n j]_q |rho|^{n-j} |B_{n-j}(y)| W_j (1-q)^{-j/2}
        pb = 0.0
        for j in range(n + 1):
            pb += _over(
                B(n, j) * abs(rho) ** (n - j) * abs(Y[n - j]) * W[j],
                (1.0 - q) ** (j / 2.0),
            )
        return a * pb

    return rule


def _rogers_bound(p, Y):
    q, g = p["q"], p["gamma"]
    V = _Row(_v_terms(q, g))
    QP = _Row(_pochhammers(q, q))
    return lambda n, a: a * abs(_over(V[n], QP[n] * (1.0 - q) ** (n / 2.0)))


def _kesten_bound(p, Y):
    rho = p["rho"]
    v = p["y"] * math.sqrt(1.0 - p["q"])
    return lambda n, a: a * ((n + 1) + abs(rho * v) * n + rho * rho * max(n - 1, 0))


def _asc_gauss(p, x):
    # P_n(x|y,rho,1) = s^n He_n((x - rho y)/s) with s = sqrt(1-rho^2)
    if not p["rho"] ** 2 < 0.5:
        raise ParameterError("reciprocal Gaussian kernel converges only for rho^2 < 1/2")
    s = math.sqrt(1.0 - p["rho"] ** 2)
    return s, _maxabs(x - p["rho"] * p["y"]) / s


# -- the registry -----------------------------------------------------------


def _fN(p, eps):
    return fN(p["q"], eps)


def _fU(p, eps):
    return fU(p["q"], eps)


def _fCN(p, eps):
    return fCN(p["y"], p["rho"], p["q"], eps)


def _chebu_half(p, x):
    return ChebU(), x * math.sqrt(1.0 - p["q"]) / 2.0


def _qhermite(p, x):
    return QHermite(p["q"]), x


def _qhermite_y(p):
    return QHermite(p["q"]), p["y"]


_KERNELS = {
    "n_over_u": _Kernel(
        coeff_params=("q",), params=("q",),
        coeff=_c_n_over_u, even=True,
        base=_fU, target=_fN,
        family=_chebu_half,
        bound=_chebu_bound,
    ),
    "u_over_n": _Kernel(
        coeff_params=("q",), params=("q",),
        coeff=_c_u_over_n, even=True,
        base=_fN, target=_fU,
        family=_qhermite,
        bound=_hermite_bound,
    ),
    "cn_over_n": _Kernel(
        coeff_params=("rho", "q"), params=("y", "rho", "q"),
        coeff=_c_cn_over_n,
        base=_fN, target=_fCN,
        family=_qhermite,
        y_row=_qhermite_y,
        bound=_hermite_bound,
        gauss=lambda p, x: (1.0, _maxabs(x)),
    ),
    "n_over_cn": _Kernel(
        coeff_params=("rho", "q"), params=("y", "rho", "q"),
        coeff=_c_n_over_cn,
        base=_fCN, target=_fN,
        family=lambda p, x: (ASC(p["y"], p["rho"], p["q"]), x),
        y_row=lambda p: (BigB(p["q"]), p["y"]),
        bound=_asc_bound,
        gauss=_asc_gauss,
    ),
    "r_over_n": _Kernel(
        coeff_params=("beta", "q"), params=("beta", "q"),
        coeff=_c_r_over_n, even=True,
        base=_fN, target=lambda p, eps: fR(p["beta"], p["q"], eps),
        family=_qhermite,
        bound=_hermite_bound,
    ),
    "n_over_r": _Kernel(
        coeff_params=("gamma", "q"), params=("gamma", "q"),
        coeff=_c_n_over_r, even=True,
        base=lambda p, eps: fR(p["gamma"], p["q"], eps), target=_fN,
        family=lambda p, x: (Rogers(p["gamma"], p["q"]), x),
        bound=_rogers_bound,
    ),
    "cn_over_k": _Kernel(
        coeff_params=("y", "rho", "q"), params=("y", "rho", "q"),
        coeff=lambda p: _beta_rule(p["y"], p["rho"], p["q"]),
        base=lambda p, eps: fK(p["y"], p["rho"], p["q"], eps), target=_fCN,
        family=lambda p, x: (  # Kesten; a float q = 0 keeps its recurrence in floats
            KestenHat(p["y"] * math.sqrt(1.0 - p["q"]), p["rho"], 0.0),
            x * math.sqrt(1.0 - p["q"]),
        ),
        bound=_kesten_bound,
    ),
    "cn_over_u": _Kernel(
        coeff_params=("y", "rho", "q"), params=("y", "rho", "q"),
        coeff=lambda p: _gamma_rule(p["y"], p["rho"], p["q"]),
        base=_fU, target=_fCN,
        family=_chebu_half,
        bound=_chebu_bound,
    ),
    "mehler_classical": Alias("cn_over_n", {"q": 1}),
    "pm_q0": Alias("cn_over_u", {"q": 0}),
}


def _kernel(id, params):
    """(kernel, parameters) of the registry id, an alias resolved."""
    if id not in _KERNELS:
        raise ParameterError("unknown expansion id %r" % (id,))
    return resolve(_KERNELS, id, params)


def _coeff_rule(id, n_max, p):
    """c(n) = c_n, 0 <= n <= n_max, of the registry id at p, its rows built once.

    The alias, the index n_max and the parameters are checked here; a float
    c_n that overflows is a NonConvergenceError naming it.
    """
    kernel, p = _kernel(id, p)
    check_degree(n_max, "coefficient index")
    check_params("expansion %r" % (id,), p, kernel.coeff_params, kernel.gauss is not None)
    coeff, step = kernel.coeff(p), kernel.step
    zero = 0 * p["q"]

    def c(n):
        try:
            v = zero if n % step else coeff(n // step)
        except OverflowError:  # an int too large for a float, such as n! past 170
            v = math.inf
        if isinstance(v, float) and not math.isfinite(v):
            raise NonConvergenceError("expansion %r coefficient c_%d overflowed" % (id, n))
        return v

    return c


def expansion_coeff(id, n, **p):
    """Coefficient c_n of the registry expansion; exact on rational parameters.

    A float coefficient that overflows is a NonConvergenceError.
    """
    return _coeff_rule(id, n, p)(n)


def target_density(id, params, trunc_eps=1e-14):
    kernel, p = _kernel(id, params)
    return kernel.target(p, trunc_eps)


def _maxabs(a):
    return float(np.max(np.abs(a)))


def _mixed(lhs, rhs):
    """Mixed residual max |lhs - rhs| / max(1, |lhs|); both sides can be huge
    near q -> 1 where absolute comparison would just measure float granularity."""
    lhs = np.asarray(lhs, dtype=float)
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))))


def _terms(kernel, p, x):
    """Generator of the nonzero terms (c_n a_n(x), bound of that term on S(q), at
    q = 1 on x): n = 0, 1, 2, ..., or n = 0, 2, 4, ... for an even kernel."""
    A = _Row(_recurrence(*kernel.family(p, x)))
    Y = None if kernel.y_row is None else _Row(_recurrence(*kernel.y_row(p)))
    coeff = kernel.coeff(p)
    rule = kernel.bound(p, Y) if p["q"] < 1 else _cramer(*kernel.gauss(p, x))
    for k in count():
        n = kernel.step * k
        c = float(coeff(k))
        if Y is not None:
            c = c * Y[n]
        yield c * A[n], rule(n, abs(c))


def expansion_eval(spec, x, tol=1e-9):
    """Evaluate the expansion at x; returns ExpansionResult(value, tail, n_terms).

    With spec.K set, every term of degree <= K is summed.  Otherwise the sum
    stops at the second nonzero term bound in a row <= tol (on S(q), or at
    q = 1 on the points x), capped at degree K_CAP (TruncationError past it).
    The tail is |base| times the next two nonzero term bounds, and n_terms is
    one past the highest degree covered.  K that is not an int >= 0 or a y
    outside S(q) is a ParameterError; a value or tail that is not finite
    (overflowed terms, bounds or coefficients, or a q-factorial row past the
    float range) raises NonConvergenceError.
    """
    kernel, params = _kernel(spec.id, spec.params)
    check_params("expansion %r" % (spec.id,), params, kernel.params, kernel.gauss is not None)
    check_params("expansion_eval", {"tol": tol}, ("tol",))
    p = {k: float(v) for k, v in params.items()}
    scalar, xa = _as_array(x)
    if p["q"] < 1.0 and np.any(np.abs(xa) > support(p["q"]).radius):
        raise ParameterError("expansion evaluated outside S(q)")
    base = density_eval(kernel.base(p, 1e-14), xa)
    kernel.target(p, 1e-14)  # its constructor checks the conditioning point y
    fixed = spec.K is not None
    if fixed:
        check_degree(spec.K, "K")
    step = kernel.step
    # overflow in the rows or terms is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _terms(kernel, p, xa)
        if fixed:
            acc, m = _sum_series(islice(terms, spec.K // step + 1), -math.inf, cap=math.inf)
        else:
            msg = "expansion %r did not reach tol=%g within %d terms" % (spec.id, tol, K_CAP)
            acc, m = _sum_series(terms, tol, cap=K_CAP // step, message=msg)
        n_terms = step * (m - 1) + 1
        if fixed and m > spec.K // step:
            n_terms = spec.K + 1  # an even kernel's zero term of odd degree K too
        # the tail: the next two nonzero bounds, under the same overflow rule
        tail_series, _ = _sum_series(((b, b) for _, b in islice(terms, 2)), -math.inf)
        value = base * acc
        tail = np.abs(base) * tail_series
    if not (np.all(np.isfinite(value)) and np.all(np.isfinite(tail))):
        raise NonConvergenceError(
            "expansion %r overflowed within %d terms" % (spec.id, n_terms))
    if scalar:
        return ExpansionResult(float(value[0]), float(tail[0]), n_terms)
    return ExpansionResult(value, tail, n_terms)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _grid(q, fractions=(-0.93, -0.51, 0.0, 0.37, 0.85)):
    L = support(q).radius
    return L * np.asarray(fractions)


def _i1(q):
    # fN/fU = sum_k (-1)^k q^{k(k+1)/2} U_{2k}(x sqrt(1-q)/2), the n_over_u kernel
    xs = _grid(q)
    rhs = _sum_series(_terms(_KERNELS["n_over_u"], {"q": q}, xs))[0]
    return _mixed(density_ratio(fN(q, _EPS), fU(q, _EPS), xs), rhs)


def _i2(q):
    a = q_pochhammer_inf(q, q, _EPS) * q_pochhammer_inf(-q, q, _EPS) ** 2
    b = q_pochhammer_inf(-q, q, _EPS) * q_pochhammer_inf(q * q, q * q, _EPS)
    s = _theta_series(q, signed=False, weighted=False)
    return _mixed(a, s), _mixed(a, b)


def _i3(q):
    lhs = q_pochhammer_inf(q, q, _EPS) ** 3
    return _mixed(lhs, _theta_series(q, signed=True, weighted=True))


def _i4(q):
    # fU/fN = sum_k q^k (1-q)^{k+1} H_{2k}(x) / ((q;q)_k (q;q)_{k+1}), the
    # u_over_n kernel, on the grid and at x = 0
    xs = np.append(_grid(q), 0.0)
    rhs = _sum_series(_terms(_KERNELS["u_over_n"], {"q": q}, xs))[0]
    res_grid = _mixed(1.0 / density_ratio(fN(q, _EPS), fU(q, _EPS), xs[:-1]), rhs[:-1])

    # x = 0: fU/fN = 1/((q;q)_inf (-q;q)_inf^2)
    qinf = q_pochhammer_inf(q, q, _EPS)
    lhs0 = 1.0 / (qinf * q_pochhammer_inf(-q, q, _EPS) ** 2)
    res_x0 = _mixed(lhs0, rhs[-1])

    # boundary: (q;q)_inf^{-3} = sum q^k W_{2k} / ((q;q)_k (q^2;q)_k)
    W = _Row(_w_terms(q))
    rows = enumerate(zip(_pochhammers(q, q), _pochhammers(q * q, q)))
    edge = (q ** k * W[2 * k] / (qp * qp2) for k, (qp, qp2) in rows)
    res_edge = _mixed(qinf ** -3.0, _plain_sum(edge))
    return res_grid, res_x0, res_edge


def _diagonal_terms(q, rho, H, W):
    """Terms of sum_n rho^n H_n(x)^2 / [n]_q! with their sup-norm bounds on S(q)."""
    for n, fact in enumerate(_factorials(q)):
        c = rho ** n / fact
        yield c * H[n] * H[n], abs(c) * (W[n] / (1.0 - q) ** (n / 2.0)) ** 2


def _i5(q, rho):
    xs = _grid(q)
    lhs = pm_ratio(xs, xs, rho, q, _EPS)
    H = _Row(_recurrence(QHermite(q), xs))
    W = _Row(_w_terms(q))
    res_grid = _mixed(lhs, _sum_series(_diagonal_terms(q, rho, H, W))[0])

    # x = 0: (rho^2 q; q^2)_inf / (rho^2; q^2)_inf
    lhs0 = q_pochhammer_inf(rho * rho * q, q * q, _EPS) / q_pochhammer_inf(
        rho * rho, q * q, _EPS
    )
    # rhs = sum_k rho^{2k} (q;q^2)_k / (q^2;q^2)_k
    rows = enumerate(zip(_pochhammers(q, q * q), _pochhammers(q * q, q * q)))
    x0 = (rho ** (2 * k) * odd / even for k, (odd, even) in rows)
    res_x0 = _mixed(lhs0, _plain_sum(x0))

    # boundary: (rho^2;q)_inf / (rho;q)_inf^4 = sum rho^n W_n^2 / (q;q)_n
    edge = (rho ** n * float(W[n]) ** 2 / qp for n, qp in enumerate(_pochhammers(q, q)))
    lhs_e = q_pochhammer_inf(rho * rho, q, _EPS) / q_pochhammer_inf(rho, q, _EPS) ** 4
    res_edge = _mixed(lhs_e, _plain_sum(edge))
    return res_grid, res_x0, res_edge


def _i6(q, rho):
    # valid for (1-q) x^2 <= 2
    xs = math.sqrt(2.0 / (1.0 - q)) * np.asarray([-0.95, -0.4, 0.0, 0.55, 0.9])
    H = _Row(_recurrence(QHermite(q), xs))
    W = _Row(_w_terms(q))

    def gen_rhs():
        rows = zip(_factorials(q), _pochhammers(rho * q, q))
        for n, (fact, rq) in enumerate(rows):
            c = rho ** n / (fact * rq)
            yield c * H[2 * n], abs(c) * W[2 * n] / (1.0 - q) ** n

    lhs = (1.0 - rho) * _sum_series(_diagonal_terms(q, rho, H, W))[0]
    rhs = _sum_series(gen_rhs())[0]
    return _mixed(lhs, rhs)


def _i7(q, rho):
    """Three forms E1 = E2 = E3 of (q^3;q^3)_inf fCN(x|y,rho,q)/fN(x|q) at the
    theta = pi/3 point x = 2 cos(theta)/sqrt(1-q) = 1/sqrt(1-q), for three y."""
    L = support(q).radius
    res_prod = 0.0
    res_useries = 0.0
    for frac in (0.0, 0.3, 0.62):
        y = L * frac
        Hy = _Row(_recurrence(QHermite(q), y))
        s = math.sqrt(1.0 - q)
        q3inf = q_pochhammer_inf(q ** 3, q ** 3, _EPS)

        # E1: (q^3;q^3)_inf sum_k (1-q)^{k/2} rho^k H_k(y) eta_k / (q;q)_k with
        # eta_{-1} = 0, eta_0 = 1, eta_{k+1} = eta_k - (1-q^k) eta_{k-1}
        def gen_e1():
            eta_prev, eta = 0.0, 1.0
            for k, qp in enumerate(_pochhammers(q, q)):
                yield (s * rho) ** k * Hy[k] * eta / qp
                eta_prev, eta = eta, eta - (1.0 - q ** k) * eta_prev

        e1 = q3inf * _plain_sum(gen_e1(), 1e-17, consecutive=4)

        # E2: (rho^2;q)_inf (q^3;q^3)_inf / prod_k (1 - rho^2 q^{2k} + rho^4 q^{4k}
        #      - sqrt(1-q) rho y q^k (1 + rho^2 q^{2k}) + (1-q) rho^2 y^2 q^{2k}),
        # whose factors are w_k(x, y) at x = 1/sqrt(1-q)
        e2 = q3inf * pm_ratio(1.0 / s, y, rho, q, _EPS)

        # E3: sum_m (-1)^m (gamma_{3m} + gamma_{3m+1}), read from the float gamma row
        def gen_e3():
            g = _gamma_terms(y, rho, q, _E3_CAP)
            for m, (g0, g1, _) in enumerate(zip(g, g, g)):
                yield (-1) ** m * (g0 + g1), abs(g0) + abs(g1)

        e3 = _sum_series(gen_e3(), 1e-17)[0]

        res_prod = max(res_prod, _mixed(e1, e2))
        res_useries = max(res_useries, _mixed(e1, e3))
    return res_prod, res_useries


def _i7_cube(q):
    """(q;q)_inf prod_{k>=1} (1 + q^k + q^{2k}) = (q^3;q^3)_inf.

    The left side is fN/fU at the theta = pi/3 point x = 1/sqrt(1-q), where
    (1-q) x^2 = 1 turns fac_k into 1 + q^k + q^{2k}.
    """
    lhs = density_ratio(fN(q, _EPS), fU(q, _EPS), 1.0 / math.sqrt(1.0 - q))
    return _mixed(lhs, q_pochhammer_inf(q ** 3, q ** 3, _EPS))


def _i8(q, rho):
    # pm_ratio = fCN/fN times fN/fCN = sum_n c_n B_n(y) P_n(x|y,rho,q), the
    # n_over_cn kernel, is 1 on the grid
    L = support(q).radius
    xs = L * np.asarray([-0.8, -0.35, 0.05, 0.4, 0.75])
    msg = "expansion 'n_over_cn' did not reach tol=1e-13 within %d terms" % K_CAP
    worst = 0.0
    for yf in (-0.7, -0.2, 0.1, 0.5, 0.8):
        y = L * yf
        terms = _terms(_KERNELS["n_over_cn"], {"q": q, "rho": rho, "y": y}, xs)
        series = _sum_series(terms, 1e-13, cap=K_CAP, message=msg)[0]
        worst = max(worst, _maxabs(pm_ratio(xs, y, rho, q, _EPS) * series - 1.0))
    return worst


def identity_suite(q_grid=(0.2, 0.5, 0.8), rho_grid=(0.3, 0.6), tol=1e-10):
    """Run the cross-check identity battery; returns a list of VerificationReport.

    Each q and rho of the grids is checked (``qcore.check_params``) before any
    check runs, then read as a float: the battery is float-only.  Residuals
    are mixed absolute/relative: |lhs - rhs| / max(1, |lhs|).
    """
    check_params("identity_suite", {"tol": tol}, ("tol",))
    q_grid = [float(check_params("identity_suite", {"q": q}, ("q",))[0]) for q in q_grid]
    rho_grid = [float(check_params("identity_suite", {"rho": r}, ("rho",))[0])
                for r in rho_grid]
    reports = []

    def add(check_id, params, residual):
        reports.append(
            VerificationReport(check_id, params, float(residual), tol, residual <= tol)
        )

    # a series whose rows overflow sums to NaN, a failed check, so numpy's
    # overflow and invalid-value warnings carry no news
    with np.errstate(over="ignore", invalid="ignore"):
        for q in q_grid:
            add("i1:grid", {"q": q}, _i1(q))
            r_series, r_prods = _i2(q)
            add("i2:series", {"q": q}, r_series)
            add("i2:products", {"q": q}, r_prods)
            add("i3:series", {"q": q}, _i3(q))
            g, x0, edge = _i4(q)
            add("i4:grid", {"q": q}, g)
            add("i4:x0", {"q": q}, x0)
            add("i4:edge", {"q": q}, edge)
            add("i7:cube", {"q": q}, _i7_cube(q))
            for rho in rho_grid:
                g, x0, edge = _i5(q, rho)
                add("i5:grid", {"q": q, "rho": rho}, g)
                add("i5:x0", {"q": q, "rho": rho}, x0)
                add("i5:edge", {"q": q, "rho": rho}, edge)
                add("i6:grid", {"q": q, "rho": rho}, _i6(q, rho))
                rp, ru = _i7(q, rho)
                add("i7:product", {"q": q, "rho": rho}, rp)
                add("i7:u-series", {"q": q, "rho": rho}, ru)
                add("i8:grid", {"q": q, "rho": rho}, _i8(q, rho))
    return reports
