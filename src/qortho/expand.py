"""Density-expansion kernels: target = base * sum_n c_n a_n, plus the identity suite.

Each registry id is one entry of the table ``_KERNELS``, a ``_Kernel`` whose
fields say everything about that expansion:

- ``coeff_params`` / ``params``: the parameters the coefficient rule needs,
  and those the evaluated expansion needs; a missing one is a ParameterError,
  and so is a rho, beta or gamma outside (-1, 1).
- ``coeff(p, Y)``: the coefficient rule, exact on rational parameters.  It
  builds what its coefficients read once per call (prefix rows of
  q-factorials and q-Pochhammer symbols, the q-binomial table) and returns
  c(n), the coefficient c_n.  With ``even`` set, c_n = 0 for odd n and c is
  called with k = n/2 to give c_{2k}.
- ``base`` / ``target``: the density constructors, ``(p, trunc_eps)``.
- ``family(p, x)``: the term family a_n and the point it is evaluated at,
  such as ChebU at x sqrt(1-q)/2 or QHermite(q) at x.
- ``y_row(p)``: a family and a point in y whose values Y_n the coefficient
  rule may read (cn_over_k, cn_over_u, pm_q0); with ``weighted`` set the
  term carries Y_n as a separate weight, c_n Y_n a_n(x) (H_n(y), B_n(y) or
  the classical Hermite He_n(y)).
- ``bound(p, Y)``: the sup-norm bound rule, giving ``rule(n, a)`` that
  bounds |term_n| on S(q) from a = |c_n| (|c_n Y_n| when weighted), or
  None for the pointwise rule of the q = 1 kernels (Gaussian case), whose
  terms are unbounded: there the max of the evaluated term stands in for
  the bound.
- ``domain(p)``: an extra parameter check, or None.

All c_0 = 1.  Coefficient rules are exact on rational parameters whenever
the closed form is rational (the conditional kernels cn_over_u / cn_over_k
pick up a sqrt(1-q) factor on odd indices and are returned as floats there).

:func:`expansion_eval` reconstructs the target density pointwise with either
a fixed truncation K or an adaptive one driven by the bound rule.

:func:`identity_suite` checks q-series identities, each side computed
independently.  Where the series side is a registry expansion (fN/fU in
Chebyshev U for i1, fU/fN in q-Hermite for i4 on the grid and at x = 0), it
sums that kernel's ``_terms``, coefficient and bound rules included; the
other series read their q-factorials and q-Pochhammer symbols from the
``qcore`` prefix rows.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .qcore import (
    NonConvergenceError,
    ParameterError,
    VerificationReport,
    _factorials,
    _pochhammers,
    _Row,
    div,
    q_binomial_table,
    q_pochhammer_inf,
    support,
)
from .polyfam import (
    ASC,
    BigB,
    ChebU,
    ClassicalHermite,
    Kesten,
    QHermite,
    Rogers,
    _recurrence,
    _v_terms,
    _w_terms,
)
from .densities import (
    density_eval,
    fCN,
    fK,
    fN,
    fR,
    fU,
    pm_ratio,
    _fn_over_fu,
)
from .connect import beta_coeff, gamma_coeff


#: Hard truncation cap for adaptive evaluation.
K_CAP = 500


class TruncationError(NonConvergenceError):
    """Adaptive truncation could not certify the requested tolerance."""


@dataclass(frozen=True)
class ExpansionSpec:
    id: str
    params: dict
    K: int = None


@dataclass(frozen=True)
class ExpansionResult:
    value: object  # reconstructed target density, same shape as x
    tail: object  # |base| * two-term lookahead bound on the dropped series
    n_terms: int  # number of terms summed


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
    weighted: bool = False
    domain: Optional[Callable] = None


# -- coefficient rules ------------------------------------------------------
# Each rule(p, Y) returns c(n); the rows it reads are built once per call.


def _c_n_over_u(p, Y):
    # c_{2k} = (-1)^k q^{k(k+1)/2}
    q = p["q"]
    return lambda k: (-1) ** k * q ** (k * (k + 1) // 2)


def _below_unit_q(p):
    if p["q"] == 1.0:
        raise ParameterError("the target density does not exist at q = 1")


def _c_u_over_n(p, Y):
    # c_{2k} = q^k (1-q)^{k+1} / ((q;q)_k (q;q)_{k+1}), 0/0 at q = 1
    _below_unit_q(p)
    q = p["q"]
    qq = _Row(_pochhammers(q, q))
    return lambda k: div(q ** k * (1 - q) ** (k + 1), qq[k] * qq[k + 1])


def _c_cn_over_n(p, Y):
    # c_n = rho^n / [n]_q!
    rho = p["rho"]
    fact = _Row(_factorials(p["q"]))
    return lambda n: div(rho ** n, fact[n])


def _c_r_over_n(p, Y):
    # c_{2k} = beta^k / ([k]_q! (beta q;q)_k)
    beta, q = p["beta"], p["q"]
    fact = _Row(_factorials(q))
    bq = _Row(_pochhammers(beta * q, q))
    return lambda k: div(beta ** k, fact[k] * bq[k])


def _c_n_over_r(p, Y):
    # c_{2k} = (-g)^k q^{k(k-1)/2} (g;q)_k (1 - g q^{2k}) / ((1-g) [k]_q! (g^2;q)_{2k})
    g, q = p["gamma"], p["q"]
    fact = _Row(_factorials(q))
    gp = _Row(_pochhammers(g, q))
    g2 = _Row(_pochhammers(g * g, q))

    def c(k):
        num = (-g) ** k * q ** (k * (k - 1) // 2) * gp[k] * (1 - g * q ** (2 * k))
        return div(num, (1 - g) * fact[k] * g2[2 * k])

    return c


def _c_n_over_cn(p, Y):
    # c_n = rho^n / ((rho^2;q)_n [n]_q!)
    rho, q = p["rho"], p["q"]
    fact = _Row(_factorials(q))
    r2 = _Row(_pochhammers(rho * rho, q))
    return lambda n: div(rho ** n, r2[n] * fact[n])


def _c_from_parts(coeff):
    # beta_coeff / gamma_coeff reading the call's H_m(y|q) row and q-binomial table
    def rule(p, Y):
        y, rho, q = p["y"], p["rho"], p["q"]
        B = q_binomial_table(q)
        return lambda n: coeff(n, y, rho, q, H=Y, B=B)

    return rule


# -- sup-norm bound rules ---------------------------------------------------
# |U_n| <= n+1 on [-1,1]; max |H_n| = W_n / (1-q)^{n/2} on S(q); the V-sum
# bound for Rogers (a heuristic outside 0 <= q < 1, where it is unproven);
# |k_n(u|v,r)| <= (n+1) + |r v| n + r^2 (n-1) on [-2,2].


def _pointwise(p, Y):
    return None


def _pointwise_at_unit_q(rule):
    return lambda p, Y: None if p["q"] == 1.0 else rule(p, Y)


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


def _reciprocal_gaussian_domain(p):
    if p["q"] == 1.0 and not p["rho"] ** 2 < 0.5:
        raise ParameterError(
            "reciprocal Gaussian kernel converges only for rho^2 < 1/2"
        )


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
        coeff_params=("q",),
        params=("q",),
        coeff=_c_n_over_u,
        even=True,
        base=_fU,
        target=_fN,
        family=_chebu_half,
        bound=_chebu_bound,
    ),
    "u_over_n": _Kernel(
        coeff_params=("q",),
        params=("q",),
        coeff=_c_u_over_n,
        even=True,
        base=_fN,
        target=_fU,
        family=_qhermite,
        bound=_hermite_bound,
        domain=_below_unit_q,
    ),
    "cn_over_n": _Kernel(
        coeff_params=("rho", "q"),
        params=("y", "rho", "q"),
        coeff=_c_cn_over_n,
        base=_fN,
        target=_fCN,
        family=_qhermite,
        y_row=_qhermite_y,
        weighted=True,
        bound=_pointwise_at_unit_q(_hermite_bound),
    ),
    "n_over_cn": _Kernel(
        coeff_params=("rho", "q"),
        params=("y", "rho", "q"),
        coeff=_c_n_over_cn,
        base=_fCN,
        target=_fN,
        family=lambda p, x: (ASC(p["y"], p["rho"], p["q"]), x),
        y_row=lambda p: (BigB(p["q"]), p["y"]),
        weighted=True,
        bound=_pointwise_at_unit_q(_asc_bound),
        domain=_reciprocal_gaussian_domain,
    ),
    "r_over_n": _Kernel(
        coeff_params=("beta", "q"),
        params=("beta", "q"),
        coeff=_c_r_over_n,
        even=True,
        base=_fN,
        target=lambda p, eps: fR(p["beta"], p["q"], eps),
        family=_qhermite,
        bound=_hermite_bound,
        domain=_below_unit_q,
    ),
    "n_over_r": _Kernel(
        coeff_params=("gamma", "q"),
        params=("gamma", "q"),
        coeff=_c_n_over_r,
        even=True,
        base=lambda p, eps: fR(p["gamma"], p["q"], eps),
        target=_fN,
        family=lambda p, x: (Rogers(p["gamma"], p["q"]), x),
        bound=_rogers_bound,
    ),
    "cn_over_k": _Kernel(
        coeff_params=("y", "rho", "q"),
        params=("y", "rho", "q"),
        coeff=_c_from_parts(beta_coeff),
        base=lambda p, eps: fK(p["y"], p["rho"], p["q"], eps),
        target=_fCN,
        family=lambda p, x: (
            Kesten(p["y"] * math.sqrt(1.0 - p["q"]), p["rho"]),
            x * math.sqrt(1.0 - p["q"]),
        ),
        y_row=_qhermite_y,
        bound=_kesten_bound,
    ),
    "cn_over_u": _Kernel(
        coeff_params=("y", "rho", "q"),
        params=("y", "rho", "q"),
        coeff=_c_from_parts(gamma_coeff),
        base=_fU,
        target=_fCN,
        family=_chebu_half,
        y_row=_qhermite_y,
        bound=_chebu_bound,
    ),
    "mehler_classical": _Kernel(
        coeff_params=("rho",),
        params=("y", "rho"),
        coeff=lambda p, Y: lambda n: div(p["rho"] ** n, math.factorial(n)),
        base=lambda p, eps: fN(1.0, eps),
        target=lambda p, eps: fCN(p["y"], p["rho"], 1.0, eps),
        family=lambda p, x: (ClassicalHermite(), x),
        y_row=lambda p: (ClassicalHermite(), p["y"]),
        weighted=True,
        bound=_pointwise,
    ),
    "pm_q0": _Kernel(
        # c_n = rho^n U_n(y/2)
        coeff_params=("y", "rho"),
        params=("y", "rho"),
        coeff=lambda p, Y: lambda n: p["rho"] ** n * Y[n],
        base=lambda p, eps: fU(0.0, eps),
        target=lambda p, eps: fCN(p["y"], p["rho"], 0.0, eps),
        family=lambda p, x: (ChebU(), x / 2.0),
        y_row=lambda p: (ChebU(), div(p["y"], 2)),
        bound=_chebu_bound,
    ),
}

EXPANSION_IDS = tuple(_KERNELS)


def _kernel(id):
    if id not in _KERNELS:
        raise ParameterError("unknown expansion id %r" % (id,))
    return _KERNELS[id]


#: parameters of the Rogers (beta, gamma) and conditional (rho) densities,
#: which exist only for |value| < 1
_UNIT_DISC = ("rho", "beta", "gamma")


def _require(id, params, names):
    for name in names:
        v = params.get(name)
        if v is None:
            raise ParameterError("expansion %r needs parameter %r" % (id, name))
        if name in _UNIT_DISC and not abs(v) < 1:
            raise ParameterError("expansion %r needs |%s| < 1, got %r" % (id, name, v))


def _coeffs(kernel, p, Y):
    """c(n) for the kernel at p, with c_n = 0 for odd n when the kernel is even."""
    c = kernel.coeff(p, Y)
    if not kernel.even:
        return c
    zero = 0 * p["q"]
    return lambda n: zero if n % 2 else c(n // 2)


def _y_values(kernel, p):
    """Lazy Y_n row; y_row runs on first use, as only some coefficient rules read it."""
    if kernel.y_row is None:
        return None

    def values():
        yield from _recurrence(*kernel.y_row(p))

    return _Row(values())


def expansion_coeff(id, n, **p):
    """Coefficient c_n of the registry expansion; exact on rational parameters."""
    kernel = _kernel(id)
    if n < 0:
        raise ParameterError("coefficient index must be >= 0, got %r" % (n,))
    _require(id, p, kernel.coeff_params)
    return _coeffs(kernel, p, _y_values(kernel, p))(n)


def base_density(id, params, trunc_eps=1e-14):
    return _kernel(id).base(params, trunc_eps)


def target_density(id, params, trunc_eps=1e-14):
    return _kernel(id).target(params, trunc_eps)


def _maxabs(a):
    return float(np.max(np.abs(a)))


def _mixed(lhs, rhs):
    """Mixed residual max |lhs - rhs| / max(1, |lhs|); both sides can be huge
    near q -> 1 where absolute comparison would just measure float granularity."""
    lhs = np.asarray(lhs, dtype=float)
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))))


def _terms(kernel, p, x):
    """Generator of (c_n a_n(x), bound of that term on S(q)) for n = 0, 1, ..."""
    A = _Row(_recurrence(*kernel.family(p, x)))
    Y = _y_values(kernel, p)
    coeff = _coeffs(kernel, p, Y)
    rule = kernel.bound(p, Y)
    zero = x * 0.0
    n = 0
    while True:
        if kernel.even and n % 2:
            yield zero, 0.0
        else:
            c = float(coeff(n))
            if kernel.weighted:
                c = c * Y[n]
            term = c * A[n]
            yield term, _maxabs(term) if rule is None else rule(n, abs(c))
        n += 1


def expansion_eval(spec, x, tol=1e-9):
    """Evaluate the expansion at x; returns ExpansionResult(value, tail, n_terms).

    With spec.K set, exactly K+1 terms are summed.  Otherwise terms are added
    until two consecutive sup-norm bounds fall below tol, capped at K_CAP
    (TruncationError past the cap).  A value or tail that is not finite, as
    when the terms or their bounds overflow, raises NonConvergenceError.
    """
    kernel = _kernel(spec.id)
    _require(spec.id, spec.params, kernel.params)
    p = {k: float(v) for k, v in spec.params.items()}
    q = p.get("q", 1.0)
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if q < 1.0:
        L = support(q).radius
        if np.any(np.abs(xa) > L):
            raise ParameterError("expansion evaluated outside S(q)")
    if kernel.domain is not None:
        kernel.domain(p)
    base = density_eval(base_density(spec.id, p), xa)
    fixed = spec.K is not None
    if fixed and spec.K < 0:
        raise ParameterError("K must be >= 0")
    # overflow in the rows or terms is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        gen = _terms(kernel, p, xa)
        acc = np.zeros_like(xa)
        small = 0
        n = -1
        while True:
            n += 1
            term, bound = next(gen)
            acc = acc + term
            if fixed:
                if n >= spec.K:
                    break
            else:
                if bound <= tol:
                    small += 1
                    if small >= 2 and n >= 2:
                        break
                else:
                    small = 0
                if n >= K_CAP:
                    raise TruncationError(
                        "expansion %r did not reach tol=%g within %d terms"
                        % (spec.id, tol, K_CAP)
                    )
        tail_series = next(gen)[1] + next(gen)[1]
        value = base * acc
        tail = np.abs(base) * tail_series
    if not (np.all(np.isfinite(value)) and np.all(np.isfinite(tail))):
        raise NonConvergenceError(
            "expansion %r overflowed within %d terms" % (spec.id, n + 1)
        )
    if scalar:
        return ExpansionResult(float(value[0]), float(tail[0]), n + 1)
    return ExpansionResult(value, tail, n + 1)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


_SERIES_STOP = 1e-16
_SERIES_CAP = 1500


def _sum_series(gen, stop=_SERIES_STOP, consecutive=2, cap=_SERIES_CAP):
    acc = None
    small = 0
    for n, (term, size) in enumerate(gen):
        acc = term if acc is None else acc + term
        if size <= stop:
            small += 1
            if small >= consecutive:
                return acc
        else:
            small = 0
        if n >= cap:
            raise NonConvergenceError("identity series did not settle")
    raise NonConvergenceError("identity series generator exhausted")


def _theta_series(q, signed, weighted):
    """sum_k s^k (2k+1 if weighted else 1) q^{k(k+1)/2} with s = -1 if signed."""

    def gen():
        k = 0
        while True:
            t = q ** (k * (k + 1) // 2)
            w = (2 * k + 1) if weighted else 1
            yield ((-1) ** k if signed else 1) * w * t, abs(t) * w
            k += 1

    return _sum_series(gen(), stop=1e-18, consecutive=1)


def _grid(q, fractions=(-0.93, -0.51, 0.0, 0.37, 0.85)):
    L = support(q).radius
    return L * np.asarray(fractions)


def _even_kernel_sum(id, q, xs):
    """sum_n c_n a_n(xs) of an even registry kernel at q.

    The odd terms are zero, so four small terms in a row are two small even
    terms: the default rule of ``_sum_series``, applied to the nonzero terms.
    """
    return _sum_series(_terms(_KERNELS[id], {"q": q}, xs), consecutive=4)


def _i1(q, eps):
    # fN/fU = sum_k (-1)^k q^{k(k+1)/2} U_{2k}(x sqrt(1-q)/2), the n_over_u kernel
    xs = _grid(q)
    return _mixed(_fn_over_fu(xs, q, eps), _even_kernel_sum("n_over_u", q, xs))


def _i2(q, eps):
    a = q_pochhammer_inf(q, q, eps) * q_pochhammer_inf(-q, q, eps) ** 2
    b = q_pochhammer_inf(-q, q, eps) * q_pochhammer_inf(q * q, q * q, eps)
    s = _theta_series(q, signed=False, weighted=False)
    return _mixed(a, s), _mixed(a, b)


def _i3(q, eps):
    lhs = q_pochhammer_inf(q, q, eps) ** 3
    return _mixed(lhs, _theta_series(q, signed=True, weighted=True))


def _i4(q, eps):
    # fU/fN = sum_k q^k (1-q)^{k+1} H_{2k}(x) / ((q;q)_k (q;q)_{k+1}), the
    # u_over_n kernel, on the grid and at x = 0
    xs = np.append(_grid(q), 0.0)
    rhs = _even_kernel_sum("u_over_n", q, xs)
    res_grid = _mixed(1.0 / _fn_over_fu(xs[:-1], q, eps), rhs[:-1])

    # x = 0: fU/fN = 1/((q;q)_inf (-q;q)_inf^2)
    qinf = q_pochhammer_inf(q, q, eps)
    lhs0 = 1.0 / (qinf * q_pochhammer_inf(-q, q, eps) ** 2)
    res_x0 = _mixed(lhs0, rhs[-1])

    # boundary: (q;q)_inf^{-3} = sum q^k W_{2k} / ((q;q)_k (q^2;q)_k)
    W = _Row(_w_terms(q))

    def gen_edge():
        rows = zip(_pochhammers(q, q), _pochhammers(q * q, q))
        for k, (qp, qp2) in enumerate(rows):
            term = q ** k * W[2 * k] / (qp * qp2)
            yield term, abs(term)

    res_edge = _mixed(qinf ** -3.0, _sum_series(gen_edge(), stop=1e-18, consecutive=1))
    return res_grid, res_x0, res_edge


def _diagonal_terms(q, rho, H, W):
    """Terms of sum_n rho^n H_n(x)^2 / [n]_q! with their sup-norm bounds on S(q)."""
    for n, fact in enumerate(_factorials(q)):
        c = rho ** n / fact
        yield c * H[n] * H[n], abs(c) * (W[n] / (1.0 - q) ** (n / 2.0)) ** 2


def _diagonal_sum(q, rho, H, W):
    """sum_n rho^n H_n(x)^2 / [n]_q!; NaN (a failed check) once its term bound overflows."""
    try:
        return _sum_series(_diagonal_terms(q, rho, H, W))
    except OverflowError:
        return math.nan


def _i5(q, rho, eps):
    xs = _grid(q)
    lhs = pm_ratio(xs, xs, rho, q, eps)
    H = _Row(_recurrence(QHermite(q), xs))
    W = _Row(_w_terms(q))
    res_grid = _mixed(lhs, _diagonal_sum(q, rho, H, W))

    # x = 0: (rho^2 q; q^2)_inf / (rho^2; q^2)_inf
    lhs0 = q_pochhammer_inf(rho * rho * q, q * q, eps) / q_pochhammer_inf(
        rho * rho, q * q, eps
    )
    # rhs = sum_k rho^{2k} (q;q^2)_k / (q^2;q^2)_k
    def gen_x0():
        rows = zip(_pochhammers(q, q * q), _pochhammers(q * q, q * q))
        for k, (odd, even) in enumerate(rows):
            term = rho ** (2 * k) * odd / even
            yield term, abs(term)

    res_x0 = _mixed(lhs0, _sum_series(gen_x0(), stop=1e-18, consecutive=1))

    # boundary: (rho^2;q)_inf / (rho;q)_inf^4 = sum rho^n W_n^2 / (q;q)_n
    def gen_edge():
        for n, qp in enumerate(_pochhammers(q, q)):
            term = rho ** n * float(W[n]) ** 2 / qp
            yield term, abs(term)

    lhs_e = q_pochhammer_inf(rho * rho, q, eps) / q_pochhammer_inf(rho, q, eps) ** 4
    res_edge = _mixed(lhs_e, _sum_series(gen_edge(), stop=1e-18, consecutive=1))
    return res_grid, res_x0, res_edge


def _i6(q, rho, eps):
    # valid for (1-q) x^2 <= 2
    xs = math.sqrt(2.0 / (1.0 - q)) * np.asarray([-0.95, -0.4, 0.0, 0.55, 0.9])
    H = _Row(_recurrence(QHermite(q), xs))
    W = _Row(_w_terms(q))

    def gen_rhs():
        rows = zip(_factorials(q), _pochhammers(rho * q, q))
        for n, (fact, rq) in enumerate(rows):
            c = rho ** n / (fact * rq)
            yield c * H[2 * n], abs(c) * W[2 * n] / (1.0 - q) ** n

    lhs = (1.0 - rho) * _diagonal_sum(q, rho, H, W)
    rhs = _sum_series(gen_rhs())
    return _mixed(lhs, rhs)


def _i7(q, rho, eps):
    """Three forms E1 = E2 = E3 of (q^3;q^3)_inf fCN(x|y,rho,q)/fN(x|q) at the
    theta = pi/3 point x = 2 cos(theta)/sqrt(1-q) = 1/sqrt(1-q), for three y."""
    L = support(q).radius
    B = q_binomial_table(q)
    res_prod = 0.0
    res_useries = 0.0
    for frac in (0.0, 0.3, 0.62):
        y = L * frac
        Hy = _Row(_recurrence(QHermite(q), y))
        s = math.sqrt(1.0 - q)
        q3inf = q_pochhammer_inf(q ** 3, q ** 3, eps)

        # E1: (q^3;q^3)_inf sum_k (1-q)^{k/2} rho^k H_k(y) eta_k / (q;q)_k with
        # eta_{-1} = 0, eta_0 = 1, eta_{k+1} = eta_k - (1-q^k) eta_{k-1}
        def gen_e1():
            eta_prev, eta = 0.0, 1.0
            for k, qp in enumerate(_pochhammers(q, q)):
                term = (s * rho) ** k * Hy[k] * eta / qp
                yield term, abs(term)
                eta_prev, eta = eta, eta - (1.0 - q ** k) * eta_prev

        e1 = q3inf * _sum_series(gen_e1(), stop=1e-17, consecutive=4)

        # E2: (rho^2;q)_inf (q^3;q^3)_inf / prod_k (1 - rho^2 q^{2k} + rho^4 q^{4k}
        #      - sqrt(1-q) rho y q^k (1 + rho^2 q^{2k}) + (1-q) rho^2 y^2 q^{2k}),
        # whose factors are w_k(x, y) at x = 1/sqrt(1-q)
        e2 = q3inf * pm_ratio(1.0 / s, y, rho, q, eps)

        # E3: sum_m (-1)^m (gamma_{3m} + gamma_{3m+1})
        def gen_e3():
            m = 0
            while True:
                g0 = float(gamma_coeff(3 * m, y, rho, q, H=Hy, B=B))
                g1 = float(gamma_coeff(3 * m + 1, y, rho, q, H=Hy, B=B))
                yield (-1) ** m * (g0 + g1), abs(g0) + abs(g1)
                m += 1

        e3 = _sum_series(gen_e3(), stop=1e-17)

        res_prod = max(res_prod, _mixed(e1, e2))
        res_useries = max(res_useries, _mixed(e1, e3))
    return res_prod, res_useries


def _i7_cube(q, eps):
    """(q;q)_inf prod_{k>=1} (1 + q^k + q^{2k}) = (q^3;q^3)_inf.

    The left side is fN/fU at the theta = pi/3 point x = 1/sqrt(1-q), where
    (1-q) x^2 = 1 turns fac_k into 1 + q^k + q^{2k}.
    """
    lhs = _fn_over_fu(1.0 / math.sqrt(1.0 - q), q, eps)
    return _mixed(lhs, q_pochhammer_inf(q ** 3, q ** 3, eps))


def _i8(q, rho, eps):
    L = support(q).radius
    xs = L * np.asarray([-0.8, -0.35, 0.05, 0.4, 0.75])
    worst = 0.0
    for yf in (-0.7, -0.2, 0.1, 0.5, 0.8):
        y = L * yf
        lhs = pm_ratio(xs, y, rho, q, eps)
        spec = ExpansionSpec("n_over_cn", {"q": q, "rho": rho, "y": y})
        # series part of fN over fCN = (value / base)
        base = density_eval(base_density("n_over_cn", {"q": q, "rho": rho, "y": y}), xs)
        res = expansion_eval(spec, xs, tol=1e-13)
        series = res.value / base
        worst = max(worst, _maxabs(lhs * series - 1.0))
    return worst


def identity_suite(q_grid=(0.2, 0.5, 0.8), rho_grid=(0.3, 0.6), tol=1e-10, eps=1e-15):
    """Run the cross-check identity battery; returns a list of VerificationReport.

    Residuals are mixed absolute/relative: |lhs - rhs| / max(1, |lhs|).
    """
    reports = []

    def add(check_id, params, residual):
        reports.append(
            VerificationReport(check_id, params, float(residual), tol, residual <= tol)
        )

    # a series whose rows overflow sums to NaN, a failed check, so numpy's
    # overflow and invalid-value warnings carry no news
    with np.errstate(over="ignore", invalid="ignore"):
        for q in q_grid:
            add("i1:grid", {"q": q}, _i1(q, eps))
            r_series, r_prods = _i2(q, eps)
            add("i2:series", {"q": q}, r_series)
            add("i2:products", {"q": q}, r_prods)
            add("i3:series", {"q": q}, _i3(q, eps))
            g, x0, edge = _i4(q, eps)
            add("i4:grid", {"q": q}, g)
            add("i4:x0", {"q": q}, x0)
            add("i4:edge", {"q": q}, edge)
            add("i7:cube", {"q": q}, _i7_cube(q, eps))
            for rho in rho_grid:
                g, x0, edge = _i5(q, rho, eps)
                add("i5:grid", {"q": q, "rho": rho}, g)
                add("i5:x0", {"q": q, "rho": rho}, x0)
                add("i5:edge", {"q": q, "rho": rho}, edge)
                add("i6:grid", {"q": q, "rho": rho}, _i6(q, rho, eps))
                rp, ru = _i7(q, rho, eps)
                add("i7:product", {"q": q, "rho": rho}, rp)
                add("i7:u-series", {"q": q, "rho": rho}, ru)
                add("i8:grid", {"q": q, "rho": rho}, _i8(q, rho, eps))
    return reports
