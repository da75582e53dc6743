"""Densities on S(q) = [-2/sqrt(1-q), 2/sqrt(1-q)] built from infinite products.

Six families share one vocabulary::

    s2(x)   = 4 - (1-q) x^2
    fac_k(x)      = (1 + q^k)^2 - (1-q) x^2 q^k                      (k >= 1)
    w_k(x, y)     = (1 - r^2 q^{2k})^2 - (1-q) r q^k (1 + r^2 q^{2k}) x y
                    + (1-q) r^2 (x^2 + y^2) q^{2k}                   (k >= 0)
    den_k(x)      = (1 + b q^k)^2 - (1-q) b x^2 q^k                  (k >= 0)

    fN  = sqrt(1-q) (q;q)_inf sqrt(s2) prod fac_k / (2 pi)
    fCN = fN * (r^2;q)_inf / prod w_k
    fR  = fN * (b^2;q)_inf / ((b;q)_inf (bq;q)_inf prod den_k)
    fU  = sqrt((1-q) s2) / (2 pi)
    fT  = sqrt(1-q) / (pi sqrt(s2))
    fK  = (1-r^2) sqrt(1-q) sqrt(s2) / (2 pi D(x,y)),
          D = (1-r^2)^2 - r (1-q)(1+r^2) x y + (1-q) r^2 (x^2 + y^2)

The k = 0 numerator factor fac_0 = s2 is merged with the 1/sqrt(s2)
prefactor, so every product starts at a factor bounded away from zero and the
boundary value 0 needs no special casing.

All three products run through one loop, ``_log_qproduct``: it steps
p = q^k by repeated multiplication, adds log factor(p) in log space and
stops before the index K = truncation_order(a, q, eps), where a bounds
|factor - 1| / |q|^k on S(q) (7 for fac_k, 19 |rho| for w_k, 7 |beta| for
den_k), so the dropped tail changes the product by a relative eps at most.
At least one factor is taken, which keeps the shape of x when a = 0.

Every factor is affine in per-point features with scalar coefficients::

    fac_k = (1 + p)^2         - p phi,        phi = (1-q) x^2
    den_k = (1 + b p)^2       - p phi,        phi = b (1-q) x^2
    w_k   = (1 - r^2 p^2)^2   - (1-q) r p (1 + r^2 p^2) phi1
                              + (1-q) r^2 p^2 phi2,   phi1 = x y, phi2 = x^2 + y^2

The features are built and broadcast once per call; each factor is formed in
one preallocated buffer (a second one only for phi2 of w_k), logged in place
and added to the sum in k order.  This is the rounding order of the formulas
as written, so a point has the same bits alone or in an array.  A factor
<= 0 means a point outside S(q): its log is -inf or NaN, and one finiteness
check after the loop raises ParameterError for it, and for a NaN or infinite
factor alike.

A NaN point is a ParameterError.  Outside S(q), +-inf included,
``density_eval`` gives 0; the merged ratios (``pm_ratio`` and the product
forms of ``density_ratio``) have no value there and raise ParameterError.
The endpoints +-L belong to S(q), and the merged ratios are finite there.

fN and fCN admit q = 1 closed forms (standard normal, N(rho y, 1 - rho^2));
the remaining families reject q = 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .qcore import ParameterError, q_pochhammer_inf, truncation_order

TWO_PI = 2.0 * math.pi


class BoundaryError(ParameterError):
    """Evaluation requested exactly at a pole or other excluded boundary point."""


@dataclass(frozen=True)
class DensityId:
    tag: str
    q: float
    y: float = None
    rho: float = None
    beta: float = None
    trunc_eps: float = 1e-14


def _check_q(q, allow_unit=False):
    qf = float(q)
    if abs(qf) < 1.0 or (allow_unit and qf == 1.0):
        return qf
    raise ParameterError("density requires |q| < 1, got q=%r" % (q,))


def _check_eps(eps):
    if not 0.0 < float(eps) < 1.0:
        raise ParameterError("trunc_eps must lie in (0, 1), got %r" % (eps,))
    return float(eps)


def _edge(q):
    return 2.0 / math.sqrt(1.0 - q)


def fN(q, trunc_eps=1e-14):
    return DensityId("fn", _check_q(q, allow_unit=True), trunc_eps=_check_eps(trunc_eps))


def fCN(y, rho, q, trunc_eps=1e-14):
    qf = _check_q(q, allow_unit=True)
    rf = float(rho)
    if not abs(rf) < 1.0:
        raise ParameterError("fCN requires |rho| < 1, got rho=%r" % (rho,))
    yf = float(y)
    if math.isnan(yf) or (qf < 1.0 and abs(yf) > _edge(qf)):
        raise ParameterError(
            "fCN conditioning point must lie in S(q), got y=%r" % (y,)
        )
    return DensityId("fcn", qf, y=yf, rho=rf, trunc_eps=_check_eps(trunc_eps))


def fR(beta, q, trunc_eps=1e-14):
    """Continuous q^2-Hermite-type density; beta = 1 returns the fT limit."""
    qf = _check_q(q)
    bf = float(beta)
    if bf == 1.0:
        return fT(qf, trunc_eps=trunc_eps)
    if not abs(bf) < 1.0:
        raise ParameterError("fR requires |beta| < 1 or beta = 1, got beta=%r" % (beta,))
    return DensityId("fr", qf, beta=bf, trunc_eps=_check_eps(trunc_eps))


def fU(q, trunc_eps=1e-14):
    return DensityId("fu", _check_q(q), trunc_eps=_check_eps(trunc_eps))


def fT(q, trunc_eps=1e-14):
    return DensityId("ft", _check_q(q), trunc_eps=_check_eps(trunc_eps))


def fK(y, rho, q, trunc_eps=1e-14):
    qf = _check_q(q)
    rf = float(rho)
    if not abs(rf) < 1.0:
        raise ParameterError("fK requires |rho| < 1, got rho=%r" % (rho,))
    yf = float(y)
    if not abs(yf) <= _edge(qf):
        raise ParameterError("fK conditioning point must lie in S(q), got y=%r" % (y,))
    return DensityId("fk", qf, y=yf, rho=rf, trunc_eps=_check_eps(trunc_eps))


def _as_array(x):
    """(x is a scalar, x as a 1-d float array); a NaN point is a ParameterError."""
    xa = np.asarray(x, dtype=float)
    if np.isnan(xa).any():
        raise ParameterError("x must not be NaN")
    return xa.ndim == 0, np.atleast_1d(xa)


def _support_points(x, q):
    """_as_array(x) for a merged ratio: a point outside S(q) is a ParameterError."""
    scalar, xa = _as_array(x)
    if (np.abs(xa) > _edge(q)).any():
        raise ParameterError("merged density ratio evaluated outside S(q)")
    return scalar, xa


def _ret(scalar, out):
    return float(out[0]) if scalar else out


def _log_qproduct(coeffs, features, amplitude, q, eps, first=0):
    """sum_{first <= k < K} log factor(q^k), the one truncated product loop.

    factor(p) = c0 + c1 phi1 [+ c2 phi2] with ``coeffs(p) = (c0, c1[, c2])``
    and per-point features ``features() = (phi1[, phi2])``, built once per
    call.  Each factor is formed in one preallocated buffer (a second one only
    for phi2), logged in place and added to the sum in k order.  That is the
    rounding of the formula written out, so a point gets the same bits alone
    or inside any array, and no array is allocated per factor.

    K comes from ``truncation_order(amplitude, q, eps)`` for factors with
    |factor(q^k) - 1| <= amplitude |q|^k, and at least one factor is taken,
    so the sum has the shape of the features even when amplitude is 0.  A
    factor <= 0, NaN or inf logs to a non-finite value, so one check after the
    loop raises ParameterError for a point outside S(q).
    """
    K = max(truncation_order(amplitude, q, eps), first + 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi = features()
        shape = np.broadcast_shapes(*(np.shape(v) for v in phi))
        f = np.empty(shape)
        g = np.empty(shape) if len(phi) == 2 else None
        out = np.zeros(shape)
        p = q ** first
        for _ in range(first, K):
            c = coeffs(p)
            np.multiply(phi[0], c[1], out=f)
            f += c[0]
            if g is not None:
                np.multiply(phi[1], c[2], out=g)
                f += g
            out += np.log(f, out=f)
            p *= q
    if not np.isfinite(out).all():
        raise ParameterError("product factor <= 0 or not finite; point outside S(q)?")
    return out


def _log_fac_sum(x2s, q, eps):
    """sum_{k>=1} log fac_k with x2s = (1-q) x^2; |fac_k - 1| <= 7 |q|^k on S(q)."""
    return _log_qproduct(
        lambda p: ((1.0 + p) ** 2, -p), lambda: (x2s,), 7.0, q, eps, first=1
    )


def _log_w_sum(x, y, rho, q, eps):
    """sum_{k>=0} log w_k; |w_k - 1| <= 19 |rho| |q|^k for x, y in S(q)."""
    omq = 1.0 - q

    def coeffs(p):
        r2p2 = rho * rho * p * p
        return (
            (1.0 - r2p2) ** 2,
            -(omq * rho * p * (1.0 + r2p2)),
            omq * rho * rho * p * p,
        )

    return _log_qproduct(
        coeffs, lambda: (x * y, x * x + y * y), 19.0 * abs(rho), q, eps
    )


def _log_den_sum(x2s, beta, q, eps):
    """sum_{k>=0} log den_k; |den_k - 1| <= 7 |beta| |q|^k on S(q)."""
    return _log_qproduct(
        lambda p: ((1.0 + beta * p) ** 2, -p),
        lambda: (beta * x2s,),
        7.0 * abs(beta),
        q,
        eps,
    )


def _kesten_denom(x, y, rho, q):
    omq = 1.0 - q
    D = (
        (1.0 - rho * rho) ** 2
        - rho * omq * (1.0 + rho * rho) * (x * y)
        + omq * rho * rho * (x * x + y * y)
    )
    if np.any(D <= 0.0):
        raise ParameterError("Kesten denominator vanished; point outside S(q)?")
    return D


def density_eval(d, x):
    """Density value(s) at x; scalar in, scalar out; exact 0 outside/at the edge."""
    scalar, xa = _as_array(x)
    q = d.q
    eps = d.trunc_eps

    if q == 1.0:
        if d.tag == "fn":
            return _ret(scalar, np.exp(-0.5 * xa * xa) / math.sqrt(TWO_PI))
        if d.tag == "fcn":
            var = 1.0 - d.rho * d.rho
            z = xa - d.rho * d.y
            return _ret(scalar, np.exp(-0.5 * z * z / var) / math.sqrt(TWO_PI * var))
        raise ParameterError("q = 1 closed form exists only for fN and fCN")

    L = _edge(q)
    absx = np.abs(xa)
    if d.tag == "ft" and np.any(absx == L):
        raise BoundaryError("fT has poles at the endpoints of S(q)")
    inside = absx < L
    out = np.zeros_like(xa)
    if not np.any(inside):
        return _ret(scalar, out)
    xi = xa[inside]
    s2 = 4.0 - (1.0 - q) * xi * xi
    x2s = (1.0 - q) * xi * xi

    if d.tag == "fu":
        out[inside] = np.sqrt((1.0 - q) * s2) / TWO_PI
    elif d.tag == "ft":
        out[inside] = math.sqrt(1.0 - q) / (math.pi * np.sqrt(s2))
    elif d.tag == "fk":
        D = _kesten_denom(xi, d.y, d.rho, q)
        out[inside] = (
            (1.0 - d.rho * d.rho) * math.sqrt(1.0 - q) * np.sqrt(s2) / (TWO_PI * D)
        )
    elif d.tag == "fn":
        logc = math.log(math.sqrt(1.0 - q) * q_pochhammer_inf(q, q, eps) / TWO_PI)
        out[inside] = np.exp(logc + 0.5 * np.log(s2) + _log_fac_sum(x2s, q, eps))
    elif d.tag == "fcn":
        const = (
            math.sqrt(1.0 - q)
            * q_pochhammer_inf((d.rho * d.rho, q), q, eps)
            / TWO_PI
        )
        logs = 0.5 * np.log(s2) + _log_fac_sum(x2s, q, eps)
        logs -= _log_w_sum(xi, d.y, d.rho, q, eps)
        out[inside] = const * np.exp(logs)
    elif d.tag == "fr":
        b = d.beta
        const = (
            math.sqrt(1.0 - q)
            * q_pochhammer_inf((b * b, q), q, eps)
            / (
                q_pochhammer_inf(b, q, eps)
                * q_pochhammer_inf(b * q, q, eps)
                * TWO_PI
            )
        )
        logs = 0.5 * np.log(s2) + _log_fac_sum(x2s, q, eps)
        logs -= _log_den_sum(x2s, b, q, eps)
        out[inside] = const * np.exp(logs)
    else:
        raise ParameterError("unknown density tag %r" % (d.tag,))
    return _ret(scalar, out)


def pm_ratio(x, y, rho, q, eps=1e-14):
    """fCN(x|y,rho,q) / fN(x|q) = (rho^2;q)_inf / prod_k w_k(x, y).

    Symmetric in (x, y); broadcasts, so either argument may be an array.
    A NaN point, or a point outside S(q), raises ParameterError: the ratio
    has no value there, and no NaN is returned in its place.
    """
    _check_q(q)
    x_scalar, xa = _support_points(x, q)
    y_scalar, ya = _support_points(y, q)
    const = q_pochhammer_inf(rho * rho, q, eps)
    out = const * np.exp(-_log_w_sum(xa, ya, rho, q, eps))
    return _ret(x_scalar and y_scalar, out)


def _fr_over_fn(x, beta, q, eps):
    scalar, xa = _support_points(x, q)
    const = q_pochhammer_inf(beta * beta, q, eps) / (
        q_pochhammer_inf(beta, q, eps) * q_pochhammer_inf(beta * q, q, eps)
    )
    x2s = (1.0 - q) * xa * xa
    out = const * np.exp(-_log_den_sum(x2s, beta, q, eps))
    return _ret(scalar, out)


def _fn_over_fu(x, q, eps):
    scalar, xa = _support_points(x, q)
    x2s = (1.0 - q) * xa * xa
    out = q_pochhammer_inf(q, q, eps) * np.exp(_log_fac_sum(x2s, q, eps))
    return _ret(scalar, out)


def _fcn_over_fu(x, y, rho, q, eps):
    scalar, xa = _support_points(x, q)
    x2s = (1.0 - q) * xa * xa
    logs = _log_fac_sum(x2s, q, eps) - _log_w_sum(xa, y, rho, q, eps)
    out = q_pochhammer_inf((rho * rho, q), q, eps) * np.exp(logs)
    return _ret(scalar, out)


def density_ratio(num, den, x):
    """num(x) / den(x), using a merged product form where one exists.

    Merged pairs (same q required): fCN/fN, fR/fN, fN/fU, fCN/fU.  These stay
    finite on all of S(q) including the endpoints, and raise ParameterError
    outside it.  Other combinations fall back to the plain quotient and
    require den(x) > 0.
    """
    if num.q != den.q:
        raise ParameterError("density ratio requires matching q")
    q, eps = num.q, min(num.trunc_eps, den.trunc_eps)
    pair = (num.tag, den.tag)
    if pair == ("fcn", "fn"):
        return pm_ratio(x, num.y, num.rho, q, eps)
    if pair == ("fr", "fn"):
        return _fr_over_fn(x, num.beta, q, eps)
    if pair == ("fn", "fu"):
        return _fn_over_fu(x, q, eps)
    if pair == ("fcn", "fu"):
        return _fcn_over_fu(x, num.y, num.rho, q, eps)
    scalar, xa = _as_array(x)
    dv = density_eval(den, xa)
    if np.any(dv == 0.0):
        raise ParameterError("ratio undefined where the denominator vanishes")
    return _ret(scalar, density_eval(num, xa) / dv)


def normalize_check(d, tol=1e-8):
    """Quadrature check that d integrates to 1 over S(q); returns (passed, residual)."""
    from . import verify

    if d.q == 1.0:
        raise ParameterError("normalize_check runs on S(q) and needs q < 1")
    res = verify.integrate(lambda t: density_eval(d, t), d.q, tol=min(tol, 1e-9))
    residual = abs(res.value - 1.0)
    return residual <= tol, residual
