"""Densities on S(q) = [-2/sqrt(1-q), 2/sqrt(1-q)] built from infinite products.

Six families share one vocabulary::

    s2(x)         = 4 - (1-q) x^2
    fac_k(x)      = (1 + q^k)^2 - (1-q) x^2 q^k       (k >= 0; fac_0 = s2)
    w_k(x, y)     = (1 - r^2 q^{2k})^2 - (1-q) r q^k (1 + r^2 q^{2k}) x y
                    + (1-q) r^2 (x^2 + y^2) q^{2k}                   (k >= 0)
    den_k(x)      = (1 + b q^k)^2 - (1-q) b x^2 q^k                  (k >= 0)

    fU  = sqrt((1-q) s2) / (2 pi)
    fN  = fU * (q;q)_inf prod_{k>=1} fac_k
    fCN = fN * (r^2;q)_inf / prod w_k
    fR  = fN * (b^2;q)_inf / ((b;q)_inf (bq;q)_inf prod den_k)
    fT  = fU * 2 / fac_0
    fK  = fU * (1-r^2) / w_0

So the six form one chain rooted at fU: each other density names the density
it multiplies in ``_LINKS`` (fN, fT and fK hang from fU, fCN and fR from fN),
with a link that gives that ratio as (constant, log product).
``density_eval`` is fU times the links from fU down.  ``density_ratio`` of
any two is taken where their chains meet: the links below that tag on the
numerator's side over those on the denominator's.  ``pm_ratio`` is the fcn
link.  Only fac_0 vanishes on S(q), at +-L, the poles of fT; every other
factor is bounded away from zero there, so every ratio without fT is finite
on all of S(q), +-L included.

All products run through one loop, ``_log_qproduct``: it steps p = q^k by
repeated multiplication, adds log factor(p) in log space and stops before
the index K = truncation_order(a, q, eps), where a bounds |factor - 1| / |q|^k
on S(q) (7 for fac_k, 19 |rho| for w_k, 7 |beta| for den_k), so the dropped
tail changes the product by a relative eps at most.  At least one factor is
taken, so a = 0 (the fT and fK links) takes fac_0 or w_0 alone.

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

A point that is not a real number, an int past the float range or a NaN
is a ParameterError (``_as_array``).  Outside S(q), +-inf included,
``density_eval`` gives 0; a ratio has no value there and raises
ParameterError.  fT at +-L raises BoundaryError, alone or in a ratio.

fN and fCN admit q = 1 closed forms (standard normal, N(rho y, 1 - rho^2));
the remaining families, and every ratio, reject q = 1.  The six
constructors and ``pm_ratio`` check their arguments in one place,
``_density``: ``qcore.check_params`` for q, rho, beta, a finite y and
trunc_eps in (0, 1), plus the one rule of this module, a conditioning point
y in S(q) when q < 1.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .qcore import ParameterError, check_params, q_pochhammer_inf, truncation_order

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


def _edge(q):
    return 2.0 / math.sqrt(1.0 - q)


def _density(tag, trunc_eps, unit_q=False, **params):
    """DensityId(tag) of the float values of params and trunc_eps, each checked
    by check_params.

    The one rule added here: a conditioning point y lies in S(q) when q < 1.
    """
    owner = "f" + tag[1:].upper()
    check_params(owner, params, tuple(params), unit_q)
    p = {name: float(v) for name, v in params.items()}
    if "y" in p and p["q"] < 1.0 and not abs(p["y"]) <= _edge(p["q"]):
        raise ParameterError(
            "%s conditioning point must lie in S(q), got y=%r" % (owner, p["y"])
        )
    check_params(owner, {"trunc_eps": trunc_eps}, ("trunc_eps",))
    return DensityId(tag, trunc_eps=float(trunc_eps), **p)


def fN(q, trunc_eps=1e-14):
    return _density("fn", trunc_eps, True, q=q)


def fCN(y, rho, q, trunc_eps=1e-14):
    return _density("fcn", trunc_eps, True, q=q, rho=rho, y=y)


def fR(beta, q, trunc_eps=1e-14):
    """Continuous q^2-Hermite-type density; beta = 1 returns the fT limit."""
    if beta == 1 and not isinstance(beta, (bool, np.bool_)):  # check_params refuses a bool
        return fT(q, trunc_eps=trunc_eps)
    return _density("fr", trunc_eps, q=q, beta=beta)


def fU(q, trunc_eps=1e-14):
    return _density("fu", trunc_eps, q=q)


def fT(q, trunc_eps=1e-14):
    return _density("ft", trunc_eps, q=q)


def fK(y, rho, q, trunc_eps=1e-14):
    return _density("fk", trunc_eps, q=q, rho=rho, y=y)


def _as_array(x, name="x"):
    """(x is a scalar, x as a 1-d float array); a point that is not a real
    number (a string, a complex number, a bool, also inside a list or tuple),
    an int past the float range or a NaN is a ParameterError naming it."""
    xa = np.asarray(x, dtype=object if isinstance(x, (list, tuple)) else None)
    if xa.dtype.kind not in "iufO" or xa.dtype.kind == "O" and not all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in xa.flat):
        raise ParameterError("%s must be real numbers, got %r" % (name, x))
    try:
        xa = xa.astype(float, copy=False)
    except OverflowError:  # an int past the float range
        raise ParameterError("%s must fit a float, got %r" % (name, x)) from None
    if np.isnan(xa).any():
        raise ParameterError("%s must not be NaN" % name)
    return xa.ndim == 0, np.atleast_1d(xa)


def _support_points(x, q, name="x"):
    """_as_array(x) for a ratio: a point outside S(q) is a ParameterError."""
    scalar, xa = _as_array(x, name)
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


def _log_fac_sum(x2s, q, eps, amplitude, first):
    """sum_{first<=k} log fac_k with x2s = (1-q) x^2; |fac_k - 1| <= 7 |q|^k
    on S(q), and amplitude 0 from first 0 takes fac_0 = s2 alone."""
    return _log_qproduct(
        lambda p: ((1.0 + p) ** 2, -p), lambda: (x2s,), amplitude, q, eps, first
    )


def _log_w_sum(x, y, rho, q, eps, amplitude):
    """sum_{k>=0} log w_k; |w_k - 1| <= 19 |rho| |q|^k for x, y in S(q), and
    amplitude 0 takes w_0 alone."""
    omq = 1.0 - q

    def coeffs(p):
        r2p2 = rho * rho * p * p
        return (
            (1.0 - r2p2) ** 2,
            -(omq * rho * p * (1.0 + r2p2)),
            omq * rho * rho * p * p,
        )

    return _log_qproduct(
        coeffs, lambda: (x * y, x * x + y * y), amplitude, q, eps
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


#: tag -> (parent tag, link): the density is its parent times the ratio that
#: link(d, x, eps) returns as (constant, log product)
_LINKS = {
    "fn": ("fu", lambda d, x, eps: (
        q_pochhammer_inf(d.q, d.q, eps),
        _log_fac_sum((1.0 - d.q) * x * x, d.q, eps, 7.0, 1))),
    "fcn": ("fn", lambda d, x, eps, y=None: (
        q_pochhammer_inf(d.rho * d.rho, d.q, eps),
        -_log_w_sum(x, d.y if y is None else y, d.rho, d.q, eps, 19.0 * abs(d.rho)))),
    "fr": ("fn", lambda d, x, eps: (
        q_pochhammer_inf(d.beta * d.beta, d.q, eps)
        / (q_pochhammer_inf(d.beta, d.q, eps) * q_pochhammer_inf(d.beta * d.q, d.q, eps)),
        -_log_den_sum((1.0 - d.q) * x * x, d.beta, d.q, eps))),
    "ft": ("fu", lambda d, x, eps: (
        2.0, -_log_fac_sum((1.0 - d.q) * x * x, d.q, eps, 0.0, 0))),
    "fk": ("fu", lambda d, x, eps: (
        1.0 - d.rho * d.rho, -_log_w_sum(x, d.y, d.rho, d.q, eps, 0.0))),
}


def _chain(tag):
    """tag and the tags above it in ``_LINKS``, nearest first, ending at fu."""
    chain = [tag]
    while chain[-1] in _LINKS:
        chain.append(_LINKS[chain[-1]][0])
    if chain[-1] != "fu":
        raise ParameterError("unknown density tag %r" % (tag,))
    return chain


def _chain_ratio(num, den, x, eps):
    """num / den at x as (constant, log products), taken at the tag where
    their chains meet: the lowest tag on both, or the one above it when both
    densities have that tag (two densities of one tag differ in more than q),
    fu for fU over fU.  num's links from there down are multiplied in and den's divided out,
    constants and log products accumulated in that order."""
    up, down = _chain(num.tag), _chain(den.tag)
    top = next((t for t in up if t in down[num.tag == den.tag:]), "fu")
    const, logs = 1.0, np.zeros(x.shape)
    for tag in reversed(up[:up.index(top)]):
        c, log_product = _LINKS[tag][1](num, x, eps)
        const *= c
        logs += log_product
    for tag in reversed(down[:down.index(top)]):
        c, log_product = _LINKS[tag][1](den, x, eps)
        const /= c
        logs -= log_product
    return const, logs


def _check_poles(ds, x, q):
    """BoundaryError when an fT among ds is asked for at +-L, its poles."""
    if any(d.tag == "ft" for d in ds) and (np.abs(x) == _edge(q)).any():
        raise BoundaryError("fT has poles at the endpoints of S(q)")


def density_eval(d, x):
    """Density value(s) at x; scalar in, scalar out; exact 0 outside/at the edge."""
    scalar, xa = _as_array(x)
    q = d.q

    if q == 1.0:
        # far out z^2 overflows to inf, and exp(-inf) = 0 is the density there
        with np.errstate(over="ignore"):
            if d.tag == "fn":
                return _ret(scalar, np.exp(-0.5 * xa * xa) / math.sqrt(TWO_PI))
            if d.tag == "fcn":
                var = 1.0 - d.rho * d.rho
                z = xa - d.rho * d.y
                return _ret(scalar, np.exp(-0.5 * z * z / var) / math.sqrt(TWO_PI * var))
        raise ParameterError("q = 1 closed form exists only for fN and fCN")

    _check_poles((d,), xa, q)
    inside = np.abs(xa) < _edge(q)
    out = np.zeros_like(xa)
    if not np.any(inside):
        return _ret(scalar, out)
    xi = xa[inside]
    s2 = 4.0 - (1.0 - q) * xi * xi
    const, logs = _chain_ratio(d, DensityId("fu", q), xi, d.trunc_eps)
    out[inside] = np.sqrt((1.0 - q) * s2) / TWO_PI * (const * np.exp(logs))
    return _ret(scalar, out)


def pm_ratio(x, y, rho, q, eps=1e-14):
    """fCN(x|y,rho,q) / fN(x|q) = (rho^2;q)_inf / prod_k w_k(x, y), the fcn link.

    Symmetric in (x, y); broadcasts, so either argument may be an array.
    A NaN point, or a point outside S(q), raises ParameterError: the ratio
    has no value there, and no NaN is returned in its place.
    """
    check_params("pm_ratio", {"eps": eps}, ("eps",))
    d = _density("fcn", eps, rho=rho, q=q)
    x_scalar, xa = _support_points(x, d.q)
    y_scalar, ya = _support_points(y, d.q, "y")
    const, logs = _LINKS["fcn"][1](d, xa, d.trunc_eps, ya)
    return _ret(x_scalar and y_scalar, const * np.exp(logs))


def density_ratio(num, den, x):
    """num(x) / den(x) for two densities of one q below 1, in product form.

    The ratio is taken where the two ``_LINKS`` chains meet (``_chain_ratio``):
    num's links below that tag over den's.  So it stays finite on all of
    S(q), the endpoints included, except at the poles of fT at +-L, which
    raise BoundaryError; a point outside S(q) raises ParameterError.
    """
    if num.q != den.q:
        raise ParameterError("density ratio requires matching q")
    check_params("density_ratio", {"q": num.q}, ("q",))
    scalar, xa = _support_points(x, num.q)
    _check_poles((num, den), xa, num.q)
    const, logs = _chain_ratio(num, den, xa, min(num.trunc_eps, den.trunc_eps))
    return _ret(scalar, const * np.exp(logs))


def normalize_check(d, tol=1e-8):
    """Quadrature check that d integrates to 1 over S(q); returns (passed, residual)."""
    from . import verify

    check_params("normalize_check", {"tol": tol}, ("tol",))
    res = verify.integrate(lambda t: density_eval(d, t), d.q, tol=min(tol, 1e-9))
    residual = abs(res.value - 1.0)
    return residual <= tol, residual
