"""Numeric verification layer: quadrature on S(q) and the check registry.

Integrals over S(q) use the substitution x = L cos(theta), which absorbs the
square-root edge behaviour of every density here and leaves an integrand in
theta that is smooth and periodic once extended evenly; the midpoint rule in
theta then converges geometrically, and its nodes never reach the edges.
``integrate`` and the Gram matrix run it through one doubling loop,
``_quadrature``, which stops at the first two levels within tol.  The
orthogonality, projection and d-integral suites read, through ``_moments``, one
Gram matrix G[n, m] = integral of a_n b_m dens per (family pair, q), against
``float()`` of exact closed forms (``polyfam._NORMS``, ``connect.d_hat_entry``).
``run_all`` walks one table of suites, ``_SUITES``.
"""

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .qcore import (
    NonConvergenceError,
    ParameterError,
    VerificationReport,
    check_degree,
    check_params,
    support,
)
from . import connect, densities, expand
from .densities import density_eval, fCN, fK, fN, fR, fT, fU, pm_ratio
from .polyfam import (
    ASC,
    ChebT_hat,
    ChebU_hat,
    KestenHat,
    QHermite,
    Rogers,
    _NORMS,
    eval_all,
)


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    nodes: int


def _quadrature(estimate, q, tol):
    """Midpoint rule in theta on 32, 64, ..., 1024 nodes: estimate(x, w) sums an
    integrand (scalar or array) at x_j = L cos(theta_j), theta_j = (j + 1/2) pi/n,
    with weights L sin(theta_j) pi/n.  Returns (value, largest difference from
    the level before, nodes) at the first difference <= tol, or at the cap; an
    estimate that is not finite is a NonConvergenceError at once."""
    L = support(q).radius
    prev = None
    for n in (32, 64, 128, 256, 512, 1024):
        theta = (np.arange(n) + 0.5) * (math.pi / n)
        value = estimate(L * np.cos(theta), L * np.sin(theta) * (math.pi / n))
        if not np.all(np.isfinite(value)):
            raise NonConvergenceError("quadrature integrand is not finite on %d nodes" % n)
        if prev is not None:
            err = float(np.max(np.abs(value - prev)))
            if err <= tol:
                break
        prev = value
    return value, err, n


def integrate(f, q, tol=1e-10):
    """integral of f over S(q); f must accept a numpy array of nodes.  An estimate
    that is not finite is a NonConvergenceError at once."""
    check_params("integrate", {"tol": tol}, ("tol",))
    value, err, n = _quadrature(lambda x, w: np.sum(f(x) * w), q, tol)
    if err > tol:
        raise NonConvergenceError("quadrature did not reach tol=%g within %d nodes" % (tol, n))
    return IntegralResult(float(value), err, n)


def _norm_rule(fam, dens):
    """The family's ``polyfam._NORMS`` rule, once its density is dens and its
    parameters match the density's."""
    pair = (fam.tag, dens.tag)
    weight, rule = _NORMS.get(fam.tag, (None, None))
    if weight != dens.tag:
        raise ParameterError("no closed-form norm for pair %r" % (pair,))
    for name, v in fam.params().items():
        if getattr(dens, name) != v:
            raise ParameterError("%s/%s parameter mismatch in %s" % (*pair, name))
    return rule


def _gram(a, b, dens, n_max, tol):
    """G[n, m] = integral of a_n b_m dens over S(q), n, m <= n_max, from one
    quadrature, and its difference; the rows are evaluated once when b == a."""

    def estimate(x, w):
        A = np.array(eval_all(a, n_max, x), dtype=float)
        B = A if b == a else np.array(eval_all(b, n_max, x), dtype=float)
        return (A * (density_eval(dens, x) * w)) @ B.T

    G, quad_err, _ = _quadrature(estimate, dens.q, tol)
    return G, quad_err


def _moments(check_id, a, b, dens, entries, tol, qtol):
    """One report per entry (params, n, m, expected), all read from one Gram
    matrix of a against b under dens; each passes when |G[n, m] - expected|
    <= tol and the quadrature difference quad_err <= qtol."""
    G, quad_err = _gram(a, b, dens, max(max(n, m) for _, n, m, _ in entries), qtol)
    reports = []
    for params, n, m, expected in entries:
        residual = abs(float(G[n, m]) - expected)
        reports.append(VerificationReport(check_id, dict(params, quad_err=quad_err), residual,
                                          tol, residual <= tol and quad_err <= qtol))
    return reports


def _orthogonality(fam, dens, nms, tol):
    norm = _norm_rule(fam, dens)
    return _moments("orthogonality:%s/%s" % (fam.tag, dens.tag), fam, fam, dens, [
        ({"n": n, "m": m, "q": dens.q}, n, m, float(norm(dens, n)) if n == m else 0.0)
        for n, m in nms], tol, tol)


def _projection(ns, y, rho, q, tol):
    # column 0 of the Gram matrix, since H_0 = 1
    H, dens = QHermite(q), fCN(y, rho, q)
    Hy = eval_all(H, max(ns), y)
    return _moments("projection:h/fcn", H, H, dens, [
        ({"n": n, "y": y, "rho": rho, "q": q}, n, 0, rho ** n * float(Hy[n])) for n in ns
    ], tol, min(tol * 1e-2, 1e-9))


def _d_integral(kns, y, rho, q, tol):
    # U_n(x sqrt(1-q)/2) = (1-q)^{n/2} Uhat_n(x), so entry (n, k) is Dhat_{k,n} ||P_k||^2
    asc, dens = ASC(y, rho, q), fCN(y, rho, q)
    norm = _norm_rule(asc, dens)
    return _moments("d-integral:u/asc", ChebU_hat(q), asc, dens, [
        ({"k": k, "n": n, "y": y, "rho": rho, "q": q}, n, k,
         float(connect.d_hat_entry(k, n, y, rho, q)) * float(norm(asc, k))) for k, n in kns
    ], tol, min(tol * 1e-2, 1e-9))


def check_orthogonality(fam, dens, n, m, tol=1e-8):
    """Compare the (n, m) inner product against the closed-form norm."""
    check_degree(n, "index n")
    check_degree(m, "index m")
    check_params("check_orthogonality", {"tol": tol}, ("tol",))
    return _orthogonality(fam, dens, [(n, m)], tol)[0]


def check_projection(n, y, rho, q, tol=1e-8):
    """integral of H_n(x|q) fCN(x|y,rho,q) dx = rho^n H_n(y|q)."""
    check_degree(n, "index n")
    check_params("check_projection", {"tol": tol}, ("tol",))
    return _projection([n], y, rho, q, tol)[0]


def check_chapman(x, z, rho1, rho2, q, tol=1e-6):
    """integral fCN(x|y,rho1) fCN(y|z,rho2) dy = fCN(x|z, rho1 rho2)."""
    check_params("check_chapman", {"tol": tol}, ("tol",))
    fnx = density_eval(fN(q), x)
    inner = fCN(z, rho2, q)

    def f(y):
        return fnx * pm_ratio(x, y, rho1, q) * density_eval(inner, y)

    res = integrate(f, q, tol=min(tol * 1e-3, 1e-10))
    expected = density_eval(fCN(z, rho1 * rho2, q), x)
    residual = abs(res.value - expected)
    return VerificationReport(
        "chapman:fcn",
        {"x": x, "z": z, "rho1": rho1, "rho2": rho2, "q": q},
        residual,
        tol,
        residual <= tol,
    )


def check_D_integral(k, n, y, rho, q, tol=1e-8):
    """integral Uhat_n(x|q) P_k(x) fCN dx = Dhat_{k,n} (rho^2;q)_k [k]_q!, where
    Uhat_n(x|q) = (1-q)^{-n/2} U_n(x sqrt(1-q)/2) and Dhat = connect.d_hat_entry."""
    check_degree(k, "index k")
    check_degree(n, "index n")
    check_params("check_D_integral", {"tol": tol}, ("tol",))
    return _d_integral([(k, n)], y, rho, q, tol)[0]


def check_normalization(dens, tol=1e-8):
    passed, residual = densities.normalize_check(dens, tol)
    params = {"tag": dens.tag, "q": dens.q}
    for name in ("y", "rho", "beta"):
        v = getattr(dens, name)
        if v is not None:
            params[name] = v
    return VerificationReport("normalization:" + dens.tag, params, residual, tol, passed)


def _family_density_pairs(q):
    L = support(q).radius
    y = 0.4 * L
    rho = 0.45
    beta = 0.35
    return [
        (QHermite(q), fN(q)),
        (ASC(y, rho, q), fCN(y, rho, q)),
        (Rogers(beta, q), fR(beta, q)),
        (ChebU_hat(q), fU(q)),
        (ChebT_hat(q), fT(q)),
        (KestenHat(y, rho, q), fK(y, rho, q)),
    ]


def _envelope(q, slack):
    """The sampler's constant against the ratio off its grid: 15 points in each
    of its intervals, the midpoints among them."""
    from . import sampler

    n = 16 * (sampler._GRID_N - 1) + 1
    L = support(q).radius
    x = np.linspace(-L, L, n)[np.arange(n) % 16 != 0]
    reports = []
    for dens in (fN(q), fCN(0.3 * L, 0.5, q)):
        M = sampler.envelope_constant(dens)
        sup = float(np.max(densities.density_ratio(dens, fU(q), x)))
        reports.append(VerificationReport("envelope:" + dens.tag, {"q": q, "M": M},
                                          max(sup / M - 1.0, 0.0), slack, sup <= M * (1 + slack)))
    return reports


_Q_GRID = (-0.5, 0.0, 0.3, 0.7)
_NMS = [(n, m) for n in range(7) for m in range(n + 1)]  # degrees up to 6

#: suite -> (default q grid, default tolerance, whether run_all's tol leaves
#: that tolerance alone, the reports at one q and tolerance), in run order
_SUITES = {
    "normalization": (_Q_GRID, 1e-8, False, lambda q, tol: [
        check_normalization(dens, tol) for _, dens in _family_density_pairs(q)]),
    "orthogonality": (_Q_GRID, 1e-8, False, lambda q, tol: [
        r for fam, dens in _family_density_pairs(q) for r in _orthogonality(fam, dens, _NMS, tol)
    ]),
    "projection": (_Q_GRID, 1e-8, False, lambda q, tol: _projection(
        (0, 1, 3, 6), 0.3 * support(q).radius, 0.5, q, tol)),
    "chapman": (_Q_GRID, 1e-6, True, lambda q, tol: [check_chapman(
        0.2 * support(q).radius, -0.35 * support(q).radius, 0.5, 0.4, q, tol)]),
    "d-integral": (_Q_GRID, 1e-8, False, lambda q, tol: _d_integral(
        ((0, 0), (0, 2), (1, 3), (2, 4), (3, 3)), 0.3 * support(q).radius, 0.5, q, tol)),
    "identities": ((0.2, 0.5, 0.8), 1e-10, False,
                   lambda q, tol: expand.identity_suite((q,), tol=tol)),
    "envelope": ((0.3, 0.7), 1e-9, True, _envelope),  # the sampler's slack
}


def run_all(config=None):
    """Run the suites of ``_SUITES``, in its order; returns (reports, all_passed).

    config keys: ``suites`` (default all), ``q_grid`` (the q values of every
    suite; default each suite's own) and ``tol`` (the tolerance of every suite
    but chapman, 1e-6, and envelope, the sampler's 1e-9 slack).  Any other
    key, an unknown suite, suites or q_grid that is not a sequence (None, a
    number or one string) or a tol that is not positive and finite is a
    ParameterError before any check runs.
    """
    cfg = dict(config or {})
    unknown = sorted(set(cfg) - {"suites", "q_grid", "tol"})
    if unknown:
        raise ParameterError("unknown run_all config key %r" % (unknown[0],))
    for key, what in (("suites", "suite names"), ("q_grid", "q values")):
        if key in cfg:
            if isinstance(cfg[key], str) or not isinstance(cfg[key], Iterable):
                raise ParameterError("%s must be a sequence of %s, got %r" % (key, what, cfg[key]))
            cfg[key] = tuple(cfg[key])
    suites = cfg.get("suites", tuple(_SUITES))
    unknown = [name for name in suites if name not in _SUITES]
    if unknown:
        raise ParameterError("unknown suite %r; expected one of %s"
                             % (unknown[0], ", ".join(_SUITES)))
    if "tol" in cfg:
        check_params("run_all", cfg, ("tol",))
    reports = []
    for name, (q_grid, tol, fixed, run) in _SUITES.items():
        if name in suites:
            tol = tol if fixed else cfg.get("tol", tol)
            for q in cfg.get("q_grid", q_grid):
                reports.extend(run(q, tol))
    return reports, all(r.passed for r in reports)
