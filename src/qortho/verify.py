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
"""

import math
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


DEFAULT_CONFIG = {
    "q_grid": (-0.5, 0.0, 0.3, 0.7),
    "n_max": 6,
    "tol": 1e-8,
    "tol_chapman": 1e-6,
    "tol_identity": 1e-10,
    "identity_q_grid": (0.2, 0.5, 0.8),
    "envelope_q_grid": (0.3, 0.7),
    "rho_grid": (0.3, 0.6),
    "suites": ("normalization", "orthogonality", "projection", "chapman",
               "d-integral", "identities", "envelope"),
}


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


def run_all(config=None):
    """Run the default verification battery; returns (reports, all_passed).

    An unknown config key or suite name, suites given as one string, an n_max
    that is not an integer >= 0, or a tolerance that is not positive and
    finite, is a ParameterError.
    """
    cfg = dict(DEFAULT_CONFIG)
    if config:
        cfg.update(config)
    unknown = sorted(set(cfg) - set(DEFAULT_CONFIG))
    if unknown:
        raise ParameterError("unknown run_all config key %r" % (unknown[0],))
    suites = cfg["suites"]
    if isinstance(suites, str):
        raise ParameterError("suites must be a sequence of suite names, got %r" % (suites,))
    unknown = [name for name in suites if name not in DEFAULT_CONFIG["suites"]]
    if unknown:
        raise ParameterError("unknown suite %r; expected one of %s"
                             % (unknown[0], ", ".join(DEFAULT_CONFIG["suites"])))
    check_params("run_all", cfg, ("tol", "tol_chapman", "tol_identity"))
    check_degree(cfg["n_max"])
    tol = cfg["tol"]
    reports = []

    if "normalization" in suites:
        for q in cfg["q_grid"]:
            for _, dens in _family_density_pairs(q):
                reports.append(check_normalization(dens, tol))

    if "orthogonality" in suites:
        nms = [(n, m) for n in range(cfg["n_max"] + 1) for m in range(n + 1)]
        for q in cfg["q_grid"]:
            for fam, dens in _family_density_pairs(q):
                reports.extend(_orthogonality(fam, dens, nms, tol))

    if "projection" in suites:
        for q in cfg["q_grid"]:
            reports.extend(_projection((0, 1, 3, 6), 0.3 * support(q).radius, 0.5, q, tol))

    if "chapman" in suites:
        for q in cfg["q_grid"]:
            L = support(q).radius
            reports.append(
                check_chapman(0.2 * L, -0.35 * L, 0.5, 0.4, q, cfg["tol_chapman"])
            )

    if "d-integral" in suites:
        for q in cfg["q_grid"]:
            reports.extend(_d_integral(((0, 0), (0, 2), (1, 3), (2, 4), (3, 3)),
                                       0.3 * support(q).radius, 0.5, q, tol))

    if "identities" in suites:
        reports.extend(expand.identity_suite(
            cfg["identity_q_grid"], cfg["rho_grid"], cfg["tol_identity"]
        ))

    if "envelope" in suites:
        from . import sampler

        # the sampler's constant against the ratio off its grid: 15 points in
        # each of its intervals, the midpoints among them
        n = 16 * (sampler._GRID_N - 1) + 1
        off = np.arange(n) % 16 != 0
        for q in cfg["envelope_q_grid"]:
            L = support(q).radius
            for dens in (fN(q), fCN(0.3 * L, 0.5, q)):
                M = sampler.envelope_constant(dens)
                sup = float(np.max(densities.density_ratio(
                    dens, fU(q), np.linspace(-L, L, n)[off])))
                reports.append(
                    VerificationReport(
                        "envelope:" + dens.tag,
                        {"q": q, "M": M},
                        max(sup / M - 1.0, 0.0),
                        1e-9,
                        sup <= M * (1 + 1e-9),
                    )
                )

    return reports, all(r.passed for r in reports)
