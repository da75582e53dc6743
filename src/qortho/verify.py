"""Numeric verification layer: quadrature on S(q) and the check registry.

Integrals over S(q) use the substitution x = L cos(theta), which absorbs the
square-root edge behaviour of every density here and leaves an analytic
integrand in theta; Gauss-Legendre in theta then converges spectrally.
Convergence is certified by doubling the rule and comparing (Richardson
difference), with NonConvergenceError past the node cap.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    NonConvergenceError,
    ParameterError,
    VerificationReport,
    q_factorial,
    q_pochhammer,
    support,
)
from . import connect, densities, expand, polyfam
from .densities import density_eval, fCN, fK, fN, fR, fT, fU, pm_ratio
from .polyfam import (
    ASC,
    ChebT_hat,
    ChebU_hat,
    Kesten,
    KestenHat,
    QHermite,
    Rogers,
    eval_all,
)


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    nodes: int


@functools.lru_cache(maxsize=16)
def _rule(n):
    t, w = np.polynomial.legendre.leggauss(n)
    theta = 0.5 * math.pi * (t + 1.0)
    return theta, w * (0.5 * math.pi)


def _once(f, L, n):
    theta, w = _rule(n)
    x = L * np.cos(theta)
    return float(np.sum(w * f(x) * L * np.sin(theta)))


def integrate(f, q, tol=1e-10, n0=128, n_cap=1024):
    """integral of f over S(q); f must accept a numpy array of nodes."""
    L = support(q).radius
    prev = _once(f, L, n0)
    n = n0
    while n < n_cap:
        n *= 2
        val = _once(f, L, n)
        err = abs(val - prev)
        if err <= tol:
            return IntegralResult(val, err, n)
        prev = val
    raise NonConvergenceError(
        "quadrature did not reach tol=%g within %d nodes" % (tol, n_cap)
    )


def _norm(fam, dens, n):
    """Closed-form squared norm of fam_n under dens; validates the pairing."""
    pair = (fam.tag, dens.tag)
    if pair == ("qhermite", "fn"):
        if fam.q != dens.q:
            raise ParameterError("family and density q differ")
        return float(q_factorial(n, dens.q))
    if pair == ("asc", "fcn"):
        if (fam.q, fam.y, fam.rho) != (dens.q, dens.y, dens.rho):
            raise ParameterError("ASC/fCN parameter mismatch")
        r, q = dens.rho, dens.q
        return float(q_pochhammer(r * r, q, n) * q_factorial(n, q))
    if pair == ("rogers", "fr"):
        if (fam.q, fam.beta) != (dens.q, dens.beta):
            raise ParameterError("Rogers/fR parameter mismatch")
        b, q = dens.beta, dens.q
        return float(
            (1 - b) * q_pochhammer(b * b, q, n) * q_factorial(n, q) / (1 - b * q ** n)
        )
    if pair == ("chebu_hat", "fu"):
        if fam.q != dens.q:
            raise ParameterError("family and density q differ")
        return (1.0 - dens.q) ** (-n)
    if pair == ("chebt_hat", "ft"):
        if fam.q != dens.q:
            raise ParameterError("family and density q differ")
        if n == 0:
            return 1.0
        return 0.5 * (1.0 - dens.q) ** (-n)
    if pair == ("kesten_hat", "fk"):
        if (fam.q, fam.y, fam.rho) != (dens.q, dens.y, dens.rho):
            raise ParameterError("Kesten/fK parameter mismatch")
        if n == 0:
            return 1.0
        return (1.0 - dens.rho ** 2) * (1.0 - dens.q) ** (-n)
    raise ParameterError("no closed-form norm for pair %r" % (pair,))


@functools.lru_cache(maxsize=64)
def _gram(fam, dens, n_max, n0=256):
    """Gram matrix of fam_0..fam_{n_max} under dens, with a doubling error estimate."""

    def one(n_nodes):
        theta, w = _rule(n_nodes)
        L = support(dens.q).radius
        x = L * np.cos(theta)
        weight = w * density_eval(dens, x) * L * np.sin(theta)
        V = np.vstack(eval_all(fam, n_max, x))
        return (V * weight) @ V.T

    g1 = one(n0)
    g2 = one(2 * n0)
    return g2, float(np.max(np.abs(g2 - g1)))


def check_orthogonality(fam, dens, n, m, tol=1e-8):
    """Compare the (n, m) inner product against the closed-form norm."""
    G, quad_err = _gram(fam, dens, max(n, m))
    expected = _norm(fam, dens, n) if n == m else 0.0
    residual = abs(float(G[n, m]) - expected)
    return VerificationReport(
        "orthogonality:%s/%s" % (fam.tag, dens.tag),
        {"n": n, "m": m, "q": dens.q, "quad_err": quad_err},
        residual,
        tol,
        residual <= tol and quad_err <= tol,
    )


def check_projection(n, y, rho, q, tol=1e-8):
    """integral of H_n(x|q) fCN(x|y,rho,q) dx = rho^n H_n(y|q)."""
    dens = fCN(y, rho, q)

    def f(x):
        return eval_all(QHermite(q), n, x)[n] * density_eval(dens, x)

    res = integrate(f, q, tol=min(tol * 1e-2, 1e-9))
    expected = rho ** n * float(polyfam.eval(QHermite(q), n, y))
    residual = abs(res.value - expected)
    return VerificationReport(
        "projection:h/fcn",
        {"n": n, "y": y, "rho": rho, "q": q},
        residual,
        tol,
        residual <= tol,
    )


def check_chapman(x, z, rho1, rho2, q, tol=1e-6):
    """integral fCN(x|y,rho1) fCN(y|z,rho2) dy = fCN(x|z, rho1 rho2)."""
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
    """integral U_n(x sqrt(1-q)/2) P_k(x) fCN dx = D_{k,n} (rho^2;q)_k [k]_q!."""
    dens = fCN(y, rho, q)
    s = math.sqrt(1.0 - q)

    def f(x):
        u = eval_all(polyfam.ChebU(), n, x * s / 2.0)[n]
        p = eval_all(ASC(y, rho, q), k, x)[k]
        return u * p * density_eval(dens, x)

    res = integrate(f, q, tol=min(tol * 1e-2, 1e-9))
    d_hat = float(connect.d_hat_entry(k, n, y, rho, q))
    expected = (
        d_hat
        * (1.0 - q) ** (n / 2.0)
        * float(q_pochhammer(rho * rho, q, k) * q_factorial(k, q))
    )
    residual = abs(res.value - expected)
    return VerificationReport(
        "d-integral:u/asc",
        {"k": k, "n": n, "y": y, "rho": rho, "q": q},
        residual,
        tol,
        residual <= tol,
    )


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
    """Run the default verification battery; returns (reports, all_passed)."""
    cfg = dict(DEFAULT_CONFIG)
    if config:
        cfg.update(config)
    suites = cfg["suites"]
    tol = cfg["tol"]
    reports = []

    if "normalization" in suites:
        for q in cfg["q_grid"]:
            L = support(q).radius
            for dens in (
                fN(q),
                fCN(0.4 * L, 0.45, q),
                fR(0.35, q),
                fU(q),
                fT(q),
                fK(0.4 * L, 0.45, q),
            ):
                reports.append(check_normalization(dens, tol))

    if "orthogonality" in suites:
        for q in cfg["q_grid"]:
            for fam, dens in _family_density_pairs(q):
                for n in range(cfg["n_max"] + 1):
                    for m in range(n + 1):
                        reports.append(check_orthogonality(fam, dens, n, m, tol))

    if "projection" in suites:
        for q in cfg["q_grid"]:
            L = support(q).radius
            for n in (0, 1, 3, 6):
                reports.append(check_projection(n, 0.3 * L, 0.5, q, tol))

    if "chapman" in suites:
        for q in cfg["q_grid"]:
            L = support(q).radius
            reports.append(
                check_chapman(0.2 * L, -0.35 * L, 0.5, 0.4, q, cfg["tol_chapman"])
            )

    if "d-integral" in suites:
        for q in cfg["q_grid"]:
            L = support(q).radius
            for k, n in ((0, 0), (0, 2), (1, 3), (2, 4), (3, 3)):
                reports.append(check_D_integral(k, n, 0.3 * L, 0.5, q, tol))

    if "identities" in suites:
        reports.extend(expand.identity_suite(
            cfg["identity_q_grid"], cfg["rho_grid"], cfg["tol_identity"]
        ))

    if "envelope" in suites:
        from . import sampler

        for q in (0.3, 0.7):
            L = support(q).radius
            for dens in (fN(q), fCN(0.3 * L, 0.5, q)):
                M = sampler.envelope_constant(dens)
                xg = np.linspace(-L, L, 2001)
                r = densities.density_ratio(dens, fU(q), xg)
                residual = float(np.max(r / M) - 1.0)
                reports.append(
                    VerificationReport(
                        "envelope:" + dens.tag,
                        {"q": q, "M": M},
                        max(residual, 0.0),
                        1e-9,
                        bool(np.all(r <= M * (1 + 1e-9))),
                    )
                )

    return reports, all(r.passed for r in reports)


def reports_to_csv(reports):
    lines = ["check_id,params,residual,tolerance,pass"]
    for r in reports:
        params = json.dumps(r.params, sort_keys=True)
        lines.append(
            '%s,"%s",%r,%r,%s'
            % (r.check_id, params.replace('"', '""'), r.residual, r.tolerance,
               "true" if r.passed else "false")
        )
    return "\n".join(lines)
