"""Connection coefficients between the polynomial families.

A connection matrix stores gamma[n][k] with target_n(x) = sum_k gamma[n][k]
source_k(x).  Closed forms are available for the pairs listed in
:data:`PAIRS`; :func:`oracle_connection` computes the same matrices
independently by exact triangular elimination on coefficient vectors, and
:func:`ratio_connection` runs the moment-based construction for measures with
polynomial density ratio.

All closed forms are rational in the parameters, so matrices built from
int/Fraction inputs are exact.  The Kesten target is the rescaled family
``KestenHat`` (k_n at sqrt(1-q)-scaled arguments, divided by (1-q)^{n/2}),
which keeps every entry rational; multiply row n by (1-q)^{n/2} to recover
the unscaled coefficients.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .qcore import (
    IrrationalParameterError,
    ParameterError,
    div,
    is_exact,
    q_binomial,
    q_factorial,
    q_pochhammer,
)
from .polyfam import BigB, QHermite, coeffs, eval_all


PAIRS = (
    "asc-from-h",
    "h-from-asc",
    "uhat-from-h",
    "h-from-uhat",
    "rogers-from-rogers",
    "rogers-from-h",
    "h-from-rogers",
    "uhat-from-asc",
    "kesten-from-asc",
    "t-from-u",
    "u-from-t",
    "mehler",
)


@dataclass(frozen=True)
class ConnectionMatrix:
    pair: str
    n_max: int
    params: dict
    rows: dict  # {n: {k: coefficient}}, zero entries omitted

    def coeff(self, n, k):
        return self.rows.get(n, {}).get(k, 0)

    def band(self):
        width = 0
        for n, row in self.rows.items():
            for k, v in row.items():
                if v != 0:
                    width = max(width, n - k)
        return width

    def to_csv(self):
        """Exact CSV rows ``n,k,numerator,denominator``; requires rational entries."""
        lines = []
        for n in sorted(self.rows):
            for k in sorted(self.rows[n]):
                v = self.rows[n][k]
                if not is_exact(v):
                    raise IrrationalParameterError(
                        "to_csv needs rational entries, found %r at (%d, %d)"
                        % (v, n, k)
                    )
                f = Fraction(v)
                lines.append("%d,%d,%d,%d" % (n, k, f.numerator, f.denominator))
        return "\n".join(lines)


def _require(params, *names):
    out = []
    for name in names:
        if name not in params or params[name] is None:
            raise ParameterError("pair needs parameter %r" % (name,))
        out.append(params[name])
    return out


def connection(pair, n_max, **params):
    """Closed-form connection matrix for one of :data:`PAIRS`."""
    if pair not in PAIRS:
        raise ParameterError("unknown pair %r; expected one of %s" % (pair, PAIRS))
    rows = {}
    if pair in ("asc-from-h", "h-from-asc", "mehler"):
        if pair == "mehler":
            y, rho = _require(params, "y", "rho")
            q = 1
        else:
            y, rho, q = _require(params, "y", "rho", "q")
        B = eval_all(BigB(q), n_max, y) if pair == "asc-from-h" else None
        H = eval_all(QHermite(q), n_max, y) if pair != "asc-from-h" else None
        for n in range(n_max + 1):
            row = {}
            for k in range(n + 1):
                binom = q_binomial(n, k, q)
                cross = B[n - k] if B is not None else H[n - k]
                v = binom * rho ** (n - k) * cross
                if v != 0:
                    row[k] = v
            rows[n] = row
    elif pair == "uhat-from-h":
        (q,) = _require(params, "q")
        c = div(1, 1 - q)
        for n in range(n_max + 1):
            row = {}
            for j in range(n // 2 + 1):
                v = (-1) ** j * c ** j * q ** (j * (j + 1) // 2) * q_binomial(n - j, j, q)
                if v != 0:
                    row[n - 2 * j] = v
            rows[n] = row
    elif pair == "h-from-uhat":
        (q,) = _require(params, "q")
        c = div(1, 1 - q)
        for n in range(n_max + 1):
            row = {}
            for k in range(n // 2 + 1):
                v = (
                    q ** k
                    * (q_binomial(n, k, q) - q ** (n - 2 * k + 1) * q_binomial(n, k - 1, q))
                    * c ** k
                )
                if v != 0:
                    row[n - 2 * k] = v
            rows[n] = row
    elif pair in ("rogers-from-rogers", "rogers-from-h", "h-from-rogers"):
        if pair == "rogers-from-rogers":
            beta, gamma, q = _require(params, "beta", "gamma", "q")
        elif pair == "rogers-from-h":
            gamma, q = _require(params, "gamma", "q")
            beta = 0 * q
        else:
            beta, q = _require(params, "beta", "q")
            gamma = 0 * q
        for n in range(n_max + 1):
            row = {}
            nfact = q_factorial(n, q)
            for k in range(n // 2 + 1):
                prod = 1 + 0 * q
                for i in range(k):
                    prod = prod * (beta - gamma * q ** i)
                v = (
                    nfact
                    * prod
                    * q_pochhammer(gamma, q, n - k)
                    * (1 - beta * q ** (n - 2 * k))
                )
                den = (
                    q_factorial(k, q)
                    * q_factorial(n - 2 * k, q)
                    * q_pochhammer(beta * q, q, n - k)
                    * (1 - beta)
                )
                v = div(v, den)
                if v != 0:
                    row[n - 2 * k] = v
            rows[n] = row
    elif pair == "uhat-from-asc":
        y, rho, q = _require(params, "y", "rho", "q")
        for n in range(n_max + 1):
            for k in range(n + 1):
                v = d_hat_entry(k, n, y, rho, q)
                if v != 0:
                    rows.setdefault(n, {})[k] = v
            rows.setdefault(n, {})
    elif pair == "kesten-from-asc":
        y, rho, q = _require(params, "y", "rho", "q")
        for n in range(n_max + 1):
            for k in range(n + 1):
                v = c_hat_entry(k, n, y, rho, q)
                if v != 0:
                    rows.setdefault(n, {})[k] = v
            rows.setdefault(n, {})
    elif pair == "t-from-u":
        half = Fraction(1, 2)
        rows[0] = {0: 1}
        if n_max >= 1:
            rows[1] = {1: half}
        for n in range(2, n_max + 1):
            rows[n] = {n: half, n - 2: -half}
    elif pair == "u-from-t":
        for n in range(n_max + 1):
            row = {}
            for k in range(n % 2, n + 1, 2):
                row[k] = 1 if k == 0 else 2
            rows[n] = row
    return ConnectionMatrix(pair, n_max, dict(params), rows)


def d_hat_entry(k, n, y, rho, q):
    """Coefficient of P_k in (1-q)^{-n/2} U_n(x sqrt(1-q)/2) over the ASC family."""
    if not 0 <= k <= n:
        return 0 * q
    c = div(1, 1 - q)
    H = eval_all(QHermite(q), n - k, y)
    total = 0 * q
    j = 0
    while n - k - 2 * j >= 0:
        m = n - k - 2 * j
        term = (
            (-1) ** j
            * c ** j
            * q ** (j * (j + 1) // 2)
            * q_binomial(n - j, n - k - j, q)
            * q_binomial(n - k - j, m, q)
            * rho ** m
            * H[m]
        )
        total = total + term
        j += 1
    return total


def c_hat_entry(k, n, y, rho, q):
    """Coefficient of P_k in KestenHat_n over the ASC family."""
    if not 0 <= k <= n:
        return 0 * q
    if n == 0:
        return 1 + 0 * q
    c = div(1, 1 - q)
    H = eval_all(QHermite(q), n - k, y)
    total = 0 * q
    j = 0
    while n - k - 2 * j >= 0:
        m = n - k - 2 * j
        # n-k >= 2j makes n-k + j(j-3)/2 >= j(j+1)/2 >= 0, so plain powers suffice
        expo = n - k + j * (j - 3) // 2
        term = (
            (-1) ** j
            * c ** j
            * q ** expo
            * q_binomial(n - 1 - j, m, q)
            * (
                q_binomial(j + k, k, q)
                - rho * rho * q ** k * q_binomial(j + k - 1, k, q)
            )
            * rho ** m
            * H[m]
        )
        total = total + term
        j += 1
    return total


def gamma_parts(k, y, rho, q, H=None):
    """CN-over-U coefficient gamma_k as (rational, half) with value r (1-q)^{half/2}.

    gamma_k = sum_j (-1)^j q^{j(j+1)/2} [k-j choose k-2j]_q rho^{k-2j}
              (1-q)^{(k-2j)/2} H_{k-2j}(y|q); every term carries the same
    parity in the half-power, so the result is r for even k and
    r sqrt(1-q) for odd k.  H may supply precomputed H_m(y|q) values.
    """
    if H is None:
        H = eval_all(QHermite(q), k, y)
    total = 0 * q
    omq = 1 - q
    for j in range(k // 2 + 1):
        m = k - 2 * j
        term = (
            (-1) ** j
            * q ** (j * (j + 1) // 2)
            * q_binomial(k - j, m, q)
            * rho ** m
            * omq ** (m // 2)
            * H[m]
        )
        total = total + term
    return total, k % 2


def beta_parts(k, y, rho, q, H=None):
    """CN-over-K coefficient beta_k as (rational, half); beta_0 = 1, beta_1 = 0.

    beta_k = sum_{j>=1} (-1)^j q^{k+j(j-3)/2} [k-1-j choose k-2j]_q rho^{k-2j}
             (1-q)^{(k-2j)/2} H_{k-2j}(y|q)  ( = C_{0,k} / ((1-rho^2) (1-q)^{k/2}) ).
    """
    if k == 0:
        return 1 + 0 * q, 0
    if H is None:
        H = eval_all(QHermite(q), k, y)
    total = 0 * q
    omq = 1 - q
    for j in range(1, k // 2 + 1):
        m = k - 2 * j
        expo = k + j * (j - 3) // 2  # >= j(j+1)/2 >= 1 since k >= 2j
        term = (
            (-1) ** j
            * q ** expo
            * q_binomial(k - 1 - j, m, q)
            * rho ** m
            * omq ** (m // 2)
            * H[m]
        )
        total = total + term
    return total, k % 2


def gamma_coeff(k, y, rho, q, H=None):
    r, half = gamma_parts(k, y, rho, q, H)
    if half == 0:
        return r
    return float(r) * math.sqrt(1.0 - float(q))


def beta_coeff(k, y, rho, q, H=None):
    r, half = beta_parts(k, y, rho, q, H)
    if half == 0:
        return r
    return float(r) * math.sqrt(1.0 - float(q))


def oracle_connection(target_fam, source_fam, n_max):
    """Exact connection matrix by triangular elimination on coefficient vectors.

    Both families must admit exact coefficients (rational parameters).  The
    result expresses target_n as a combination of source_0..source_n.
    """
    T = [coeffs(target_fam, n) for n in range(n_max + 1)]
    S = [coeffs(source_fam, n) for n in range(n_max + 1)]
    for k, s in enumerate(S):
        if s.degree != k:
            raise ParameterError(
                "source family degenerates at degree %d; cannot invert" % (k,)
            )
    rows = {}
    for n in range(n_max + 1):
        residual = list(T[n].coeffs) + [Fraction(0)] * (n + 1 - len(T[n].coeffs))
        row = {}
        for k in range(n, -1, -1):
            g = residual[k] / S[k].lead()
            if g:
                row[k] = g
                for i, c in enumerate(S[k].coeffs):
                    residual[i] -= g * c
        if any(residual):
            raise ParameterError("triangular elimination failed; bad family pair")
        rows[n] = row
    return ConnectionMatrix(
        "oracle:%s<-%s" % (target_fam.label(), source_fam.label()),
        n_max,
        {},
        rows,
    )


@dataclass(frozen=True)
class RatioConnection:
    """Moment-based connection for measures A, B with polynomial density ratio.

    Input w maps i -> integral of a_i dB, where (a_i) is the monic
    A-orthogonal family; w must be finitely supported with w_0 = 1.  Then with
    f the formal reciprocal of w (f_0 = 1, f_n = -sum_{i>=1} w_i f_{n-i}) the
    polynomials phi_n = sum_i f_{n-i} a_i are the monic B-orthogonal family,
    and a_n = sum_i w_{n-i} phi_i reconstructs the a's with bandwidth
    max(support of w).
    """

    w: dict
    n_max: int
    f: tuple

    def phi_row(self, n):
        """Coefficients of phi_n over the monic source family a_0..a_n."""
        return {i: self.f[n - i] for i in range(n + 1) if self.f[n - i] != 0}

    def reconstruction_row(self, n):
        """Coefficients expressing a_n over phi_0..phi_n (banded by max support of w)."""
        return {
            i: self.w.get(n - i, Fraction(0))
            for i in range(n + 1)
            if self.w.get(n - i, 0) != 0
        }

    def band(self):
        return max((i for i, v in self.w.items() if v != 0), default=0)


def ratio_connection(w, n_max):
    if not w or w.get(0) != 1:
        raise ParameterError("moment mapping must satisfy w_0 = 1")
    clean = {}
    for i, v in w.items():
        if i < 0:
            raise ParameterError("moment indices must be >= 0, got %r" % (i,))
        if not is_exact(v):
            raise IrrationalParameterError(
                "ratio_connection is exact-only; got %r at index %d" % (v, i)
            )
        if v != 0:
            clean[i] = Fraction(v)
    N = max(clean)
    f = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for i in range(1, min(n, N) + 1):
            acc += clean.get(i, Fraction(0)) * f[n - i]
        f.append(-acc)
    return RatioConnection(clean, n_max, tuple(f))
