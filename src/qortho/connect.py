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

The closed forms live in one table, ``_PAIRS``: each pair names the
parameters it needs, a ``rows(Y, *values)`` rule, and optionally the family
of its y-row, the values Y_m = B_m(y) or H_m(y|q) that every row reads.
:func:`connection` builds that y-row once per call and calls ``rows`` once;
the rule builds the q-series factors its entries read, also once per call
(the q-Pascal table of q-binomials, the prefix rows of q-factorials and
q-Pochhammer symbols, see :mod:`qortho.qcore`), and returns ``entries(n)``,
which yields the (k, value) entries of row n.  One row loop then drops the
zero entries.  The single-entry functions (:func:`d_hat_entry`,
:func:`gamma_parts`, ...) take the same table as an optional ``B``, so a
caller looping over k builds it once.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .qcore import (
    IrrationalParameterError,
    ParameterError,
    div,
    ensure_exact,
    is_exact,
    q_binomial_table,
    _factorials,
    _pochhammers,
    _Row,
)
from .polyfam import BigB, QHermite, RationalPoly, eval_all, validate


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


def _require(params, *names):
    out = []
    for name in names:
        if name not in params or params[name] is None:
            raise ParameterError("pair needs parameter %r" % (name,))
        out.append(params[name])
    return out


def _tables(q, y, m, H, B):
    """H_0(y|q)..H_m(y|q) and the q-binomial table at q, unless supplied."""
    if H is None:
        H = eval_all(QHermite(q), m, y)
    if B is None:
        B = q_binomial_table(q)
    return H, B


def d_hat_entry(k, n, y, rho, q, H=None, B=None):
    """Coefficient of P_k in (1-q)^{-n/2} U_n(x sqrt(1-q)/2) over the ASC family.

    H may supply precomputed H_m(y|q) values, m <= n-k, and B the table
    ``qcore.q_binomial_table(q)``.
    """
    if not 0 <= k <= n:
        return 0 * q
    c = div(1, 1 - q)
    H, B = _tables(q, y, n - k, H, B)
    total = 0 * q
    for j in range((n - k) // 2 + 1):
        m = n - k - 2 * j
        term = (
            (-1) ** j
            * c ** j
            * q ** (j * (j + 1) // 2)
            * B(n - j, n - k - j)
            * B(n - k - j, m)
            * rho ** m
            * H[m]
        )
        total = total + term
    return total


def c_hat_entry(k, n, y, rho, q, H=None, B=None):
    """Coefficient of P_k in KestenHat_n over the ASC family; H, B as in d_hat_entry."""
    if not 0 <= k <= n:
        return 0 * q
    if n == 0:
        return 1 + 0 * q
    c = div(1, 1 - q)
    H, B = _tables(q, y, n - k, H, B)
    total = 0 * q
    for j in range((n - k) // 2 + 1):
        m = n - k - 2 * j
        # n-k >= 2j makes n-k + j(j-3)/2 >= j(j+1)/2 >= 0, so plain powers suffice
        expo = n - k + j * (j - 3) // 2
        term = (
            (-1) ** j
            * c ** j
            * q ** expo
            * B(n - 1 - j, m)
            * (B(j + k, k) - rho * rho * q ** k * B(j + k - 1, k))
            * rho ** m
            * H[m]
        )
        total = total + term
    return total


def gamma_parts(k, y, rho, q, H=None, B=None):
    """CN-over-U coefficient gamma_k as (rational, half) with value r (1-q)^{half/2}.

    gamma_k = sum_j (-1)^j q^{j(j+1)/2} [k-j choose k-2j]_q rho^{k-2j}
              (1-q)^{(k-2j)/2} H_{k-2j}(y|q); every term carries the same
    parity in the half-power, so the result is r for even k and
    r sqrt(1-q) for odd k.  H and B are as in :func:`d_hat_entry`.
    """
    H, B = _tables(q, y, k, H, B)
    total = 0 * q
    omq = 1 - q
    for j in range(k // 2 + 1):
        m = k - 2 * j
        term = (
            (-1) ** j
            * q ** (j * (j + 1) // 2)
            * B(k - j, m)
            * rho ** m
            * omq ** (m // 2)
            * H[m]
        )
        total = total + term
    return total, k % 2


def beta_parts(k, y, rho, q, H=None, B=None):
    """CN-over-K coefficient beta_k as (rational, half); beta_0 = 1, beta_1 = 0.

    beta_k = sum_{j>=1} (-1)^j q^{k+j(j-3)/2} [k-1-j choose k-2j]_q rho^{k-2j}
             (1-q)^{(k-2j)/2} H_{k-2j}(y|q)  ( = C_{0,k} / ((1-rho^2) (1-q)^{k/2}) ).
    """
    if k == 0:
        return 1 + 0 * q, 0
    H, B = _tables(q, y, k, H, B)
    total = 0 * q
    omq = 1 - q
    for j in range(1, k // 2 + 1):
        m = k - 2 * j
        expo = k + j * (j - 3) // 2  # >= j(j+1)/2 >= 1 since k >= 2j
        term = (
            (-1) ** j
            * q ** expo
            * B(k - 1 - j, m)
            * rho ** m
            * omq ** (m // 2)
            * H[m]
        )
        total = total + term
    return total, k % 2


def _from_parts(parts, q):
    """The value r (1-q)^{half/2} of a (rational, half) pair: r, or a float."""
    r, half = parts
    return r if half == 0 else float(r) * math.sqrt(1.0 - float(q))


def gamma_coeff(k, y, rho, q, H=None, B=None):
    return _from_parts(gamma_parts(k, y, rho, q, H, B), q)


def beta_coeff(k, y, rho, q, H=None, B=None):
    return _from_parts(beta_parts(k, y, rho, q, H, B), q)


# -- the pair table -----------------------------------------------------------
# Each rows(Y, *values) takes the pair's parameter values in table order and
# the y-row Y (None without one), builds the factors its entries read once, and
# returns entries(n), which yields the (k, value) entries of row n.


def _binomial(Y, y, rho, q=1):
    # [n k]_q rho^{n-k} Y_{n-k}: B_m(y) for asc-from-h, H_m(y) for h-from-asc,
    # and H_m(y|1), the q = 1 case, for mehler
    B = q_binomial_table(q)
    return lambda n: ((k, B(n, k) * rho ** (n - k) * Y[n - k]) for k in range(n + 1))


def _uhat_from_h(Y, q):
    B = q_binomial_table(q)
    c = div(1, 1 - q)

    def entries(n):
        for j in range(n // 2 + 1):
            yield n - 2 * j, (-1) ** j * c ** j * q ** (j * (j + 1) // 2) * B(n - j, j)

    return entries


def _h_from_uhat(Y, q):
    B = q_binomial_table(q)
    c = div(1, 1 - q)

    def entries(n):
        for k in range(n // 2 + 1):
            yield n - 2 * k, (
                q ** k * (B(n, k) - q ** (n - 2 * k + 1) * B(n, k - 1)) * c ** k
            )

    return entries


def _rogers(Y, beta, gamma, q):
    fact = _Row(_factorials(q))  # [i]_q!
    gam = _Row(_pochhammers(gamma, q))  # (gamma;q)_i
    bq = _Row(_pochhammers(beta * q, q))  # (beta q;q)_i

    def entries(n):
        prod = 1 + 0 * q  # prod_{i<k} (beta - gamma q^i)
        for k in range(n // 2 + 1):
            v = fact[n] * prod * gam[n - k] * (1 - beta * q ** (n - 2 * k))
            den = fact[k] * fact[n - 2 * k] * bq[n - k] * (1 - beta)
            yield n - 2 * k, div(v, den)
            prod = prod * (beta - gamma * q ** k)

    return entries


def _from_asc(entry):
    def rows(Y, y, rho, q):
        B = q_binomial_table(q)
        return lambda n: ((k, entry(k, n, y, rho, q, Y, B)) for k in range(n + 1))

    return rows


def _t_from_u(Y):
    half = Fraction(1, 2)

    def entries(n):
        if n < 2:
            return [(n, 1 if n == 0 else half)]
        return [(n, half), (n - 2, -half)]

    return entries


def _u_from_t(Y):
    return lambda n: ((k, 1 if k == 0 else 2) for k in range(n % 2, n + 1, 2))


@dataclass(frozen=True)
class _Pair:
    params: tuple  # required parameter names, in the order rows takes them
    rows: Callable
    y_row: Optional[Callable] = None  # params -> family of the y-row at params["y"]


def _h_row(p):
    return QHermite(p["q"])


_PAIRS = {
    "asc-from-h": _Pair(("y", "rho", "q"), _binomial, lambda p: BigB(p["q"])),
    "h-from-asc": _Pair(("y", "rho", "q"), _binomial, _h_row),
    "uhat-from-h": _Pair(("q",), _uhat_from_h),
    "h-from-uhat": _Pair(("q",), _h_from_uhat),
    "rogers-from-rogers": _Pair(("beta", "gamma", "q"), _rogers),
    "rogers-from-h": _Pair(
        ("gamma", "q"), lambda Y, gamma, q: _rogers(Y, 0 * q, gamma, q)
    ),
    "h-from-rogers": _Pair(
        ("beta", "q"), lambda Y, beta, q: _rogers(Y, beta, 0 * q, q)
    ),
    "uhat-from-asc": _Pair(("y", "rho", "q"), _from_asc(d_hat_entry), _h_row),
    "kesten-from-asc": _Pair(("y", "rho", "q"), _from_asc(c_hat_entry), _h_row),
    "t-from-u": _Pair((), _t_from_u),
    "u-from-t": _Pair((), _u_from_t),
    "mehler": _Pair(("y", "rho"), _binomial, lambda p: QHermite(1)),
}

PAIRS = tuple(_PAIRS)


def connection(pair, n_max, **params):
    """Closed-form connection matrix for one of :data:`PAIRS`."""
    if pair not in _PAIRS:
        raise ParameterError("unknown pair %r; expected one of %s" % (pair, PAIRS))
    spec = _PAIRS[pair]
    values = _require(params, *spec.params)
    Y = None
    if spec.y_row is not None:
        Y = eval_all(spec.y_row(params), n_max, params["y"])
    entries = spec.rows(Y, *values)
    rows = {}
    for n in range(n_max + 1):
        rows[n] = {k: v for k, v in entries(n) if v != 0}
    return ConnectionMatrix(pair, n_max, dict(params), rows)


def oracle_connection(target_fam, source_fam, n_max):
    """Exact connection matrix by triangular elimination on coefficient vectors.

    Both families must admit exact coefficients (rational parameters).  The
    result expresses target_n as a combination of source_0..source_n.
    """
    for fam in (target_fam, source_fam):
        ensure_exact(**validate(fam).params())
    T, S = (eval_all(fam, n_max, RationalPoly.x()) for fam in (target_fam, source_fam))
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
