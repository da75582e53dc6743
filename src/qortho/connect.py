"""Connection coefficients between the polynomial families.

A connection matrix stores gamma[n][k] with target_n(x) = sum_k gamma[n][k]
source_k(x).  Closed forms are available for the pairs listed in
:data:`PAIRS`; :func:`oracle_connection` computes the same matrices
independently from the two families' three-term recurrences alone, and
:func:`ratio_connection` runs the moment-based construction for measures with
polynomial density ratio.

All closed forms are rational in the parameters, so matrices built from
int/Fraction inputs are exact.  The Kesten target is the rescaled family
``KestenHat`` (k_n at sqrt(1-q)-scaled arguments, divided by (1-q)^{n/2}),
which keeps every entry rational; multiply row n by (1-q)^{n/2} to recover
the unscaled coefficients.

The closed forms live in one table, ``_PAIRS``.  Its ``qcore.Alias`` ids run
as a general pair at fixed values, whatever the caller passes for them:
``rogers-from-h`` and ``h-from-rogers`` are ``rogers-from-rogers`` at beta = 0
and gamma = 0, ``mehler`` is ``h-from-asc`` at q = 1.  The matrix keeps the
caller's id and parameters.  Every other pair names the parameters it needs,
which :func:`connection` checks with ``qcore.check_params`` (q = 1 only where
both families allow it, so it refuses what the oracle's ``polyfam.validate``
refuses), and a ``rows(*values)`` rule, which :func:`connection` calls once.
The rule builds the factors its entries read, also once per call (the
q-Pascal table, the prefix rows of :mod:`qortho.qcore`, the lazy y-row
B_m(y) or H_m(y|q) of ``asc-from-h`` and ``h-from-asc``), and returns
``entries(n)``, which yields the (k, value) entries of row n.  One row loop
then drops the zero entries; a float entry that overflows (or a float power
past the float range) ends it with the pair and row named.

The ASC pairs ``uhat-from-asc`` and ``kesten-from-asc`` are one scaled sum
each, (1-q)^{(n-k)/2} times the entry as a (rational, half) pair.  One rule,
``_asc_rule(y, rho, q)``, gives both sums and is the one place that builds
the H_m(y|q) row and the q-binomial table they read; each reader builds it
once per call.  Column 0 is the paper's density-ratio rule c_n ||a_n||^2 =
gamma_{n,0}: ``_gamma_rule`` (fCN/fU, ``expand``'s cn_over_u) is column 0 of
``uhat-from-asc``, and ``_beta_rule`` (fCN/fK, cn_over_k) column 0 of
``kesten-from-asc`` over the Kesten norm's factor 1 - rho^2.
:func:`d_hat_entry`, :func:`c_hat_entry`, :func:`gamma_coeff` and
:func:`beta_coeff` read one value each, their arguments checked by name.
A float consumer that sums the gamma_n reads them instead from
``_gamma_terms``, which computes them in numpy (imported only there), a row of
doubling length at a time: the sampler's envelope and identity i7.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from .qcore import (
    Alias,
    IrrationalParameterError,
    NonConvergenceError,
    ParameterError,
    TruncationError,
    check_degree,
    div,
    ensure_exact,
    is_exact,
    q_binomial_table,
    _factorials,
    _pochhammers,
    _Row,
    check_params,
    resolve,
)
from .polyfam import BigB, QHermite, _abc, _coordinates, _recurrence, validate


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


def _gamma_terms(y, rho, q, cap):
    """gamma_0, gamma_1, ... (:func:`gamma_coeff`) as floats, in rows of 32, 32,
    64, 128, ... indices; asking for gamma_{cap+1} raises TruncationError.

    gamma_n = sum_j a_j (q;q)_{n-j} rho^{n-2j} h_{n-2j} / (q;q)_{n-2j} with
    a_j = (-1)^j q^{j(j+1)/2} / (q;q)_j, one vector operation over the row's n
    per j while a_j is not 0.0; h_m = (1-q)^{m/2} H_m(y|q) is run by its own
    recurrence h_{m+1} = sqrt(1-q) y h_m - (1-q^m) h_{m-1}, which stays in the
    float range wherever y lies in S(q).  Each gamma_n is accurate relative to
    the largest of its summands, not to itself.
    """
    import numpy as np

    y, rho, q = float(y), float(rho), float(q)
    sy = math.sqrt(1.0 - q) * y
    h, qq = [1.0, sy], [1.0]  # h_m and (q;q)_m
    lo, hi = 0, 31
    while lo <= cap:
        hi = min(hi, cap)
        for m in range(len(h) - 1, hi):
            h.append(sy * h[m] - (1.0 - q ** m) * h[m - 1])
        for m in range(len(qq), hi + 1):
            qq.append(qq[m - 1] * (1.0 - q ** m))
        qa = np.array(qq)
        j = np.arange(hi // 2 + 1)
        a = (-1.0) ** j * q ** (j * (j + 1) // 2) / qa[j]  # 0.0 from its first 0.0 on
        mterm = rho ** np.arange(hi + 1.0) * np.array(h[:hi + 1]) / qa
        row = np.zeros(hi + 1 - lo)
        for j in range(np.count_nonzero(a)):
            s = max(lo, 2 * j)  # the row's first n with n - 2j >= 0
            row[s - lo:] += a[j] * qa[s - j:hi + 1 - j] * mterm[s - 2 * j:hi + 1 - 2 * j]
        yield from row.tolist()
        lo, hi = hi + 1, 2 * hi + 1
    raise TruncationError("gamma row did not settle within %d terms" % (cap + 1))


def _asc_rule(y, rho, q):
    """The two scaled ASC sums at (y, rho, q) as (d, c), each (rational, half):
    d(k, n) = (1-q)^{(n-k)/2} D_{k,n}, D the uhat-from-asc entry, and
    c(k, n) = (1-q)^{(n-k)/2} C_{k,n}, C the kesten-from-asc entry, n >= 1.
    Both read one lazy H_m(y|q) row and one q-binomial table, built here."""
    H = _Row(_recurrence(QHermite(q), y))
    B = q_binomial_table(q)
    omq = 1 - q

    def scaled(k, n, coeff, first=0):
        # sum over j >= first and m = n-k-2j >= 0 of coeff(j, m) rho^m (1-q)^{m/2}
        # H_m(y|q): every term has the half-power parity of n-k, so the value is
        # r for even n-k and r sqrt(1-q) for odd
        total = 0 * q
        for j in range(first, (n - k) // 2 + 1):
            m = n - k - 2 * j
            total = total + coeff(j, m) * rho ** m * omq ** (m // 2) * H[m]
        return total, (n - k) % 2

    def d(k, n):
        return scaled(k, n, lambda j, m: (
            (-1) ** j * q ** (j * (j + 1) // 2) * B(n - j, n - k - j) * B(n - k - j, m)))

    def c(k, n):
        # In column 0 the j = 0 term has the factor [n-1 choose n]_q = 0; it is
        # left out, so that an H_n(y|q) past the float range does not make it 0 * inf.
        r2qk = rho * rho * q ** k
        # n-k >= 2j makes n-k + j(j-3)/2 >= j(j+1)/2 >= 0, so plain powers suffice
        return scaled(k, n, lambda j, m: (
            (-1) ** j * q ** (n - k + j * (j - 3) // 2) * B(n - 1 - j, m)
            * (B(j + k, k) - r2qk * B(j + k - 1, k))), first=1 if k == 0 else 0)

    return d, c


def _hat_rule(i, y, rho, q):
    """entry(k, n) of uhat-from-asc (i = 0) or kesten-from-asc (i = 1): the
    scaled sum over (1-q)^{(n-k)//2}, inf once that float power underflows to
    0 (large n-k, q near 1); 0 off the triangle, and C_{0,0} = D_{0,0} = 1,
    read from the d sum so that both have one type."""
    d, c = _asc_rule(y, rho, q)

    def entry(k, n):
        if k > n:
            return 0 * q
        r, _ = (c if i and n else d)(k, n)
        den = (1 - q) ** ((n - k) // 2)
        return div(r, den) if den else math.inf

    return entry


def _hat_rows(i, y, rho, q):
    # the rows rule of uhat-from-asc (i = 0) or kesten-from-asc (i = 1)
    entry = _hat_rule(i, y, rho, q)
    return lambda n: ((k, entry(k, n)) for k in range(n + 1))


def _from_parts(parts, q):
    """The value r (1-q)^{half/2} of a (rational, half) pair: exact when r and q
    are and 1-q = s^2 for a rational s (q = 0, 3/4, 5/9, ...), else a float."""
    r, half = parts
    if half == 0:
        return r
    if is_exact(r, q):
        omq = Fraction(1 - q)
        s = Fraction(math.isqrt(omq.numerator), math.isqrt(omq.denominator))
        if s * s == omq:
            return r * s
    return float(r) * math.sqrt(1.0 - float(q))


def _gamma_rule(y, rho, q):
    """gamma(k), the :func:`gamma_coeff` rule with its arguments unchecked."""
    d = _asc_rule(y, rho, q)[0]
    return lambda k: _from_parts(d(0, k), q)


def _beta_rule(y, rho, q):
    """beta(k), the :func:`beta_coeff` rule with its arguments unchecked;
    beta_0 = gamma_0 = 1, read from the d sum so that both have one type."""
    d, c = _asc_rule(y, rho, q)

    def beta(k):
        if k == 0:
            return _from_parts(d(0, 0), q)
        r, half = c(0, k)
        return _from_parts((div(r, 1 - rho * rho), half), q)

    return beta


def _checked(name, rule, y, rho, q, **index):
    """rule(y, rho, q)(*index) once each index passes ``check_degree`` under its
    name and y, rho, q pass ``check_params``, q in (-1, 1) as for the ASC
    pairs; a float value past the float range is a NonConvergenceError."""
    for key, v in index.items():
        check_degree(v, key)
    check_params(name, {"y": y, "rho": rho, "q": q}, ("y", "rho", "q"))
    try:
        v = rule(y, rho, q)(*index.values())
        if not isinstance(v, float) or math.isfinite(v):
            return v
    except OverflowError:  # an exact sum too large for float()
        pass
    raise NonConvergenceError("%s(%s) overflowed" % (name, ", ".join(map(str, index.values()))))


def d_hat_entry(k, n, y, rho, q):
    """Coefficient of P_k in (1-q)^{-n/2} U_n(x sqrt(1-q)/2) over the ASC family."""
    return _checked("d_hat_entry", partial(_hat_rule, 0), y, rho, q, k=k, n=n)


def c_hat_entry(k, n, y, rho, q):
    """Coefficient of P_k in KestenHat_n over the ASC family."""
    return _checked("c_hat_entry", partial(_hat_rule, 1), y, rho, q, k=k, n=n)


def gamma_coeff(k, y, rho, q):
    """CN-over-U coefficient gamma_k = (1-q)^{k/2} D_{0,k}: column 0 of uhat-from-asc."""
    return _checked("gamma_coeff", _gamma_rule, y, rho, q, k=k)


def beta_coeff(k, y, rho, q):
    """CN-over-K coefficient beta_k = (1-q)^{k/2} C_{0,k} / (1-rho^2) for k >= 1,
    column 0 of kesten-from-asc over the Kesten norm's factor; beta_0 = 1."""
    return _checked("beta_coeff", _beta_rule, y, rho, q, k=k)


# -- the pair table -----------------------------------------------------------
# Each rows(*values) takes the pair's parameter values in table order, builds
# the factors its entries read once, and returns entries(n), which yields the
# (k, value) entries of row n.


def _binomial(family):
    # [n k]_q rho^{n-k} Y_{n-k}: Y_m = B_m(y) for asc-from-h, H_m(y|q) for h-from-asc
    def rows(y, rho, q):
        B = q_binomial_table(q)
        Y = _Row(_recurrence(family(q), y))
        return lambda n: ((k, B(n, k) * rho ** (n - k) * Y[n - k]) for k in range(n + 1))

    return rows


def _uhat_from_h(q):
    B = q_binomial_table(q)
    c = div(1, 1 - q)

    def entries(n):
        for j in range(n // 2 + 1):
            yield n - 2 * j, (-1) ** j * c ** j * q ** (j * (j + 1) // 2) * B(n - j, j)

    return entries


def _h_from_uhat(q):
    B = q_binomial_table(q)
    c = div(1, 1 - q)

    def entries(n):
        for k in range(n // 2 + 1):
            yield n - 2 * k, (
                q ** k * (B(n, k) - q ** (n - 2 * k + 1) * B(n, k - 1)) * c ** k
            )

    return entries


def _rogers(beta, gamma, q):
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


def _t_from_u():
    half = Fraction(1, 2)

    def entries(n):
        if n < 2:
            return [(n, 1 if n == 0 else half)]
        return [(n, half), (n - 2, -half)]

    return entries


def _u_from_t():
    return lambda n: ((k, 1 if k == 0 else 2) for k in range(n % 2, n + 1, 2))


@dataclass(frozen=True)
class _Pair:
    params: tuple  # required parameter names, in the order rows takes them
    rows: Callable
    unit_q: bool = False  # q = 1 is in the domain of both families


_PAIRS = {
    "asc-from-h": _Pair(("y", "rho", "q"), _binomial(BigB), True),
    "h-from-asc": _Pair(("y", "rho", "q"), _binomial(QHermite), True),
    "uhat-from-h": _Pair(("q",), _uhat_from_h),
    "h-from-uhat": _Pair(("q",), _h_from_uhat),
    "rogers-from-rogers": _Pair(("beta", "gamma", "q"), _rogers, True),
    "rogers-from-h": Alias("rogers-from-rogers", {"beta": 0}),
    "h-from-rogers": Alias("rogers-from-rogers", {"gamma": 0}),
    "uhat-from-asc": _Pair(("y", "rho", "q"), partial(_hat_rows, 0)),
    "kesten-from-asc": _Pair(("y", "rho", "q"), partial(_hat_rows, 1)),
    "t-from-u": _Pair((), _t_from_u),
    "u-from-t": _Pair((), _u_from_t),
    "mehler": Alias("h-from-asc", {"q": 1}),
}

PAIRS = tuple(_PAIRS)


def connection(pair, n_max, **params):
    """Closed-form connection matrix for one of :data:`PAIRS`, an alias resolved.

    The pair's parameters pass ``qcore.check_params``; an n_max that is not an
    int >= 0 is a ParameterError, and a float entry that overflows a
    NonConvergenceError.
    """
    if pair not in _PAIRS:
        raise ParameterError("unknown pair %r; expected one of %s" % (pair, PAIRS))
    check_degree(n_max)
    spec, p = resolve(_PAIRS, pair, params)
    values = check_params("pair %r" % (pair,), p, spec.params, spec.unit_q)
    entries = spec.rows(*values)
    rows = {}
    for n in range(n_max + 1):
        try:
            rows[n] = {k: v for k, v in entries(n) if v != 0}
            finite = all(math.isfinite(v) for v in rows[n].values() if isinstance(v, float))
        except OverflowError:  # a float power past the float range
            finite = False
        if not finite:
            raise NonConvergenceError("pair %r row %d overflowed" % (pair, n))
    return ConnectionMatrix(pair, n_max, dict(params), rows)


def oracle_connection(target_fam, source_fam, n_max):
    """Exact connection matrix from the two families' recurrences alone.

    The target recurrence runs on coordinate vectors over the source family
    (``polyfam._coordinates``), O(n) exact operations a row.  Both families
    need rational parameters; a zero A_k, k < n_max, is refused.
    """
    check_degree(n_max)
    for fam in (target_fam, source_fam):
        ensure_exact(**validate(fam).params())
    src = _abc(source_fam)
    steps = []  # (1/A_k, B_k, C_k)
    for k in range(n_max):
        A, B, C = src(k)
        if A == 0:
            raise ParameterError("source family degenerates at degree %d; "
                                 "cannot invert" % (k + 1,))
        steps.append((1 / Fraction(A), B, C))
    rows = {n: {k: cur[k] for k in range(n, -1, -1) if cur[k]}
            for n, cur in enumerate(_coordinates(target_fam, steps, n_max))}
    label = "oracle:%s<-%s" % (target_fam.label(), source_fam.label())
    return ConnectionMatrix(label, n_max, {}, rows)


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
    check_degree(n_max)
    if not w or w.get(0) != 1:
        raise ParameterError("moment mapping must satisfy w_0 = 1")
    clean = {}
    for i, v in w.items():
        check_degree(i, "moment index")
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
