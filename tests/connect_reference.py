"""Loops of ``qortho.connect`` as they were before they were replaced.

``gamma_parts`` and ``beta_parts`` are the CN-over-U and CN-over-K
coefficient loops as they were written before ``connect.gamma_coeff`` and
``connect.beta_coeff`` became column 0 of the ``uhat-from-asc`` and
``kesten-from-asc`` sums.  Each returns (rational, half) with value
r (1-q)^{half/2}; ``connect._from_parts`` turns it into the coefficient.
Tests compare the new functions with these: ``gamma_coeff`` bit for bit in
floats, ``beta_coeff`` on Fractions.

``oracle_by_elimination`` is ``connect.oracle_connection`` as it was before
it ran the connection-coefficient recurrence: both families expanded into
monomials by evaluating their recurrences at the polynomial x
(``poly_reference.Poly``, the arithmetic ``RationalPoly`` had), then
target_n reduced over source_n, ..., source_0 by triangular elimination,
O(n^3) per triangle.
Tests compare the recurrence with it entry for entry and by ``repr``, and
compare the errors both raise.
"""

from fractions import Fraction

from qortho.connect import ConnectionMatrix
from qortho.polyfam import QHermite, eval_all, validate
from qortho.qcore import ParameterError, ensure_exact, q_binomial_table

from poly_reference import Poly


def _tables(q, y, m, H, B):
    if H is None:
        H = eval_all(QHermite(q), m, y)
    if B is None:
        B = q_binomial_table(q)
    return H, B


def gamma_parts(k, y, rho, q, H=None, B=None):
    """gamma_k = sum_j (-1)^j q^{j(j+1)/2} [k-j choose k-2j]_q rho^{k-2j}
    (1-q)^{(k-2j)/2} H_{k-2j}(y|q), as (rational, half)."""
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
    """beta_k = sum_{j>=1} (-1)^j q^{k+j(j-3)/2} [k-1-j choose k-2j]_q
    rho^{k-2j} (1-q)^{(k-2j)/2} H_{k-2j}(y|q), as (rational, half); beta_0 = 1."""
    if k == 0:
        return 1 + 0 * q, 0
    H, B = _tables(q, y, k, H, B)
    total = 0 * q
    omq = 1 - q
    for j in range(1, k // 2 + 1):
        m = k - 2 * j
        expo = k + j * (j - 3) // 2
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


def oracle_by_elimination(target_fam, source_fam, n_max):
    """Exact connection matrix by triangular elimination on coefficient vectors.

    Both families must admit exact coefficients (rational parameters).  The
    result expresses target_n as a combination of source_0..source_n.
    """
    for fam in (target_fam, source_fam):
        ensure_exact(**validate(fam).params())
    T, S = (eval_all(fam, n_max, Poly.x()) for fam in (target_fam, source_fam))
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
