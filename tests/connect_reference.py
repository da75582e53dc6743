"""The two column-0 loops that the scaled ASC sums of ``qortho.connect`` replaced.

``gamma_parts`` and ``beta_parts`` are the CN-over-U and CN-over-K
coefficient loops as they were written before ``connect.gamma_coeff`` and
``connect.beta_coeff`` became column 0 of the ``uhat-from-asc`` and
``kesten-from-asc`` sums.  Each returns (rational, half) with value
r (1-q)^{half/2}; ``connect._from_parts`` turns it into the coefficient.
Tests compare the new functions with these: ``gamma_coeff`` bit for bit in
floats, ``beta_coeff`` on Fractions.
"""

from qortho.polyfam import QHermite, eval_all
from qortho.qcore import q_binomial_table


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
