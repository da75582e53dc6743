"""Per-factor reference for the truncated density products.

This is the straightforward loop the product kernel in ``qortho.densities``
must reproduce bit for bit: each factor is formed from its formula as
written (fresh arrays every step), checked for f <= 0 and logged, and the
logs are summed elementwise in k order.  Tests compare ``_log_fac_sum``,
``_log_w_sum`` and ``_log_den_sum`` with the functions below.
"""

import numpy as np

from qortho.qcore import ParameterError, truncation_order


def log_qproduct(factor, amplitude, q, eps, first=0):
    K = max(truncation_order(amplitude, q, eps), first + 1)
    p = q ** first
    out = 0.0
    for _ in range(first, K):
        f = factor(p)
        if np.any(f <= 0.0):
            raise ParameterError("nonpositive product factor; point outside S(q)?")
        out += np.log(f)
        p *= q
    return out


def log_fac_sum(x2s, q, eps):
    return log_qproduct(lambda p: (1.0 + p) ** 2 - x2s * p, 7.0, q, eps, first=1)


def log_w_sum(x, y, rho, q, eps):
    omq = 1.0 - q

    def w(p):
        r2p2 = rho * rho * p * p
        return (
            (1.0 - r2p2) ** 2
            - omq * rho * p * (1.0 + r2p2) * (x * y)
            + omq * rho * rho * p * p * (x * x + y * y)
        )

    return log_qproduct(w, 19.0 * abs(rho), q, eps)


def log_den_sum(x2s, beta, q, eps):
    return log_qproduct(
        lambda p: (1.0 + beta * p) ** 2 - beta * x2s * p, 7.0 * abs(beta), q, eps
    )
