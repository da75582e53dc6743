"""Per-factor reference for the truncated density products.

This is the straightforward loop the product kernel in ``qortho.densities``
must reproduce bit for bit: each factor is formed from its formula as
written (fresh arrays every step), checked for f <= 0 and logged, and the
logs are summed elementwise in k order.  Tests compare ``_log_fac_sum``,
``_log_w_sum`` and ``_log_den_sum`` with the functions below, and
``qcore.q_pochhammer_inf`` with the scalar loop it used to run.
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


def q_pochhammer_inf(a, q, eps=1e-14):
    """The scalar (a;q)_inf loop that ``qcore.q_pochhammer_inf`` replaced by its
    read of the ``_pochhammers`` row; sequences of a are not needed here."""
    af = float(a)
    if af == 0.0:
        return 1.0
    if eps <= 0:
        raise ParameterError("eps must be positive, got %r" % (eps,))
    qf = float(q)
    K = truncation_order(af, qf, eps)
    out = 1.0
    p = 1.0
    for _ in range(K):
        out *= 1.0 - af * p
        p *= qf
    return out
