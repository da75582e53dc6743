"""q-orthogonal polynomial families, densities, expansions, and verification.

The exact layers, ``qcore``, ``polyfam`` and ``connect``, need no numpy and
are imported with the package.  The float layers, ``densities``, ``expand``,
``verify`` and ``sampler``, need numpy; each is imported the first time one
of its exports is read from the package (PEP 562), so ``import
qortho.connect`` loads no numpy.  An export is looked up in its module on
every access, never stored here, so a name rebound in its module is seen.
"""

import importlib

from .qcore import (
    IrrationalParameterError,
    NonConvergenceError,
    ParameterError,
    QOrthoError,
    SupportInterval,
    TruncationError,
    VerificationReport,
    q_binomial,
    q_bracket,
    q_factorial,
    q_pochhammer,
    q_pochhammer_inf,
    support,
    truncation_order,
)
from .polyfam import (
    ASC,
    BigB,
    ChebT,
    ChebT_hat,
    ChebU,
    ChebU_hat,
    ClassicalHermite,
    FamilyId,
    Kesten,
    KestenHat,
    QHermite,
    RationalPoly,
    Rogers,
    coeffs,
    eval,
    eval_all,
)
from .connect import (
    ConnectionMatrix,
    RatioConnection,
    connection,
    oracle_connection,
    ratio_connection,
)

#: the exports of the float layers, by module, imported on first access
_DEFERRED = {
    "densities": (
        "BoundaryError", "DensityId", "density_eval", "density_ratio", "fCN", "fK",
        "fN", "fR", "fT", "fU", "normalize_check", "pm_ratio",
    ),
    "expand": (
        "ExpansionResult", "ExpansionSpec", "expansion_coeff", "expansion_eval",
        "identity_suite",
    ),
    "verify": (
        "IntegralResult", "check_chapman", "check_orthogonality", "check_projection",
        "integrate", "run_all",
    ),
    "sampler": ("EnvelopeViolationError", "SampleResult", "envelope_constant",
                "ks_statistic", "sample"),
}
_DEFERRED_MODULE = {name: mod for mod, names in _DEFERRED.items() for name in names}

__all__ = [
    "IrrationalParameterError", "NonConvergenceError", "ParameterError", "QOrthoError",
    "SupportInterval", "TruncationError", "VerificationReport", "q_binomial", "q_bracket",
    "q_factorial", "q_pochhammer", "q_pochhammer_inf", "support", "truncation_order",
    "ASC", "BigB", "ChebT", "ChebT_hat", "ChebU", "ChebU_hat", "ClassicalHermite",
    "FamilyId", "Kesten", "KestenHat", "QHermite", "RationalPoly", "Rogers", "coeffs",
    "eval", "eval_all",
    "ConnectionMatrix", "RatioConnection", "connection", "oracle_connection",
    "ratio_connection",
    *_DEFERRED_MODULE,
]

__version__ = "0.1.0"


def __getattr__(name):
    mod = _DEFERRED_MODULE.get(name)
    if mod is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + mod, __name__), name)


def __dir__():
    return sorted({*globals(), *_DEFERRED_MODULE})
