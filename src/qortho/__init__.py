"""q-orthogonal polynomial families, densities, expansions, and verification."""

from .qcore import (
    IrrationalParameterError,
    NonConvergenceError,
    ParameterError,
    QOrthoError,
    SupportInterval,
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
from .densities import (
    BoundaryError,
    DensityId,
    density_eval,
    density_ratio,
    fCN,
    fK,
    fN,
    fR,
    fT,
    fU,
    normalize_check,
    pm_ratio,
)
from .connect import (
    ConnectionMatrix,
    RatioConnection,
    connection,
    oracle_connection,
    ratio_connection,
)
from .expand import (
    ExpansionResult,
    ExpansionSpec,
    TruncationError,
    expansion_coeff,
    expansion_eval,
    identity_suite,
)
from .verify import (
    IntegralResult,
    VerificationReport,
    check_chapman,
    check_orthogonality,
    check_projection,
    integrate,
    run_all,
)
from .sampler import (
    EnvelopeViolationError,
    SampleResult,
    envelope_constant,
    ks_statistic,
    sample,
)

__version__ = "0.1.0"
