"""Rejection sampler for fN and fCN with the semicircle law fU as proposal.

Proposals are exact: x = L (2B - 1) with B ~ Beta(3/2, 3/2) has density fU
on [-L, L].  Each batch draws all ``batch`` of its proposals, then all of its
acceptance uniforms, from one generator spawned per batch from the seed's
``SeedSequence``; so ``batch`` and the seed fix the draw stream, and with it
every sample.

The ratio r = target/fU is a Chebyshev-U series in t = x/L, r = sum c_n U_n(t):
the ``n_over_u`` coefficients (-1)^k q^{k(k+1)/2} at n = 2k for fN, and for
fCN the gamma_n of ``connect.gamma_coeff`` (column 0 of ``uhat-from-asc``),
read as one float row.  r is evaluated once per call on a grid of 10 001
evenly spaced points; the envelope is M = S + D h^2/8, S the grid's largest
ratio, h = 2/10 000 the node spacing in t and D = sum |c_n| U_n''(1) a bound
on |r''| (V. Markov), summed by ``qcore._sum_series``.  A D that has not
settled by n = 4095 is a NonConvergenceError before any draw.  A caller's
``envelope=`` must be positive and finite (``qcore.check_params``), and the
grid checks it before any sampling.  The seed, like n and ``batch``, is a
count (``qcore.check_degree``).

Within a batch r is evaluated only on the proposals that can still be used:
in prefix segments, each sized from the expected need (n - accepted) M with
a margin of 6 sqrt(need) + 16, until n are accepted.  A point's ratio has
the same bits alone or inside any array, so the samples are those of
evaluating the whole batch.  Every evaluated proposal re-checks the bound,
so a bad envelope aborts loudly instead of skewing the output;
``n_proposed`` and ``acceptance_rate`` count the evaluated proposals.
"""

import math
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .qcore import (
    ParameterError, QOrthoError, _sum_series, check_degree, check_params, support,
)
from . import connect, densities
from .densities import density_ratio, fU


class EnvelopeViolationError(QOrthoError):
    """The target/proposal ratio exceeded the declared envelope constant."""


@dataclass(frozen=True)
class SampleResult:
    samples: np.ndarray
    acceptance_rate: float  # accepted / n_proposed
    n_proposed: int  # proposals whose ratio was evaluated, not proposals drawn
    envelope: float
    seed: int


_GRID_N = 10001
_KS_GRID_N = 513  # theta nodes of ks_statistic's CDF table
_SLACK = 1e-9
_CAP = 4095  # the curvature series' last index n; up to |rho| = 0.985 it settles before
_PAD = 16  # proposals a segment holds beyond need + 6 sqrt(need)


def _grid_sup(dens):
    """Largest target/fU ratio on _GRID_N points of S(q) (so q < 1) for fn or fcn."""
    if dens.tag not in ("fn", "fcn"):
        raise ParameterError("sampler supports fn and fcn targets, got %r" % dens.tag)
    L = support(dens.q).radius
    xg = np.linspace(-L, L, _GRID_N)
    return float(np.max(density_ratio(dens, fU(dens.q), xg)))


def _curvature_slack(dens):
    """D h^2/8, where h = 2/(_GRID_N - 1) is the grid spacing in t = x/L and
    D = sum_n |c_n| U_n''(1) >= max |d^2/dt^2 target/fU| over t in [-1, 1].

    Between two grid nodes the ratio lies at most D h^2/8 above their chord,
    and the chord at most at the larger node value, so the grid sup plus this
    slack bounds the ratio everywhere.  c_n are the coefficients of
    target/fU = sum_n c_n U_n(t): the n_over_u ones, (-1)^k q^{k(k+1)/2} at
    n = 2k, for fN and the float gamma row for fCN.  V. Markov's inequality
    gives |U_n''| <= U_n''(1) = (n-1)n(n+1)(n+2)(n+3)/15 on [-1, 1].  The sum
    runs over the terms |c_n| U_n''(1) h^2/8 from n = 2 on (U_0'' = U_1'' = 0)
    and ends at six terms in a row below 1e-12, three of each parity, so a
    coefficient that is 0 by parity (the odd ones of fN and of fCN at y = 0) or
    by chance at one index does not end it.  One that has not settled by
    n = 4095 is a NonConvergenceError naming the series.
    """
    if dens.tag == "fn":
        q = abs(float(dens.q))
        coeffs = (0.0 if n % 2 else q ** (n // 2 * (n // 2 + 1) // 2) for n in count())
    else:
        coeffs = connect._gamma_terms(dens.y, dens.rho, dens.q, _CAP)
    scale = 1.0 / (2.0 * (_GRID_N - 1) ** 2)  # h^2/8
    terms = (abs(c) * ((n - 1) * n * (n + 1) * (n + 2) * (n + 3) // 15) * scale
             for n, c in islice(enumerate(coeffs), 2, _CAP + 1))
    message = ("sampler envelope: the %s series sum |c_n| U_n''(1) over its Chebyshev-U "
               "coefficients did not settle by n = %d" % (dens.tag, _CAP))
    # six terms in a row < 1e-12, in units of M, end the sum; cap + 1 terms
    # are those of n = 2.._CAP
    return _sum_series(((t, t) for t in terms), math.nextafter(1e-12, 0.0), 6, _CAP - 2,
                       message)[0]


def envelope_constant(dens):
    """Rejection constant M >= sup_x target/fU: the largest ratio on _GRID_N
    evenly spaced points of S(q) plus the curvature slack of that grid.

    A target whose curvature series does not settle raises NonConvergenceError.
    """
    return _grid_sup(dens) + _curvature_slack(dens)


def sample(dens, n, seed=0, batch=65536, envelope=None):
    """Draw n samples from dens by rejection against the semicircle law."""
    check_degree(n, "n")
    check_degree(seed, "seed")
    check_degree(batch, "batch", least=1)
    if envelope is not None:
        check_params("sample", {"envelope": envelope}, ("envelope",))
        envelope = float(envelope)
    sup = _grid_sup(dens)
    M = envelope if envelope is not None else sup + _curvature_slack(dens)
    L = support(dens.q).radius
    proposal = fU(dens.q)

    # pre-flight: the envelope must dominate the ratio on a dense grid
    if not sup <= M * (1 + _SLACK):
        raise EnvelopeViolationError(
            "ratio exceeds envelope %g by %g on pre-flight grid" % (M, sup - M)
        )

    ss = np.random.SeedSequence(seed)
    chunks = []
    n_prop = 0
    n_acc = 0
    while n_acc < n:
        rng = np.random.default_rng(ss.spawn(1)[0])
        x = L * (2.0 * rng.beta(1.5, 1.5, batch) - 1.0)
        u = rng.random(batch)
        start = 0
        while n_acc < n and start < batch:
            need = (n - n_acc) * M
            stop = min(batch, start + math.ceil(need + 6.0 * math.sqrt(need)) + _PAD)
            xs = x[start:stop]
            r = density_ratio(dens, proposal, xs)
            if np.any(r > M * (1 + _SLACK)):
                raise EnvelopeViolationError("ratio exceeded envelope during sampling")
            keep = u[start:stop] * M <= r
            chunks.append(xs[keep])
            n_prop += stop - start
            n_acc += int(np.count_nonzero(keep))
            start = stop
    samples = np.concatenate(chunks)[:n] if chunks else np.empty(0)
    rate = n_acc / n_prop if n_prop else 0.0
    return SampleResult(samples, rate, n_prop, M, seed)


def ks_statistic(samples, dens):
    """Kolmogorov-Smirnov distance between samples and dens.

    The CDF is tabulated on _KS_GRID_N theta nodes (x = -L cos theta) by
    cumulative trapezoid, which keeps the edge square roots analytic.  The
    integrand dens * L sin theta is evaluated inside S(q) and takes its limit
    at theta = 0 and pi: 1/pi for fT, whose CDF in theta is theta/pi (its
    poles meet the zeros of sin theta), and 0 for every other density.  Samples
    outside S(q), infinite ones too, sit where the CDF is exactly 0 or 1; a
    sample that ``densities._as_array`` refuses (a NaN, a bool, a value that
    is not a real number) raises ParameterError.
    """
    samples = densities._as_array(samples, "samples")[1].ravel()
    n = samples.size
    if n == 0:
        raise ParameterError("ks_statistic needs at least one sample")
    L = support(dens.q).radius
    theta = np.linspace(0.0, math.pi, _KS_GRID_N)
    x = -L * np.cos(theta)
    pdf = np.full(_KS_GRID_N, 1.0 / math.pi if dens.tag == "ft" else 0.0)
    pdf[1:-1] = densities.density_eval(dens, x[1:-1]) * L * np.sin(theta[1:-1])
    dtheta = theta[1] - theta[0]
    F = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dtheta)])
    F /= F[-1]
    s = np.sort(samples)
    Fs = np.interp(s, x, F)
    i = np.arange(1, n + 1)
    return float(max(np.max(Fs - (i - 1) / n), np.max(i / n - Fs)))
