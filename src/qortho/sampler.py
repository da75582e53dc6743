"""Rejection sampler for fN and fCN with the semicircle law fU as proposal.

Proposals are exact: x = L (2B - 1) with B ~ Beta(3/2, 3/2) has density fU
on [-L, L].  Each batch draws all ``batch`` of its proposals, then all of its
acceptance uniforms, from one generator spawned per batch from the seed's
``SeedSequence``; so ``batch`` and the seed fix the draw stream, and with it
every sample.

The ratio r(x) = target(x)/fU(x) is bounded: for fN by the alternating-series
envelope M = sum (2k+1)|q|^{k(k+1)/2}, for fCN by sum (k+1)|gamma_k| over the
Chebyshev expansion coefficients (gamma_0 = 1; ``connect.gamma_coeff``, column 0
of the ``uhat-from-asc`` connection sum), both summed by
``qcore._sum_series``; an fCN series that has not settled after 400 terms
falls back to 1.05 times the grid supremum.  r is evaluated once per call on a
dense grid, whose supremum both floors M and checks it before any sampling.

Within a batch r is evaluated only on the proposals that can still be used:
in prefix segments, each sized from the expected need (n - accepted) M with
a margin of 6 sqrt(need) + 16, until n are accepted.  A point's ratio has
the same bits alone or inside any array, so the samples are those of
evaluating the whole batch.  Every evaluated proposal re-checks the bound,
so a bad envelope aborts loudly instead of skewing the output;
``n_proposed`` and ``acceptance_rate`` count the evaluated proposals.
"""

import math
import numbers
from dataclasses import dataclass
from itertools import count

import numpy as np

from .qcore import (
    ParameterError, QOrthoError, TruncationError, _plain_sum, _Row, _theta_series,
    check_degree, q_binomial_table, support,
)
from . import connect, densities
from .densities import density_ratio, fU
from .polyfam import QHermite, _recurrence


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
_SLACK = 1e-9
_PAD = 16  # proposals a segment holds beyond need + 6 sqrt(need)


def _grid_sup(dens, grid_n):
    """Largest target/fU ratio on grid_n points of S(q) (so q < 1) for fn or fcn."""
    if dens.tag not in ("fn", "fcn"):
        raise ParameterError("sampler supports fn and fcn targets, got %r" % dens.tag)
    L = support(dens.q).radius
    xg = np.linspace(-L, L, grid_n)
    return float(np.max(density_ratio(dens, fU(dens.q), xg)))


def _series_constant(dens):
    """The series bound of target/fU, or None if the fCN series stalls."""
    q = dens.q
    if dens.tag == "fn":
        return _theta_series(abs(q), signed=False, weighted=True)
    # one H_m(y|q) row and one q-binomial table for all k, grown on demand
    H = _Row(_recurrence(QHermite(q), dens.y))
    B = q_binomial_table(q)
    terms = (
        (k + 1) * abs(connect.gamma_coeff(k, dens.y, dens.rho, q, H=H, B=B)) for k in count()
    )
    try:
        # three terms in a row < 1e-12 end the sum; 400 terms without them stall
        return _plain_sum(terms, math.nextafter(1e-12, 0.0), 3, cap=399)
    except TruncationError:
        return None


def _envelope(dens, sup):
    """The series constant, at least the grid sup; 1.05 sup if the fCN series stalls."""
    M = _series_constant(dens)
    return sup * 1.05 if M is None else max(M, sup)


def envelope_constant(dens, grid_n=_GRID_N):
    """Rejection constant M with sup_x target/fU <= M, grid cross-checked."""
    return _envelope(dens, _grid_sup(dens, check_degree(grid_n, "grid_n", least=2)))


def _check_envelope(envelope):
    """envelope as a float once it is real, positive and finite; else ParameterError.

    NaN passes here: the pre-flight grid check refuses it as a violation.
    """
    if isinstance(envelope, bool) or not isinstance(envelope, numbers.Real):
        raise ParameterError("envelope must be a real number, got %r" % (envelope,))
    try:
        M = float(envelope)
    except OverflowError:  # an int past the float range
        M = math.inf
    if M <= 0 or M == math.inf:
        raise ParameterError("envelope must be positive and finite, got %r" % (envelope,))
    return M


def sample(dens, n, seed=0, batch=65536, envelope=None):
    """Draw n samples from dens by rejection against the semicircle law."""
    check_degree(n, "n")
    check_degree(batch, "batch", least=1)
    if envelope is not None:
        envelope = _check_envelope(envelope)
    sup = _grid_sup(dens, _GRID_N)
    M = envelope if envelope is not None else _envelope(dens, sup)
    L = support(dens.q).radius
    proposal = fU(dens.q)

    # pre-flight: the envelope must dominate the ratio on a dense grid; a NaN
    # envelope fails here too, since no proposal would ever be accepted
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


def ks_statistic(samples, dens, grid_n=513):
    """Kolmogorov-Smirnov distance between samples and dens.

    The CDF is tabulated on a theta-grid (x = -L cos theta) by cumulative
    trapezoid, which keeps the edge square roots analytic.  Samples outside
    S(q), infinite ones too, sit where the CDF is exactly 0 or 1; a NaN
    sample has no place and raises ParameterError.
    """
    check_degree(grid_n, "grid_n", least=2)
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise ParameterError("ks_statistic needs at least one sample")
    if np.isnan(samples).any():
        raise ParameterError("ks_statistic got a NaN sample")
    L = support(dens.q).radius
    theta = np.linspace(0.0, math.pi, grid_n)
    x = -L * np.cos(theta)
    pdf = densities.density_eval(dens, x) * L * np.sin(theta)
    dtheta = theta[1] - theta[0]
    F = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dtheta)])
    F /= F[-1]
    s = np.sort(samples)
    Fs = np.interp(s, x, F)
    i = np.arange(1, n + 1)
    return float(max(np.max(Fs - (i - 1) / n), np.max(i / n - Fs)))
