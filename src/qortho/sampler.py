"""Rejection sampler for fN and fCN with the semicircle law fU as proposal.

Proposals are exact: x = L (2B - 1) with B ~ Beta(3/2, 3/2) has density fU
on [-L, L].  Each batch draws all ``batch`` of its proposals, then all of its
acceptance uniforms, from one generator spawned per batch from the seed's
``SeedSequence``; so ``batch`` and the seed fix the draw stream, and with it
every sample.

The ratio r = target/fU is a Chebyshev-U series in t = x/L, r = sum c_n U_n(t):
the ``n_over_u`` coefficients (-1)^k q^{k(k+1)/2} at n = 2k for fN, and for
fCN the gamma_n of ``connect.gamma_coeff`` (column 0 of ``uhat-from-asc``),
read once per call as one float row (``_row``).  The row ends at six
(n+1)|c_n| in a row below 1e-17; one that has not ended by n = 4095 is a
NonConvergenceError before any draw.  The sampler's ratio is r_K, the row up
to the index K before those six, summed by Clenshaw's recurrence; it never
evaluates the densities' infinite products.  As U_n is orthogonal to U_0
under fU and c_0 = 1, fU r_K integrates to 1, and the accepted samples follow
fU r_K.  Up to the row's rounding, |r - r_K| is at most the tail
T = sum_{n>K} (n+1)|c_n|, as |U_n| <= n+1 on [-1, 1]; T is read from the six
that end the row (below 6e-17), and, as every stop rule here does, the row
presumes that the terms past them add no more than M's last bit (M >= c_0 = 1).
r_K is evaluated once per call on a grid of 10 001 evenly spaced t; the
envelope is M = S + T + D h^2/8, S the grid's largest r_K, h = 2/10 000 the
node spacing and D = sum |c_n| U_n''(1) a bound on |r''| (V. Markov) over the
same row, summed by ``qcore._sum_series``.  A caller's ``envelope=`` must be positive
and finite (``qcore.check_params``), and the grid checks it before any
sampling.  The seed, like n and ``batch``, is a count (``qcore.check_degree``).

Within a batch r_K is evaluated only on the proposals that can still be used:
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
    NonConvergenceError, ParameterError, QOrthoError, _sum_series, check_degree, check_params,
    support,
)
from . import connect, densities


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
_CAP = 4095  # the row's last index n; up to |rho| = 0.985 it ends before
_ROW_STOP = 1e-17  # (n+1)|c_n| below this, _RUN times in a row, ends the row
_RUN = 6  # small terms in a row that end the row, and the slack's sum
_PAD = 16  # proposals a segment holds beyond need + 6 sqrt(need)


def _row(dens):
    """[c_0, ..., c_{K+6}] of target/fU = sum_n c_n U_n(t), t = x/L, for fn or fcn
    (so q < 1): the n_over_u coefficients (-1)^k q^{k(k+1)/2} at n = 2k for fN,
    and the float gamma row of ``connect._gamma_terms`` for fCN.

    The row ends at the sixth (n+1)|c_n| in a row below 1e-17, three of each
    parity, so a coefficient that is 0 by parity (the odd ones of fN and of fCN
    at y = 0) or by chance at one index does not end it.  One that has not
    ended by n = 4095 is a NonConvergenceError naming the series.
    """
    if dens.tag not in ("fn", "fcn"):
        raise ParameterError("sampler supports fn and fcn targets, got %r" % dens.tag)
    support(dens.q)  # S(q) needs -1 < q < 1
    if dens.tag == "fn":
        q = float(dens.q)
        coeffs = (0.0 if n % 2 else (-1) ** (n // 2) * q ** (n // 2 * (n // 2 + 1) // 2)
                  for n in count())
    else:
        coeffs = connect._gamma_terms(dens.y, dens.rho, dens.q, _CAP)
    row, small = [], 0
    for n, c in enumerate(islice(coeffs, _CAP + 1)):
        row.append(c)
        small = small + 1 if (n + 1) * abs(c) < _ROW_STOP else 0
        if small == _RUN:
            return row
    raise NonConvergenceError(
        "sampler envelope: the %s series sum |c_n| U_n''(1) over its Chebyshev-U "
        "coefficients did not settle by n = %d" % (dens.tag, _CAP))


def _ratio(c, t):
    """r_K(t) = sum_n c_n U_n(t) over the float list c, by Clenshaw's recurrence
    b_n = c_n + 2t b_{n+1} - b_{n+2} from b_{K+1} = b_{K+2} = 0 down to r_K = b_0.

    Every step acts point by point, so a point has the same bits alone or
    inside any array.
    """
    t2 = 2.0 * t
    b0, b1, b2 = np.empty_like(t2), np.zeros_like(t2), np.zeros_like(t2)
    for cn in reversed(c):
        np.multiply(t2, b1, out=b0)
        b0 -= b2
        b0 += cn
        b0, b1, b2 = b2, b0, b1
    return b1


def _grid_sup(c):
    """S, the largest r_K of the row c (``_row``, its last six dropped) on
    _GRID_N evenly spaced t in [-1, 1]."""
    return float(np.max(_ratio(c[:-_RUN], np.linspace(-1.0, 1.0, _GRID_N))))


def _curvature_slack(c):
    """D h^2/8, where h = 2/(_GRID_N - 1) is the grid spacing in t = x/L and
    D = sum_n |c_n| U_n''(1) >= max |d^2/dt^2 target/fU| over t in [-1, 1].

    Between two grid nodes the ratio lies at most D h^2/8 above their chord,
    and the chord at most at the larger node value, so the grid sup plus this
    slack bounds the ratio everywhere.  c is the row of ``_row``.  V. Markov's
    inequality gives |U_n''| <= U_n''(1) = (n-1)n(n+1)(n+2)(n+3)/15 on [-1, 1].
    The sum runs over the terms |c_n| U_n''(1) h^2/8 from n = 2 on
    (U_0'' = U_1'' = 0) and ends at six terms in a row below 1e-12, three of
    each parity.  For n <= 4095 a term is at most 9.4e4 (n+1)|c_n|, so the six
    that end the row end this sum too, at the latest.
    """
    scale = 1.0 / (2.0 * (_GRID_N - 1) ** 2)  # h^2/8
    terms = (abs(cn) * ((n - 1) * n * (n + 1) * (n + 2) * (n + 3) // 15) * scale
             for n, cn in islice(enumerate(c), 2, None))
    # six terms in a row < 1e-12, in units of M, end the sum
    return _sum_series(((t, t) for t in terms), math.nextafter(1e-12, 0.0), _RUN, _CAP)[0]


def _constant(c, sup):
    """M = S + T + D h^2/8 for the row c and its grid sup S: T, the tail sum of
    (n+1)|c_n| over the dropped terms, is read from the six that end the row."""
    tail = sum((n + 1) * abs(cn) for n, cn in enumerate(c[-_RUN:], len(c) - _RUN))
    return sup + tail + _curvature_slack(c)


def envelope_constant(dens):
    """Rejection constant M >= sup_x target/fU: the largest ratio on _GRID_N
    evenly spaced points of S(q), plus the row's tail and the curvature slack
    of that grid.

    A target whose row does not end raises NonConvergenceError.
    """
    c = _row(dens)
    return _constant(c, _grid_sup(c))


def sample(dens, n, seed=0, batch=65536, envelope=None):
    """Draw n samples from dens by rejection against the semicircle law."""
    check_degree(n, "n")
    check_degree(seed, "seed")
    check_degree(batch, "batch", least=1)
    if envelope is not None:
        check_params("sample", {"envelope": envelope}, ("envelope",))
        envelope = float(envelope)
    c = _row(dens)
    sup = _grid_sup(c)
    M = envelope if envelope is not None else _constant(c, sup)
    L = support(dens.q).radius
    head = c[:-_RUN]

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
        t = 2.0 * rng.beta(1.5, 1.5, batch) - 1.0
        x = L * t
        u = rng.random(batch)
        start = 0
        while n_acc < n and start < batch:
            need = (n - n_acc) * M
            stop = min(batch, start + math.ceil(need + 6.0 * math.sqrt(need)) + _PAD)
            xs = x[start:stop]
            r = _ratio(head, t[start:stop])
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
