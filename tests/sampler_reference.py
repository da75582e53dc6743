"""Full-batch reference for the rejection sampler.

This is the loop ``qortho.sampler.sample`` ran before it evaluated the
target/fU ratio in prefix segments: every batch draws its proposals and
uniforms, evaluates the ratio on all of them, checks the envelope on all of
them and keeps the accepted ones.  The segmented sampler must return the
same samples bit for bit, having evaluated at most as many proposals.

``ks_statistic`` is ``qortho.sampler.ks_statistic`` as it was before its CDF
table took the integrand's limit at theta = 0 and pi: it evaluated the
density at every node, the poles of fT too.  Every density other than fT
must give the same distance bit for bit.
"""

import math

import numpy as np

from qortho.densities import density_eval, density_ratio, fU
from qortho.qcore import support
from qortho.sampler import _SLACK, EnvelopeViolationError, SampleResult


def sample(dens, n, M, seed=0, batch=65536):
    """n samples of dens under envelope M, the ratio evaluated on whole batches."""
    L = support(dens.q).radius
    proposal = fU(dens.q)
    ss = np.random.SeedSequence(seed)
    chunks = []
    n_prop = 0
    n_acc = 0
    while n_acc < n:
        rng = np.random.default_rng(ss.spawn(1)[0])
        x = L * (2.0 * rng.beta(1.5, 1.5, batch) - 1.0)
        u = rng.random(batch)
        r = density_ratio(dens, proposal, x)
        if np.any(r > M * (1 + _SLACK)):
            raise EnvelopeViolationError("ratio exceeded envelope during sampling")
        keep = u * M <= r
        chunks.append(x[keep])
        n_prop += batch
        n_acc += int(np.count_nonzero(keep))
    samples = np.concatenate(chunks)[:n] if chunks else np.empty(0)
    rate = n_acc / n_prop if n_prop else 0.0
    return SampleResult(samples, rate, n_prop, M, seed)


def ks_statistic(samples, dens, grid_n=513):
    """KS distance of the float samples to dens, the density read at every node."""
    L = support(dens.q).radius
    theta = np.linspace(0.0, math.pi, grid_n)
    x = -L * np.cos(theta)
    pdf = density_eval(dens, x) * L * np.sin(theta)
    F = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * (theta[1] - theta[0]))])
    F /= F[-1]
    s = np.sort(np.asarray(samples, dtype=float))
    Fs = np.interp(s, x, F)
    i = np.arange(1, s.size + 1)
    return float(max(np.max(Fs - (i - 1) / s.size), np.max(i / s.size - Fs)))
