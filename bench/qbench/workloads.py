"""The four workloads: seeded op lists, warm-up, the ops and their checks.

A workload is a sequence of *rounds*.  Every round holds the same op list
(the workload's fixed op list) with parameters drawn fresh from
``(seed, workload, round)``, so no op reuses another op's cache entry.  Ops
come in groups that run back to back and are checked together (a closed-form
connection triangle and its oracle); the groups of a round run in a seeded
random order.  Draws are spread evenly over each round: one q from each of
``STRATA`` equal slices of the q range, the other float parameters as Latin
hypercube columns, and exact rationals with each parameter's denominators
covering 3..9 evenly.

Timed ops stay clear of the recorded seed defects, so that a correct run has
no failed op; ``probes()`` runs each defect at fixed parameters inside its
region instead, untimed, and the run reports whether it still fails.

The library is reached only through module attributes (``connect.connection``
and so on), looked up at call time, so an installed tracer sees every call.
"""

import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import qortho
from qortho import connect, densities, expand, polyfam, sampler, verify

Q_RANGE = (-0.8, 0.9)  # q draws for every float workload
PARAM_SHARE = 0.8  # y, rho, beta, gamma drawn over (-0.8, 0.8) x their domain

#: upper end of the q draws of the op kinds that fail above it at the seed
#: (see the recorded defects in bench/README.md and the workloads' probes)
Q_TOP = {"orthogonality": 0.6, "u_over_n": 0.8, "r_over_n": 0.8, "identity": 0.85}


def q_range(key):
    """The q range of an op kind: Q_RANGE, cut at Q_TOP[key] if it has one."""
    return Q_RANGE[0], Q_TOP.get(key, Q_RANGE[1])


@dataclass(frozen=True)
class Op:
    kind: str
    params: tuple  # sorted (name, value) pairs

    @property
    def p(self):
        return dict(self.params)


def _op(kind, **params):
    return Op(kind, tuple(sorted(params.items())))


def _rng(seed, workload, r):
    return np.random.default_rng([seed, workload, r])


def _strata(rng, lo, hi, n, shuffle=False):
    """One uniform draw from each of n equal slices of (lo, hi).

    In slice order, or shuffled: shuffled columns of several parameters form
    a Latin hypercube over the n ops that share them.
    """
    edges = np.linspace(lo, hi, n + 1)
    out = [float(rng.uniform(edges[i], edges[i + 1])) for i in range(n)]
    return [out[i] for i in rng.permutation(n)] if shuffle else out


def _shares(rng, n):
    """n draws over (-0.8, 0.8), one per slice, shuffled."""
    return _strata(rng, -PARAM_SHARE, PARAM_SHARE, n, shuffle=True)


def _cells(rng, n, a, b):
    """n draws over (-0.8, 0.8), the i-th from slice (a*i + b) % n of n equal slices.

    With a odd and n a power of two this is a permutation of the slices that is
    fixed by (a, b) instead of drawn, so, paired with a q stratified in slice
    order, every seed's op list spans the same (q, parameter) cells and only
    the place inside each cell is drawn.
    """
    edges = np.linspace(-PARAM_SHARE, PARAM_SHARE, n + 1)
    return [float(rng.uniform(edges[j], edges[j + 1])) for j in ((a * i + b) % n for i in range(n))]


def _shuffled(rng, groups):
    return [groups[i] for i in rng.permutation(len(groups))]


def _share(rng):
    return float(rng.uniform(-PARAM_SHARE, PARAM_SHARE))


def _unit_rat(rng, nonzero=True, d=None):
    """Random rational strictly inside (-1, 1) with denominator d (default: 3..9)."""
    while True:
        dd = int(rng.integers(3, 10)) if d is None else int(d)
        v = Fraction(int(rng.integers(-(dd - 1), dd)), dd)
        if v != 0 or not nonzero:
            return v


def _params(p):
    """The family parameters of an op's parameters."""
    return {k: p[k] for k in ("q", "y", "rho", "beta", "gamma")}


def _rat_draws(rng):
    """q, y, rho, beta, gamma in the order the acceptance battery draws them."""
    q = _unit_rat(rng)
    y = _unit_rat(rng, nonzero=False)
    return dict(q=q, y=y, rho=_unit_rat(rng), beta=_unit_rat(rng), gamma=_unit_rat(rng))


def _rat_columns(rng, n, r):
    """n draws of (q, y, rho, beta, gamma) as by :func:`_rat_draws`, except that
    each parameter's denominators cover 3..9 evenly across the n draws.

    The denominators, which set most of an exact op's cost, follow the draw's
    place i and the round r, not the seed, so round r of every seed costs
    about the same; only the numerators are drawn.
    """
    cols = {}
    for k, name in enumerate(("q", "y", "rho", "beta", "gamma")):
        dens = [3 + ((k + 1) * i + r + 2 * k) % 7 for i in range(n)]
        cols[name] = [_unit_rat(rng, nonzero=name != "y", d=d) for d in dens]
    return [{k: v[i] for k, v in cols.items()} for i in range(n)]


class Workload:
    """Interface of a workload; subclasses define the rest.

    ``round(r)`` returns the groups of round r, ``warmup()`` runs untimed ops
    on parameters no draw can produce, ``run(op)`` is one timed op and
    ``check(group, outs)`` returns one failure reason (or None) per op.
    """

    name = None
    spawns_children = False  # True when ops run in child processes

    def __init__(self, seed, workdir="."):
        self.seed = seed
        self.workdir = workdir

    def probes(self):
        """(recorded defect name, group) pairs at fixed parameters where it fails."""
        return []

    def peak_rss_mb(self):
        """Peak resident memory of the process running the workload."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    def close(self):
        """Stop any helper process the workload started."""

    def _expect_ok(self, group):
        outs = [self.run(op) for op in group]
        bad = [r for r in self.check(group, outs) if r is not None]
        if bad:
            raise RuntimeError("warm-up op failed its check: %s" % bad[0])


# --------------------------------------------------------------------------
# exact-connect
# --------------------------------------------------------------------------

#: pair -> (target family, source family, connection parameter names)
_PAIR_FAMILIES = {
    "asc-from-h": (("ASC", "y", "rho", "q"), ("QHermite", "q"), ("y", "rho", "q")),
    "h-from-asc": (("QHermite", "q"), ("ASC", "y", "rho", "q"), ("y", "rho", "q")),
    "uhat-from-h": (("ChebU_hat", "q"), ("QHermite", "q"), ("q",)),
    "h-from-uhat": (("QHermite", "q"), ("ChebU_hat", "q"), ("q",)),
    "rogers-from-rogers": (("Rogers", "gamma", "q"), ("Rogers", "beta", "q"),
                           ("beta", "gamma", "q")),
    "rogers-from-h": (("Rogers", "gamma", "q"), ("QHermite", "q"), ("gamma", "q")),
    "h-from-rogers": (("QHermite", "q"), ("Rogers", "beta", "q"), ("beta", "q")),
    "uhat-from-asc": (("ChebU_hat", "q"), ("ASC", "y", "rho", "q"), ("y", "rho", "q")),
    "kesten-from-asc": (("KestenHat", "y", "rho", "q"), ("ASC", "y", "rho", "q"),
                        ("y", "rho", "q")),
    "t-from-u": (("ChebT",), ("ChebU",), ()),
    "u-from-t": (("ChebU",), ("ChebT",), ()),
    "mehler": (("ClassicalHermite",), ("ASC", "y", "rho", "one"), ("y", "rho")),
}

#: families with exact coefficients, for the coeffs ops
_COEFF_FAMILIES = (
    ("QHermite", "q"), ("Rogers", "beta", "q"), ("ASC", "y", "rho", "q"),
    ("BigB", "q"), ("ChebT",), ("ChebU",), ("ChebT_hat", "q"), ("ChebU_hat", "q"),
    ("ClassicalHermite",), ("Kesten", "y", "rho"), ("KestenHat", "y", "rho", "q"),
)


def _family(spec, p):
    ctor, *names = spec
    return getattr(polyfam, ctor)(*(1 if n == "one" else p[n] for n in names))


class ExactConnect(Workload):
    """Exact rational work: connection triangles, their oracle, coeffs, expansion rows."""

    name = "exact-connect"
    NS = (12, 16, 20, 24)
    COEFF_NS = tuple(range(24, 33))
    ROW_N = 24
    # the float paths of cn_over_k / cn_over_u miss 1e-12 relative on about
    # 0.5% of rows (recorded defect cn-float-cancellation; see probes)
    ROW_IDS = tuple(i for i in expand.EXPANSION_IDS if i not in ("cn_over_k", "cn_over_u"))

    def round(self, r):
        rng = _rng(self.seed, 0, r)
        groups = []
        draws = iter(_rat_columns(rng, len(connect.PAIRS) * len(self.NS), r))
        for pair in connect.PAIRS:
            for n in self.NS:
                p = next(draws)
                groups.append((_op("connection", pair=pair, n=n, **p),
                               _op("oracle", pair=pair, n=n, **p)))
        for j, p in enumerate(_rat_columns(rng, len(self.COEFF_NS), r)):
            n, fam = self.COEFF_NS[j], (j + r) % len(_COEFF_FAMILIES)  # cycled, like the denominators
            groups.append((_op("coeffs", family=fam, n=n, x=_unit_rat(rng) * 2, **p),))
        for eid, p in zip(self.ROW_IDS, _rat_columns(rng, len(self.ROW_IDS), r)):
            groups.append((_op("expansion_row", id=eid, n=self.ROW_N, **p),))
        return _shuffled(rng, groups)

    def warmup(self):
        # denominator 11 lies outside every draw (denominators 3..9)
        p = dict(q=Fraction(2, 11), y=Fraction(3, 11), rho=Fraction(-4, 11),
                 beta=Fraction(5, 11), gamma=Fraction(-1, 11))
        for pair in connect.PAIRS:
            group = (_op("connection", pair=pair, n=4, **p), _op("oracle", pair=pair, n=4, **p))
            self._expect_ok(group)
        for fam in range(len(_COEFF_FAMILIES)):
            self._expect_ok((_op("coeffs", family=fam, n=6, x=Fraction(1, 11), **p),))
        for eid in self.ROW_IDS:
            self._expect_ok((_op("expansion_row", id=eid, n=6, **p),))

    def run(self, op):
        p = op.p
        if op.kind == "connection":
            names = _PAIR_FAMILIES[p["pair"]][2]
            return connect.connection(p["pair"], p["n"], **{k: p[k] for k in names})
        if op.kind == "oracle":
            tgt, src, _ = _PAIR_FAMILIES[p["pair"]]
            return connect.oracle_connection(_family(tgt, p), _family(src, p), p["n"])
        if op.kind == "coeffs":
            return polyfam.coeffs(_family(_COEFF_FAMILIES[p["family"]], p), p["n"])
        if op.kind == "expansion_row":
            return [expand.expansion_coeff(p["id"], k, **_params(p))
                    for k in range(p["n"] + 1)]
        raise ValueError(op.kind)

    def check(self, group, outs):
        if group[0].kind == "connection":
            closed, oracle = outs
            n = group[0].p["n"]
            for i in range(n + 1):
                for k in range(i + 1):
                    if closed.coeff(i, k) != oracle.coeff(i, k):
                        reason = "triangle differs from oracle at (%d, %d)" % (i, k)
                        return [reason, reason]
            return [None, None]
        (op,), (out,) = group, outs
        p = op.p
        if op.kind == "coeffs":
            fam = _family(_COEFF_FAMILIES[p["family"]], p)
            if out(p["x"]) != polyfam.eval(fam, p["n"], p["x"]):
                return ["coeffs polynomial differs from eval"]
            return [None]
        fp = {k: float(v) for k, v in _params(p).items()}
        for k, exact in enumerate(out):
            approx = expand.expansion_coeff(p["id"], k, **fp)
            if not abs(float(exact) - approx) <= 1e-12 * abs(float(exact)):
                return ["exact and float expansion_coeff differ at n=%d" % k]
        return [None]

    def probes(self):
        F = Fraction
        k = _op("expansion_row", id="cn_over_k", n=7, q=F(-1, 5), y=F(-2, 3), rho=F(1, 3),
                beta=F(1, 4), gamma=F(1, 4))
        u = _op("expansion_row", id="cn_over_u", n=2, q=F(-4, 5), y=F(0), rho=F(-2, 3),
                beta=F(1, 2), gamma=F(-1, 2))
        return [("cn-float-cancellation", (k,)), ("cn-float-cancellation", (u,))]


# --------------------------------------------------------------------------
# float-checks
# --------------------------------------------------------------------------

SUITES = ("normalization", "orthogonality", "projection", "chapman", "d-integral")
FLOAT_IDS = tuple(i for i in expand.EXPANSION_IDS if i not in ("mehler_classical", "pm_q0"))


class FloatChecks(Workload):
    """Verification-style float work: run_all suites, expansions, identity battery."""

    name = "float-checks"
    STRATA = 8
    POINTS = 257

    def round(self, r):
        rng = _rng(self.seed, 1, r)
        groups = []
        for suite in SUITES:
            for q in _strata(rng, *q_range(suite), self.STRATA):
                groups.append((_op("suite", suite=suite, q=q),))
        n = self.STRATA
        for eid in FLOAT_IDS:
            for q, y, rho, beta, gamma in zip(_strata(rng, *q_range(eid), n), _shares(rng, n),
                                              _shares(rng, n), _shares(rng, n), _shares(rng, n)):
                L = qortho.support(q).radius
                groups.append((_op("expansion", id=eid, q=q, y=y * L, rho=rho,
                                   beta=beta, gamma=gamma),))
        for q in _strata(rng, *q_range("identity"), self.STRATA):
            groups.append((_op("identity", q=q),))
        return _shuffled(rng, groups)

    def warmup(self):
        q = 0.05  # a fixed q; draws are continuous and never repeat it
        L = qortho.support(q).radius
        for suite in SUITES:
            self._expect_ok((_op("suite", suite=suite, q=q),))
        for eid in FLOAT_IDS:
            self._expect_ok((_op("expansion", id=eid, q=q, y=0.25 * L, rho=0.3,
                                  beta=0.3, gamma=0.3),))
        self._expect_ok((_op("identity", q=q),))

    def _xs(self, q):
        L = qortho.support(q).radius
        return np.linspace(-L, L, self.POINTS)

    def run(self, op):
        p = op.p
        if op.kind == "suite":
            return verify.run_all({"suites": (p["suite"],), "q_grid": (p["q"],)})
        if op.kind == "expansion":
            spec = expand.ExpansionSpec(p["id"], _params(p))
            return expand.expansion_eval(spec, self._xs(p["q"]))
        if op.kind == "identity":
            return expand.identity_suite(q_grid=(p["q"],))
        raise ValueError(op.kind)

    def check(self, group, outs):
        (op,), (out,) = group, outs
        p = op.p
        if op.kind == "suite":
            reports, _ = out
            bad = sorted({r.check_id for r in reports if not r.passed})
            return ["failed checks: " + " ".join(bad) if bad else None]
        if op.kind == "expansion":
            target = expand.target_density(p["id"], _params(p))
            want = densities.density_eval(target, self._xs(p["q"]))
            err = float(np.max(np.abs(out.value - want)))
            return [None if err <= 1e-7 else "expansion off target by %.3g" % err]
        bad = sorted({r.check_id for r in out if not r.passed})
        return ["failed identities: " + " ".join(bad) if bad else None]

    def probes(self):
        def expansion(eid, q, share):
            L = qortho.support(q).radius
            return _op("expansion", id=eid, q=q, y=share * L, rho=share, beta=share,
                       gamma=share)

        return [("chebt-hat-orthogonality", (_op("suite", suite="orthogonality", q=0.72),)),
                ("expansion-truncation-high-q", (expansion("u_over_n", 0.86, 0.3),)),
                ("expansion-truncation-high-q", (expansion("r_over_n", 0.89, 0.8),)),
                ("identity-high-q", (_op("identity", q=0.89),))]


# --------------------------------------------------------------------------
# sample-batch
# --------------------------------------------------------------------------


class SampleBatch(Workload):
    """Rejection sampling of fN and fCN under the semicircle envelope."""

    name = "sample-batch"
    STRATA = 8
    DRAWS = 4_000  # one 65 536-point proposal batch for 94% of ops; see README
    KS_ALPHA = 1e-9  # false-alarm rate of the KS bound (DKW inequality)
    ACCEPT_Z = 6.0  # acceptance-rate check width in binomial standard deviations

    def round(self, r):
        rng = _rng(self.seed, 2, r)
        groups = []
        n = self.STRATA
        # the rejection constant, and so the number of proposal batches an op
        # needs, depends on (q, y, rho) jointly: fixed cells keep that count,
        # and with it op_p90_ms, the same from seed to seed
        for target in ("fn", "fcn"):
            for q, y, rho in zip(_strata(rng, *Q_RANGE, n), _cells(rng, n, 5, 2 * r),
                                 _cells(rng, n, 3, r)):
                L = qortho.support(q).radius
                groups.append((_op("sample", target=target, q=q, y=y * L, rho=rho,
                                   seed=int(rng.integers(2 ** 31))),))
        return _shuffled(rng, groups)

    def warmup(self):
        for target in ("fn", "fcn"):
            op = _op("sample", target=target, q=0.05, y=0.3, rho=0.3, seed=0)
            sampler.sample(self._density(op.p), 200, seed=0, batch=4096)

    @staticmethod
    def _density(p):
        if p["target"] == "fn":
            return densities.fN(p["q"])
        return densities.fCN(p["y"], p["rho"], p["q"])

    def run(self, op):
        p = op.p
        return sampler.sample(self._density(p), self.DRAWS, seed=p["seed"])

    def check(self, group, outs):
        (op,), (res,) = group, outs
        dens = self._density(op.p)
        x = res.samples
        L = qortho.support(dens.q).radius
        if x.shape != (self.DRAWS,) or not np.all(np.abs(x) <= L):
            return ["samples missing or outside S(q)"]
        ks = sampler.ks_statistic(x, dens)
        ks_bound = math.sqrt(math.log(2.0 / self.KS_ALPHA) / (2.0 * self.DRAWS))
        if not ks <= ks_bound:
            return ["KS distance %.4f above %.4f" % (ks, ks_bound)]
        p = 1.0 / res.envelope
        sigma = math.sqrt(p * (1.0 - p) / res.n_proposed)
        if not abs(res.acceptance_rate - p) <= self.ACCEPT_Z * sigma:
            return ["acceptance %.4f vs 1/M = %.4f" % (res.acceptance_rate, p)]
        return [None]


# --------------------------------------------------------------------------
# cli-cold
# --------------------------------------------------------------------------

_CLI_FAMILIES = {
    "qhermite": ("q",), "rogers": ("beta", "q"), "asc": ("y", "rho", "q"),
    "bigb": ("q",), "chebt": (), "chebu": (), "chebt-hat": ("q",),
    "chebu-hat": ("q",), "hermite": (), "kesten": ("y", "rho"),
    "kesten-hat": ("y", "rho", "q"),
}
_CLI_DENSITIES = ("fn", "fcn", "fr", "fu", "ft", "fk")


def _fmt(v):
    return str(v) if isinstance(v, Fraction) else repr(v)


def _flags(p, names):
    # --name=value, so that values such as -1/3 are not read as options
    return ["--%s=%s" % (n, _fmt(p[n])) for n in names]


class CliCold(Workload):
    """Each of the 7 CLI subcommands as its own cold ``python -m qortho.cli`` child."""

    name = "cli-cold"
    SUBCOMMANDS = ("eval", "coeffs", "density", "expand", "connect", "verify", "sample")
    Q_SLICES = 8
    spawns_children = True

    def __init__(self, seed, workdir="."):
        super().__init__(seed, workdir)
        self.trace = False  # the worker sets these two for traced rounds
        self.op_id = 0
        self.child_stats = []  # (stats json text, bytes written) per traced child
        self.cli = None
        self.spawner = None
        self.max_child_kb = 0

    def round(self, r):
        rng = _rng(self.seed, 3, r)
        groups = [(_op("cli", argv=tuple(self._argv(sub, rng, r))),) for sub in self.SUBCOMMANDS]
        return _shuffled(rng, groups)

    def _argv(self, sub, rng, r):
        rat = _rat_draws(rng)
        # the verify suite (an orthogonality child takes about five times as
        # long as the others), the sample target and the slice of the q range
        # follow the round number, so every run has as many slow children as
        # any other: op_p90_ms depends on it
        suite = SUITES[r % len(SUITES)]
        eid = FLOAT_IDS[int(rng.integers(len(FLOAT_IDS)))]
        lo, hi = q_range({"verify": suite, "expand": eid}.get(sub))
        k = (3 * r + self.SUBCOMMANDS.index(sub)) % self.Q_SLICES
        q = lo + (hi - lo) * (k + float(rng.uniform())) / self.Q_SLICES
        L = qortho.support(q).radius
        flt = dict(q=q, y=_share(rng) * L, rho=_share(rng), beta=_share(rng), gamma=_share(rng))
        if sub in ("eval", "coeffs"):
            fam = sorted(_CLI_FAMILIES)[int(rng.integers(len(_CLI_FAMILIES)))]
            argv = [sub, "--family=" + fam, "--n=%d" % rng.integers(3, 13)]
            argv += _flags(rat, _CLI_FAMILIES[fam])
            if sub == "eval":
                argv.append("--x=%s,%s" % (_unit_rat(rng) * 2, _unit_rat(rng) * 2))
            return argv
        if sub in ("density", "expand"):
            xs = ",".join(repr(float(v)) for v in rng.uniform(-0.95, 0.95, 4) * L)
            if sub == "density":
                dens = _CLI_DENSITIES[int(rng.integers(len(_CLI_DENSITIES)))]
                return [sub, "--density=" + dens, "--x=" + xs] + \
                    _flags(flt, ("q", "y", "rho", "beta"))
            return [sub, "--id=" + eid, "--x=" + xs] + \
                _flags(flt, ("q", "y", "rho", "beta", "gamma"))
        if sub == "connect":
            pair = connect.PAIRS[int(rng.integers(len(connect.PAIRS)))]
            return [sub, "--pair=" + pair, "--n=%d" % rng.integers(4, 13)] + \
                _flags(rat, ("q", "y", "rho", "beta", "gamma"))
        if sub == "verify":
            return [sub, "--suite=" + suite, "--q-grid=" + repr(q)]
        target = ("fn", "fcn")[r % 2]
        return [sub, "--target=" + target, "--n=500", "--batch=4096",
                "--seed=%d" % rng.integers(2 ** 31)] + _flags(flt, ("q", "y", "rho"))

    def warmup(self):
        from qortho import cli

        self.cli = cli
        # children are spawned from a small helper, so their peak memory is their own
        spawner = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawner.py")
        self.spawner = subprocess.Popen([sys.executable, spawner],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        # one cold child; also compiles and caches the library's bytecode
        op = _op("cli", argv=("eval", "--family=qhermite", "--n=3", "--q=1/11", "--x=1"))
        code, _ = self.run(op)
        if code != 0:
            raise RuntimeError("warm-up CLI child exited with %d" % code)

    def _out(self, tag):
        return os.path.join(self.workdir, "cli-%s.out" % tag)

    def run(self, op):
        out, stats = self._out("child"), self._out("stats")
        for path in (out, stats):
            if os.path.exists(path):
                os.remove(path)
        argv = list(op.p["argv"]) + ["--out=" + out]
        if self.trace:
            cmd = [sys.executable, "-m", "qbench.clichild", stats, str(self.op_id), "--"] + argv
        else:
            cmd = [sys.executable, "-m", "qortho.cli"] + argv
        self.spawner.stdin.write(json.dumps(cmd) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        code = reply["code"]
        self.max_child_kb = max(self.max_child_kb, reply["maxrss_kb"])
        data = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
        if self.trace:
            with open(stats) as fh:
                self.child_stats.append((fh.read(), len(data)))
        return code, data

    def peak_rss_mb(self):
        return self.max_child_kb / 1024.0

    def close(self):
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait()
            self.spawner.stdout.close()
            self.spawner = None

    def check(self, group, outs):
        (op,), ((code, data),) = group, outs
        if code != 0:
            return ["exit code %d" % code]
        ref = self._out("ref")
        ref_code = self.cli.main(list(op.p["argv"]) + ["--out=" + ref])
        with open(ref, "rb") as fh:
            if ref_code != 0 or fh.read() != data:
                return ["child output differs from in-process cli.main"]
        return [None]

    def probes(self):
        return [("chebt-hat-orthogonality", (_op("cli", argv=(
            "verify", "--suite=orthogonality", "--q-grid=0.72")),)),
                ("expansion-truncation-high-q", (_op("cli", argv=(
                    "expand", "--id=u_over_n", "--x=0.0,0.5", "--q=0.86")),))]


WORKLOADS = {w.name: w for w in (ExactConnect, FloatChecks, SampleBatch, CliCold)}
