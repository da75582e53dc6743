"""Tests of the benchmark harness itself (op lists, tracer, runner contract)."""

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import qortho  # noqa: E402
from qortho import cli, connect, densities, expand, polyfam, sampler, verify  # noqa: E402

import run  # noqa: E402
from qbench import trace, workloads  # noqa: E402

F = Fraction


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_op_lists(name):
    cls = workloads.WORKLOADS[name]
    a = [cls(7).round(r) for r in range(3)]
    b = [cls(7).round(r) for r in range(3)]
    c = [cls(8).round(r) for r in range(3)]
    assert a == b
    assert a != c
    assert a[0] != a[1]  # each round draws fresh parameters
    assert [len(r) for r in a] == [len(a[0])] * 3  # every round has the same op list


def _q_key(op):
    """The Q_TOP key of an op: its suite, expansion id or kind."""
    p = op.p
    if op.kind == "cli":  # only verify and expand have a limited q range
        sub, flags = p["argv"][0], dict(f[2:].split("=", 1) for f in p["argv"][1:])
        if sub == "verify":
            return flags["suite"], float(flags["q-grid"])
        return (flags["id"], float(flags["q"])) if sub == "expand" else (None, None)
    return p.get("suite", p.get("id", op.kind)), p.get("q")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_ops_keep_clear_of_the_recorded_defects(name):
    for r in range(3):
        for group in workloads.WORKLOADS[name](7).round(r):
            for op in group:
                key, q = _q_key(op)
                assert op.p.get("id") not in ("cn_over_k", "cn_over_u") or op.kind != "expansion_row"
                if isinstance(q, float):
                    lo, hi = workloads.q_range(key)
                    assert lo <= q <= hi, (op, lo, hi)


def test_probes_report_every_recorded_defect():
    from qbench import worker

    wl = workloads.FloatChecks(1)
    found = worker.run_probes(wl)
    assert set(found) == {"chebt-hat-orthogonality", "expansion-truncation-high-q",
                          "identity-high-q"}
    assert all(0 <= v["failing"] <= v["probes"] and v["probes"] >= 1 for v in found.values())


def _calls():
    """A few calls across every in-process layer, returning comparable results."""
    q = F(1, 3)
    out = []
    m = connect.connection("kesten-from-asc", 5, y=F(2, 5), rho=F(1, 4), q=q)
    out.append(m.rows)
    o = connect.oracle_connection(polyfam.KestenHat(F(2, 5), F(1, 4), q),
                                  polyfam.ASC(F(2, 5), F(1, 4), q), 5)
    out.append(o.rows)
    out.append(polyfam.coeffs(polyfam.Rogers(F(1, 5), q), 7).coeffs)
    out.append([expand.expansion_coeff("cn_over_u", n, y=F(1, 3), rho=F(1, 2), q=q)
                for n in range(6)])
    xs = np.linspace(-1.5, 1.5, 33)
    out.append(densities.density_eval(densities.fCN(0.3, 0.5, 0.4), xs).tolist())
    res = expand.expansion_eval(expand.ExpansionSpec("cn_over_n", {"q": 0.4, "y": 0.3,
                                                                   "rho": 0.5}), xs)
    out.append((res.value.tolist(), res.tail.tolist(), res.n_terms))
    reports, ok = verify.run_all({"suites": ("normalization", "projection"), "q_grid": (0.3,)})
    out.append((reports, ok))
    s = sampler.sample(densities.fN(0.4), 300, seed=5, batch=4096)
    out.append((s.samples.tolist(), s.acceptance_rate, s.n_proposed, s.envelope))
    out.append(qortho.q_binomial(9, 4, q))
    return out


def test_wrapped_functions_return_exactly_what_unwrapped_ones_do(tmp_path):
    plain = _calls()
    before = connect.connection
    with trace.Tracer() as tracer:
        assert connect.connection is not before  # the tracer is bound in
        assert qortho.connection is connect.connection
        assert expand.density_eval is densities.density_eval  # from-imports too
        traced = _calls()
        spans = tracer.take()
    assert connect.connection is before and qortho.connection is before
    assert traced == plain
    layers = {s[trace.LAYER] for s in spans}
    assert {"qcore", "polyfam", "densities", "connect", "expand", "verify",
            "sampler"} <= layers

    argv = ["connect", "--pair=h-from-asc", "--n=3", "--q=1/3", "--y=-2/5", "--rho=1/4"]
    cli.main(argv + ["--out=%s" % (tmp_path / "a")])
    with trace.Tracer():
        cli.main(argv + ["--out=%s" % (tmp_path / "b")])
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_traced_self_times_sum_to_at_most_wall_time():
    with trace.Tracer() as tracer:
        t = time.perf_counter()
        results = _calls()
        wall = time.perf_counter() - t
        spans = tracer.take()
    selfs = trace.self_times(spans)
    assert min(selfs) >= -1e-9
    assert sum(selfs) <= wall
    tot = trace.summarize(spans)
    layer_self = sum(tot[layer + ".self_s"] for layer in trace.LAYERS)
    assert abs(layer_self - sum(selfs)) < 1e-9
    assert tot["sampler.proposals"] == results[7][2]
    assert tot["qcore.trunc_factors"] > 0 and tot["verify.nodes"] > 0
    assert tot["polyfam.exact_s"] > 0 and tot["polyfam.float_s"] > 0


def test_errors_are_counted_once_where_they_start():
    with trace.Tracer() as tracer:
        with pytest.raises(qortho.ParameterError):
            expand.expansion_eval(expand.ExpansionSpec("n_over_u", {"q": 0.3}), 99.0)
        tot = trace.summarize(tracer.take())
    assert sum(tot[layer + ".errors"] for layer in trace.LAYERS) == 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact-connect",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_cli_children_report_their_own_peak_memory(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    wl = workloads.CliCold(1, str(tmp_path))
    wl.warmup()  # starts the spawner and runs one cold CLI child
    try:
        code, data = wl.run(wl.round(0)[0][0])
    finally:
        wl.close()
    assert code == 0 and data.startswith(b"# qortho v1")
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert 0 < wl.max_child_kb < own_kb
    assert wl.spawner is None
