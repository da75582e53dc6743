"""Benchmark entry point for qortho.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Prints one ``# meta {...}`` line of
run metadata and, as the last line, ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See bench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exact-connect", "float-checks", "sample-batch", "cli-cold")
SETUP_REPEATS = 5  # fresh-interpreter set-ups per run; setup_s is their median
BLAS_THREADS = "1"
RUN_LIMIT_S = 175.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_ratio": "1", "peak_rss_mb": "MB",
}
LAYERS = ("qcore", "polyfam", "densities", "connect", "expand", "verify", "sampler", "cli")
PER_LAYER = {
    "qcore.calls": "count", "qcore.self_s": "s", "qcore.trunc_factors": "count",
    "polyfam.calls": "count", "polyfam.exact_s": "s", "polyfam.float_s": "s",
    "polyfam.steps": "count",
    "densities.calls": "count", "densities.self_s": "s", "densities.points": "count",
    "densities.ns_per_point": "ns",
    "connect.calls": "count", "connect.self_s": "s", "connect.oracle_s": "s",
    "connect.entries": "count",
    "expand.calls": "count", "expand.self_s": "s", "expand.terms": "count",
    "verify.calls": "count", "verify.self_s": "s", "verify.nodes": "count",
    "sampler.calls": "count", "sampler.self_s": "s", "sampler.proposals": "count",
    "sampler.accept_ratio": "1",
    "cli.calls": "count", "cli.self_s": "s", "cli.import_s": "s", "cli.bytes_out": "B",
}
PER_LAYER.update({layer + ".errors": "count" for layer in LAYERS})
PER_LAYER.update({"trace_overhead": "1", "fail_ratio": "1"})


def fail(msg):
    print("bench: " + msg, file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(BENCH)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every process
    return env


def run_worker(args, deadline, extra=()):
    cmd = [sys.executable, "-m", "qbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--outdir", str(BENCH / "out"), *extra]
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        fail("worker exceeded the run time limit")
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        fail("worker exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qortho" / "__init__.py").is_file():
        fail("no qortho sources under %s; run from a source checkout" % (ROOT / "src"))
    deadline = time.perf_counter() + RUN_LIMIT_S
    (BENCH / "out").mkdir(exist_ok=True)

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            setups.append(run_worker(args, deadline, ["--setup-only"])[1])
    res, _ = run_worker(args, deadline)

    if args.trace:
        values = dict(res["per_layer"], fail_ratio=res["fail_ratio"])
        units = PER_LAYER
    else:
        values = dict(res["end_to_end"], setup_s=statistics.median(setups))
        units = END_TO_END
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": res["numpy"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "git_sha": git_sha(), "src_lines": src_lines(),
        "op_samples": res["op_samples"], "round_walls_s": res["round_walls_s"],
        "setup_samples_s": setups, "worker_setup_s": res["worker_setup_s"],
        "recorded_defects": res["recorded_defects"], "failures": res["failures"],
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
