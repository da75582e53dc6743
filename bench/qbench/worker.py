"""One workload in one fresh process: set up, run a closed loop, report.

Run as ``python -m qbench.worker --workload NAME --seed N --seconds S
--trace 0|1 --outdir DIR [--setup-only]`` with ``src`` and ``bench`` on
``PYTHONPATH``.  The last stdout line is a JSON object (see :func:`main`).
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before numpy and qortho load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# workloads imports numpy and qortho, so their import time counts in set-up
from qbench import trace as tr  # noqa: E402
from qbench import workloads  # noqa: E402

MIN_OPS = 100  # p90 needs at least 10 samples above it
HARD_STOP_S = 150.0  # give up before the runner's time limit


class Loop:
    """Closed loop with one client: each op starts when the previous one ends.

    Untraced runs go through rounds 0, 1, 2, ... and may stop inside a round.
    Traced runs go in blocks of four: rounds 2k and 2k+1 in one mode, then the
    same two rounds in the other, so the overhead compares identical ops; the
    second round in between evicts the library's small caches.  Even blocks
    run untraced first and odd blocks traced first, so slow drift cancels.
    """

    def __init__(self, wl, first_rounds, seconds, trace, spans_path=None):
        self.wl = wl
        self.rounds = first_rounds
        self.seconds = seconds
        self.trace = trace
        self.spans_path = spans_path
        self.latencies = []  # untraced op latencies, s
        self.walls = {False: [], True: []}  # op time of each complete round
        self.attempted = 0
        self.failures = {}  # reason -> count
        self.layers = None  # per-layer totals over traced rounds (set in run)
        self.op_id = 0

    def _round(self, r):
        while len(self.rounds) <= r:
            self.rounds.append(self.wl.round(len(self.rounds)))
        return self.rounds[r]

    def run(self):
        self.tracer = tr.Tracer()
        self.layers = tr.empty_totals()
        self.children = self.wl.spawns_children
        self.spans_out = tr.SpanWriter(self.spans_path) if self.spans_path else None
        self.start = time.perf_counter()
        try:
            if self.trace:
                k, block = 0, 0.0
                # another block only if one more like the last fits in the run time
                while k == 0 or self._elapsed() + block <= min(self.seconds, HARD_STOP_S):
                    t = time.perf_counter()
                    for traced in ((False, True) if k % 2 == 0 else (True, False)):
                        for r in (2 * k, 2 * k + 1):
                            self.walls[traced].append(self._run_round(r, traced))
                    block = time.perf_counter() - t
                    k += 1
            else:
                r = 0
                while True:
                    wall = self._run_round(r, False, stoppable=True)
                    if wall is None:
                        break
                    self.walls[False].append(wall)
                    r += 1
        finally:
            self.tracer.uninstall()
            if self.spans_out:
                self.spans_out.close()
        if not self.walls[False]:
            raise RuntimeError("no complete round within %.0f s" % HARD_STOP_S)

    def _elapsed(self):
        return time.perf_counter() - self.start

    def _stop(self):
        elapsed = self._elapsed()
        return elapsed >= HARD_STOP_S or (
            elapsed >= self.seconds and self.walls[False] and len(self.latencies) >= MIN_OPS)

    def _run_round(self, r, traced, stoppable=False):
        """Run round r; return its op time, or None when the run ended inside it."""
        in_process = traced and not self.children
        if self.children:
            self.wl.trace = traced
            self.wl.child_stats = []
        total = 0.0
        for group in self._round(r):
            if stoppable and self._stop():
                return None
            outs = []
            for op in group:
                if in_process:
                    self.tracer.start_op(self.op_id)
                    self.tracer.install()
                if traced and self.children:
                    self.wl.op_id = self.op_id
                t = time.perf_counter()
                try:
                    out = self.wl.run(op)
                except Exception as exc:  # a failed op is counted, not fatal
                    out = exc
                dt = time.perf_counter() - t
                if in_process:
                    self.tracer.uninstall()
                outs.append(out)
                total += dt
                if not traced:
                    self.latencies.append(dt)
                self.op_id += 1
            self._check(group, outs)
        if traced:
            spans = self.tracer.take()
            tot = tr.summarize(spans)
            batches = self._add_children(tot) if self.children else [spans]
            tr.add_totals(self.layers, tot)
            if self.spans_out:
                for batch in batches:
                    self.spans_out.write(batch)
        return total

    def _add_children(self, tot):
        """Fold the traced CLI children's totals into tot; return their span lists."""
        batches = []
        for text, nbytes in self.wl.child_stats:
            child = json.loads(text)
            tr.add_totals(tot, child["layers"])
            tot["cli.import_s"] += child["import_s"]
            tot["cli.bytes_out"] += nbytes
            batches.append(child["spans"])
        return batches

    def _check(self, group, outs):
        for op, reason in zip(group, check_group(self.wl, group, outs)):
            self.attempted += 1
            if reason is not None:
                key = "%s: %s" % (op.kind, reason[:160])
                self.failures[key] = self.failures.get(key, 0) + 1


def check_group(wl, group, outs):
    """One failure reason (or None) per op of a group that has run."""
    if any(isinstance(o, Exception) for o in outs):
        return ["%s: %s" % (type(o).__name__, o) if isinstance(o, Exception)
                else "not checked: another op of its group raised" for o in outs]
    try:
        return wl.check(group, outs)
    except Exception as exc:  # a check that cannot run is a failure
        return ["check raised %s: %s" % (type(exc).__name__, exc)] * len(group)


def run_probes(wl):
    """Run the recorded-defect probes untimed; per defect, how many still fail."""
    if wl.spawns_children:
        wl.trace = False
    found = {}
    for name, group in wl.probes():
        outs = []
        for op in group:
            try:
                outs.append(wl.run(op))
            except Exception as exc:
                outs.append(exc)
        counts = found.setdefault(name, {"probes": 0, "failing": 0})
        counts["probes"] += len(group)
        counts["failing"] += sum(r is not None for r in check_group(wl, group, outs))
    return found


def _per_layer(loop):
    n = len(loop.walls[True])
    tot = loop.layers
    out = {k: v / n for k, v in tot.items() if k != "sampler.accepted"}
    out["densities.ns_per_point"] = (
        1e9 * tot["densities.self_s"] / tot["densities.points"] if tot["densities.points"] else 0.0)
    out["sampler.accept_ratio"] = (
        tot["sampler.accepted"] / tot["sampler.proposals"] if tot["sampler.proposals"] else 0.0)
    out["trace_overhead"] = sum(loop.walls[True]) / sum(loop.walls[False]) - 1.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", default=".")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.outdir)
    try:
        first = [wl.round(r) for r in range(4)]  # generate the first rounds' inputs
        wl.warmup()
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        spans_path = None
        if args.trace:
            spans_path = os.path.join(args.outdir, "spans-%s.csv.gz" % args.workload)
        loop = Loop(wl, first, args.seconds, bool(args.trace), spans_path)
        loop.run()
        peak_rss_mb = wl.peak_rss_mb()
        defects = run_probes(wl)
    finally:
        wl.close()

    failed = sum(loop.failures.values())
    result = {
        "attempted": loop.attempted,
        "failed": failed,
        "recorded_defects": defects,
        "failures": loop.failures,
        "op_samples": len(loop.latencies),
        "round_walls_s": {"untraced": loop.walls[False], "traced": loop.walls[True]},
        "worker_setup_s": setup_s,
        "fail_ratio": failed / loop.attempted,
        "numpy": sys.modules["numpy"].__version__,
    }
    if args.trace:
        result["per_layer"] = _per_layer(loop)
    else:
        deciles = statistics.quantiles(loop.latencies, n=10, method="inclusive")
        result["end_to_end"] = {
            "wall_s": statistics.median(loop.walls[False]),
            "op_p50_ms": 1e3 * deciles[4],
            "op_p90_ms": 1e3 * deciles[8],
            "ok_ratio": 1.0 - failed / loop.attempted,
            "peak_rss_mb": peak_rss_mb,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
