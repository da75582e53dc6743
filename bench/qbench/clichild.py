"""Traced stand-in for ``python -m qortho.cli`` in traced cli-cold rounds.

``python -m qbench.clichild STATS OP_ID -- ARGV...`` imports ``qortho.cli``
(timed), installs the tracer, runs ``cli.main(ARGV)``, writes the import time,
the per-layer totals and the spans to the JSON file STATS and exits with
main's exit code.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main():
    stats_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: python -m qbench.clichild STATS OP_ID -- ARGV...")
    t = time.perf_counter()
    from qortho import cli

    import_s = time.perf_counter() - t
    from qbench import trace

    tracer = trace.Tracer()
    tracer.start_op(int(op_id))
    with tracer:
        code = cli.main(argv)
    spans = tracer.take()
    with open(stats_path, "w") as fh:
        json.dump({"import_s": import_s, "layers": trace.summarize(spans), "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
