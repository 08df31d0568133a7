"""Benchmark for riskbid: runs one workload in this process and reports it.

    python3 bench/run.py --workload fpa-statics --seed 1 --seconds 20 --trace 0

Workloads: fpa-statics, spa-statics, safety-batch, replay (see
bench/README.md).  The library is imported from ``src/`` next to this
directory; the run stops with exit code 2 when it is not there.

Set-up (import of riskbid, input generation from the seed, warm-up) is
timed before the measured loop; generation and warm-up are repeated and
their median is added to the import time.  The loop then runs whole
rounds of operations until ``--seconds`` have passed.  Every operation
checks its own output; one that fails a check is counted in ``failed``
and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same rounds first untraced and then traced, reports the per-layer
metrics and the tracing overhead, and writes spans.json and layers.json
under bench/out/trace/.  A human-readable table goes to stderr; the last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 3
#: failed operations whose traceback is printed in full
SHOW_FAILURES = 3

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

_clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fpa-statics", "spa-statics", "safety-batch", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(workload, tr, seconds, op_ids, rounds=None):
    """Run whole rounds until ``seconds`` pass (or ``rounds`` are done).

    Returns (attempted, failed, latencies in s, elapsed s, rounds run).
    """
    latencies, failed = [], 0
    start = _clock()
    r = 0
    while True:
        for kind, op in workload.round(r):
            tr.op = next(op_ids)
            t0 = _clock()
            try:
                with tr.span("op." + kind):
                    op(tr)
            except Exception as exc:  # an op that fails is counted; the run goes on
                failed += 1
                if failed <= SHOW_FAILURES:
                    print(f"op {tr.op} ({kind}) failed: {exc!r}", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
            latencies.append(_clock() - t0)
        r += 1
        if (rounds is None and _clock() - start >= seconds) or r == rounds:
            break
    return len(latencies), failed, latencies, _clock() - start, r


def _print_table(title, metrics):
    print(title, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}", file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "riskbid", "__init__.py")):
        print(f"error: riskbid sources not found under {SRC}", file=sys.stderr)
        return 2

    t0 = _clock()
    sys.path.insert(0, SRC)
    import riskbid
    import tracing
    import workloads
    import_s = _clock() - t0
    if not os.path.abspath(riskbid.__file__).startswith(SRC + os.sep):
        print(f"error: imported riskbid from {riskbid.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    null = tracing.NullTracer()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = _clock()
        workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
        workload.warm_up(null)
        setup_times.append(_clock() - t0)

    op_ids = itertools.count()
    if not args.trace:
        attempted, failed, latencies, elapsed, _ = run_rounds(workload, null, args.seconds, op_ids)
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "ops_per_s": (attempted - failed) / elapsed,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    else:
        # the same rounds untraced, then traced: their time ratio is the overhead
        attempted, failed, _, plain_s, rounds = run_rounds(workload, null, args.seconds / 2, op_ids)
        with tracing.installed() as tr:
            traced = run_rounds(workload, tr, None, op_ids, rounds=rounds)
        attempted += traced[0]
        failed += traced[1]
        overhead_pct = 100.0 * (traced[3] / plain_s - 1.0)
        metrics = tracing.layer_table(tr, traced[0], overhead_pct)
        trace_dir = os.path.join(OUT, "trace", f"{args.workload}-seed{args.seed}")
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, "spans.json"), "w") as fh:
            json.dump([
                {"id": sid, "op": op, "name": name, "start_ms": start * 1e3,
                 "end_ms": end * 1e3, "parent": parent, "work": work}
                for sid, op, name, start, end, parent, work in tr.spans
            ], fh)
        with open(os.path.join(trace_dir, "layers.json"), "w") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed, "rounds": rounds,
                "untraced_s": plain_s, "traced_s": traced[3], "overhead_pct": overhead_pct,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }, fh, indent=1)

    _print_table(f"{args.workload} seed={args.seed} trace={args.trace}: "
                 f"{attempted} ops, {failed} failed", metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
