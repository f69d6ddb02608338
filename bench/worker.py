"""One pass of one workload, in a fresh process.

Writes the workload's inputs, runs every verdict once (one at a time, on one
thread), then checks each output against its known answer.  --mode spans
puts the tracer's spans and counters on while the verdicts run, --mode alloc
tracemalloc; the two are kept apart because tracemalloc alone slows some
verdicts tenfold.  Prints one JSON line: the first-call time, each verdict's
seconds and error, peak RSS, and the per-layer metrics of the mode.

Run by run.py with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import tracemalloc
from pathlib import Path

import workloads
from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "alloc"), default="plain")
    parser.add_argument("--smallest", action="store_true")
    parser.add_argument("--spans", help="file to write the spans to")
    args = parser.parse_args()

    verdicts = workloads.build(args.workload, args.seed, Path(args.workdir))
    if args.smallest:
        verdicts = [v for v in verdicts if v.smallest]
    tracer = Tracer() if args.mode == "spans" else None
    if tracer:
        tracer.install()
    if args.mode == "alloc":
        tracemalloc.start()

    first_call = time.monotonic()
    outputs, seconds = [], []
    for i, verdict in enumerate(verdicts):
        if tracer:
            tracer.verdict = i
        start = time.perf_counter()
        try:
            out = verdict.call()
        except Exception as exc:  # a verdict that raises is a failed verdict
            out = exc
        seconds.append(time.perf_counter() - start)
        outputs.append(out)

    result = {"first_call": first_call}
    if args.mode == "alloc":
        result["layers"] = {"trace.alloc_peak_mb": tracemalloc.get_traced_memory()[1] / 2 ** 20}
        tracemalloc.stop()
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.dump(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    records = []
    for verdict, out, secs in zip(verdicts, outputs, seconds):
        if isinstance(out, Exception):
            error = f"raised {type(out).__name__}: {out}"
        else:
            try:
                error = verdict.check(out)
            except Exception as exc:  # malformed output, e.g. JSON that does not parse
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append({"name": verdict.name, "seconds": secs, "error": error})
    result["verdicts"] = records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
