"""Benchmark entry point: python3 bench/run.py --workload W --seed N
--seconds S --trace 0|1, from the root of a checkout.

Closed loop, one verdict at a time: the runner starts a fresh worker process
for each pass over the workload's instance list, waits for it, and starts
the next while a pass of median length still ends within --seconds, so a
run ends within --seconds.  Every figure is a median over passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes.  --trace 1 reports the per-layer metrics: it alternates untraced
passes with passes under the tracer's spans and counters until --seconds
have passed, then makes one tracemalloc pass for trace.alloc_peak_mb;
trace.overhead_frac compares the first two kinds of pass.

Prints each metric with its unit and the median time of each instance, and
as its last line one JSON object: correct, attempted, failed, metrics.
Exits 2 when the checkout holds no cind sources, 1 when a pass breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 175  # a run must end within 180 s, whatever its passes do


def _run_pass(args, env, workdir: Path, mode: str, limit: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir / "inputs"), "--mode", mode]
    if args.smallest:
        cmd.append("--smallest")
    if mode == "spans":
        cmd += ["--spans", str(workdir.parent / f"spans-{args.workload}-seed{args.seed}.json")]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, limit - time.monotonic()))
    shutil.rmtree(workdir / "inputs", ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_call"] - spawned
    result["wall_s"] = sum(v["seconds"] for v in result["verdicts"])
    result["max_verdict_s"] = max(v["seconds"] for v in result["verdicts"])
    return result


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smallest", action="store_true",
                        help="only the smallest instances (the benchmark's own tests)")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    src = ROOT / "src"
    if not (src / "cind" / "__init__.py").is_file():
        print(f"bench: no cind sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    limit = time.monotonic() + RUN_LIMIT_S
    runs = {"plain": [], "spans": [], "alloc": []}
    try:
        # compile cind's bytecode once, outside any timed pass
        subprocess.run([sys.executable, "-c", "import cind.cli, cind.gallery"], env=env,
                       check=True, timeout=RUN_LIMIT_S)
        deadline = time.monotonic() + args.seconds
        lengths = []
        while True:
            if not args.trace or len(runs["spans"]) == len(runs["plain"]):
                mode = "plain"
            else:
                mode = "spans"
            started = time.monotonic()
            runs[mode].append(_run_pass(args, env, workdir, mode, limit))
            lengths.append(time.monotonic() - started)
            if ((not args.trace or runs["spans"])
                    and time.monotonic() + statistics.median(lengths) > deadline):
                break
        if args.trace:
            runs["alloc"].append(_run_pass(args, env, workdir, "alloc", limit))
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain, traced = runs["plain"], runs["spans"]
    passes = plain + traced + runs["alloc"]
    records = [v for p in passes for v in p["verdicts"]]
    failures = [v for v in records if v["error"] is not None]
    for v in failures:
        print(f"bench: FAILED {v['name']}: {v['error']}", file=sys.stderr)

    if args.trace:
        # median_low keeps a count an integer, as measured
        values = {key: statistics.median_low(p["layers"][key] for p in traced)
                  for key in traced[0]["layers"]}
        values["trace.overhead_frac"] = _median(traced, "wall_s") / _median(plain, "wall_s") - 1
        values["trace.alloc_peak_mb"] = runs["alloc"][0]["layers"]["trace.alloc_peak_mb"]
        wanted = spec["per_layer"]
    else:
        values = {key: _median(plain, key)
                  for key in ("wall_s", "max_verdict_s", "peak_rss_mb", "setup_s")}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"# {args.workload} seed {args.seed}: passes "
          + ", ".join(f"{len(p)} {mode}" for mode, p in runs.items() if p)
          + f"; {len(records)} verdicts")
    names = [v["name"] for v in passes[0]["verdicts"]]
    for i, name in enumerate(names):
        secs = statistics.median(p["verdicts"][i]["seconds"] for p in plain)
        print(f"instance {name:<32} {secs:.4f} s")
    print("pass wall_s " + " ".join(f"{p['wall_s']:.4f}" for p in plain))
    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':<32} {len(failures) / len(records):.6g} "
          f"({len(failures)} of {len(records)} verdicts)")
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
