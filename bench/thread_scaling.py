#!/usr/bin/env python3
"""Multi-core scaling rig for the google-benchmark binaries.

Runs a perf binary once per requested thread count (via its --threads flag),
merges the per-thread-count timings into one JSON document, and stamps the
measurement context (num_cpus, build type, pool size) at the top level:

    {
      "context": {..., "num_cpus": 8, "thread_counts": [1, 2, 4, 8]},
      "runs": {"1": [<benchmark entries>], "2": [...], ...}
    }

The rig exists because thread-scaling numbers recorded on a single-CPU host
describe scheduling overhead, not the engine: the binaries print
warn_if_single_cpu() to stderr, but a warning nobody reads is no gate. Here
the same condition is a hard failure unless --allow-single-cpu is given
explicitly, so a BENCH_scaling.json from a 1-CPU machine can only exist on
purpose (and says so in its context block).

Usage:
    python3 bench/thread_scaling.py --binary build/bench/perf_complexes \
        --filter BM_SweepConnectivityGrid --threads 1,2,4 \
        --out BENCH_scaling.json
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def run_one(binary, bench_filter, threads, min_time):
    """Runs the binary at one thread count; returns its parsed benchmark JSON."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        out_path = handle.name
    cmd = [
        binary,
        "--threads=%d" % threads,
        "--benchmark_out=%s" % out_path,
        "--benchmark_out_format=json",
    ]
    if bench_filter:
        cmd.append("--benchmark_filter=%s" % bench_filter)
    if min_time:
        cmd.append("--benchmark_min_time=%s" % min_time)
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        if result.returncode != 0:
            sys.stderr.write(result.stderr.decode(errors="replace"))
            raise SystemExit(
                "benchmark run failed at --threads=%d (exit %d)"
                % (threads, result.returncode))
        with open(out_path) as handle:
            return json.load(handle)
    finally:
        os.unlink(out_path)


def main():
    parser = argparse.ArgumentParser(
        description="record per-thread-count benchmark timings")
    parser.add_argument("--binary", required=True,
                        help="path to a google-benchmark perf binary that "
                             "accepts --threads")
    parser.add_argument("--filter", default="ProtocolComplex",
                        help="--benchmark_filter regex (default: the "
                             "multi-round construction family)")
    parser.add_argument("--threads", default="1,2,4",
                        help="comma-separated thread counts to sweep")
    parser.add_argument("--min-time", default="",
                        help="--benchmark_min_time per run (e.g. 0.01 for "
                             "smoke)")
    parser.add_argument("--out", default="BENCH_scaling.json",
                        help="merged output path")
    parser.add_argument("--allow-single-cpu", action="store_true",
                        help="permit recording on a 1-CPU host (numbers "
                             "then measure scheduling overhead, not "
                             "scaling; the context block records the "
                             "override)")
    args = parser.parse_args()

    thread_counts = sorted({int(t) for t in args.threads.split(",") if t})
    if not thread_counts or any(t < 1 for t in thread_counts):
        raise SystemExit("--threads needs positive integers, got %r"
                         % args.threads)

    num_cpus = os.cpu_count() or 0
    if num_cpus <= 1 and not args.allow_single_cpu:
        raise SystemExit(
            "only %d CPU visible: thread-scaling timings from this host "
            "would be meaningless. Re-run with --allow-single-cpu to "
            "record anyway (the output will be marked)." % num_cpus)

    runs = {}
    context = None
    for threads in thread_counts:
        doc = run_one(args.binary, args.filter, threads, args.min_time)
        if context is None:
            context = dict(doc.get("context", {}))
        got = doc.get("context", {}).get("psph_threads")
        if got != str(threads):
            raise SystemExit(
                "binary did not honor --threads=%d (context says "
                "psph_threads=%r); is this a psph perf binary?"
                % (threads, got))
        runs[str(threads)] = doc.get("benchmarks", [])
        best = min((b.get("real_time", float("nan"))
                    for b in runs[str(threads)]
                    if b.get("run_type") == "iteration"), default=None)
        print("threads=%d: %d benchmarks recorded (fastest %.3g %s)"
              % (threads, len(runs[str(threads)]), best or 0,
                 runs[str(threads)][0].get("time_unit", "ns")
                 if runs[str(threads)] else ""))

    context = context or {}
    context["num_cpus"] = num_cpus
    context["thread_counts"] = thread_counts
    context["single_cpu_override"] = bool(num_cpus <= 1)
    with open(args.out, "w") as handle:
        json.dump({"context": context, "runs": runs}, handle, indent=1)
        handle.write("\n")
    print("wrote %s (num_cpus=%d, thread counts %s)"
          % (args.out, num_cpus, thread_counts))


if __name__ == "__main__":
    main()
