#!/usr/bin/env python3
"""Layer ledger: builds the driver from source and runs one workload.

Run from the repository root:

  python3 ledger/run.py --workload sweep --seed 1 --seconds 10 --trace 0
  python3 ledger/run.py --diff old.jsonl new.jsonl
  python3 ledger/run.py --selftest
  python3 ledger/run.py --record --workload sweep

A run builds ledger_driver (Release) under $CARGO_TARGET_DIR (default
.bench_build), runs the workload, prints the driver's context and detail
lines, and prints as its last line the result object {"correct",
"attempted", "failed", "metrics"}. Each run is also appended, with its
context, to <build dir>/ledger/results.jsonl; --diff compares two such
files. --selftest plants a wrong expected answer and checks that the run
counts it as failed. --record rewrites ledger/expected/<workload>.tsv from
the answers the current code gives.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "wall", "decide", "serve")
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"ledger: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "ledger")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "ledger_driver",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step), 1)
    return os.path.join(out, "ledger_driver")


SOURCE_DIRS = ("src", "bench", "ledger")


def git(*args):
    """stdout of a git command in ROOT, or None when git cannot answer."""
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def commit_id():
    """Git HEAD, plus a source digest when the sources differ from it; just
    the digest when the checkout is not a repository."""
    head = git("rev-parse", "HEAD")
    if head is not None and git("status", "--porcelain", "--",
                                *SOURCE_DIRS) == "":
        return head
    tree = source_digest()
    return f"{head}+{tree}" if head else tree


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCE_DIRS:
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_driver(driver, args, expected, extra=()):
    work = os.path.join(build_dir(), "work")
    shutil.rmtree(work, ignore_errors=True)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--expected", expected, "--work-dir", os.path.relpath(work, ROOT),
               "--commit", commit_id(), *extra]
    # setup_s counts from here; time.monotonic_ns reads the same clock
    # (CLOCK_MONOTONIC) as the driver's steady_clock.
    command += ["--spawned-at", str(time.monotonic_ns())]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"driver exited with {done.returncode}", 1)
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def tagged(lines, tag):
    for line in lines:
        if line.startswith(f"# {tag} "):
            return json.loads(line[len(tag) + 3:])
    return None


def run(args):
    if args.workload not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    driver = build()
    expected = os.path.join(HERE, "expected", f"{args.workload}.tsv")
    spans = os.path.join(build_dir(), f"spans-{args.workload}-{args.seed}.jsonl")
    lines, result = run_driver(driver, args, expected,
                               ["--spans-out", os.path.relpath(spans, ROOT)])
    spec = benchmark_spec()
    group = "per_layer" if args.trace else "end_to_end"
    want = {m["name"] for m in spec[group]}
    if set(result["metrics"]) != want:
        fail(f"driver metrics differ from BENCHMARK.json {group}: "
             f"{sorted(set(result['metrics']) ^ want)}", 1)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "context": tagged(lines, "context"),
              "detail": tagged(lines, "detail"), "result": result}
    with open(os.path.join(build_dir(), "results.jsonl"), "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print("\n".join(lines))


def record_expected(args):
    if args.workload not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    driver = build()
    path = os.path.join(HERE, "expected", f"{args.workload}.tsv")
    args.trace = 0
    run_driver(driver, args, path, ["--record", path])
    print(f"wrote {os.path.relpath(path, ROOT)}")


def selftest(args):
    """A planted wrong expected answer must raise the failure count."""
    driver = build()
    args.workload, args.seconds, args.trace = "sweep", 0, 0
    real = os.path.join(HERE, "expected", "sweep.tsv")
    planted = os.path.join(build_dir(), "planted-sweep.tsv")
    with open(real) as handle:
        rows = handle.read().splitlines()
    index = next(i for i, row in enumerate(rows) if "\t" in row)
    item, answer = rows[index].split("\t")
    rows[index] = item + "\t" + answer.replace("facets=", "facets=1")
    with open(planted, "w") as handle:
        handle.write("\n".join(rows) + "\n")
    _, clean = run_driver(driver, args, real)
    _, dirty = run_driver(driver, args, planted)
    os.remove(planted)
    ratio = lambda r: r["failed"] / r["attempted"]
    ok = clean["correct"] and ratio(clean) == 0 and not dirty["correct"] \
        and ratio(dirty) > 0
    print(f"selftest: real table fail_ratio={ratio(clean):.4f}, planted "
          f"'{item}' fail_ratio={ratio(dirty):.4f}: {'PASS' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)


def load_results(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def collect(records):
    """workload -> {"values": (untraced, traced) metric -> values over the
    runs, "failed": operations failed, "attempted": operations attempted}.

    Runs with wrong answers stay in: their figures count, and their failures
    are reported beside them."""
    out = {}
    for rec in records:
        side = out.setdefault(rec["workload"], {"values": ({}, {}),
                                                "failed": 0, "attempted": 0})
        result = rec["result"]
        side["failed"] += result["failed"]
        side["attempted"] += result["attempted"]
        per = side["values"][rec["trace"]]
        for name, metric in result["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    return out


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def verdict(old, new, better, bound):
    """better / worse / unresolved for one workload x metric, and the change.

    A move larger than the bound counts only when both sides' quartile
    spreads are within the bound, or when every run of one side beats every
    run of the other."""
    a, b = statistics.median(old), statistics.median(new)
    change = (b - a) / a if a else 0.0
    gain = -change if better == "lower" else change
    if spread(old) > bound or spread(new) > bound:
        higher_wins = min(new) > max(old)
        lower_wins = max(new) < min(old)
        if higher_wins or lower_wins:
            return ("better" if higher_wins == (better == "higher")
                    else "worse"), change
        return "unresolved", change
    if gain < -bound:
        return "worse", change
    if gain > bound:
        return "better", change
    return "unresolved", change


def diff(old_path, new_path):
    spec = benchmark_spec()
    old = collect(load_results(old_path))
    new = collect(load_results(new_path))
    print(f"{'workload':8} {'metric':14} {'old':>12} {'new':>12} "
          f"{'change':>8}  verdict")
    for workload in WORKLOADS:
        if workload not in old or workload not in new:
            if workload in old or workload in new:
                side = "new" if workload in old else "old"
                print(f"{workload:8} no runs in the {side} results")
            continue
        a_side, b_side = old[workload], new[workload]
        # fail_ratio: more failed operations per attempt makes the workload
        # worse whatever the timings say.
        a_fail = a_side["failed"] / max(1, a_side["attempted"])
        b_fail = b_side["failed"] / max(1, b_side["attempted"])
        result = ("worse" if b_fail > a_fail else
                  "better" if b_fail < a_fail else "same")
        moved = result != "same"
        counts = [f"{s['failed']}/{s['attempted']}" for s in (a_side, b_side)]
        print(f"{workload:8} {'fail_ratio':14} {counts[0]:>12} {counts[1]:>12} "
              f"{'':8}  {result}")
        old_e2e, new_e2e = a_side["values"][0], b_side["values"][0]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = old_e2e.get(name), new_e2e.get(name)
            if not a or not b:
                continue
            result, change = verdict(a, b, metric["better"], metric["bound"])
            moved |= result != "unresolved"
            print(f"{workload:8} {name:14} {statistics.median(a):12.5g} "
                  f"{statistics.median(b):12.5g} {change:+8.1%}  {result}")
        old_layers, new_layers = a_side["values"][1], b_side["values"][1]
        if moved and old_layers and new_layers:
            deltas = []
            for name, values in new_layers.items():
                if name.endswith("_ms") and name in old_layers:
                    deltas.append((statistics.median(values) -
                                   statistics.median(old_layers[name]),
                                   name))
            deltas.sort(key=lambda d: -abs(d[0]))
            for delta, name in deltas[:3]:
                print(f"{'':8}   layer {name}: {delta:+.1f} ms self time")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.diff:
        diff(*args.diff)
    elif args.selftest:
        selftest(args)
    elif args.record:
        record_expected(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
