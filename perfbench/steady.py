#!/usr/bin/env python3
"""Steadiness check: run every workload many times and compare the spread
of each end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py                  # 10 rounds of every workload
    python3 perfbench/steady.py --runs 5 --workloads oltp-64way
    python3 perfbench/steady.py --counts         # also: same seed, same counts

Run from the root of the repository. Round i uses seed base+i and runs
the workloads in declared order on even rounds and reversed on odd ones,
so a slow stretch of the machine does not always land on one workload.
For each workload and metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4), the spread (Q3-Q1)/median and the
bound; a spread under a third of its bound is marked steady. It also
prints the share of failed operations, which must be the same in every
run.

With --counts it runs each workload twice per seed with --trace 1 and
checks that every simulated count and ratio is identical between the two.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-1]), wall


def spread_table(bench, workload, results):
    print("\n%s: %d runs" % (workload, len(results)))
    print("  %-12s %14s %14s %14s %8s %6s  %s" % ("metric", "median", "q1", "q3", "spread", "bound", ""))
    ok = True
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        if spread < m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "within bound"
        else:
            verdict = "OUTSIDE bound"
            ok = False
        print("  %-12s %14.6g %14.6g %14.6g %7.2f%% %5.0f%%  %s" % (
            m["name"], med, q1, q3, 100 * spread, 100 * m["bound"], verdict))
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    print("  failed share: %s; correct in every run: %s" % (shares, correct))
    return ok and correct and len(shares) == 1


def exact_metrics(bench):
    return [m["name"] for m in bench["per_layer"]
            if m["unit"] in ("count", "ratio", "%") and not m["name"].startswith(("gc.", "trace."))]


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--counts", action="store_true")
    args = ap.parse_args()
    chosen = args.workloads.split(",")

    if args.counts:
        exact = exact_metrics(bench)
        bad = 0
        for w in chosen:
            a, _ = run_once(bench, w, args.seed_base, args.seconds, 1)
            b, _ = run_once(bench, w, args.seed_base, args.seconds, 1)
            diff = [n for n in exact if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
            print("%s seed %d: %d exact metrics, %s; tracing overhead %+.2f%% / %+.2f%%, residual %+.2f%% / %+.2f%%" % (
                w, args.seed_base, len(exact), "identical" if not diff else "DIFFER: " + ", ".join(diff),
                a["metrics"]["trace.overhead_pct"]["value"], b["metrics"]["trace.overhead_pct"]["value"],
                a["metrics"]["trace.residual_pct"]["value"], b["metrics"]["trace.residual_pct"]["value"]))
            bad += len(diff)
        sys.exit(1 if bad else 0)

    results = {w: [] for w in chosen}
    for i in range(args.runs):
        order = chosen if i % 2 == 0 else list(reversed(chosen))
        for w in order:
            res, wall = run_once(bench, w, args.seed_base + i, args.seconds, 0)
            results[w].append(res)
            print("round %d %-13s seed %d wall %5.1fs  %s" % (
                i, w, args.seed_base + i, wall,
                "  ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))),
                flush=True)
    ok = all([spread_table(bench, w, results[w]) for w in chosen])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
