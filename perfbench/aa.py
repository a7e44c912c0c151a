#!/usr/bin/env python3
"""A/A check: two interleaved sets of runs of the same build must agree.

    python3 perfbench/aa.py

For every workload of BENCHMARK.json, set A runs seeds 1001-1010 and set B
seeds 2001-2010, each for run_seconds; the two sets alternate which goes
first. Then one traced run per workload (seed 3001) gives the tracing
overhead: the untraced median ops_per_s over the traced run's own
traced.ops_per_s, minus one.

For every workload x end-to-end metric it prints each set's median,
quartiles (statistics.quantiles, n=4) and spread (interquartile distance
over the median), and the change of B's median against A's. It exits
non-zero when a run fails or reports failed operations, when the failed
shares of the sets differ, when a spread exceeds the metric's bound from
BENCHMARK.json, or when B's median differs from A's by more than the bound
in either direction. Raw results go to .bench_out/aa-results.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RUNS = 10  # per set
TRACE_SEED = 3001


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"aa.py: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                seed = (1001 if side == "A" else 2001) + i
                r = run_once(w, seed, seconds, 0)
                r["seed"] = seed
                results[w][side].append(r)
                print(f"# {w} set {side} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}",
                      flush=True)
    for w in workloads:
        results[w]["traced"] = run_once(w, TRACE_SEED, seconds, 1)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "aa-results.json"), "w") as f:
        json.dump(results, f, indent=1)
    return evaluate(results, workloads, spec["end_to_end"])


def evaluate(results, workloads, metrics):
    """Prints the A/A table; returns the exit code."""
    ok = True
    print(f"{'workload':16} {'metric':26} {'set':3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6} {'B-vs-A':>7}")
    for w in workloads:
        sets = results[w]
        for side in ("A", "B"):
            for r in sets[side]:
                if not r["correct"] or r["failed"]:
                    ok = False
                    print(f"FAIL {w} set {side} seed {r['seed']}: "
                          f"correct={r['correct']} failed={r['failed']}")
        shares = {side: {r["failed"] / r["attempted"] for r in sets[side]}
                  for side in ("A", "B")}
        if shares["A"] != shares["B"] or len(shares["A"]) != 1:
            ok = False
            print(f"FAIL {w}: failed shares differ: {shares}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = {}
            for side in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[side]]
                stats[side] = summarize(values)
            change = stats["B"][0] / stats["A"][0] - 1
            for side in ("A", "B"):
                mid, q1, q3, spread = stats[side]
                flag = ""
                if spread > bound:
                    ok, flag = False, " SPREAD>BOUND"
                delta = f"{change:+.3f}" if side == "B" else ""
                if side == "B" and abs(change) > bound:
                    ok, flag = False, flag + " CHANGE>BOUND"
                print(f"{w:16} {name:26} {side:3} {mid:14.6g} {q1:14.6g} "
                      f"{q3:14.6g} {spread:7.3f} {bound:6.2f} {delta:>7}{flag}")
        traced = sets["traced"]["metrics"]["traced.ops_per_s"]["value"]
        untraced = statistics.median(
            r["metrics"]["ops_per_s"]["value"] for r in sets["A"] + sets["B"])
        print(f"{w:16} tracing overhead: untraced {untraced:.6g} op/s, "
              f"traced {traced:.6g} op/s, overhead {untraced / traced - 1:+.3f}")

    print("A/A: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
