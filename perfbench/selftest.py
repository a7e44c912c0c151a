#!/usr/bin/env python3
"""Self-test: the benchmark's correctness checks must fire.

    python3 perfbench/selftest.py

1. `perfbench --list-metrics` must name exactly the end-to-end and
   per-layer metrics (with units) that BENCHMARK.json lists.
2. Each workload runs once for 2 seconds with --plant-wrong 1, which
   replaces one reference answer with a wrong one. The run must report at least one
   failed operation; a run that reports none means the checks are blind.

Exits 0 when every check fired, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SECONDS = 2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True

    listed = subprocess.run([sys.executable, RUN, "--list-metrics"], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, check=True)
    got = {tuple(line.split()) for line in listed.stdout.splitlines()
           if line.startswith(("end_to_end ", "per_layer "))}
    want = {(kind, m["name"], m["unit"])
            for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    if got != want:
        ok = False
        print("metric tables differ from BENCHMARK.json:")
        for kind, name, unit in sorted(got - want):
            print(f"  only in perfbench: {kind} {name} {unit}")
        for kind, name, unit in sorted(want - got):
            print(f"  only in BENCHMARK.json: {kind} {name} {unit}")
    else:
        print(f"metric tables match BENCHMARK.json ({len(got)} metrics)")

    for w in spec["workloads"]:
        cmd = [sys.executable, RUN, "--workload", w["name"], "--seed", "7",
               "--seconds", str(SECONDS), "--trace", "0",
               "--plant-wrong", "1"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is not None and result["failed"] > 0:
            print(f"{w['name']}: planted wrong answer caught "
                  f"({result['failed']} of {result['attempted']} failed)")
        else:
            ok = False
            print(f"{w['name']}: planted wrong answer NOT caught "
                  f"(exit {proc.returncode}, result {result})")
            sys.stderr.write(proc.stderr[-2000:])
    print("self-test: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
