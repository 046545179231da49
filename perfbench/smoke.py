#!/usr/bin/env python3
"""Smoke test for the benchmark. Run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload briefly and the traced run once, and checks that:
- the printed metric names and units match BENCHMARK.json;
- no op failed (failed = 0, correct = true);
- minor_words_per_op on profile_grid repeats exactly across two seeds;
- the traced run's Chrome trace passes tools/check_obs.exe.
Takes about a minute. Exits 0 on success, 1 with a message otherwise.
"""

import json
import os
import subprocess
import sys


def fail(msg):
    sys.stderr.write("smoke: " + msg + "\n")
    sys.exit(1)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        fail(f"{workload} (trace {trace}) exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: unexpected result keys {sorted(result)}")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        fail(f"{workload}: {result['failed']} of {result['attempted']} ops failed")
    return result["metrics"]


def check_names(workload, metrics, declared):
    got = [(name, m["unit"]) for name, m in metrics.items()]
    want = [(m["name"], m["unit"]) for m in declared]
    if got != want:
        fail(f"{workload}: metrics {got} do not match BENCHMARK.json {want}")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    words = []
    for workload in names:
        seeds = [1, 2] if workload == "profile_grid" else [1]
        for seed in seeds:
            metrics = run(workload, seed, 0)
            check_names(workload, metrics, spec["end_to_end"])
            if workload == "profile_grid":
                words.append(metrics["minor_words_per_op"]["value"])
    if len(set(words)) != 1:
        fail(f"profile_grid minor_words_per_op differs across runs: {words}")

    check_names("traced run", run(names[0], 1, 1), spec["per_layer"])
    subprocess.run(["dune", "build", "--root", ".",
                    os.path.join("tools", "check_obs.exe")], check=True)
    out = os.path.join("perfbench", "_out")
    check = subprocess.run(
        [os.path.join("_build", "default", "tools", "check_obs.exe"),
         os.path.join(out, f"trace-{names[0]}.json"),
         os.path.join(out, f"metrics-{names[0]}.json")])
    if check.returncode != 0:
        fail("the traced run's trace does not pass tools/check_obs.exe")
    print("smoke: ok")


if __name__ == "__main__":
    main()
