#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
run-to-run spread: the distance between the first and third quartile of
its values (statistics.quantiles, n=4) as a share of their median,
against the bound BENCHMARK.json gives it.

Run from the root of a checkout:

    python3 perfbench/spread.py --workloads kv-tune,service --seeds 1-10

Each run's result line is also appended to .bench_build/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated; default all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(".bench_build", exist_ok=True)
    log = open(os.path.join(".bench_build", "spread.jsonl"), "a")
    worst = 0.0
    for name in names:
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            t = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            took = time.time() - t
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                sys.stderr.write(p.stderr)
                sys.exit(f"{name} seed {seed}: exit {p.returncode}")
            res = json.loads(last)
            log.write(json.dumps({"workload": name, "seed": seed, "wall_s": took, **res}) + "\n")
            log.flush()
            print(f"{name} seed {seed}: {took:.0f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                  flush=True)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, xs in sorted(values.items()):
            if len(xs) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            s = (q3 - q1) / abs(q2) if q2 else float("inf")
            b = bounds.get(k)
            mark = ""
            if b:
                mark = "ok" if s < b / 3 else ("within bound" if s <= b else "OVER BOUND")
                if k != "setup_s":
                    worst = max(worst, s / b)
            print(f"  {name:10s} {k:24s} median={q2:<12.5g} spread={s:.4f} bound={b} {mark}")
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
