#!/usr/bin/env python3
"""Runs the benchmark under several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartiles of
its values (statistics.quantiles, n=4) as a share of their median, next
to the bound BENCHMARK.json fixes for it.

    python3 perfbench/stability.py --workload serve-hot --runs 10 [--first-seed 100]

Run it from the repository root. Every run's result line is appended to
--out (JSON lines) so a set of runs can be compared with a later one.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        secs = time.monotonic() - start
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            sys.exit(f"seed {seed}: no result line (exit {proc.returncode})\n{proc.stderr[-2000:]}")
        if not result["correct"] or proc.returncode != 0:
            sys.exit(f"seed {seed}: incorrect run: {last}")
        if args.out:
            with open(args.out, "a") as f:
                line = {"workload": args.workload, "seed": seed, "rc": proc.returncode,
                        "secs": round(secs, 3), "result": result}
                f.write(json.dumps(line) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({secs:.1f} s): " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))

    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else (" ok" if spread < bound / 3 else (" WITHIN BOUND" if spread < bound else " OVER BOUND"))
        print(f"{args.workload} {name}: median {med:.6g}, spread {spread:.4f}, bound {bound}{flag}")


if __name__ == "__main__":
    main()
