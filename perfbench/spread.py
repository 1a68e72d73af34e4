#!/usr/bin/env python3
"""Run the benchmark several times with different seeds and print, for each
metric, the median and the spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json. Each run's full report is kept in
.bench_build/spread/.

    python3 perfbench/spread.py --workload fig5-sim --runs 10

Run from the root of the checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        os.makedirs(".bench_build/spread", exist_ok=True)
        with open(f".bench_build/spread/{args.workload}-trace{args.trace}-seed{seed}.txt", "w") as f:
            f.write(out.stdout + out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
        res = json.loads(lines[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{out.stdout}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds}s")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = defs.get(name, {}).get("bound")
        note = ""
        if bound is not None:
            note = f"bound {bound:g} (bound/3 {bound / 3:.3f})" + ("  OVER" if spread > bound / 3 else "")
        print(f"  {name:32s} median {med:14.6g}  spread {spread:7.4f}  {note}")


if __name__ == "__main__":
    main()
