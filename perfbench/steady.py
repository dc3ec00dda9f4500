#!/usr/bin/env python3
"""Run one workload k times, each with its own seed, and print for every
end-to-end metric the median, the quartiles and the spread (q3 - q1) /
median against the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --workload graph500-rmat --runs 10

The quartiles are Python's statistics.quantiles(values, n=4). The
command fails when a spread exceeds its bound, when a run reports
correct=false or exits non-zero, or when any operation failed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    shares = set()
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit code {run.returncode}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: run reported correct=false")
        shares.add((result["failed"], result["attempted"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        figures = " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items())
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} {figures}",
              file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}")
    print(f"{'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    ok = True
    for m in metrics:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m["bound"]
        passes = spread <= bound
        ok &= passes
        print(f"{m['name']:<26}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}"
              f"{bound:>7.2f} {'ok' if passes else 'OVER'}")
    fractions = sorted({f / a for f, a in shares})
    print(f"failed share per run: {fractions}")
    ok &= fractions == [0.0]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
