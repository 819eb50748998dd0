"""Run workloads several times and print each metric's spread.

Usage (from the repository root)::

    python3 servebench/repeat.py --workloads selective blowup mixed_rw \\
        --runs 10 --seconds 10 [--trace 0] [--first-seed 1]

Run ``i`` uses seed ``first-seed + i`` on every workload; the workload
order alternates between rounds (forward, then reversed) so no workload
always runs first.  For each workload and metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile range as a share of the median, plus the share of failed
operations; ``--out FILE`` also writes every run's JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr}")
    if done.stderr.strip():
        print(done.stderr.rstrip(), file=sys.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="also write every run's JSON line here")
    args = parser.parse_args(argv)

    results = defaultdict(list)
    out = open(args.out, "w") if args.out else None
    try:
        for i in range(args.runs):
            order = (args.workloads if i % 2 == 0
                     else list(reversed(args.workloads)))
            for workload in order:
                seed = args.first_seed + i
                result = run_once(workload, seed, args.seconds,
                                  args.trace)
                results[workload].append(result)
                print(f"run {i + 1}/{args.runs} {workload} seed {seed}: "
                      f"correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}", flush=True)
                if out is not None:
                    out.write(json.dumps({"workload": workload,
                                          "seed": seed, **result}) + "\n")
                    out.flush()
    finally:
        if out is not None:
            out.close()

    for workload in args.workloads:
        runs = results[workload]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed shares: "
              f"{sorted(shares)}")
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/median':>10}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            print(f"  {name:<36} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{share:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
