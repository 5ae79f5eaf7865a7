"""Run one workload on several seeds, one run at a time, and summarise.

    python3 perfbench/spread.py --workload dyadic-small --seeds 0-9 --out a.jsonl
    python3 perfbench/spread.py --from a.jsonl --from b.jsonl

For each metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median: the run-to-run spread that BENCHMARK.json's bounds are judged
against. Each run's result line is appended to ``--out``. Given two
result files, it also prints by what share the second set's median is
worse than the first's, and marks each spread or shift beyond its bound.
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


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def declared_metrics() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def summarise(sets: list[list[dict]]) -> str:
    """Table of each set's quartiles per workload and metric, with bound checks."""
    declared = declared_metrics()
    lines = []
    by_workload = [defaultdict(list) for _ in sets]
    for table, records in zip(by_workload, sets):
        for rec in records:
            table[rec["workload"]].append(rec["result"])
    for workload in by_workload[0]:
        lines.append(f"== {workload}")
        lines.append(f"{'metric':26s} " + "  ".join(
            f"{'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>6s}" for _ in sets)
            + ("  shift" if len(sets) == 2 else ""))
        results = [table[workload] for table in by_workload]
        for name in results[0][0]["metrics"]:
            bound = declared.get(name, {}).get("bound")
            cells, medians = [], []
            for res in results:
                values = [r["metrics"][name]["value"] for r in res]
                # quantiles needs two values; a single run is its own median
                q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                spread = (q3 - q1) / abs(q2)
                flag = "!" if bound is not None and spread > bound else " "
                cells.append(f"{q2:10.5g} {q1:10.5g} {q3:10.5g} {spread:5.3f}{flag}")
                medians.append(q2)
            line = f"{name:26s} " + "  ".join(cells)
            if len(sets) == 2:
                sign = -1.0 if declared.get(name, {}).get("better") == "higher" else 1.0
                shift = sign * (medians[1] - medians[0]) / abs(medians[0])
                flag = "!" if bound is not None and shift > bound else " "
                line += f"  {shift:+6.3f}{flag}"
            lines.append(line)
        for res in results:
            shares = sorted({r["failed"] / r["attempted"] for r in res})
            lines.append(f"runs {len(res)}, all correct: {all(r['correct'] for r in res)}, "
                         f"failed shares: {shares}")
    return "\n".join(lines)


def run_seeds(args) -> list[dict]:
    records = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        record = {"workload": args.workload, "seed": seed,
                  "result": json.loads(proc.stdout.strip().splitlines()[-1])}
        records.append(record)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
        print(f"seed {seed}: done", file=sys.stderr)
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", help="append each run's result line to this file")
    parser.add_argument("--from", dest="sources", action="append", default=[],
                        help="summarise this result file instead of running (give two to compare)")
    args = parser.parse_args()
    if args.sources:
        sets = []
        for path in args.sources:
            with open(path) as fh:
                sets.append([json.loads(line) for line in fh if line.strip()])
    elif args.workload:
        sets = [run_seeds(args)]
    else:
        parser.error("give --workload to run, or --from to summarise")
    print(summarise(sets))
    return 0


if __name__ == "__main__":
    sys.exit(main())
