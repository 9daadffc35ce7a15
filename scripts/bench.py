#!/usr/bin/env python3
"""Paired benchmark of two checkouts: before and after a change.

    python3 scripts/bench.py BEFORE AFTER --out BENCH_<n>.json [--seed 1]

For each workload of the BENCHMARK.json beside this script and each of PAIRS
pairs i, runs `perfbench/run.py --workload W --seed SEED+i --seconds S
--trace 0` once in each checkout, as a subprocess with that checkout as
working directory. The side that runs first alternates from pair to pair, so
a drift in host speed lands on both sides. S is `run_seconds` from the same
BENCHMARK.json. Only the last JSON line of each run's standard output is read.

The output file holds, per workload, the seeds, the median and quartiles of
job_s, setup_s and peak_rss_mb on each side, how many pairs the after side won
on each metric (lower is better for all three; ties count for neither), each
run's values, and the failed/attempted totals; plus the run length and the
core count of the host.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("job_s", "setup_s", "peak_rss_mb")
SIDES = ("before", "after")
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    run = {m: result["metrics"][m]["value"] for m in METRICS}
    run.update(failed=result["failed"], attempted=result["attempted"])
    return run


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def bench_workload(checkouts: dict, workload: str, seeds: list[int], seconds: float) -> dict:
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(checkouts[side], workload, seed, seconds))
            print(workload, seed, side, json.dumps(runs[side][-1]), file=sys.stderr, flush=True)
    out = {"seeds": seeds}
    for side in SIDES:
        out[side] = {m: summary([r[m] for r in runs[side]]) for m in METRICS}
        out[side]["failed"] = sum(r["failed"] for r in runs[side])
        out[side]["attempted"] = sum(r["attempted"] for r in runs[side])
    out["after_wins"] = {m: sum(a[m] < b[m] for b, a in zip(runs["before"], runs["after"]))
                         for m in METRICS}
    out["runs"] = runs
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("before", type=Path, help="checkout of the parent commit")
    ap.add_argument("after", type=Path, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    args = ap.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    checkouts = {"before": args.before.resolve(), "after": args.after.resolve()}
    seeds = list(range(args.seed, args.seed + PAIRS))
    report = {"run_seconds": seconds, "cores": os.cpu_count(), "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        report["workloads"][workload] = bench_workload(checkouts, workload, seeds, seconds)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
