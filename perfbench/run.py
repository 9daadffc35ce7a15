#!/usr/bin/env python3
"""revpal benchmark.

    python3 perfbench/run.py --workload certify_sweep --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  certify_sweep   verifier.certify_range over seeded bases of the four published rows
  count_cold      a fresh sieve.build(10^7) and the counting batch, nothing warm
  goldbach_warm   `revpal hcabdlog --limit 10^7` on a filled sieve cache, plus
                  seeded representations / estermann_count batches
  all             each of the above in its own process, one after another

The workload is set up at least three times, and for at least two seconds
(setup_s is the median). Then passes run back to back, at least three of them,
and no new pass starts that would not end within --seconds; job_s is the
median pass. Results are checked outside the timed region, then every README
CLI example is run once and compared with its golden output. With --trace 1
the passes run untraced for the first half of --seconds and with spans around
the calls into each revpal module for the second half, and the per-layer
metrics replace the end-to-end ones.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
The run reads and writes only inside the checkout that holds this file, and
exits 2 without a result when that checkout has no src/revpal.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("certify_sweep", "count_cold", "goldbach_warm")
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
MAX_SETUP_REPEATS = 15
MIN_PASSES = 3


def timed_passes(run_pass, prepare, seconds: float):
    """Run passes back to back (at least MIN_PASSES) while the next one, taking
    the median time so far, ends within `seconds`; return the wall time and the
    results of each pass."""
    times, results = [], []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() + statistics.median(times) <= deadline:
        prepare()
        gc.collect()
        t0 = time.perf_counter()
        results.append(run_pass())
        times.append(time.perf_counter() - t0)
    return times, results


def traced_passes(wl, seconds: float):
    import spans

    tracer = spans.Tracer()
    per_pass = []

    def run_pass():
        first = len(tracer.spans)
        with tracer.span("pass"):
            result = wl.run_pass()
        per_pass.append(spans.pass_metrics(tracer.spans[first:]))
        return result

    with spans.instrument(tracer):
        times, results = timed_passes(run_pass, wl.prepare_pass, seconds)
    return times, results, spans.median_metrics(per_pass)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    import numpy as np

    import cli_golden
    import spans
    import workloads

    os.environ.pop(workloads.cli.CACHE_ENV, None)  # never read the user's sieve cache
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    wl = workloads.WORKLOADS[name](np.random.default_rng(seed), env, tmp)

    setup = []
    while len(setup) < SETUP_REPEATS or (sum(setup) < SETUP_SECONDS
                                         and len(setup) < MAX_SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup_once()
        setup.append(time.perf_counter() - t0)

    # a traced run splits its time between untraced and traced passes
    untraced_seconds = seconds / 2 if trace else seconds
    times, results = timed_passes(wl.run_pass, wl.prepare_pass, untraced_seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    job_s = statistics.median(times)

    if trace:
        traced_times, traced_results, layers = traced_passes(wl, seconds - untraced_seconds)
        results += traced_results
        layers["trace.overhead_ratio"] = statistics.median(traced_times) / job_s - 1
        layers["verifier.pool_s"] = layers["verifier.pool_efficiency"] = 0.0
        if isinstance(wl, workloads.CertifySweep):
            pool_times, pool_results = timed_passes(
                lambda: wl.run_pass(workers=nproc), wl.prepare_pass, 0)
            results += pool_results
            layers["verifier.pool_s"] = statistics.median(pool_times)
            layers["verifier.pool_efficiency"] = job_s / (nproc * layers["verifier.pool_s"])

    attempted, failures = 0, []
    for r in results:
        n, f = wl.check(r)
        attempted += n
        failures += f
    margins = [m for r in results for m in wl.margins(r)]
    identical, cli_failures = cli_golden.run_examples(tmp, nproc)
    attempted += len(cli_golden.EXAMPLES)
    failures += cli_failures

    for line in failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if len(failures) > 20:
        print(f"perfbench: ... and {len(failures) - 20} more failures", file=sys.stderr)
    q1, _, q3 = statistics.quantiles(times, n=4)
    margin = f"{min(margins):.6g} ratio  min over {len(margins)} certificates" if margins \
        else "n/a  (no certificate in this workload)"
    print(f"perfbench {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}  cores={nproc}")
    print(f"  setup_s          {statistics.median(setup):.4f} s      "
          f"median of {len(setup)} set-ups")
    print(f"  job_s            {job_s:.4f} s      median of {len(times)} passes, "
          f"quartiles {q1:.4f} .. {q3:.4f}")
    print(f"  peak_rss_mb      {peak_rss_mb:.1f} MB")
    print(f"  fail_ratio       {len(failures) / attempted:.6g}        "
          f"{len(failures)} failed of {attempted} results")
    print(f"  cert_margin_min  {margin}")
    print(f"  cli golden       {identical} of {len(cli_golden.EXAMPLES)} README examples "
          f"byte-identical")

    if trace:
        layers["verifier.cert_margin_min"] = min(margins, default=0.0)
        print(f"  trace overhead   {layers['trace.overhead_ratio']:+.1%} of job_s")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in spans.LAYER_UNITS.items()}
    else:
        metrics = {
            "job_s": {"value": job_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and caches stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "revpal" / "__init__.py").is_file():
        print(f"perfbench: no revpal sources under {SRC}; run from a revpal checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
