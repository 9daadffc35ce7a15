"""Smoke tests: the experiment drivers under scripts/ run to completion."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_ratio_trends_runs():
    res = run_script("ratio_trends.py", "--max-N", "3", "--palin-x", "1000")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("label,b,k,N_or_x,d,empirical,main_term,ratio\n")


def test_hcabdlog_scan_runs_below_a_power_of_the_base():
    res = run_script("hcabdlog_scan.py", "--limit", "500", "--show-counts", "3")
    assert res.returncode == 0, res.stderr
    assert '"exceptions": [11]' in res.stdout


@pytest.mark.parametrize("limit", ["0", "1"])
def test_hcabdlog_scan_sizes_its_table_as_the_cli_does(limit):
    res = run_script("hcabdlog_scan.py", "--limit", limit)
    assert res.returncode == 0, res.stderr
    assert res.stdout == (f'{{"base": 10, "limit": {limit}, "scanned_from": 4, '
                          '"parity_class": "all_targets", "exceptions": []}\n')


def test_reproduce_table_quick_passes_every_row():
    res = run_script("reproduce_table.py", "--quick")
    assert res.returncode == 0, res.stderr
    header, *rows = res.stdout.splitlines()
    assert header.split() == ["b0", "b1", "K", "all_passed", "seconds", "min_margin"]
    assert [row.split()[:4] for row in rows] == [
        ["28500", "31698", "8", "True"],
        ["26500", "28499", "34", "True"],
        ["26100", "26499", "122", "True"],
        ["26000", "26099", "367", "True"],
    ]
    # the thinnest margin of the quick spot check: b = 26000 at K = 367
    margins = [float(row.split()[5]) for row in rows]
    assert all(m > 0 for m in margins) and min(margins) == margins[-1]


FAKE_RUN = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
assert args["--trace"] == "0" and float(args["--seconds"]) > 0
job = {job} + int(args["--seed"]) / 100
metrics = {{"job_s": job, "setup_s": 0.2, "peak_rss_mb": 100.0}}
print("some other output")
print(json.dumps({{"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {{k: {{"value": v, "unit": "s"}} for k, v in metrics.items()}}}}))
"""


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_two_checkouts(tmp_path, capsys):
    bench = load_script("bench")
    checkouts = {}
    for side, job in (("before", 2.0), ("after", 1.0)):
        checkouts[side] = tmp_path / side
        (checkouts[side] / "perfbench").mkdir(parents=True)
        (checkouts[side] / "perfbench" / "run.py").write_text(FAKE_RUN.format(job=job))
    wl = bench.bench_workload(checkouts, "count_cold", [5, 6, 7], 1.0)
    assert wl["seeds"] == [5, 6, 7]
    assert wl["before"]["job_s"]["median"] == 2.06 and wl["after"]["job_s"]["median"] == 1.06
    assert wl["after_wins"] == {"job_s": 3, "setup_s": 0, "peak_rss_mb": 0}
    assert wl["after"]["failed"] == 0 and wl["after"]["attempted"] == 15
    # the side that runs first alternates from pair to pair
    order = [line.split()[2] for line in capsys.readouterr().err.splitlines()]
    assert order == ["before", "after", "after", "before", "before", "after"]
