"""Smoke tests: the experiment drivers under scripts/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_reproduce_table_quick_passes_every_row():
    res = run_script("reproduce_table.py", "--quick")
    assert res.returncode == 0, res.stderr
    rows = res.stdout.splitlines()[1:]
    assert [row.split()[:4] for row in rows] == [
        ["28500", "31698", "8", "True"],
        ["26500", "28499", "34", "True"],
        ["26100", "26499", "122", "True"],
        ["26000", "26099", "367", "True"],
    ]
