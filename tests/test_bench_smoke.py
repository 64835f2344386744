"""Smoke run of the benchmark's milan-csv workload.

It covers the CSV reader, the haversine metric and the solvers end to end,
and its results are judged by ``perfbench/check.py``, which shares no code
with bbuclust. ``--seconds 0`` makes one pass, about 8 s on a 2-core machine.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_milan_csv_benchmark_pass_is_correct():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "milan-csv",
                          "--seed", "1", "--seconds", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
