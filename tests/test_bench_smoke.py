"""Smoke runs of the benchmark, judged by ``perfbench/check.py``.

``check.py`` shares no code with bbuclust. ``--seconds 0`` makes one pass;
each run below takes about 5 to 10 s on a 2-core machine.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _last_result(*args):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args, "--seed", "1",
                          "--seconds", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_milan_csv_benchmark_pass_is_correct():
    # The CSV reader, the haversine metric and the solvers, end to end, with
    # the traced fitness-call identity over copyea and randea, which re-seed
    # through the candidate operators every day.
    assert _last_result("--workload", "milan-csv", "--trace", "1")["correct"] is True


def test_paper_1a_traced_pass_is_correct():
    # The paper's 6-day setting: split reseeding between days, the traced
    # fitness-call identity over the EA's built rows, and the check that the
    # EA ends below greedy.
    assert _last_result("--workload", "paper-1a", "--trace", "1")["correct"] is True


def test_uniform_2000_traced_pass_is_correct():
    # The N = 2000 greedy path, and the traced run's identity: fitness_parts
    # calls = charged evaluations + the per-day re-scores.
    assert _last_result("--workload", "uniform-2000", "--trace", "1")["correct"] is True
