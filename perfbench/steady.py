"""Steadiness check: run each workload k times and report each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workloads paper-1a,milan-csv]
                                [--first-seed 1] [--seconds S] [--trace 0]

Runs ``run.py`` once per (workload, seed), one after another, with seeds
first-seed .. first-seed + k - 1 and the run length from BENCHMARK.json.
For each metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median and,
for end-to-end metrics, the metric's bound and whether the spread is within
a third of it. Exits 1 if a run fails, reads incorrect, or a spread exceeds
its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    sys.stdout.reconfigure(line_buffering=True)  # a check runs for many minutes
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    bad = False
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shares = set()
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                bad = True
                continue
            res = json.loads(lines[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: incorrect\n" + "\n".join(lines[:-1]))
                bad = True
            shares.add(res["failed"] / res["attempted"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in res["metrics"].items()))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{wl}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':26} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "ok" if spread <= bound / 3 else ("wide" if spread <= bound else "OVER")
                bad |= spread > bound
            print(f"  {name:26} {units[name]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {'' if bound is None else f'{bound:6.2f}'} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
