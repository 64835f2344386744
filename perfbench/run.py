"""Benchmark of bbuclust's paired experiment, run the way ``bbuclust run`` runs it.

    python3 perfbench/run.py --workload paper-1a --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. One run, in one process and one thread (``workers=1``):

1. writes the CSV input (``milan-csv`` only, untimed);
2. sets the problem up several times: ``make_dataset`` or
   ``load_csv_dataset``, then ``resolve_tau``;
3. repeats whole passes of the paired experiment until ``--seconds`` are
   spent. A pass forecasts the served days, solves each (algorithm, seed),
   scores each deployed day on actual traffic, aggregates with
   Friedman/Nemenyi and writes and reads the run records;
4. checks the results with ``check.py``, which shares no code with
   bbuclust, and runs its self-test.

Host speed on small shared machines drifts by tens of percent between and
within processes, so every timed unit (one set-up, one solve) is bracketed
by a fixed reference kernel and reported at a nominal host on which that
kernel takes ``REF_NOMINAL_S``: normalised time = unit time x REF_NOMINAL_S /
mean of the two adjacent reference times. ``setup_s`` is the median over
set-ups; a rate divides one pass's charged evaluations by the sum, over
(algorithm, run), of the median over passes. Raw wall-clock figures are
printed beside them.

The last line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run in
which passes alternate between untraced and traced (``boundary.py``).
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"

# A host on which one reference kernel call takes 30 ms is the nominal host.
REF_NOMINAL_S = 0.030

W = 0.01
ALPHA = 0.05
POPSIZE, MAXGEN, BUDGET = 10, 150, 1500

# Every run of a workload solves the same instance; --seed is the
# experiment's base seed, from which each (algorithm, run) seed derives as in
# ``bbuclust run``. Solver cost per evaluation differs by up to 40% between
# N = 150 instances, which would swamp the run-to-run comparison.
DATASET_SEED = 0

# Where the milan-csv box is put on the globe: its centre, and metres per
# generator unit (the generator's 100 x 100 box becomes 10 km x 10 km).
MILAN_LON, MILAN_LAT = 9.19, 45.4642
METRES_PER_UNIT = 100.0
METRES_PER_DEG_LAT = 6371008.8 * math.pi / 180.0


@dataclass(frozen=True)
class Workload:
    kind: str
    n_points: int
    n_days: int
    algorithms: tuple[str, ...]
    runs: int
    forecaster: str
    setup_repeats: int
    csv: bool = False
    ea_below_greedy: bool = False


WORKLOADS = {
    # The paper's setting; per-call overhead dominates, scale work is small.
    "paper-1a": Workload("1a", 150, 7, ("splitea", "greedy"), runs=4,
                         forecaster="oracle", setup_repeats=15, ea_below_greedy=True),
    # The N x N distance matrix dominates set-up and memory; O(N) and O(N*H)
    # work per candidate dominates solving. One served day keeps a solve near
    # 1 s: with two, the EA rate's spread over five runs was three times wider.
    "uniform-2000": Workload("1a", 2000, 2, ("splitea", "greedy"), runs=2,
                             forecaster="oracle", setup_repeats=7),
    # CSV parse and haversine in set-up; daily re-initialisation (randea),
    # carry-over (copyea) and scoring on traffic other than the plan.
    "milan-csv": Workload("1c-milan", 500, 4, ("splitea", "copyea", "randea", "greedy"),
                          runs=2, forecaster="persistence", setup_repeats=7, csv=True),
}


def _import_package():
    """Import bbuclust from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "bbuclust" / "__init__.py").is_file():
        print(f"run.py: no bbuclust package under {src}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import bbuclust
    from bbuclust import datasets, forecast, harness, model, objective, solvers
    if Path(bbuclust.__file__).resolve().parent != (src / "bbuclust").resolve():
        print(f"run.py: imported bbuclust from {bbuclust.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return {"datasets": datasets, "forecast": forecast, "harness": harness,
            "model": model, "objective": objective, "solvers": solvers}


class Reference:
    """Fixed host-speed reference, sharing no code with bbuclust.

    Two parts, timed together: small numpy calls mixed with a Python loop,
    like the solvers' inner steps, and streaming passes over an 8 MB array,
    larger than a core's L2 cache, like set-up on large N. On a shared host
    the two slow down independently; as a divisor their sum was never the
    worst of the three tried (perfbench/README.md). It must never change:
    every timed metric is expressed relative to it.
    """

    REPS = 400
    PASSES = 8

    def __init__(self):
        rng = np.random.default_rng(20220112)
        self.a0 = rng.random(256)
        self.big = rng.random(1 << 20)
        self.lab = (np.arange(256) * 7919) % 31
        self.times: list[float] = []
        self.parts: list[tuple[float, float]] = []

    def run(self) -> float:
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        a, acc = self.a0, 0.0
        for i in range(self.REPS):
            b = np.bincount(self.lab, weights=a, minlength=31)
            acc += float(np.abs(b - 1.0).sum())
            idx = np.flatnonzero(b > b.mean())
            c = a.copy()
            c[idx[rng.integers(idx.size)]] = rng.random()
            s = 0
            for j in range(100):
                s += (j * i) % 7
            acc += s + np.unique(self.lab[idx]).size + float(self.big[i::4096].sum())
            a = np.roll(c, 1)
        t1 = time.perf_counter()
        for _ in range(self.PASSES):
            acc += float(np.sqrt(self.big).sum())
        dt = time.perf_counter() - t0
        if not math.isfinite(acc):
            raise RuntimeError("reference kernel diverged")
        self.times.append(dt)
        self.parts.append((t1 - t0, dt - (t1 - t0)))
        return dt


class Sampler:
    """Times units of work, each bracketed by reference-kernel calls."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.prev = ref.run()

    def time(self, fn, *args):
        """Return (result, seconds, mean of the adjacent reference times)."""
        gc.collect()
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        nxt = self.ref.run()
        ref, self.prev = 0.5 * (self.prev + nxt), nxt
        return out, dt, ref


def nominal(dt: float, ref: float) -> float:
    return dt * REF_NOMINAL_S / ref


# --- inputs ---------------------------------------------------------------------

def write_milan_csv(mods, wl: Workload, out: Path) -> dict:
    """Generate the milan-csv input, map it near Milan and write bare CSVs."""
    src = mods["datasets"].make_dataset(wl.kind, seed=DATASET_SEED, n_days=wl.n_days,
                                        n_points=wl.n_points)
    xy = src.point_set.positions
    metres = (xy - 50.0) * METRES_PER_UNIT
    lon = MILAN_LON + metres[:, 0] / (METRES_PER_DEG_LAT * math.cos(math.radians(MILAN_LAT)))
    lat = MILAN_LAT + metres[:, 1] / METRES_PER_DEG_LAT
    positions = np.column_stack([lon, lat])
    traffic = np.stack([t.values for t in src.traffic])
    loc, tra = out / "locations.csv", out / "traffic.csv"
    with open(loc, "w") as fh:
        fh.write("id,coord1,coord2\n")
        fh.writelines(f"{i},{p[0]!r},{p[1]!r}\n" for i, p in enumerate(positions.tolist()))
    with open(tra, "w") as fh:
        fh.write("day,hour,point_id,value\n")
        for d in range(traffic.shape[0]):
            for h in range(traffic.shape[2]):
                fh.writelines(f"{d},{h},{p},{v!r}\n"
                              for p, v in enumerate(traffic[d, :, h].tolist()))
    return {"locations": loc, "traffic": tra, "positions": positions, "values": traffic}


def setup(mods, wl: Workload, csv_input: dict | None):
    """Input to a solvable problem: the dataset and its tau."""
    if csv_input is not None:
        ds = mods["datasets"].load_csv_dataset(csv_input["locations"], csv_input["traffic"],
                                               metric="haversine_meters", name="milan-csv")
    else:
        ds = mods["datasets"].make_dataset(wl.kind, seed=DATASET_SEED, n_days=wl.n_days,
                                           n_points=wl.n_points)
    return ds, mods["harness"].resolve_tau(ds.point_set)


# --- one pass of the paired experiment ----------------------------------------------

@dataclass
class Unit:
    algorithm: str
    kind: str
    run: int
    evals: int
    seconds: float
    ref: float
    fitness_calls: int = 0
    distinct: int = 0


def solve(mods, alg, seed: int, point_set, opt, problem):
    """One (algorithm, seed) over all served days, as the harness runs it."""
    solvers = mods["solvers"]
    if alg.kind == "ea":
        cfg = solvers.EaConfig(popsize=alg.popsize, maxgen=alg.maxgen, prob=alg.prob,
                               variant=alg.variant, seed=seed)
        return solvers.run_ea(point_set, opt, cfg, problem)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return solvers.run_greedy(point_set, opt, alg.budget, problem, rng,
                              checkpoint_every=alg.popsize)


def score(mods, alg, run: int, seed: int, day_results, actual, served, problem):
    """Score each deployed day on the traffic that actually arrived."""
    harness = mods["harness"]
    days = []
    for dr, st, day in zip(day_results, actual, served):
        rep = mods["objective"].metrics(dr.best, st, problem)
        days.append(harness.DayRecord(day=day, K=rep.K, U=rep.U, Udelay=rep.Udelay,
                                      Uunder1=rep.Uunder1, f=rep.f,
                                      opt_f=dr.best_fitness.f, evals_used=dr.evals_used,
                                      trace=tuple(dr.trace)))
    return harness.RunRecord(algorithm=alg.name, run=run, seed=seed, days=tuple(days))


def experiment_pass(mods, wl: Workload, seed: int, ds, tau, sampler: Sampler,
                    out: Path, tracer=None) -> dict:
    harness = mods["harness"]
    problem = mods["model"].ProblemConfig(w=W, tau=tau, H=ds.manifest.hours)
    fc = mods["forecast"].make_forecaster(wl.forecaster)
    served = list(range(1, len(ds.traffic)))
    opt = [fc(ds.traffic, s - 1) for s in served]
    actual = [ds.traffic[s] for s in served]
    algs = harness.standard_algorithms(wl.algorithms, popsize=POPSIZE, maxgen=MAXGEN,
                                       budget=BUDGET)
    units, records, labels = [], [], {}
    # Run-major order interleaves the algorithms in time.
    for run in range(wl.runs):
        for alg in algs:
            s = harness.run_seed(seed, alg.name, run)
            calls0 = tracer.layer("objective.fitness").calls if tracer else 0
            if tracer:
                tracer.reset_distinct()
            day_results, dt, ref = sampler.time(solve, mods, alg, s, ds.point_set, opt, problem)
            unit = Unit(alg.name, alg.kind, run, sum(d.evals_used for d in day_results), dt, ref)
            if tracer:
                unit.fitness_calls = tracer.layer("objective.fitness").calls - calls0
                unit.distinct = tracer.distinct
            units.append(unit)
            labels[(alg.name, run)] = [d.best.labels.copy() for d in day_results]
            records.append(score(mods, alg, run, s, day_results, actual, served, problem))
    order = {a.name: j for j, a in enumerate(algs)}
    records.sort(key=lambda r: (order[r.algorithm], r.run))
    table = harness.aggregate(records, alpha=ALPHA)
    path = out / "records.ndjson"
    harness.write_records(records, path)
    back = harness.read_records(path)
    return {"units": units, "records": back, "labels": labels, "table": table,
            "algs": algs, "actual": actual}


# --- results --------------------------------------------------------------------------

def checker_input(wl: Workload, ds, tau: float, first: dict, csv_input: dict | None) -> dict:
    """The first pass's results as plain arrays and numbers for check.py."""
    runs = []
    for r in first["records"]:
        labs = first["labels"][(r.algorithm, r.run)]
        runs.append({"algorithm": r.algorithm, "run": r.run, "days": [
            {"labels": lab, "K": d.K, "U": d.U, "Udelay": d.Udelay, "Uunder1": d.Uunder1,
             "f": d.f, "evals_used": d.evals_used, "trace": list(d.trace)}
            for lab, d in zip(labs, r.days)]})
    table = first["table"]
    csv = None
    if csv_input is not None:
        csv = {"written_positions": csv_input["positions"],
               "loaded_positions": ds.point_set.positions,
               "written_traffic": csv_input["values"],
               "loaded_traffic": np.stack([t.values for t in ds.traffic])}
    return {
        "metric": ds.manifest.distance_metric, "w": W, "tau": tau,
        "positions": csv_input["positions"] if csv_input else ds.point_set.positions,
        "actual": [t.values for t in first["actual"]],
        "algorithms": [{"name": a.name, "kind": a.kind, "popsize": a.popsize,
                        "maxgen": a.maxgen, "budget": a.budget} for a in first["algs"]],
        "runs": runs,
        "table_f": dict(zip(table.algorithms, table.means["f"])),
        "csv": csv, "ea_below_greedy": wl.ea_below_greedy,
    }


def repeat_errors(passes: list[dict]) -> list[str]:
    """Every pass repeats the same seeded work, so it must deploy the same days."""
    def fingerprint(p):
        return [(r.algorithm, r.run, [d.f for d in r.days]) for r in p["records"]]
    first = fingerprint(passes[0])
    return [f"pass {i} deployed different results than pass 0"
            for i, p in enumerate(passes[1:], start=1) if fingerprint(p) != first]


def kind_mean_f(table, algs, kind: str) -> float:
    kinds = {a.name: a.kind for a in algs}
    vals = [m for a, m in zip(table.algorithms, table.means["f"]) if kinds[a] == kind]
    return float(np.mean(vals))


def solve_rate(units: list[Unit], kind: str, normalise: bool = True) -> float:
    """Charged evaluations per second of solving, over one pass of ``kind`` units.

    Each (algorithm, run) repeats identical work in every pass; its time is
    the median over passes, and the pass total is the sum of those medians.
    """
    by_key: dict = {}
    for u in units:
        if u.kind == kind:
            by_key.setdefault((u.algorithm, u.run), []).append(u)
    evals = sum(us[0].evals for us in by_key.values())
    return evals / sum(statistics.median(nominal(u.seconds, u.ref) if normalise else u.seconds
                                         for u in us) for us in by_key.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# --- the two kinds of run -------------------------------------------------------------

def run_passes(mods, wl, seed, ds, tau, sampler, out, t_start, seconds, tracer=None):
    """Whole passes until the time is spent; with a tracer, odd passes are traced."""
    passes, layers = [], []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        c0 = time.perf_counter()
        try:
            p = experiment_pass(mods, wl, seed, ds, tau, sampler, out,
                                tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        p["traced"] = traced
        passes.append(p)
        if traced:
            layers.append(tracer.layers)
        took = time.perf_counter() - c0
        enough = len(passes) >= (2 if tracer else 1)
        if enough and time.perf_counter() - t_start + took / 2 >= seconds:
            return passes, layers


def run(args) -> dict:
    mods = _import_package()
    import boundary
    import check

    wl = WORKLOADS[args.workload]
    out = OUT_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        csv_input = write_milan_csv(mods, wl, out) if wl.csv else None
        ref = Reference()
        tracer = boundary.Tracer(mods) if args.trace else None
        missing = []
        if tracer:
            missing = tracer.install()
        # Warm-up, untimed: first-touch page faults and first calls of the
        # reference kernel are paid once per process, not per set-up.
        setup(mods, wl, csv_input)
        ref.run()
        ref.times.clear()
        ref.parts.clear()
        t_start = time.perf_counter()
        sampler = Sampler(ref)
        setups, setup_layers = [], []
        for _ in range(wl.setup_repeats):
            if tracer:
                tracer.reset()
            (ds, tau), dt, r = sampler.time(setup, mods, wl, csv_input)
            setups.append((dt, r))
            if tracer:
                setup_layers.append(tracer.layers)
        if tracer:
            tracer.uninstall()
        passes, layers = run_passes(mods, wl, args.seed, ds, tau, sampler, out,
                                    t_start, args.seconds, tracer)
        rss = peak_rss_mb()
        elapsed = time.perf_counter() - t_start

        first = passes[0]
        res = checker_input(wl, ds, tau, first, csv_input)
        errors = check.check(res) + repeat_errors(passes)
        missed = check.self_test(res) if not errors else []
        errors += [f"[self-test] corruption not rejected: {m}" for m in missed]
        units = [u for p in passes if not p["traced"] for u in p["units"]]
        attempted = len(setups) + sum(len(p["units"]) for p in passes)

        ref_ms = 1e3 * statistics.median(ref.times)
        setup_nom = statistics.median(nominal(dt, r) for dt, r in setups)
        print(f"workload {args.workload} seed {args.seed}: N={ds.point_set.n_points} "
              f"served days={len(first['actual'])} tau={tau!r}")
        print(f"passes {len(passes)}, solve units {len(units)} untraced, "
              f"set-ups {len(setups)}, {elapsed:.1f} s measured")
        print(f"raw wall clock: setup_s={statistics.median(dt for dt, _ in setups):.5f} "
              f"ea_evals_per_s={solve_rate(units, 'ea', False):.1f} "
              f"greedy_evals_per_s={solve_rate(units, 'greedy', False):.1f} "
              f"reference median {ref_ms:.3f} ms over {len(ref.times)} calls "
              f"(compute part {1e3 * statistics.median(c for c, _ in ref.parts):.3f} ms, "
              f"cache part {1e3 * statistics.median(m for _, m in ref.parts):.3f} ms; "
              f"nominal {1e3 * REF_NOMINAL_S:g} ms)")
        print(f"checks: {len(check.CHECKS)} independent checks, "
              f"{'passed' if not errors else f'{len(errors)} errors'}; "
              f"self-test {'rejected every corruption' if not missed else 'missed some'}")
        for e in errors[:20]:
            print("  " + e)

        if not args.trace:
            metrics = {
                "setup_s": (setup_nom, "s"),
                "ea_evals_per_s": (solve_rate(units, "ea"), "1/s"),
                "greedy_evals_per_s": (solve_rate(units, "greedy"), "1/s"),
                "peak_rss_mb": (rss, "MB"),
                "ea_f": (kind_mean_f(first["table"], first["algs"], "ea"), "1"),
                "greedy_f": (kind_mean_f(first["table"], first["algs"], "greedy"), "1"),
            }
        else:
            metrics, trace_errors = per_layer(passes, layers, setup_layers, ref_ms,
                                              ds.point_set.n_points, missing)
            errors += trace_errors
            for e in trace_errors:
                print("  " + e)
        return {"correct": not errors, "attempted": attempted, "failed": 0,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass


def per_layer(passes, layers, setup_layers, ref_ms, n_points, missing):
    """Per-layer metrics from the traced passes, times at the nominal host."""
    scale = REF_NOMINAL_S / (ref_ms / 1e3)
    errors = []
    for m in missing:
        print(f"boundary not found in this version of the package: {m}; its layer reads 0")

    def med(samples, layer, field="self_s"):
        return scale * statistics.median(
            getattr(s.get(layer), field) if layer in s else 0.0 for s in samples)

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    for p in (traced if "solvers.fitness_parts" not in missing else []):
        for u in p["units"]:
            days = len(p["actual"])
            extra = days if u.kind == "ea" else 2 * days
            if u.fitness_calls != u.evals + extra:
                errors.append(f"{u.algorithm} run {u.run}: {u.fitness_calls} fitness calls, "
                              f"expected {u.evals} charged + {extra} per-day extras")
    fit = layers[0].get("objective.fitness")
    calls = fit.calls if fit else 0
    if any((s.get("objective.fitness").calls if "objective.fitness" in s else 0) != calls
           for s in layers):
        errors.append("fitness call counts differ between traced passes")
    renumber = layers[0].get("model.renumber")
    distinct = sum(u.distinct for u in traced[0]["units"])
    fitness_s = med(layers, "objective.fitness")

    def solve_total(p):
        return sum(nominal(u.seconds, u.ref) for u in p["units"])

    overhead = (statistics.median(solve_total(p) for p in traced)
                / statistics.median(solve_total(p) for p in plain))
    metrics = {
        "datasets.make_s": (med(setup_layers, "datasets.make", "total_s"), "s"),
        "datasets.load_s": (med(setup_layers, "datasets.load", "total_s"), "s"),
        "model.distance_s": (med(setup_layers, "model.distance", "total_s"), "s"),
        "model.distance_mb": (8.0 * n_points * n_points / 1e6, "MB"),
        "harness.resolve_tau_s": (med(setup_layers, "harness.resolve_tau"), "s"),
        "model.renumber_calls": (renumber.calls if renumber else 0, "count"),
        "model.renumber_s": (med(layers, "model.renumber"), "s"),
        "objective.fitness_calls": (calls, "count"),
        "objective.fitness_s": (fitness_s, "s"),
        "objective.fitness_us": (1e6 * fitness_s / calls if calls else 0.0, "us"),
        "objective.distinct_ratio": (distinct / calls if calls else 0.0, "ratio"),
        "solvers.ea_self_s": (med(layers, "solvers.ea"), "s"),
        "solvers.initial_pop_s": (med(layers, "solvers.initial_pop", "total_s"), "s"),
        "solvers.greedy_self_s": (med(layers, "solvers.greedy"), "s"),
        "forecast.predict_s": (med(layers, "forecast.predict", "total_s"), "s"),
        "objective.metrics_s": (med(layers, "objective.metrics", "total_s"), "s"),
        "harness.aggregate_s": (med(layers, "harness.aggregate"), "s"),
        "stats.friedman_s": (med(layers, "stats.friedman", "total_s"), "s"),
        "harness.records_io_s": (med(layers, "harness.records_io", "total_s"), "s"),
        "host.ref_ms": (ref_ms, "ms"),
        "trace.overhead": (overhead, "ratio"),
    }
    print("model.distance_mb is computed as 8*N^2 bytes, not measured")
    return metrics, errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
