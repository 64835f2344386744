"""Experiment harness: multi-run comparisons, aggregation, and persistence.

A run optimizes each served day on forecast traffic and scores the deployed
solution on that day's actual traffic. Runs are seeded independently per
(algorithm, run index), so results are byte-identical for any worker count.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .datasets import Dataset
from .forecast import make_forecaster
from .model import PointSet, ProblemConfig, TrafficDay, _fitted, _integer, nearest_distances
from .objective import MetricsReport, metrics
from .solvers import EaConfig, run_ea, run_greedy
from .stats import Q_ALPHA, friedman_nemenyi

METRIC_NAMES = tuple(f.name for f in fields(MetricsReport))

ALGORITHM_PRESETS = ("splitea", "randea", "copyea", "greedy")


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm configuration entering a comparison."""

    name: str
    kind: str  # "ea" or "greedy"
    popsize: int = EaConfig.popsize
    maxgen: int = EaConfig.maxgen
    prob: float = EaConfig.prob
    variant: str = EaConfig.variant
    budget: int = 1500

    def __post_init__(self) -> None:
        if self.kind not in ("ea", "greedy"):
            raise ValueError(f"kind must be 'ea' or 'greedy', got {self.kind!r}")
        if self.kind == "ea":  # EaConfig's checks
            EaConfig(self.popsize, self.maxgen, self.prob, self.variant)
        else:  # run_greedy's checks; popsize is its checkpoint interval
            for name in ("popsize", "budget"):
                _integer(name, getattr(self, name), 1)

    def budget_per_day(self) -> int:
        """Evaluations charged per day (EA charges popsize * maxgen offspring)."""
        return self.popsize * self.maxgen if self.kind == "ea" else self.budget


def standard_algorithms(names: Sequence[str], popsize: int = AlgorithmSpec.popsize,
                        maxgen: int = AlgorithmSpec.maxgen, prob: float = AlgorithmSpec.prob,
                        budget: int = AlgorithmSpec.budget) -> list[AlgorithmSpec]:
    """Build the preset algorithms: splitea, randea, copyea, greedy."""
    out = []
    for name in names:
        if name == "greedy":
            out.append(AlgorithmSpec(name=name, kind="greedy", popsize=popsize, budget=budget))
        elif name in ALGORITHM_PRESETS:
            out.append(AlgorithmSpec(name=name, kind="ea", popsize=popsize, maxgen=maxgen,
                                     prob=prob, variant=name.removesuffix("ea")))
        else:
            raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHM_PRESETS}")
    return out


@dataclass(frozen=True)
class DayRecord(MetricsReport):
    """The deployed solution's metrics for one served day of one run, and how it was found."""

    day: int
    opt_f: float  # best fitness on the traffic the solver optimized (forecast)
    evals_used: int
    trace: tuple[float, ...]


@dataclass(frozen=True)
class RunRecord:
    algorithm: str
    run: int
    seed: int
    days: tuple[DayRecord, ...]

    def mean(self, metric: str) -> float:
        return float(np.mean([getattr(d, metric) for d in self.days]))


@dataclass(frozen=True)
class ExperimentSpec:
    dataset: Dataset
    algorithms: tuple[AlgorithmSpec, ...]
    runs: int = 30
    base_seed: int = 0
    w: float = ProblemConfig.w
    tau: float | None = None  # None: 3x the mean nearest-neighbour distance
    forecaster: str = "oracle"
    alpha: float = 0.05
    workers: int = 1

    def __post_init__(self) -> None:  # ProblemConfig's checks of w and an absolute tau
        ProblemConfig(self.w, ProblemConfig.tau if self.tau is None else self.tau)
        if not self.algorithms:
            raise ValueError("no algorithm given")
        for name in ("runs", "workers"):
            _integer(name, getattr(self, name), 1)
        object.__setattr__(self, "base_seed", _integer("base_seed", self.base_seed, -math.inf))
        make_forecaster(self.forecaster)  # an unknown name raises
        if self.alpha not in Q_ALPHA:
            raise ValueError(f"alpha must be one of {sorted(Q_ALPHA)}, got {self.alpha}")


@dataclass(frozen=True)
class ResultTable:
    """Aggregated comparison: per-algorithm metric means with significance marks."""

    algorithms: tuple[str, ...]
    alpha: float
    means: dict  # metric -> tuple of per-algorithm means
    marks: dict  # metric -> tuple of bool, True = significantly best
    p_values: dict  # metric -> float | None
    critical_difference: float | None
    n_blocks: int

    def render(self) -> str:
        width = max(len(a) for a in self.algorithms) + 2
        lines = ["algorithm".ljust(width) + "".join(m.rjust(12) for m in METRIC_NAMES)]
        for j, name in enumerate(self.algorithms):
            cells = []
            for m in METRIC_NAMES:
                star = "*" if self.marks[m][j] else " "
                cells.append(f"{self.means[m][j]:10.4f}{star} ")
            lines.append(name.ljust(width) + "".join(cells))
        ps = ", ".join(f"{m}: " + (f"{self.p_values[m]:.3g}" if self.p_values[m] is not None else "n/a")
                       for m in METRIC_NAMES)
        lines.append(f"Friedman p-values  {ps}")
        cd = "n/a" if self.critical_difference is None else f"{self.critical_difference:.4f}"
        lines.append(f"* = significantly better than every other algorithm "
                     f"(Friedman + Nemenyi, alpha={self.alpha}, CD={cd}, n={self.n_blocks})")
        return "\n".join(lines)

    def to_json(self) -> str:
        doc = {
            "algorithms": list(self.algorithms),
            "alpha": self.alpha,
            "n_blocks": self.n_blocks,
            "critical_difference": self.critical_difference,
            "metrics": {m: {"means": list(self.means[m]),
                            "marks": list(self.marks[m]),
                            "p_value": self.p_values[m]} for m in METRIC_NAMES},
        }
        return json.dumps(doc, indent=2, sort_keys=True)


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    tau: float
    records: tuple[RunRecord, ...]
    table: ResultTable


def run_seed(base_seed: int, algorithm: str, run: int) -> int:
    """Derive the per-(algorithm, run) seed from the experiment base seed.

    It mixes in the first 8 bytes of a sha256 of ``algorithm:run``: the
    builtin ``hash()`` is salted per process.
    """
    digest = hashlib.sha256(f"{algorithm}:{run}".encode()).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & ((1 << 63) - 1)


def resolve_tau(point_set: PointSet, value: float | None = None) -> float:
    """Resolve the distance cap: an absolute value, or 3x the mean NN distance."""
    if value is not None:
        return float(ProblemConfig(tau=value).tau)
    if point_set.n_points < 2:
        raise ValueError("3x-mean-nn needs at least 2 points; pass an absolute tau")
    tau = 3.0 * float(nearest_distances(point_set).mean())
    if tau == 0.0:
        raise ValueError("3x-mean-nn gives tau = 0: every point shares its position with "
                         "another; pass an absolute tau")
    return tau


def _plan_days(traffic: Sequence[TrafficDay], forecaster: str,
               ) -> tuple[list[int], list[TrafficDay]]:
    """Pick the served days and the traffic each one is optimized on.

    Day s >= 1 is optimized on a forecast issued from day s-1. A one-day
    dataset degenerates to serving day 0 on its own (trivially forecast)
    traffic so that every dataset yields at least one served day.
    """
    if len(traffic) == 1:
        return [0], [TrafficDay(values=traffic[0].values.copy())]
    fc = make_forecaster(forecaster)
    served = list(range(1, len(traffic)))
    return served, [fc(traffic, s - 1) for s in served]


def _run_single(args) -> RunRecord:
    (alg, run, seed, point_set, opt_traffic, score_traffic, served, problem) = args
    if alg.kind == "ea":
        cfg = EaConfig(popsize=alg.popsize, maxgen=alg.maxgen, prob=alg.prob,
                       variant=alg.variant, seed=seed)
        day_results = run_ea(point_set, opt_traffic, cfg, problem)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        day_results = run_greedy(point_set, opt_traffic, alg.budget, problem, rng,
                                 checkpoint_every=alg.popsize)
    days = []
    for dr, st, day in zip(day_results, score_traffic, served):
        days.append(DayRecord(day=day, **asdict(metrics(dr.best, st, problem)),
                              opt_f=dr.best_fitness.f, evals_used=dr.evals_used,
                              trace=tuple(dr.trace)))
    return RunRecord(algorithm=alg.name, run=run, seed=seed, days=tuple(days))


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every (algorithm, run) pair and aggregate a comparison table."""
    ds = spec.dataset
    names = [a.name for a in spec.algorithms]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate algorithm names: {names}")
    budgets = {a.name: a.budget_per_day() for a in spec.algorithms}
    if len(set(budgets.values())) > 1:
        raise ValueError(f"per-day evaluation budgets differ: {budgets}; "
                         f"set the greedy budget to popsize x maxgen")

    tau = resolve_tau(ds.point_set, spec.tau)
    problem = ProblemConfig(w=spec.w, tau=tau, H=ds.manifest.hours)
    served, opt_traffic = _plan_days(ds.traffic, spec.forecaster)
    score_traffic = [ds.traffic[s] for s in served]

    # Run-major, so that each worker's chunk mixes the algorithms evenly.
    tasks = [(alg, run, run_seed(spec.base_seed, alg.name, run), ds.point_set,
              opt_traffic, score_traffic, served, problem)
             for run in range(spec.runs) for alg in spec.algorithms]
    if spec.workers > 1:
        # One chunk per worker: each chunk is pickled once, so the point set
        # and traffic its tasks share are sent once per chunk, not per task.
        with ProcessPoolExecutor(max_workers=spec.workers) as ex:
            records = list(ex.map(_run_single, tasks,
                                  chunksize=math.ceil(len(tasks) / spec.workers)))
    else:
        records = [_run_single(t) for t in tasks]
    records = tuple(sorted(records, key=lambda r: (names.index(r.algorithm), r.run)))
    table = aggregate(records, alpha=spec.alpha)
    return ExperimentResult(spec=spec, tau=tau, records=records, table=table)


def aggregate(records: Sequence[RunRecord], alpha: float = 0.05) -> ResultTable:
    """Aggregate run records into metric means plus Friedman/Nemenyi marks.

    An algorithm is marked on a metric when the omnibus test rejects at
    ``alpha`` and its mean rank beats every other algorithm by at least the
    critical difference.
    """
    if not records:
        raise ValueError("no records to aggregate")
    names = list(dict.fromkeys(r.algorithm for r in records))
    by_alg = {n: sorted((r for r in records if r.algorithm == n), key=lambda r: r.run)
              for n in names}
    run_sets = {n: tuple(r.run for r in rs) for n, rs in by_alg.items()}
    if len(set(run_sets.values())) != 1:
        raise ValueError(f"runs are not paired across algorithms: {run_sets}")
    n_runs = len(next(iter(run_sets.values())))

    means: dict = {}
    marks: dict = {}
    p_values: dict = {}
    cd: float | None = None
    k = len(names)
    for m in METRIC_NAMES:
        mat = np.array([[by_alg[n][i].mean(m) for n in names] for i in range(n_runs)])
        means[m] = tuple(float(x) for x in mat.mean(axis=0))
        if k >= 2 and n_runs >= 2:
            comp = friedman_nemenyi(mat, alpha=alpha, names=tuple(names))
            cd = comp.critical_difference
            p_values[m] = comp.p_value
            marks[m] = tuple(all(comp.better(j, i) for i in range(k) if i != j)
                             for j in range(k))
        else:
            p_values[m] = None
            marks[m] = tuple(False for _ in names)
    return ResultTable(algorithms=tuple(names), alpha=alpha, means=means, marks=marks,
                       p_values=p_values, critical_difference=cd, n_blocks=n_runs)


def write_records(records: Sequence[RunRecord], path: str | Path) -> None:
    """Persist run records as NDJSON (one run per line, sorted keys)."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w") as fh:
        for r in records:
            fh.write(json.dumps(asdict(r), sort_keys=True) + "\n")


def _no_constant(name: str):  # NaN and +-Infinity: Python's json reads them, JSON has none
    raise ValueError(f"{name} is not a JSON number")


def read_records(path: str | Path) -> list[RunRecord]:
    records = []
    with open(path) as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:  # not an object, or a field missing, unknown or of another type
                doc = _fitted(RunRecord, json.loads(line, parse_constant=_no_constant))
                doc["days"] = tuple(DayRecord(**{**_fitted(DayRecord, d),
                                                 "trace": tuple(d["trace"])})
                                    for d in doc["days"])
                records.append(RunRecord(**doc))
            except (ValueError, TypeError, KeyError, AttributeError) as e:
                raise ValueError(f"{path} line {i}: not a run record ({e!r})") from None
    return records


def export_curves(records: Sequence[RunRecord], path: str | Path) -> None:
    """Write per-day convergence traces as CSV (one row per checkpoint)."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["algorithm", "run", "day", "generation", "best_f"])
        for r in records:
            for d in r.days:
                for g, v in enumerate(d.trace):
                    wr.writerow([r.algorithm, r.run, d.day, g, repr(float(v))])


def _budget(spec: ExperimentSpec, value: float) -> ExperimentSpec:
    """Give every algorithm ``value`` evaluations a day; EAs keep popsize, rescale maxgen."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"budget must be a whole number of evaluations, got {value}")
    b = int(value)
    if bad := [a.popsize for a in spec.algorithms if a.kind == "ea" and b % a.popsize]:
        raise ValueError(f"budget {b} not divisible by popsize {bad[0]}")
    return replace(spec, algorithms=tuple(
        replace(a, maxgen=b // a.popsize) if a.kind == "ea" else replace(a, budget=b)
        for a in spec.algorithms))


# The sweepable parameters, each with its rewrite of a spec to one value.
SWEEPS = {
    "w": lambda spec, v: replace(spec, w=v),
    "tau": lambda spec, v: replace(spec, tau=v),
    "prob": lambda spec, v: replace(spec, algorithms=tuple(
        replace(a, prob=v) if a.kind == "ea" else a for a in spec.algorithms)),
    "budget": _budget,
}


def sweep(spec: ExperimentSpec, param: str, values: Sequence[float],
          ) -> list[tuple[float, ExperimentResult]]:
    """Re-run the experiment across values of one parameter, a key of ``SWEEPS``.

    Every value's spec is built, and so checked, before any experiment runs.
    """
    if param not in SWEEPS:
        raise ValueError(f"unknown sweep parameter {param!r}; expected one of {tuple(SWEEPS)}")
    if not values:
        raise ValueError(f"no values of {param} to sweep")
    if param == "prob" and all(a.kind != "ea" for a in spec.algorithms):
        raise ValueError("prob is the EA's mutation probability, but no algorithm is an EA")
    specs = [(float(v), SWEEPS[param](spec, v)) for v in values]
    return [(v, run_experiment(s)) for v, s in specs]
