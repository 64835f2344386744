"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and records a single
``ACCEPTANCE <n> <label>: PASS|FAIL`` line; conftest echoes the collected
lines into the pytest terminal summary.
"""
import contextlib
import csv
import math
import time

import numpy as np
import pytest
import scipy.stats as sps

import conftest
from bbuclust import datasets, harness, model, objective, solvers, stats


def _record(num: int, label: str, verdict: str) -> None:
    line = f"ACCEPTANCE {num} {label}: {verdict}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        _record(num, label, "FAIL")
        raise
    _record(num, label, "PASS")


# ---------------------------------------------------------------------------
# criterion 1: micro-table reproduction
# ---------------------------------------------------------------------------

# Frozen reference grid for the six 3-hour micro datasets under the five
# canonical clusterings: per-cluster (1-U, H) pairs, mean(1-U), and meanM,
# all to three decimals.  Cluster order is immaterial (ds6 "1, 23" lists its
# two clusters in the opposite order); pairs are compared as multisets.
#
# One correction: the ds3 "1, 23" reference row shows H = 1 for the second
# cluster, which contradicts the same row's meanM of 0 — both members of
# that cluster peak in the first hour, so H = 0, which is the only value
# that reproduces the row's own meanM.  The consistent value is stored here
# and the contradiction is asserted mechanically in the test body.
_REFERENCE_GRID = {
    ("ds1", "12, 3"): ([(0.733, 1.0), (0.5, 0.0)], 0.617, 0.367),
    ("ds1", "13, 2"): ([(0.967, 1.0), (0.333, 0.0)], 0.65, 0.483),
    ("ds1", "1, 23"): ([(0.533, 0.0), (0.633, 1.0)], 0.583, 0.317),
    ("ds1", "1, 2, 3"): ([(0.533, 0.0), (0.333, 0.0), (0.5, 0.0)], 0.456, 0.0),
    ("ds1", "123"): ([(0.633, 1.585)], 0.633, 1.004),
    ("ds2", "12, 3"): ([(0.533, 0.0), (0.5, 0.0)], 0.517, 0.0),
    ("ds2", "13, 2"): ([(0.967, 1.0), (0.333, 0.0)], 0.65, 0.483),
    ("ds2", "1, 23"): ([(0.533, 0.0), (0.833, 1.0)], 0.683, 0.417),
    ("ds2", "1, 2, 3"): ([(0.533, 0.0), (0.333, 0.0), (0.5, 0.0)], 0.456, 0.0),
    ("ds2", "123"): ([(0.633, 0.918)], 0.633, 0.581),
    ("ds3", "12, 3"): ([(0.533, 0.0), (0.5, 0.0)], 0.517, 0.0),
    ("ds3", "13, 2"): ([(0.633, 0.0), (0.333, 0.0)], 0.483, 0.0),
    ("ds3", "1, 23"): ([(0.533, 0.0), (0.567, 0.0)], 0.55, 0.0),
    ("ds3", "1, 2, 3"): ([(0.533, 0.0), (0.333, 0.0), (0.5, 0.0)], 0.456, 0.0),
    ("ds3", "123"): ([(0.367, 0.0)], 0.367, 0.0),
    ("ds4", "12, 3"): ([(0.287, 1.0), (0.15, 0.0)], 0.218, 0.143),
    ("ds4", "13, 2"): ([(0.303, 1.0), (0.133, 0.0)], 0.218, 0.152),
    ("ds4", "1, 23"): ([(0.153, 0.0), (0.283, 1.0)], 0.218, 0.142),
    ("ds4", "1, 2, 3"): ([(0.153, 0.0), (0.133, 0.0), (0.15, 0.0)], 0.146, 0.0),
    ("ds4", "123"): ([(0.437, 1.585)], 0.437, 0.692),
    ("ds5", "12, 3"): ([(0.287, 0.0), (0.15, 0.0)], 0.218, 0.0),
    ("ds5", "13, 2"): ([(0.303, 1.0), (0.133, 0.0)], 0.218, 0.152),
    ("ds5", "1, 23"): ([(0.153, 0.0), (0.283, 1.0)], 0.218, 0.142),
    ("ds5", "1, 2, 3"): ([(0.153, 0.0), (0.133, 0.0), (0.15, 0.0)], 0.146, 0.0),
    ("ds5", "123"): ([(0.437, 0.918)], 0.437, 0.401),
    ("ds6", "12, 3"): ([(0.287, 0.0), (0.15, 0.0)], 0.218, 0.0),
    ("ds6", "13, 2"): ([(0.303, 0.0), (0.133, 0.0)], 0.218, 0.0),
    ("ds6", "1, 23"): ([(0.283, 0.0), (0.153, 0.0)], 0.218, 0.0),
    ("ds6", "1, 2, 3"): ([(0.153, 0.0), (0.133, 0.0), (0.15, 0.0)], 0.146, 0.0),
    ("ds6", "123"): ([(0.437, 0.0)], 0.437, 0.0),
}

_TOL = 0.001 + 1e-9


def _close(computed: float, expected: float) -> bool:
    return abs(round(computed, 3) - expected) <= _TOL


def test_criterion_01_micro_table():
    with criterion(1, "micro-table reproduction"):
        t0 = time.perf_counter()
        rows = objective.micro_reference_rows()
        assert len(rows) == 30
        for row in rows:
            key = (row["dataset"], row["clustering"])
            exp_pairs, exp_mean_u, exp_mean_m = _REFERENCE_GRID[key]
            got = sorted(row["per_cluster"], key=lambda p: (round(p[0], 3), p[1]))
            want = sorted(exp_pairs)
            assert len(got) == len(want), key
            for (gu, gh), (wu, wh) in zip(got, want):
                assert _close(gu, wu) and _close(gh, wh), key
            assert _close(row["mean_one_minus_u"], exp_mean_u), key
            assert _close(row["mean_m"], exp_mean_m), key
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0

        # ds3 "1, 23" consistency proof: with H = 1 on the (1-U = 0.567)
        # cluster the row's meanM would be 0.283, not the stated 0; H = 0
        # reproduces the stated meanM exactly.
        u_pair = [p[0] for p in _REFERENCE_GRID[("ds3", "1, 23")][0]]
        mean_m_if_h1 = (u_pair[0] * 0.0 + u_pair[1] * 1.0) / 2
        assert abs(mean_m_if_h1 - 0.0) > _TOL
        assert _close((u_pair[0] * 0.0 + u_pair[1] * 0.0) / 2, 0.0)


# ---------------------------------------------------------------------------
# criterion 2: fitness identities
# ---------------------------------------------------------------------------

def test_criterion_02_identities():
    with criterion(2, "fitness identities"):
        rng = np.random.default_rng(20260819)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            hours = int(rng.choice([3, 24]))
            labels = model.renumber(rng.integers(1, n + 1, size=n))
            c = model.Clustering(labels=labels)
            t = model.TrafficDay(values=rng.random((n, hours)) * 1.5)
            p = model.ProblemConfig(w=float(rng.choice([0.01, 0.1, 1.0])),
                                    tau=1.0, H=hours)
            f, K, u_mean = objective.fitness_parts(c.labels, t.values, p.w)
            mr = objective.metrics(c, t, p)
            assert abs(f - (p.w * K + u_mean)) <= 1e-9
            assert abs(mr.U - (mr.Udelay + mr.Uunder1)) <= 1e-9
            assert abs(mr.f - f) <= 1e-12
            assert mr.K == K
        # spot arithmetic at reported precision: w*K + U = f
        assert round(0.01 * 52.3019 + 0.7644, 4) == 1.2874


# ---------------------------------------------------------------------------
# criterion 3: feasibility closure
# ---------------------------------------------------------------------------

def test_criterion_03_feasibility_closure():
    with criterion(3, "feasibility closure"):
        ds = datasets.make_dataset("1a", seed=2, n_days=7, n_points=40, box=60.0)
        tau = harness.resolve_tau(ds.point_set)
        problem = model.ProblemConfig(w=0.01, tau=tau, H=24)
        counts = {"audited": 0, "violations": 0}

        def hook(labels):
            counts["audited"] += 1
            c = model.Clustering(labels=np.array(labels))
            if not model.is_feasible(c, ds.point_set, tau):
                counts["violations"] += 1

        for variant in solvers.VARIANTS:
            for run in range(3):
                cfg = solvers.EaConfig(popsize=10, maxgen=150, prob=0.5,
                                       variant=variant, seed=run)
                solvers.run_ea(ds.point_set, ds.traffic, cfg, problem, audit=hook)
        solvers.run_greedy(ds.point_set, ds.traffic, 1500, problem,
                           np.random.default_rng(11), audit=hook)
        assert counts["audited"] >= 100_000
        assert counts["violations"] == 0


# ---------------------------------------------------------------------------
# criterion 4: known-optimum recovery
# ---------------------------------------------------------------------------

def test_criterion_04_known_optimum():
    with criterion(4, "known-optimum recovery"):
        t0 = time.perf_counter()
        ds = datasets.make_dataset("2b", seed=1, n_days=1,
                                   n_groups=5, np_max=4, tau_gen=10.0)
        assert ds.point_set.n_points <= 20
        problem = model.ProblemConfig(w=0.01, tau=10.0, H=24)
        hits = 0
        for seed in range(10):
            cfg = solvers.EaConfig(popsize=10, maxgen=149, variant="split", seed=seed)
            (day,) = solvers.run_ea(ds.point_set, ds.traffic, cfg, problem)
            assert day.evals_used == 1500
            if objective.metrics(day.best, ds.traffic[0], problem).U <= 0.05:
                hits += 1
        assert hits >= 8
        cert = model.Clustering(labels=np.array(ds.manifest.optimal_labels))
        assert objective.metrics(cert, ds.traffic[0], problem).U == 0.0
        assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# criteria 5-7 share the full-size experiment runs below.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def superiority_results():
    t0 = time.perf_counter()
    algos = tuple(harness.standard_algorithms(("splitea", "greedy")))
    out = {}
    for kind, tau in (("1a", None), ("3a", 10.0), ("1c-milan", None)):
        ds = datasets.make_dataset(kind, seed=0, n_days=7)
        spec = harness.ExperimentSpec(dataset=ds, algorithms=algos, runs=10,
                                      base_seed=0, tau=tau)
        out[kind] = harness.run_experiment(spec)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ablation_result():
    ds = datasets.make_dataset("1c-milan", seed=4, n_days=7)
    algos = tuple(harness.standard_algorithms(("splitea", "copyea", "randea")))
    spec = harness.ExperimentSpec(dataset=ds, algorithms=algos, runs=10, base_seed=0)
    return harness.run_experiment(spec)


def test_criterion_05_directional_superiority(request):
    with criterion(5, "directional superiority"):
        results, elapsed = request.getfixturevalue("superiority_results")
        for kind, res in results.items():
            assert res.spec.dataset.point_set.n_points >= 100
            assert len(res.spec.dataset.traffic) == 7
            i = res.table.algorithms.index("splitea")
            j = res.table.algorithms.index("greedy")
            assert res.table.means["f"][i] < res.table.means["f"][j], kind
            assert res.table.marks["f"][i], kind
        assert elapsed < 600.0


def test_criterion_06_ablation_ordering(request):
    with criterion(6, "ablation ordering"):
        res = request.getfixturevalue("ablation_result")
        means = dict(zip(res.table.algorithms, res.table.means["f"]))
        assert means["splitea"] <= means["copyea"]
        assert means["splitea"] <= means["randea"]


def test_criterion_07_monotone_traces(request, tmp_path):
    with criterion(7, "monotone traces"):
        results, _ = request.getfixturevalue("superiority_results")
        batches = {kind: res.records for kind, res in results.items()}
        batches["ablation"] = request.getfixturevalue("ablation_result").records
        seen = {r.algorithm for records in batches.values() for r in records}
        assert seen == {"splitea", "greedy", "copyea", "randea"}
        for tag, records in batches.items():
            path = tmp_path / f"curves-{tag}.csv"
            harness.export_curves(records, path)
            with open(path, newline="") as fh:
                curves = {}
                for row in csv.DictReader(fh):
                    key = (row["algorithm"], int(row["run"]), int(row["day"]))
                    curves.setdefault(key, []).append(
                        (int(row["generation"]), float(row["best_f"])))
            assert len(curves) == sum(len(r.days) for r in records)
            for key, pts in curves.items():
                gens = [g for g, _ in pts]
                assert gens == sorted(gens), (tag, key)
                fs = np.array([f for _, f in pts])
                assert np.all(np.diff(fs) <= 0.0), (tag, key)


# ---------------------------------------------------------------------------
# criterion 8: determinism
# ---------------------------------------------------------------------------

def test_criterion_08_determinism(tmp_path):
    with criterion(8, "determinism"):
        algos = tuple(harness.standard_algorithms(("splitea", "greedy"),
                                                  popsize=5, maxgen=20, budget=100))

        def run_once(workers, tag):
            ds = datasets.make_dataset("1a", seed=3, n_days=3, n_points=25, box=40.0)
            spec = harness.ExperimentSpec(dataset=ds, algorithms=algos, runs=4,
                                          base_seed=1, workers=workers)
            res = harness.run_experiment(spec)
            rec_path = tmp_path / f"records-{tag}.ndjson"
            cur_path = tmp_path / f"curves-{tag}.csv"
            harness.write_records(res.records, rec_path)
            harness.export_curves(res.records, cur_path)
            return res.table.to_json(), rec_path.read_bytes(), cur_path.read_bytes()

        first = run_once(1, "a")
        again = run_once(1, "b")
        parallel = run_once(3, "c")
        assert first == again
        assert first == parallel


# ---------------------------------------------------------------------------
# criterion 9: statistics cross-check
# ---------------------------------------------------------------------------

def test_criterion_09_statistics_cross_check():
    with criterion(9, "statistics cross-check"):
        rng = np.random.default_rng(99)
        base = rng.random((30, 3))
        shifted = base + np.array([0.0, 0.25, 0.5])
        for data in (shifted, base):
            assert all(len(set(row)) == 3 for row in data)  # tie-free fixture
            res = stats.friedman_nemenyi(data, alpha=0.05, names=("a", "b", "c"))
            ref = sps.friedmanchisquare(data[:, 0], data[:, 1], data[:, 2])
            assert abs(res.statistic - ref.statistic) <= 1e-6
            assert abs(res.p_value - ref.pvalue) <= 1e-9
            ranks = np.vstack([sps.rankdata(row) for row in data])
            mean_ranks = ranks.mean(axis=0)
            cd = 2.343 * math.sqrt(3 * 4 / (6 * 30))
            significant = ref.pvalue < 0.05
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    expected = bool(significant
                                    and abs(mean_ranks[i] - mean_ranks[j]) >= cd
                                    and mean_ranks[i] < mean_ranks[j])
                    assert res.better(i, j) == expected, (i, j)
        # the shifted fixture must actually exercise the significant branch
        assert sps.friedmanchisquare(shifted[:, 0], shifted[:, 1],
                                     shifted[:, 2]).pvalue < 0.05


# ---------------------------------------------------------------------------
# criterion 10: budget parity
# ---------------------------------------------------------------------------

def test_criterion_10_budget_parity():
    with criterion(10, "budget parity"):
        algos = tuple(harness.standard_algorithms(("splitea", "greedy")))
        assert [a.budget_per_day() for a in algos] == [1500, 1500]
        ds = datasets.make_dataset("1a", seed=7, n_days=2, n_points=12, box=20.0)
        res = harness.run_experiment(
            harness.ExperimentSpec(dataset=ds, algorithms=algos, runs=1))
        evals = {}
        for rec in res.records:
            for day in rec.days:
                evals.setdefault(rec.algorithm, set()).add(day.evals_used)
        # the EA also scores the popsize seed individuals once per day
        assert evals["splitea"] == {10 * (150 + 1)}
        assert evals["greedy"] == {1500}
        short = tuple(harness.standard_algorithms(("splitea",)) +
                      harness.standard_algorithms(("greedy",), budget=1400))
        with pytest.raises(ValueError, match="budgets differ"):
            harness.run_experiment(
                harness.ExperimentSpec(dataset=ds, algorithms=short, runs=1))
