import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bbuclust import datasets, harness, model
from _oracles import dense_distance


def _tiny_spec(ds, algs=("splitea", "greedy"), runs=3, **kw):
    algorithms = tuple(harness.standard_algorithms(algs, popsize=4, maxgen=6, budget=24))
    defaults = dict(dataset=ds, algorithms=algorithms, runs=runs, base_seed=0,
                    tau=6.0, forecaster="oracle")
    defaults.update(kw)
    return harness.ExperimentSpec(**defaults)


@pytest.fixture(scope="module")
def small_ds():
    return datasets.make_dataset("1a", seed=0, n_days=3, n_points=12, box=12.0)


def test_run_seed_frozen_and_distinct():
    assert harness.run_seed(0, "splitea", 0) == 6206736845396535190
    assert harness.run_seed(7, "greedy", 3) == 9120003743660652645
    seeds = {harness.run_seed(0, a, r) for a in ("splitea", "greedy") for r in range(50)}
    assert len(seeds) == 100


def test_resolve_tau():
    ps = model.build_distance_matrix([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    # nearest-neighbour distances 1, 1, 2 -> mean 4/3 -> tau 4
    assert harness.resolve_tau(ps) == pytest.approx(4.0)
    assert harness.resolve_tau(ps, value=2.5) == 2.5
    with pytest.raises(ValueError):
        harness.resolve_tau(ps, value=-1.0)
    single = model.build_distance_matrix([[0.0, 0.0]])
    with pytest.raises(ValueError):
        harness.resolve_tau(single)


@pytest.mark.parametrize("value", [float("nan"), -float("nan"), 0.0, -0.0, -1.0])
def test_resolve_tau_rejects_an_absolute_tau_that_is_not_positive(value):
    # nan <= 0 is False: nan used to come back as the cap.
    ps = model.build_distance_matrix([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="^tau must be positive, got -?(nan|0.0|1.0)$"):
        harness.resolve_tau(ps, value)


def test_spec_rejects_an_alpha_or_forecaster_before_any_solve(small_ds, monkeypatch):
    # alpha used to fail in aggregate, once every run was solved, and an unknown
    # forecaster at the first forecast; now the spec itself is refused.
    solved = []
    monkeypatch.setattr(harness, "run_ea", lambda *a: solved.append(a))
    monkeypatch.setattr(harness, "run_greedy", lambda *a, **kw: solved.append(a))
    with pytest.raises(ValueError, match=r"^alpha must be one of \[0.05, 0.1\], got 0.01$"):
        harness.run_experiment(_tiny_spec(small_ds, alpha=0.01))
    with pytest.raises(ValueError, match="^alpha must be one of"):
        _tiny_spec(small_ds, alpha=True)
    with pytest.raises(ValueError, match="^unknown forecaster 'nope'; expected one of"):
        harness.run_experiment(_tiny_spec(small_ds, forecaster="nope"))
    assert solved == []
    for alpha, forecaster in ((0.05, "oracle"), (np.float64(0.1), "persistence")):
        spec = _tiny_spec(small_ds, alpha=alpha, forecaster=forecaster)
        assert (spec.alpha, spec.forecaster) == (alpha, forecaster)


def test_resolve_tau_blocks_match_dense_reference(rng):
    # Sizes from 2 to 600; the last case puts co-located twins far apart
    # in index order.
    for n in (2, 255, 256, 257, 600):
        pos = rng.uniform(0.0, 50.0, size=(n, 2))
        if n == 600:
            pos[400] = pos[3]
        ps = model.build_distance_matrix(pos)
        d = dense_distance(pos)
        np.fill_diagonal(d, np.inf)
        assert harness.resolve_tau(ps) == 3.0 * float(d.min(axis=1).mean())


def test_resolve_tau_and_within_tau_memory_is_linear():
    # 20,000 points at the density of the N = 2000 benchmark instance (2000
    # in a 100 x 100 box). A dense N x N float matrix alone would be 3.2 GB.
    n = 20_000
    pos = np.random.default_rng(3).uniform(0.0, 100.0 * math.sqrt(n / 2000), size=(n, 2))
    ps = model.build_distance_matrix(pos)
    tracemalloc.start()
    try:
        model.within_tau(ps, harness.resolve_tau(ps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_resolve_tau_rejects_colocated_points():
    # 10 RRHs in 5 co-located pairs: every nearest-neighbour distance is 0.
    pairs = [[float(i), 0.0] for i in range(5)]
    ps = model.build_distance_matrix(pairs + pairs)
    with pytest.raises(ValueError, match="3x-mean-nn.*absolute tau"):
        harness.resolve_tau(ps)
    assert harness.resolve_tau(ps, value=1.5) == 1.5


def test_plan_days_alignment(rng):
    days = [model.TrafficDay(values=rng.random((2, 3))) for _ in range(3)]
    served, opt = harness._plan_days(days, "oracle")
    assert served == [1, 2]
    assert np.array_equal(opt[0].values, days[1].values)
    assert np.array_equal(opt[1].values, days[2].values)
    served, opt = harness._plan_days(days, "persistence")
    assert served == [1, 2]
    assert np.array_equal(opt[0].values, days[0].values)
    assert np.array_equal(opt[1].values, days[1].values)
    served, opt = harness._plan_days(days[:1], "persistence")
    assert served == [0]
    assert np.array_equal(opt[0].values, days[0].values)


def test_trivial_single_point_single_day():
    ds = datasets.make_dataset("1a", seed=4, n_days=1, n_points=1)
    algorithms = tuple(harness.standard_algorithms(("splitea", "greedy"),
                                                   popsize=2, maxgen=5, budget=10))
    spec = harness.ExperimentSpec(dataset=ds, algorithms=algorithms, runs=2,
                                  tau=1.0, w=0.01)
    res = harness.run_experiment(spec)
    u = float(np.abs(ds.traffic[0].values - 1.0).mean())
    for j, _ in enumerate(res.table.algorithms):
        assert res.table.means["K"][j] == pytest.approx(1.0)
        assert res.table.means["f"][j] == pytest.approx(0.01 + u)


def test_budget_parity_enforced(small_ds):
    algorithms = tuple(harness.standard_algorithms(("splitea", "greedy"),
                                                   popsize=4, maxgen=6, budget=23))
    spec = harness.ExperimentSpec(dataset=small_ds, algorithms=algorithms,
                                  runs=2, tau=6.0)
    with pytest.raises(ValueError, match="budgets differ"):
        harness.run_experiment(spec)


def test_run_experiment_records(small_ds):
    res = harness.run_experiment(_tiny_spec(small_ds))
    assert len(res.records) == 2 * 3
    for r in res.records:
        assert len(r.days) == 2  # 3-day dataset serves days 1 and 2
        assert [d.day for d in r.days] == [1, 2]
        for d in r.days:
            assert d.evals_used in (4 * 7, 24)
            assert len(d.trace) == 7
    assert res.table.n_blocks == 3


def test_determinism_across_workers(small_ds):
    a = harness.run_experiment(_tiny_spec(small_ds, runs=4))
    b = harness.run_experiment(_tiny_spec(small_ds, runs=4, workers=2))
    assert a.records == b.records
    assert a.table.to_json() == b.table.to_json()


def test_persistence_changes_records(small_ds):
    a = harness.run_experiment(_tiny_spec(small_ds))
    with_pers = harness.run_experiment(_tiny_spec(small_ds, forecaster="persistence"))
    assert with_pers.records != a.records


def test_aggregate_marks_clear_winner():
    rng = np.random.default_rng(3)
    records = []
    for alg, base in (("good", 1.0), ("bad", 2.0)):
        for run in range(10):
            days = tuple(harness.DayRecord(day=1, K=3, U=0.1, Udelay=0.05, Uunder1=0.05,
                                           f=base + rng.random() * 0.1, opt_f=1.0,
                                           evals_used=10, trace=(1.0,)) for _ in range(2))
            records.append(harness.RunRecord(algorithm=alg, run=run, seed=run, days=days))
    table = harness.aggregate(records)
    assert table.algorithms == ("good", "bad")
    assert table.marks["f"] == (True, False)
    assert table.marks["K"] == (False, False)  # identical K everywhere
    assert "*" in table.render()


def test_aggregate_rejects_unpaired_runs():
    day = harness.DayRecord(day=0, K=1, U=0.1, Udelay=0.1, Uunder1=0.0, f=1.0,
                            opt_f=1.0, evals_used=1, trace=(1.0,))
    records = [harness.RunRecord(algorithm="a", run=0, seed=0, days=(day,)),
               harness.RunRecord(algorithm="a", run=1, seed=1, days=(day,)),
               harness.RunRecord(algorithm="b", run=2, seed=2, days=(day,))]
    with pytest.raises(ValueError, match="paired"):
        harness.aggregate(records)
    with pytest.raises(ValueError, match="no records"):
        harness.aggregate([])


def test_records_round_trip(tmp_path, small_ds):
    res = harness.run_experiment(_tiny_spec(small_ds, runs=2))
    path = tmp_path / "records.ndjson"
    harness.write_records(res.records, path)
    back = harness.read_records(path)
    assert tuple(back) == res.records
    # byte-stable rewrite
    path2 = tmp_path / "records2.ndjson"
    harness.write_records(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_export_curves(tmp_path, small_ds):
    res = harness.run_experiment(_tiny_spec(small_ds, runs=2))
    path = tmp_path / "curves.csv"
    harness.export_curves(res.records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "algorithm,run,day,generation,best_f"
    expected_rows = sum(len(d.trace) for r in res.records for d in r.days)
    assert len(lines) == 1 + expected_rows
    first = lines[1].split(",")
    assert first[0] == "splitea" and first[2] == "1" and first[3] == "0"


def test_sweep_w_and_budget(small_ds):
    spec = _tiny_spec(small_ds, runs=2)
    out = harness.sweep(spec, "w", [0.01, 0.5])
    assert [v for v, _ in out] == [0.01, 0.5]
    # heavier cluster-count weight drives K down
    k_light = out[0][1].table.means["K"]
    k_heavy = out[1][1].table.means["K"]
    assert all(h <= l for h, l in zip(k_heavy, k_light))

    out = harness.sweep(spec, "budget", [12])
    (_, res), = out
    for r in res.records:
        assert all(d.evals_used in (12, 12 + 4) for d in r.days)
    with pytest.raises(ValueError, match="divisible"):
        harness.sweep(spec, "budget", [13])
    with pytest.raises(ValueError, match="12.5"):  # not truncated to 12
        harness.sweep(spec, "budget", [12, 12.5])
    with pytest.raises(ValueError, match="^workers must be an integer >= 1, got 0$"):
        harness.run_experiment(replace(spec, workers=0))
    with pytest.raises(ValueError, match="sweep parameter"):
        harness.sweep(spec, "popsize", [5])


@pytest.mark.parametrize("param, values, match", [
    ("budget", [12, 13], "divisible"),
    ("w", [0.01, 2.0], "w must be"),
    ("prob", [0.5, 1.5], "prob must be"),
    ("tau", [6.0, -1.0], "tau must be positive"),
    ("popsize", [], "sweep parameter"),
    ("w", [], "^no values of w to sweep$"),
    # True is no value of any sweep parameter, though float(True) is 1.0.
    *((param, [True], "got True$") for param in harness.SWEEPS),
], ids=["budget-13", "w-2", "prob-1.5", "tau-negative", "unknown-empty", "w-empty",
        *(f"{param}-True" for param in harness.SWEEPS)])
def test_sweep_checks_every_value_before_running(small_ds, monkeypatch, param, values, match):
    calls, run = [], harness.run_experiment
    monkeypatch.setattr(harness, "run_experiment", lambda s: calls.append(s) or run(s))
    with pytest.raises(ValueError, match=match):
        harness.sweep(_tiny_spec(small_ds), param, values)
    assert calls == []


def test_sweep_prob_needs_an_ea(small_ds, monkeypatch):
    # prob is the EA's alone: without an EA, every value would run the same experiment.
    calls, run = [], harness.run_experiment
    monkeypatch.setattr(harness, "run_experiment", lambda s: calls.append(s) or run(s))
    spec = _tiny_spec(small_ds, algs=("greedy",))
    with pytest.raises(ValueError, match="^prob is the EA's mutation probability, but no "):
        harness.sweep(spec, "prob", [0.1, 0.9, True])
    assert calls == []


def test_standard_algorithms_validation():
    algs = harness.standard_algorithms(("splitea", "randea", "copyea", "greedy"))
    assert [a.kind for a in algs] == ["ea", "ea", "ea", "greedy"]
    assert [a.variant for a in algs[:3]] == ["split", "rand", "copy"]
    with pytest.raises(ValueError):
        harness.standard_algorithms(("annealing",))
    with pytest.raises(ValueError):
        harness.AlgorithmSpec(name="x", kind="tabu")


@pytest.mark.parametrize("make, match", [
    (lambda ds: _tiny_spec(ds, runs=2.5), "runs must be an integer >= 1, got 2.5"),
    (lambda ds: _tiny_spec(ds, runs=0), "runs must be an integer >= 1, got 0"),
    (lambda ds: _tiny_spec(ds, workers=1.0), "workers must be an integer >= 1, got 1.0"),
    (lambda ds: harness.AlgorithmSpec(name="g", kind="greedy", budget=2.5),
     "budget must be an integer >= 1, got 2.5"),
    (lambda ds: harness.AlgorithmSpec(name="g", kind="greedy", popsize=0),
     "popsize must be an integer >= 1, got 0"),  # greedy's checkpoint interval
    # Negative base seeds stay accepted: run_seed masks them.
    (lambda ds: _tiny_spec(ds, base_seed=1.5), "base_seed must be an integer >= -inf, got 1.5"),
    (lambda ds: _tiny_spec(ds, base_seed=True), "base_seed must be an integer >= -inf, got True"),
], ids=["fractional-runs", "no-runs", "float-workers", "fractional-budget",
        "no-checkpoint-interval", "fractional-base-seed", "bool-base-seed"])
def test_specs_reject_non_integer_counts(small_ds, make, match):
    with pytest.raises(ValueError, match=f"^{match}$"):
        make(small_ds)


def test_spec_accepts_negative_and_numpy_base_seeds(small_ds):
    # run_seed masks a negative base seed; a numpy one is stored as an int, as
    # run_seed's xor with a 64-bit digest overflows an int64.
    assert _tiny_spec(small_ds, base_seed=-3).base_seed == -3
    spec = _tiny_spec(small_ds, algs=("greedy",), runs=1, base_seed=np.int64(7))
    assert type(spec.base_seed) is int
    assert harness.run_experiment(spec) == harness.run_experiment(replace(spec, base_seed=7))


def test_duplicate_algorithm_names_rejected(small_ds):
    algs = tuple(harness.standard_algorithms(("splitea",))) * 2
    with pytest.raises(ValueError, match="duplicate"):
        harness.run_experiment(harness.ExperimentSpec(dataset=small_ds, algorithms=algs,
                                                      runs=2, tau=6.0))
