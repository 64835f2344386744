import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bbuclust import model, objective, solvers
import _oracles
from _oracles import brute_force_best, dense_distance, reference_run_ea


def _points(coords):
    return model.build_distance_matrix([[float(x), 0.0] for x in coords])


def _random_geometry(rng, n, box=10.0):
    return model.build_distance_matrix(rng.uniform(0.0, box, size=(n, 2)))


def test_ea_config_validation():
    solvers.EaConfig()
    with pytest.raises(ValueError):
        solvers.EaConfig(popsize=0)
    with pytest.raises(ValueError):
        solvers.EaConfig(prob=1.5)
    with pytest.raises(ValueError):
        solvers.EaConfig(variant="elitist")
    with pytest.raises(ValueError):
        solvers.EaConfig(maxgen=-1)


def test_initial_pop_feasible_and_complete(rng):
    ps = _random_geometry(rng, 25)
    nbrs = model.within_tau(ps, 3.0)
    for _ in range(12):
        ind = model.Clustering(solvers._initial_labels(nbrs, rng))
        assert ind.n_points == 25
        assert model.is_feasible(ind, ps, tau=3.0)


def test_initial_pop_far_points_all_singletons(rng):
    ps = _points([0, 100, 200, 300])
    nbrs = model.within_tau(ps, 1.0)
    for _ in range(5):
        assert model.Clustering(solvers._initial_labels(nbrs, rng)).K == 4


def test_initial_pop_deterministic():
    ps = _points([0, 1, 2, 3, 10, 11])
    adj = model.within_tau(ps, 2.0)
    ra, rb = np.random.default_rng(7), np.random.default_rng(7)
    a = [solvers._initial_labels(adj, ra) for _ in range(8)]
    b = [solvers._initial_labels(adj, rb) for _ in range(8)]
    assert all(x.tolist() == y.tolist() for x, y in zip(a, b))


def test_mutate_merges_two_near_singletons(rng):
    ps = _points([0, 1])
    parent = np.array([1, 2])
    child, changed, order = solvers._mutate_labels(parent, model.within_tau(ps, 2.0), prob=1.0,
                                                   rng=rng)
    assert model.Clustering(child).K == 1
    assert sorted(changed) == [1, 2]
    assert order.tolist() == [changed[1]]


def test_mutate_no_neighbors_is_noop(rng):
    ps = _points([0, 100, 200])
    parent = np.array([1, 2, 3])
    for _ in range(10):
        child, changed, order = solvers._mutate_labels(parent, model.within_tau(ps, 1.0),
                                                       prob=0.5, rng=rng)
        assert child.tolist() == [1, 2, 3]
        assert child is not parent
        assert changed == ()
        assert order is None


def test_mutate_escapes_single_cluster(rng):
    # With everything in one cluster there is no target cluster, so the
    # selected point is pulled out into a singleton.
    ps = _points([0, 1])
    parent = np.array([1, 1])
    child, changed, order = solvers._mutate_labels(parent, model.within_tau(ps, 5.0), prob=0.3,
                                                   rng=rng)
    assert model.Clustering(child).K == 2
    assert changed == (1,)
    assert sorted(order.tolist()) == [1, 2]  # x's new cluster is numbered K + 1 = 2 first


def test_mutate_preserves_feasibility_and_nonempty_donors(rng):
    for trial in range(30):
        ps = _random_geometry(rng, 15, box=6.0)
        tau = 2.5
        adj = model.within_tau(ps, tau)
        lab = solvers._initial_labels(adj, rng)
        for _ in range(60):
            lab, _, _ = solvers._mutate_labels(lab, adj, prob=0.5, rng=rng)
            # Clustering construction enforces 1..K contiguity (no empties).
            assert model.is_feasible(model.Clustering(lab), ps, tau)



def _blobs_and_loners(rng, n, box):
    """Points in tight groups (dense, like ``2b``) and points spread over a box."""
    centres = rng.uniform(0.0, box, size=(int(rng.integers(1, 6)), 2))
    grouped = centres[rng.integers(centres.shape[0], size=n)] + rng.normal(0.0, 0.3, (n, 2))
    spread = rng.uniform(0.0, box, size=(n, 2))
    return model.build_distance_matrix(np.where(rng.random((n, 1)) < 0.5, grouped, spread))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 200), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.floats(1.0, 60.0), st.booleans(), st.sampled_from([0.0, 0.5, 1.0]))
def test_operators_match_their_frozen_versions(n, hours, seed, box, split, prob):
    # Every label array, every reported regrouping and every draw (the
    # generator state after each call) must equal the operators' frozen
    # versions; the rows built from the child's relabel order must equal a
    # full recomputation.
    rng = np.random.default_rng(seed)
    nbrs = model.within_tau(_blobs_and_loners(rng, n, box), 3.0)
    values = _special_traffic(rng, n, hours)
    live, frozen = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)

    def same_draws():
        assert live.bit_generator.state == frozen.bit_generator.state

    parent = solvers._initial_labels(nbrs, live)  # labels in seed-draw order
    want = _oracles._initial_labels(nbrs, frozen)
    assert parent.dtype == want.dtype and parent.tolist() == want.tolist()
    same_draws()
    if split:
        parent = solvers._split_labels(parent, live)
        solvers._split_labels(want, frozen)
    for step in range(10):
        dev = np.abs(objective.cluster_sums(parent, values) - 1.0)
        child, changed, order = solvers._mutate_labels(parent, nbrs, prob, live)
        want, want_changed = _oracles._mutate_labels(parent, nbrs, prob, frozen)
        assert child.dtype == want.dtype and child.tolist() == want.tolist()
        assert changed == want_changed
        same_draws()
        if changed:
            kept = ~np.isin(parent, changed)
            assert (order[child - 1][kept] == parent[kept]).all()
        else:
            assert order is None
        got = solvers._child_dev(parent, dev, values, child, changed, order)
        assert got.tobytes() == np.abs(objective.cluster_sums(child, values) - 1.0).tobytes()
        if step % 2:
            parent = child


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.booleans())
def test_joinable_matches_its_bincount_version(n, seed, alone):
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, int(rng.integers(1, n + 1)) + 1, size=n)
    labels = np.unique(labels, return_inverse=True)[1].astype(np.int64) + 1
    if rng.random() < 0.5:
        labels = model.renumber(labels)
    counts = np.bincount(labels)
    x = int(rng.integers(n))
    others = np.flatnonzero(rng.random(n) < rng.random())
    row = np.array([x]) if alone else np.union1d(others, [x])  # ascending, holds x
    kx = int(labels[x])
    got = solvers._joinable(labels, row, kx, counts)
    assert got == _oracles._joinable(labels, row, x, counts).tolist()
    assert got == sorted(got) and kx not in got
    assert all(set(np.flatnonzero(labels == k).tolist()) <= set(row.tolist()) for k in got)
    if alone:
        assert got == []


def test_split_population_examples(rng):
    singles = np.array([1, 2, 3])
    out = solvers._split_labels(singles, rng)
    assert out.tolist() == [1, 2, 3]  # nothing to split

    merged = np.array([1, 1, 2])
    out = solvers._split_labels(merged, rng)
    assert model.Clustering(out).K == 3  # the only multi-member cluster splits into singletons


def test_split_preserves_feasibility(rng):
    ps = _random_geometry(rng, 20, box=5.0)
    nbrs = model.within_tau(ps, 3.0)
    pop = [solvers._initial_labels(nbrs, rng) for _ in range(10)]
    for lab in pop:
        ind = model.Clustering(solvers._split_labels(lab, rng))
        assert model.is_feasible(ind, ps, 3.0)
        assert ind.n_points == 20


def _traffic_days(rng, n, days, hours=6):
    return [model.TrafficDay(values=rng.random((n, hours)), day_index=d)
            for d in range(days)]


def test_run_ea_invariants(rng):
    ps = _random_geometry(rng, 18, box=6.0)
    traffic = _traffic_days(rng, 18, 3)
    problem = model.ProblemConfig(w=0.01, tau=2.5, H=6)
    for variant in solvers.VARIANTS:
        cfg = solvers.EaConfig(popsize=6, maxgen=20, variant=variant, seed=11)
        results = solvers.run_ea(ps, traffic, cfg, problem)
        assert len(results) == 3
        for day, r in enumerate(results):
            assert r.day == day
            assert len(r.trace) == 21
            assert r.evals_used == 6 * 21
            assert all(a >= b - 1e-12 for a, b in zip(r.trace, r.trace[1:]))
            assert r.trace[-1] == pytest.approx(r.best_fitness.f)
            assert model.is_feasible(r.best, ps, 2.5)
            # cached fitness matches re-evaluation
            rep = objective.metrics(r.best, traffic[day], problem)
            assert rep.f == pytest.approx(r.best_fitness.f, abs=1e-12)


def test_run_ea_deterministic(rng):
    ps = _random_geometry(rng, 12, box=5.0)
    traffic = _traffic_days(rng, 12, 2)
    problem = model.ProblemConfig(w=0.01, tau=2.0, H=6)
    cfg = solvers.EaConfig(popsize=5, maxgen=15, seed=3)
    a = solvers.run_ea(ps, traffic, cfg, problem)
    b = solvers.run_ea(ps, traffic, cfg, problem)
    for x, y in zip(a, b):
        assert x.trace == y.trace
        assert x.best.labels.tolist() == y.best.labels.tolist()


def test_run_ea_errors(rng):
    ps = _random_geometry(rng, 5)
    problem = model.ProblemConfig(w=0.01, tau=2.0, H=6)
    with pytest.raises(ValueError):
        solvers.run_ea(ps, [], solvers.EaConfig(), problem)
    bad_hours = [model.TrafficDay(values=rng.random((5, 4)))]
    with pytest.raises(ValueError):
        solvers.run_ea(ps, bad_hours, solvers.EaConfig(), problem)
    bad_n = [model.TrafficDay(values=rng.random((4, 6)))]
    with pytest.raises(ValueError):
        solvers.run_ea(ps, bad_n, solvers.EaConfig(), problem)


def test_run_ea_audit_counts_and_feasibility(rng):
    ps = _random_geometry(rng, 10, box=4.0)
    traffic = _traffic_days(rng, 10, 3)
    problem = model.ProblemConfig(w=0.01, tau=2.0, H=6)
    seen = []
    cfg = solvers.EaConfig(popsize=4, maxgen=10, variant="split", seed=5)
    solvers.run_ea(ps, traffic, cfg, problem, audit=seen.append)
    # initial pop + offspring each day + split reseeds between days
    assert len(seen) == 4 + 3 * 10 * 4 + 2 * 4
    for lab in seen:
        assert model.is_feasible(model.Clustering(labels=lab), ps, 2.0)


@pytest.mark.parametrize("solver", solvers.VARIANTS + ("greedy",))
def test_audit_sees_every_scored_label_array(rng, monkeypatch, solver):
    ps = _random_geometry(rng, 10, box=4.0)
    traffic = _traffic_days(rng, 10, 3)
    problem = model.ProblemConfig(w=0.01, tau=2.0, H=6)
    calls = []

    def counting_fitness_parts(labels, values, w, dev=None):
        calls.append(labels)
        return objective.fitness_parts(labels, values, w, dev)

    monkeypatch.setattr(solvers, "fitness_parts", counting_fitness_parts)
    seen = []
    if solver == "greedy":
        solvers.run_greedy(ps, traffic, 60, problem, np.random.default_rng(3),
                           audit=seen.append)
    else:
        cfg = solvers.EaConfig(popsize=4, maxgen=10, variant=solver, seed=5)
        solvers.run_ea(ps, traffic, cfg, problem, audit=seen.append)
    # Every fitness call but the driver's uncharged per-day re-score is audited.
    assert len(seen) == len(calls) - len(traffic)


def test_run_greedy_invariants(rng):
    ps = _random_geometry(rng, 15, box=5.0)
    traffic = _traffic_days(rng, 15, 2)
    problem = model.ProblemConfig(w=0.01, tau=2.5, H=6)
    results = solvers.run_greedy(ps, traffic, 200, problem,
                                 np.random.default_rng(9), checkpoint_every=10)
    assert len(results) == 2
    for r in results:
        assert r.evals_used == 200
        assert len(r.trace) == 21
        assert all(a >= b - 1e-12 for a, b in zip(r.trace, r.trace[1:]))
        assert model.is_feasible(r.best, ps, 2.5)
        assert r.trace[-1] >= r.best_fitness.f - 1e-12


def test_run_greedy_deploys_its_last_committed_f_exactly(rng):
    ps = _random_geometry(rng, 40, box=6.0)
    traffic = _traffic_days(rng, 40, 3, hours=5)
    problem = model.ProblemConfig(w=0.01, tau=2.0, H=5)
    results = solvers.run_greedy(ps, traffic, 300, problem, np.random.default_rng(6),
                                 checkpoint_every=10)
    for r in results:
        # The budget is a multiple of checkpoint_every, so the last trace entry
        # is the last committed f, scored from kept rows; the deployed f is the
        # driver's full re-score.
        assert r.trace[-1] < r.trace[0]
        assert r.best_fitness.f == r.trace[-1]


def _assert_move_dev_exact(labels, values, x, k):
    dev = np.abs(objective.cluster_sums(labels, values) - 1.0)
    cand, order = solvers._move(labels, x, k)
    got = solvers._child_dev(labels, dev, values, cand, (labels[x], k), order)
    # _child_dev writes into neither the parent nor the candidate labels.
    assert cand.tolist() == solvers._move(labels, x, k)[0].tolist()
    assert cand.tolist() == _oracles._move(labels, x, k).tolist()  # the frozen version
    assert (order[cand - 1] == np.where(np.arange(labels.size) == x, k, labels)).all()
    want = np.abs(objective.cluster_sums(cand, values) - 1.0)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert objective.fitness_parts(cand, values, 0.01, got) == \
        objective.fitness_parts(cand, values, 0.01)


def _special_traffic(rng, n, h):
    """Random traffic with exact zeros of both signs and long equal runs."""
    values = rng.random((n, h)) * rng.choice([0.01, 0.3, 1.0])
    special = rng.random((n, h))
    values[special < 0.15] = 0.0
    values[special > 0.85] = -0.0
    values[(special > 0.5) & (special < 0.6)] = 0.1
    return values


@pytest.mark.parametrize("hours", [1, 3])
def test_move_dev_matches_full_rows_on_every_kind_of_move(hours):
    # Clusters of 1, 2, 9 and 130 members, interleaved in point order and
    # numbered in an order other than first appearance. The moved points
    # include each cluster's first, second and last member (so moves empty
    # a cluster, remove its first member and make x a target's new first
    # member), into every other cluster.
    rng = np.random.default_rng(2022)
    sizes = {3: 1, 1: 2, 4: 9, 2: 130}
    labels = rng.permutation(np.repeat(list(sizes), list(sizes.values()))).astype(np.int64)
    values = _special_traffic(rng, labels.size, hours)
    seen = set()
    for kx in sizes:
        mem = np.flatnonzero(labels == kx)
        for x in {int(mem[0]), int(mem[min(1, mem.size - 1)]), int(mem[-1])}:
            for k in sizes:
                if k != kx:
                    _assert_move_dev_exact(labels, values, x, k)
                    seen.add("empties" if mem.size == 1 else
                             "removes-first" if x == mem[0] else "removes-later")
                    if x < np.flatnonzero(labels == k)[0]:
                        seen.add("new-first")
    assert seen == {"empties", "removes-first", "removes-later", "new-first"}


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 400), st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_move_dev_matches_full_rows(n, hours, seed, grown):
    rng = np.random.default_rng(seed)
    if grown:
        # Parents straight from _initial_labels: labels in seed-draw order.
        ps = _random_geometry(rng, n, box=float(rng.uniform(1.0, 30.0)))
        labels = solvers._initial_labels(model.within_tau(ps, 3.0), rng)
    else:
        raw = rng.integers(1, int(rng.integers(2, n + 1)) + 1, size=n)
        labels = np.unique(raw, return_inverse=True)[1].astype(np.int64) + 1  # in value order
        if rng.random() < 0.5:
            labels = model.renumber(labels)
    if labels.max() < 2:
        return
    values = _special_traffic(rng, n, hours)
    for _ in range(4):
        x = int(rng.integers(n))
        others = np.setdiff1d(np.arange(1, labels.max() + 1), [labels[x]])
        _assert_move_dev_exact(labels, values, x, int(rng.choice(others)))


def _assert_mutation_dev_exact(parent, values, nbrs, prob, rng):
    """Mutate parent, check the child's built rows, return (child, kind, regrouped sizes)."""
    dev = np.abs(objective.cluster_sums(parent, values) - 1.0)
    child, changed, order = solvers._mutate_labels(parent, nbrs, prob, rng)
    got = solvers._child_dev(parent, dev, values, child, changed, order)
    want = np.abs(objective.cluster_sums(child, values) - 1.0)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    sizes = [int((parent == c).sum()) for c in changed]
    if not changed:
        kind = "no-op"
    elif len(changed) == 1:
        kind = "isolate"
    else:
        # A join keeps cluster changed[1] whole; a pull leaves part of it behind.
        kind = "join" if np.unique(child[parent == changed[1]]).size == 1 else "pull"
    return child, kind, sizes


def _mutation_walk(rng, n, hours, box, split, prob, steps=8):
    """Mutations of one parent, then a chain of them; returns the kinds and sizes seen."""
    ps = _random_geometry(rng, n, box=box)
    nbrs = model.within_tau(ps, 3.0)
    values = _special_traffic(rng, n, hours)
    parent = solvers._initial_labels(nbrs, rng)  # labels in seed-draw order
    if split:
        parent = solvers._split_labels(parent, rng)
    kinds, sizes = set(), []
    for step in range(steps):
        child, kind, sz = _assert_mutation_dev_exact(parent, values, nbrs, prob, rng)
        kinds.add(kind)
        sizes += sz
        if step >= steps // 2:
            parent = child
    return kinds, sizes


@pytest.mark.parametrize("hours", [1, 3])
def test_child_dev_matches_full_rows_on_every_kind_of_mutation(hours):
    # Dense boxes give clusters of more than 8 members (where a pairwise sum
    # would differ from bincount's sequential one at H = 1); sparse boxes give
    # isolated points, whose mutation is the unchanged copy.
    rng = np.random.default_rng(2023)
    kinds, sizes = set(), []
    for box in (2.0, 6.0, 40.0):
        for split in (False, True):
            for prob in (0.0, 0.5, 1.0):
                k, sz = _mutation_walk(rng, 120, hours, box, split, prob, steps=12)
                kinds |= k
                sizes += sz
    assert kinds == {"join", "isolate", "pull", "no-op"}
    assert max(sizes) > 8


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 300), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.floats(1.0, 40.0), st.booleans(), st.sampled_from([0.0, 0.5, 1.0]))
def test_child_dev_matches_full_rows_for_mutations(n, hours, seed, box, split, prob):
    _mutation_walk(np.random.default_rng(seed), n, hours, box, split, prob)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 60), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from(solvers.VARIANTS))
def test_run_ea_matches_the_full_kernel_loop(n, days, hours, seed, variant):
    rng = np.random.default_rng(seed)
    ps = _random_geometry(rng, n, box=float(rng.uniform(1.0, 20.0)))
    traffic = [model.TrafficDay(values=_special_traffic(rng, n, hours), day_index=d)
               for d in range(days)]
    problem = model.ProblemConfig(w=0.01, tau=3.0, H=hours)
    cfg = solvers.EaConfig(popsize=int(rng.integers(1, 7)), maxgen=int(rng.integers(0, 25)),
                           prob=float(rng.choice([0.0, 0.5, 1.0])), variant=variant,
                           seed=int(rng.integers(1000)))
    got = solvers.run_ea(ps, traffic, cfg, problem)
    want = reference_run_ea(ps, traffic, cfg, problem)
    for a, b in zip(got, want, strict=True):
        assert a.best.labels.tolist() == b.best.labels.tolist()
        assert a.trace == b.trace
        assert a.best_fitness == b.best_fitness
        assert a.evals_used == b.evals_used


def test_run_ea_deploys_its_best_f_exactly(rng):
    ps = _random_geometry(rng, 40, box=6.0)
    traffic = _traffic_days(rng, 40, 3, hours=5)
    problem = model.ProblemConfig(w=0.01, tau=2.0, H=5)
    for variant in solvers.VARIANTS:
        cfg = solvers.EaConfig(popsize=6, maxgen=40, variant=variant, seed=8)
        for r in solvers.run_ea(ps, traffic, cfg, problem):
            # The last trace entry is scored from built rows; the deployed f is
            # the driver's full re-score.
            assert r.trace[-1] < r.trace[0]
            assert r.best_fitness.f == r.trace[-1]


def test_run_greedy_budget_one(rng):
    ps = _random_geometry(rng, 6, box=4.0)
    traffic = _traffic_days(rng, 6, 1)
    problem = model.ProblemConfig(w=0.01, tau=2.0, H=6)
    r = solvers.run_greedy(ps, traffic, 1, problem, np.random.default_rng(1))[0]
    assert r.evals_used == 1
    assert r.trace == [r.best_fitness.f]  # only the uncharged baseline fits


def test_run_greedy_single_point(rng):
    ps = model.build_distance_matrix([[0.0, 0.0]])
    values = rng.random((1, 6))
    traffic = [model.TrafficDay(values=values)]
    problem = model.ProblemConfig(w=0.01, tau=1.0, H=6)
    r = solvers.run_greedy(ps, traffic, 20, problem, np.random.default_rng(2))[0]
    assert r.best_fitness.K == 1
    assert r.best_fitness.f == pytest.approx(0.01 + np.abs(values - 1.0).mean())


def test_run_greedy_deterministic(rng):
    ps = _random_geometry(rng, 12, box=5.0)
    traffic = _traffic_days(rng, 12, 2)
    problem = model.ProblemConfig(w=0.01, tau=2.0, H=6)
    a = solvers.run_greedy(ps, traffic, 150, problem, np.random.default_rng(4))
    b = solvers.run_greedy(ps, traffic, 150, problem, np.random.default_rng(4))
    for x, y in zip(a, b):
        assert x.trace == y.trace
        assert x.best.labels.tolist() == y.best.labels.tolist()


def test_run_greedy_errors(rng):
    ps = _random_geometry(rng, 5)
    traffic = _traffic_days(rng, 5, 1)
    problem = model.ProblemConfig(w=0.01, tau=2.0, H=6)
    with pytest.raises(ValueError):
        solvers.run_greedy(ps, traffic, 0, problem, np.random.default_rng(0))
    with pytest.raises(ValueError):
        solvers.run_greedy(ps, traffic, 10, problem, np.random.default_rng(0),
                           checkpoint_every=0)


def test_solvers_reach_brute_force_optimum(rng):
    # Exhaustive-search cross-check on a 7-point instance: with a full
    # budget the EA lands exactly on the enumerated optimum.
    pos = rng.uniform(0.0, 4.0, size=(7, 2))
    ps = model.build_distance_matrix(pos)
    values = rng.random((7, 4))
    traffic = [model.TrafficDay(values=values)]
    problem = model.ProblemConfig(w=0.05, tau=2.5, H=4)
    best = brute_force_best(values.tolist(), dense_distance(pos).tolist(), 2.5, 0.05)

    cfg = solvers.EaConfig(popsize=10, maxgen=100, seed=0)
    r = solvers.run_ea(ps, traffic, cfg, problem)[0]
    assert r.best_fitness.f >= best - 1e-12  # cannot beat the true optimum
    assert r.best_fitness.f == pytest.approx(best, abs=1e-9)
