import gc
import itertools
import pickle
import sys
import threading
import weakref
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bbuclust import datasets, harness, model, objective, solvers
import _oracles
from _oracles import brute_force_best, dense_distance, reference_run_ea


def _points(coords):
    return model.build_distance_matrix([[float(x), 0.0] for x in coords])


def _random_geometry(rng, n, box=10.0):
    return model.build_distance_matrix(rng.uniform(0.0, box, size=(n, 2)))


def _lists(nbrs):
    """The ``within_tau`` rows as the lists ``run_ea`` hands the Python operators."""
    return [row.tolist() for row in nbrs]


def _mutate(labels, nbrs, *args, **kwargs):
    """``_mutate_labels`` of numpy ``labels`` on ``within_tau`` rows, both held as run_ea
    holds them (an ``array('q')``, tuple rows); the child comes back as numpy, or as
    ``labels`` itself for the unchanged copy."""
    held = array("q", labels.tolist())
    child, gone, made = solvers._mutate_labels(held, tuple(map(tuple, _lists(nbrs))),
                                               *args, **kwargs)
    return labels if child is held else np.frombuffer(child, np.int64), gone, made


def _rows(labels, values):
    return np.abs(objective.cluster_sums(labels, values) - 1.0)


def _dense(labels, values):
    """The r of ``renumber(labels)``'s clusters, by first point, from the full sums, and
    the exact total (K, R)."""
    r = np.add.reduce(_rows(model.renumber(labels), values), axis=1)
    return r, (r.size, sum(objective.exact(v) for v in r.tolist()))


def _by_first_point(labels):
    """Each cluster of ``labels`` labelled 1 + its first point, one point at a time."""
    first = {}
    return np.array([first.setdefault(k, p) + 1 for p, k in enumerate(labels.tolist())])


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _child(held, values, child, gone, made):
    """The child ``_mutate_labels`` reports of ``held`` (labels, r, total), held as run_ea
    holds it, checked against a full recomputation: each cluster labelled 1 + its first
    point, and its r, the total and f equal to the full sums' bit for bit."""
    labels, r, total = held
    rs, total = solvers._moved(values, r, total, gone, made, {})
    r = r.copy()
    r[[mem[0] + 1 for mem in made]] = rs
    assert child.tolist() == _by_first_point(child).tolist()
    want_r, want_total = _dense(child, values)
    assert total == want_total
    assert _same_bits(r[np.unique(child)], want_r)
    canon = model.renumber(child)
    assert objective.fitness_parts(canon, values, 0.01, total) == \
        objective.fitness_parts(canon, values, 0.01)
    return child, r, total


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
    # Counts and the seed are integers, numpy's included; an error names the field.
    for field, bad in (("popsize", 2.5), ("maxgen", 1.5), ("seed", -1), ("seed", 0.5)):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            solvers.EaConfig(**{field: bad})
    cfg = solvers.EaConfig(popsize=np.int64(4), maxgen=np.uint8(3), seed=np.int32(2))
    assert (cfg.popsize, cfg.maxgen, cfg.seed) == (4, 3, 2) and type(cfg.seed) is int


def test_initial_pop_feasible_and_complete(rng):
    ps = _random_geometry(rng, 25)
    nbrs = model.within_tau(ps, 3.0)
    for _ in range(12):
        ind = model.Clustering(solvers._initial_labels(_lists(nbrs), rng))
        assert ind.n_points == 25
        assert model.is_feasible(ind, ps, tau=3.0)


def test_initial_pop_far_points_all_singletons(rng):
    ps = _points([0, 100, 200, 300])
    nbrs = model.within_tau(ps, 1.0)
    for _ in range(5):
        assert model.Clustering(solvers._initial_labels(_lists(nbrs), rng)).K == 4


def test_initial_pop_deterministic():
    ps = _points([0, 1, 2, 3, 10, 11])
    adj = _lists(model.within_tau(ps, 2.0))
    ra, rb = np.random.default_rng(7), np.random.default_rng(7)
    a = [solvers._initial_labels(adj, ra) for _ in range(8)]
    b = [solvers._initial_labels(adj, rb) for _ in range(8)]
    assert all(x.tolist() == y.tolist() for x, y in zip(a, b))


def test_mutate_merges_two_near_singletons(rng):
    ps = _points([0, 1])
    parent = np.array([1, 2])
    nbrs = model.within_tau(ps, 2.0)
    child, gone, made = _mutate(parent, nbrs, prob=1.0, rng=rng)
    assert child.tolist() == [1, 1]
    assert sorted(gone) == [1, 2] and made == [[0, 1]]
    _child(solvers._held(parent, np.ones((2, 1))), np.ones((2, 1)), child, gone, made)


def test_mutate_no_neighbors_is_noop(rng):
    ps = _points([0, 100, 200])
    parent = np.array([1, 2, 3])
    nbrs = model.within_tau(ps, 1.0)
    for _ in range(10):
        child, gone, made = _mutate(parent, nbrs, prob=0.5, rng=rng)
        assert child is parent and parent.tolist() == [1, 2, 3]
        assert gone == made == []


def test_mutate_escapes_single_cluster(rng):
    # With everything in one cluster there is no target cluster, so the
    # selected point is pulled out into a singleton.
    ps = _points([0, 1])
    parent = np.array([1, 1])
    nbrs = model.within_tau(ps, 5.0)
    child, gone, made = _mutate(parent, nbrs, prob=0.3, rng=rng)
    assert child.tolist() == [1, 2]
    assert gone == [1] and sorted(made) == [[0], [1]]


def test_mutate_preserves_feasibility_and_nonempty_donors(rng):
    for trial in range(30):
        ps = _random_geometry(rng, 15, box=6.0)
        tau = 2.5
        adj = model.within_tau(ps, tau)
        rows = _lists(adj)
        lab = solvers._held(solvers._initial_labels(rows, rng), rng.random((15, 2)))[0]
        for _ in range(60):
            child, gone, made = _mutate(lab, adj, prob=0.5, rng=rng)
            # The changed clusters are replaced, none emptied, each by its first point.
            assert all(made) and set(gone) <= set(lab.tolist())
            assert set(child.tolist()) == \
                (set(lab.tolist()) - set(gone)) | {mem[0] + 1 for mem in made}
            lab = child
            assert model.is_feasible(model.Clustering(model.renumber(lab)), ps, tau)


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
    # versions; the child's labels, r and total must equal a full recomputation.
    rng = np.random.default_rng(seed)
    nbrs = model.within_tau(_blobs_and_loners(rng, n, box), 3.0)
    values = _special_traffic(rng, n, hours)
    live, frozen = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)

    def same_draws():
        assert live.bit_generator.state == frozen.bit_generator.state

    rows = _lists(nbrs)
    parent = solvers._initial_labels(rows, live)  # labels in seed-draw order
    want = _oracles._initial_labels(nbrs, frozen)
    assert parent.dtype == want.dtype and parent.tolist() == want.tolist()
    same_draws()
    if split:
        parent = solvers._split_labels(parent, live)
        want = _oracles._split_labels(want, frozen)
        assert parent.dtype == want.dtype and parent.tolist() == want.tolist()
        same_draws()
    # Held as run_ea holds a day's population: the draws follow the labels as given.
    held, order = solvers._held(parent, values), parent
    for step in range(10):
        shown = model.renumber(held[0]) if order is None else order
        child, gone, made = _mutate(held[0], nbrs, prob, live, None, order)
        want, want_changed = _oracles._mutate_labels(shown, nbrs, prob, frozen)
        same_draws()
        # Label k's first point is k - 1: the changed clusters as the frozen version numbers them.
        assert [int(shown[k - 1]) for k in gone] == list(want_changed)
        if made:
            kept = ~np.isin(held[0], gone)
            assert (child[kept] == held[0][kept]).all()
            child_held, got = _child(held, values, child, gone, made), model.renumber(child)
        else:
            assert child is held[0]
            got = shown
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        if step % 2 and made:
            held, order = child_held, None


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 120), st.integers(0, 2**32 - 1), st.floats(1.0, 60.0),
       st.sampled_from([0.0, 0.5, 1.0]))
def test_memo_mutations_match_the_frozen_operator(n, seed, box, prob):
    # As in run_ea, each parent is mutated through the memo it keeps, again
    # each generation it survives, and an unchanged copy shares its parent's
    # memo. A stale bincount or singleton list would change a child, a
    # regrouping or a draw.
    rng = np.random.default_rng(seed)
    nbrs = model.within_tau(_blobs_and_loners(rng, n, box), 3.0)
    values = _special_traffic(rng, n, 1)
    rows = _lists(nbrs)
    pop = []
    for _ in range(3):
        given = model.renumber(solvers._initial_labels(rows, rng))
        pop.append((solvers._held(given, values), [], given))
    live, frozen = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(4):
        offspring = []
        for held, memo, order in pop:
            shown = model.renumber(held[0]) if order is None else order
            for _ in range(2):
                child, gone, made = _mutate(held[0], nbrs, prob, live, memo, order)
                want, changed = _oracles._mutate_labels(shown, nbrs, prob, frozen)
                assert [int(shown[k - 1]) for k in gone] == list(changed)
                assert live.bit_generator.state == frozen.bit_generator.state
                got = model.renumber(child) if made else shown
                assert got.dtype == want.dtype and got.tolist() == want.tolist()
                offspring.append((_child(held, values, child, gone, made), [], None) if made
                                 else (held, memo, order))
            counts = np.bincount(held[0])
            assert memo[0].tolist() == counts.tolist()
            assert all(m.tolist() == np.flatnonzero(counts[held[0]] == 1).tolist()
                       for m in memo[1:])
            assert len(memo) <= (1 if prob == 0.0 else 2)
        merged = pop + offspring  # keep some entries twice, as truncation can
        pop = [merged[i] for i in rng.integers(len(merged), size=3)]


@pytest.mark.parametrize("kind", ["Generator", "PCG64", "MT19937"])
def test_repair_is_grow_over_choice_draw_for_draw(kind):
    # Every pick size of every point's close list on a line at tau = 2.5, where
    # points up to 5 apart are both close to the middle one: repair must keep
    # the points the frozen ``_grow`` keeps from ``choice``'s picks, in draw
    # order, and leave the draws where ``choice`` leaves its twin's.
    nbrs = model.within_tau(_points([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.5, 9.0]), 2.5)
    rows, rejected = _lists(nbrs), 0
    bits = np.random.MT19937 if kind == "MT19937" else np.random.PCG64
    wrap = (lambda g: g) if kind == "Generator" else solvers._Draws
    for r, row in enumerate(rows):
        close = [c for c in row if c != r]
        for num in range(1, len(close) + 1):
            for seed in range(4):
                live, frozen = (wrap(np.random.Generator(bits(seed))) for _ in range(2))
                got = solvers._repair(rows, r, close, num, live)
                picked = [close[j] for j in frozen.choice(len(close), num, replace=False)]
                labels = np.zeros(len(rows), dtype=np.int64)
                _oracles._grow(labels, nbrs, r, picked, 1)
                assert got == [c for c in picked if labels[c] == 1]
                assert _state(live) == _state(frozen)
                rejected += len(got) < num
    assert rejected  # repair turned picks away


def _stream(seed=0, bits=np.random.PCG64):
    return solvers._Draws(np.random.Generator(bits(seed)))


@pytest.mark.parametrize("b", [1, 2, 3, 2**32 + 1, 2**63 + 5, 2**64])
def test_bounded_draws_stay_in_their_range_and_span_it(b):
    draws = _stream(b % 1000)
    got = [draws.integers(b) for _ in range(2000)]
    assert all(type(v) is int and 0 <= v < b for v in got)
    assert min(got) <= b // 100 and max(got) >= b - 1 - b // 100


@pytest.mark.parametrize("b", [3, 2**32 + 1, 2**63 + 5, 2**64 - 1])
def test_lemire_rejects_below_the_threshold_and_accepts_at_it(b):
    # For odd b, the word low * b^-1 (mod 2**64) has a product with b whose low word
    # is low: one just below the threshold 2**64 % b is turned away, one at it kept.
    t = (1 << 64) % b
    word = lambda low: low * pow(b, -1, 1 << 64) % (1 << 64)
    draws = _stream()
    draws._words = [word(t), word(t - 1)]  # next last
    assert draws.integers(b) == word(t) * b >> 64
    assert draws._words == []
    draws._words = [word(b)]  # a low word of b or more is kept without the threshold
    assert draws.integers(b) == word(b) * b >> 64


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 41])
def test_choice_gives_distinct_values_of_the_range(n):
    draws = _stream(n)
    for size in range(n + 1):
        got = draws.choice(n, size, replace=False)
        assert len(got) == size and set(got) <= set(range(n)) and len(set(got)) == size
        assert all(type(v) is int for v in got)
    assert sorted(draws.choice(n, n)) == list(range(n))


def test_words_come_in_blocks_mt19937_paired_high_word_first():
    pcg = _stream(5)
    assert [pcg._word() for _ in range(1100)] == np.random.PCG64(5).random_raw(1100).tolist()
    mt, raw = _stream(5, np.random.MT19937), np.random.MT19937(5).random_raw(2200).tolist()
    assert [mt._word() for _ in range(1100)] == [hi << 32 | lo
                                                 for hi, lo in zip(raw[0::2], raw[1::2])]
    # 1100 words take three whole blocks of 512 (of 1024 raw words, on MT19937).
    for draws, bits, used in ((pcg, np.random.PCG64, 3 * 512), (mt, np.random.MT19937, 3 * 1024)):
        twin = bits(5)
        twin.random_raw(used)
        assert _state(draws.rng) == _state(np.random.Generator(twin))


@pytest.mark.parametrize("bits", [np.random.PCG64, np.random.MT19937, np.random.Philox])
def test_a_fixed_seed_repeats_its_draws(bits):
    def calls(draws):
        return [(draws.integers(b), draws.random(), draws.choice(b + 4, 3, replace=False))
                for b in range(1, 700)]

    a, b = _stream(8, bits), _stream(8, bits)
    assert calls(a) == calls(b) != calls(_stream(9, bits))
    assert _state(a) == _state(b)


def test_draws_on_small_spans_pass_a_chi_square_test():
    # Fixed seeds, so the test is deterministic; a biased draw would sit far below 1e-3.
    import scipy.stats as sps

    draws = _stream(2024)
    for b in (2, 3, 5, 7, 10, 60):
        counts = np.bincount([draws.integers(b) for _ in range(600 * b)], minlength=b)
        assert sps.chisquare(counts).pvalue > 1e-3, b
    counts = np.bincount([int(draws.random() * 16) for _ in range(9600)], minlength=16)
    assert sps.chisquare(counts).pvalue > 1e-3
    picks = np.bincount([v for _ in range(1800) for v in draws.choice(9, 4)], minlength=9)
    assert sps.chisquare(picks).pvalue > 1e-3


def _pulls_match_frozen(coords, tau, parent):
    """Mutate ``parent`` (x, its only isolated point, can only pull) with seeds
    0-39 next to the frozen operator; returns how many points each pull took."""
    nbrs = model.within_tau(_points(coords), tau)
    values = np.ones((parent.size, 1))
    held = solvers._held(parent, values)
    taken = set()
    for seed in range(40):
        live, frozen = np.random.default_rng(seed), np.random.default_rng(seed)
        child, gone, made = _mutate(held[0], nbrs, 1.0, live, None, parent)
        want, changed = _oracles._mutate_labels(parent, nbrs, 1.0, frozen)
        assert model.renumber(child).tolist() == want.tolist()
        assert [int(parent[k - 1]) for k in gone] == list(changed) and len(changed) == 2
        assert live.bit_generator.state == frozen.bit_generator.state
        _child(held, values, child, gone, made)
        taken.add(len(made[-1]) - 1)  # the new cluster is x and the pulled points
    return taken


def test_pull_of_one_point_matches_frozen_draws():
    # x = 0 at 0.0 is alone; cluster 1 = {0.5, 0.7, 1.8} has two members within
    # tau of x and one beyond, so x pulls one or both of them.
    assert 1 in _pulls_match_frozen([0.0, 0.5, 0.7, 1.8, 10.0, 10.5], 1.5,
                                    np.array([2, 1, 1, 1, 3, 3]))


def test_pull_of_several_points_matches_frozen_draws():
    # As above with three members of cluster 1 within tau of x.
    taken = _pulls_match_frozen([0.0, 0.5, 0.7, 0.9, 1.8, 10.0, 10.5], 1.5,
                                np.array([2, 1, 1, 1, 1, 3, 3]))
    assert taken == {1, 2, 3}


def test_seed_cluster_of_one_drawn_point_matches_frozen_draws():
    # Three points within tau of each other: the first seed point draws
    # 0, 1 or 2 of the other two into its cluster.
    nbrs = model.within_tau(_points([0.0, 0.5, 1.0]), 2.0)
    sizes = set()
    for seed in range(40):
        live, frozen = np.random.default_rng(seed), np.random.default_rng(seed)
        got = solvers._initial_labels(_lists(nbrs), live)
        assert got.tolist() == _oracles._initial_labels(nbrs, frozen).tolist()
        assert live.bit_generator.state == frozen.bit_generator.state
        sizes.add(int((got == 1).sum()))
    assert sizes == {1, 2, 3}  # 2: one point drawn from two


def _state(rng):
    """``rng``'s bit generator state, arrays as lists (MT19937 and Philox keep some); of
    ``solvers._Draws``, its generator's and the words it has yet to use."""
    if isinstance(rng, solvers._Draws):
        return _state(rng.rng), rng._words

    def plain(v):
        return ({k: plain(x) for k, x in v.items()} if isinstance(v, dict)
                else v.tolist() if isinstance(v, np.ndarray) else v)
    return plain(rng.bit_generator.state)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 150), st.integers(0, 2**32 - 1), st.floats(1.0, 60.0),
       st.sampled_from([1, 3, 64]), st.sampled_from(["PCG64", "MT19937", "Generator"]))
def test_seed_loop_matches_the_frozen_version_over_any_blocks(n, seed, box, block, kind):
    # Pool blocks this small split even tiny instances into many. Through the
    # solvers' draws on PCG64 or MT19937, or a plain Generator, three individuals
    # in a row must equal the frozen loop's, and the draws must end where their
    # twin's do.
    rng = np.random.default_rng(seed)
    nbrs = model.within_tau(_blobs_and_loners(rng, n, box), 3.0)
    bits = np.random.MT19937 if kind == "MT19937" else np.random.PCG64
    wrap = (lambda g: g) if kind == "Generator" else solvers._Draws
    live, frozen = (wrap(np.random.Generator(bits(seed + 1))) for _ in range(2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_BLOCK", block)
        for _ in range(3):
            got = solvers._initial_labels(_lists(nbrs), live)
            want = _oracles._initial_labels(nbrs, frozen)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert _state(live) == _state(frozen)


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
    # Ascending, holding x's cluster, as every row of a feasible clustering does.
    mx = np.flatnonzero(labels == labels[x])
    row = mx if alone else np.union1d(others, mx)
    kx, mates, got, inside = solvers._joinable(array("q", labels.tolist()), tuple(row.tolist()),
                                               x, counts)
    assert kx == labels[x] and type(kx) is int
    assert mates == [p for p in mx.tolist() if p != x]
    assert inside == {k: row[labels[row] == k].tolist() for k in set(labels[row].tolist())}
    assert list(inside) == list(dict.fromkeys(labels[row].tolist()))
    # The frozen version's clusters, by first point (each wholly within the row).
    want = _oracles._joinable(labels, row, x, counts).tolist()
    assert got == sorted(want, key=lambda k: np.flatnonzero(labels == k)[0])
    assert kx not in got
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
    pop = [solvers._initial_labels(_lists(nbrs), rng) for _ in range(10)]
    for lab in pop:
        ind = model.Clustering(solvers._split_labels(lab, rng))
        assert model.is_feasible(ind, ps, 3.0)
        assert ind.n_points == 20


def _traffic_days(rng, n, days, hours=6):
    return [model.TrafficDay(values=rng.random((n, hours)))
            for _ in range(days)]


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

    def counting_fitness_parts(labels, values, w, total=None):
        calls.append(labels)
        return objective.fitness_parts(labels, values, w, total)

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


def test_unchanged_offspring_is_its_parent(monkeypatch):
    # Points 3 and 4 have no neighbour within tau, so a mutation that draws
    # either is the unchanged copy: run_ea must score its parent's own labels
    # and total, building nothing for it (no _moved, no cluster_sums).
    ps = _points([0.0, 0.5, 1.0, 10.0, 20.0])
    traffic = _traffic_days(np.random.default_rng(0), 5, 2)
    problem = model.ProblemConfig(w=0.01, tau=1.5, H=6)
    cfg = solvers.EaConfig(popsize=4, maxgen=12, prob=0.5, variant="copy", seed=3)
    parents, built, scored, totals = [], [], [], []
    mutate, moved, sums = solvers._mutate_labels, solvers._moved, solvers.cluster_sums
    parts = solvers.fitness_parts

    def recording_mutate(labels, *args):
        child, gone, made = mutate(labels, *args)
        order = args[-1]  # the labels as given, for a day's population
        parents.append(None if made else model.renumber(labels) if order is None else order)
        return child, gone, made

    def recording_parts(labels, values, w, total=None):
        totals.append(total)
        return parts(labels, values, w, total)

    monkeypatch.setattr(solvers, "_mutate_labels", recording_mutate)
    monkeypatch.setattr(solvers, "_moved", lambda *a: built.append(a) or moved(*a))
    monkeypatch.setattr(solvers, "cluster_sums", lambda *a: built.append(a) or sums(*a))
    monkeypatch.setattr(solvers, "fitness_parts", recording_parts)
    solvers.run_ea(ps, traffic, cfg, problem, audit=scored.append)
    per_day = 4 * 13  # the population, then 12 generations of 4 offspring
    offspring = [lab for d in range(2) for lab in scored[d * per_day + 4:(d + 1) * per_day]]
    assert len(scored) == 2 * per_day and len(offspring) == len(parents)
    unchanged = [i for i, lab in enumerate(parents) if lab is not None]
    assert 0 < len(unchanged) < len(parents)
    assert all(offspring[i].tolist() == parents[i].tolist() for i in unchanged)
    assert any(offspring[i] is parents[i] for i in unchanged)  # a given parent's own array
    # One build per changed offspring, beside each day's full sums of its population.
    assert len(built) == len(parents) - len(unchanged) + 2 * 4
    # Every candidate is scored from a kept total; only each day's re-score is dense.
    assert len(totals) == 2 * (per_day + 1) and totals.count(None) == 2


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


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 60), st.integers(1, 15), st.integers(0, 2**16))
@example(60, 7, 0)  # a non-divisor: the last checkpoint falls mid-round
@example(9, 15, 1)  # an interval longer than the budget: the trace is the baseline
@example(1, 1, 2)  # one evaluation: "stay" alone, then the budget is spent
def test_run_greedy_matches_reference_loop(budget, every, seed):
    # Dense points, so rounds have many targets and the budget cuts them short.
    rng = np.random.default_rng(seed)
    ps = _random_geometry(rng, 12, box=4.0)
    traffic = _traffic_days(rng, 12, 2, hours=4)
    problem = model.ProblemConfig(w=0.01, tau=2.0, H=4)
    live, frozen = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = solvers.run_greedy(ps, traffic, budget, problem, live, checkpoint_every=every)
    want = _oracles.reference_run_greedy(ps, traffic, budget, problem, frozen, every)
    for a, b in zip(got, want, strict=True):
        assert a.best.labels.tolist() == b.best.labels.tolist()
        assert (a.trace, a.evals_used) == (b.trace, b.evals_used)
        assert len(a.trace) == 1 + a.evals_used // every
    assert live.bit_generator.state == frozen.bit_generator.state


def _greedy_run_recorded(n, budget, hours, seed):
    """Run greedy on dense points; return its rounds, as scored, and its results.

    A round is (x, row, targets, stay, joins, committed); stay and each join
    are the (labels, copied as scored; total; f; values) of one
    ``fitness_parts`` call, and committed is the call the round commits.
    """
    rng = np.random.default_rng(seed)
    ps = _random_geometry(rng, n, box=3.0)
    traffic = [model.TrafficDay(values=_special_traffic(rng, n, hours))
               for _ in range(2)]
    problem = model.ProblemConfig(w=0.01, tau=2.0, H=hours)
    events, rounds = [], []  # events: rounds (lists) and calls
    joinable, parts = solvers._joinable, solvers.fitness_parts

    def recording_joinable(labels, row, x, counts):
        found = joinable(labels, row, x, counts)
        events.append([x, np.array(row), found[2]])
        return found

    def recording_parts(labels, values, w, total=None):
        f = parts(labels, values, w, total)
        # None for the driver's re-score of a day's deployed labels, which ends the day.
        events.append(None if total is None else (np.array(labels), total, f[0], values))
        return f

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_joinable", recording_joinable)
        mp.setattr(solvers, "fitness_parts", recording_parts)
        results = solvers.run_greedy(ps, traffic, budget, problem,
                                     np.random.default_rng(seed + 1), checkpoint_every=7)
    for i, event in enumerate(events):
        if type(event) is list:
            # Its stay, then its joins, up to the next round or the day's end.
            calls = list(itertools.takewhile(lambda c: type(c) is tuple, events[i + 1:]))
            stay, joins = calls[0], calls[1:]
            best = min(joins, key=lambda c: c[2], default=stay)  # the first of equal f
            rounds.append((*event, stay, joins, best if best[2] < stay[2] else stay))
    return rounds, results


# A round's kind, from x, its cluster's members and the members of each target scored.
_CASES = {
    "x = 0": lambda x, mx, mts: x == 0,
    "x alone": lambda x, mx, mts: mx == [x],
    "x first of several": lambda x, mx, mts: mx[0] == x < mx[-1],
    "x after its cluster's first": lambda x, mx, mts: mx[0] < x,
    "target before x": lambda x, mx, mts: any(mt[0] < x for mt in mts),
    "target after x": lambda x, mx, mts: any(mt[0] > x for mt in mts),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(1, 120), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.just(set()))
@example(9, 40, 2, 3, set(_CASES))  # one run with a round of each kind
@example(12, 29, 1, 0, {"budget cut"})
def test_greedy_scores_every_join_exactly(n, budget, hours, seed, cases):
    # Greedy's targets are the frozen _joinable's, by first point, and every
    # join it scores has, renumbered, the labels of the frozen _move from the
    # round's committed state, and its f and total are, bit for bit, those of
    # the full sums of those labels; so are the stay's.
    rounds, results = _greedy_run_recorded(n, budget, hours, seed)
    seen = set()
    for x, row, targets, stay, joins, _ in rounds:
        held, values = stay[0], stay[3]
        labels = model.renumber(held)
        assert stay[1:3] == (_dense(labels, values)[1], objective.fitness_parts(labels, values, 0.01)[0])
        want_targets = _oracles._joinable(labels, row, x, np.bincount(labels)).tolist()
        assert [int(labels[np.flatnonzero(held == t)[0]]) for t in targets] == want_targets
        assert len(joins) <= len(targets)
        if len(joins) < len(targets):
            seen.add("budget cut")
        for t, (got, total, f, _) in zip(want_targets, joins):
            want = _oracles._move(labels, x, t)
            assert model.renumber(got).tolist() == want.tolist()
            assert total == _dense(want, values)[1]
            assert f == objective.fitness_parts(want, values, 0.01)[0]
        if joins:
            members = {k: np.flatnonzero(labels == k).tolist() for k in [labels[x], *want_targets]}
            mx, mts = members[int(labels[x])], [members[t] for t in want_targets[:len(joins)]]
            seen |= {name for name, hit in _CASES.items() if hit(x, mx, mts)}
    assert cases <= seen
    assert sum(r.evals_used for r in results) == sum(1 + len(r[4]) for r in rounds)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_writes_no_audited_labels_and_restarts_from_its_commit(seed):
    # Greedy tries each join on its labels in place: no label array it has
    # audited may change afterwards, and each round's tries are undone, so the
    # next round starts from the labels and the total of the candidate the
    # round committed ("stay": its parent's own).
    audited = []
    rng = np.random.default_rng(seed)
    ps = _random_geometry(rng, 30, box=3.0)
    traffic = _traffic_days(rng, 30, 2, hours=3)
    problem = model.ProblemConfig(w=0.01, tau=2.0, H=3)
    solvers.run_greedy(ps, traffic, 400, problem, np.random.default_rng(seed),
                       audit=lambda lab: audited.append((lab, lab.copy())))
    assert len(audited) == 2 * (1 + 400)  # each day's baseline, then its budget
    assert all(lab.tobytes() == copy.tobytes() for lab, copy in audited)
    rounds, _ = _greedy_run_recorded(30, 400, 3, seed)
    assert sum(len(r[4]) for r in rounds) > 100
    assert sum(r[5] is not r[3] for r in rounds) > 10  # rounds that commit a join
    for (*_, committed), (*_, stay, _, _) in zip(rounds, rounds[1:]):
        if stay[3] is committed[3]:  # the same day
            assert stay[0].tobytes() == committed[0].tobytes()
            assert (stay[1], stay[2]) == (committed[1], committed[2])


def _special_traffic(rng, n, h):
    """Random traffic with exact zeros of both signs and long equal runs."""
    values = rng.random((n, h)) * rng.choice([0.01, 0.3, 1.0])
    special = rng.random((n, h))
    values[special < 0.15] = 0.0
    values[special > 0.85] = -0.0
    values[(special > 0.5) & (special < 0.6)] = 0.1
    return values


def _moved_checked(labels, values, new):
    """Regroup ``labels`` (1..K) into ``new`` through ``_moved``, the clusters it
    changes found by brute force, and check the child against its full sums: the
    total, each new cluster's r and f bit for bit. Returns the child as run_ea
    labels it (by first point) and its total."""
    held, r, total = solvers._held(labels, values)
    assert total == _dense(labels, values)[1]
    assert held.tolist() == _by_first_point(labels).tolist()
    gone, made = _changed(held, new)
    rs, got = solvers._moved(values, r, total, gone, made, {})
    want_r, want = _dense(new, values)
    canon = model.renumber(new)
    assert got == want
    assert _same_bits(rs, [want_r[canon[mem[0]] - 1] for mem in made])
    assert objective.fitness_parts(canon, values, 0.01, got) == \
        objective.fitness_parts(canon, values, 0.01)
    child = held.copy()
    for mem in made:
        child[mem] = mem[0] + 1
    assert child.tolist() == _by_first_point(new).tolist()
    return child, got


def _changed(held, new):
    """The clusters of ``held`` (labels by first point) that ``new`` does not keep, by label,
    and the clusters ``new`` makes, each its points ascending."""
    old = {tuple(np.flatnonzero(held == k).tolist()) for k in np.unique(held)}
    now = {tuple(np.flatnonzero(new == k).tolist()) for k in np.unique(new)}
    return [int(held[mem[0]]) for mem in sorted(old - now)], [list(m) for m in sorted(now - old)]


def _moving(labels, moved, to):
    """``labels`` with the points ``moved`` given label ``to`` (K + 1 for a new cluster)."""
    new = labels.copy()
    new[moved] = to
    return new


@pytest.mark.parametrize("hours", [1, 3])
def test_moved_matches_full_sums_on_every_kind_of_move(hours):
    # Clusters of 1, 2, 9 and 130 members, interleaved in point order. The
    # moved points include each cluster's first, second and last member (so
    # moves empty a cluster, remove its first member and make x a target's
    # new first member), into every other cluster and into a new one.
    rng = np.random.default_rng(2022)
    sizes = [1, 2, 9, 130]
    labels = model.renumber(rng.permutation(np.repeat(np.arange(1, 5), sizes)))
    values = _special_traffic(rng, labels.size, hours)
    seen = set()
    for kx in range(1, 5):
        mem = np.flatnonzero(labels == kx)
        for x in {int(mem[0]), int(mem[min(1, mem.size - 1)]), int(mem[-1])}:
            for k in range(1, 6):
                if k != kx:
                    _moved_checked(labels, values, _moving(labels, [x], k))
                    seen.add("empties" if mem.size == 1 else
                             "removes-first" if x == mem[0] else "removes-later")
                    if k < 5 and x < np.flatnonzero(labels == k)[0]:
                        seen.add("new-first")
    assert seen == {"empties", "removes-first", "removes-later", "new-first"}
    assert sorted(np.bincount(labels)[1:].tolist()) == sizes


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 400), st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_moved_matches_full_sums_for_random_moves(n, hours, seed, grown):
    rng = np.random.default_rng(seed)
    if grown:
        # Clusterings grown by _initial_labels, as the EA's seeds are.
        ps = _random_geometry(rng, n, box=float(rng.uniform(1.0, 30.0)))
        labels = solvers._initial_labels(_lists(model.within_tau(ps, 3.0)), rng)
    else:
        raw = rng.integers(1, int(rng.integers(2, n + 1)) + 1, size=n)
        labels = model.renumber(raw)
    if labels.max() < 2:
        return
    values = _special_traffic(rng, n, hours)
    for _ in range(4):
        x = int(rng.integers(n))
        others = np.setdiff1d(np.arange(1, labels.max() + 2), [labels[x]])
        _moved_checked(labels, values, _moving(labels, [x], int(rng.choice(others))))


def _mutation_walk(rng, n, hours, box, split, prob, steps=8):
    """Mutations of one seed individual, then a chain of them, each child checked
    against its full sums (``_child``); returns the kinds and the changed sizes seen."""
    ps = _random_geometry(rng, n, box=box)
    nbrs = model.within_tau(ps, 3.0)
    values = _special_traffic(rng, n, hours)
    given = solvers._initial_labels(_lists(nbrs), rng)
    if split:
        given = solvers._split_labels(given, rng)
    held, order = solvers._held(given, values), given
    kinds, sizes = set(), []
    for step in range(steps):
        child, gone, made = _mutate(held[0], nbrs, prob, rng, None, order)
        if not made:
            kinds.add("no-op")
            continue
        child_held = _child(held, values, child, gone, made)
        sizes += [int((held[0] == k).sum()) for k in gone]
        # A join keeps cluster gone[1] whole; a pull leaves part of it behind.
        kinds.add("isolate" if len(gone) == 1 else "join" if len(made[-1]) > 1 and
                  set(np.flatnonzero(held[0] == gone[1]).tolist()) < set(made[-1]) else "pull")
        if step >= steps // 2:
            held, order = child_held, None
    return kinds, sizes


@pytest.mark.parametrize("hours", [1, 3])
def test_mutated_child_matches_full_sums_on_every_kind_of_mutation(hours):
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
def test_mutated_child_matches_full_sums_for_mutations(n, hours, seed, box, split, prob):
    _mutation_walk(np.random.default_rng(seed), n, hours, box, split, prob)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 60), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from(solvers.VARIANTS))
def test_run_ea_matches_the_full_kernel_loop(n, days, hours, seed, variant):
    rng = np.random.default_rng(seed)
    ps = _random_geometry(rng, n, box=float(rng.uniform(1.0, 20.0)))
    traffic = [model.TrafficDay(values=_special_traffic(rng, n, hours))
               for _ in range(days)]
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
    with pytest.raises(ValueError, match="^budget must be an integer"):
        solvers.run_greedy(ps, traffic, 3.5, problem, np.random.default_rng(0))
    with pytest.raises(ValueError, match="^checkpoint_every must be an integer"):
        solvers.run_greedy(ps, traffic, 10, problem, np.random.default_rng(0),
                           checkpoint_every=2.5)
    # numpy integers run as the same Python ints.
    got = solvers.run_greedy(ps, traffic, np.int64(10), problem, np.random.default_rng(0),
                             checkpoint_every=np.int32(5))[0]
    want = solvers.run_greedy(ps, traffic, 10, problem, np.random.default_rng(0),
                              checkpoint_every=5)[0]
    assert got.best.labels.tolist() == want.best.labels.tolist()
    assert (got.trace, got.evals_used) == (want.trace, want.evals_used)


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


def _zeros_and_repeats(rng, n, hours):
    """Traffic holding 0.0, -0.0 and a repeated value in every column."""
    values = _special_traffic(rng, n, hours)
    values[0::4] = 0.0
    values[1::4] = -0.0
    values[2::4] = 0.1
    return values


# Four interleaved clusters in first-appearance order: 1 = {0, 2, 7},
# 2 = {1, 4, 9}, 3 = {3, 6}, 4 = {5, 8}, and the singletons 5 = {10}, 6 = {11}.
_EXAMPLE = np.array([1, 2, 1, 3, 2, 4, 3, 1, 4, 2, 5, 6])


@pytest.mark.parametrize("hours", [1, 3])
def test_moved_join_example(hours):
    values = _zeros_and_repeats(np.random.default_rng(7), _EXAMPLE.size, hours)
    # Held by first point, the clusters are 1, 2, 4, 6, 11 and 12.
    assert solvers._held(_EXAMPLE, values)[0].tolist() == [1, 2, 1, 4, 2, 6, 4, 1, 6, 2, 11, 12]
    # x = 1 is the first member of cluster 2 and becomes the first member of
    # cluster 3, so both clusters take new labels and no other label moves.
    child, _ = _moved_checked(_EXAMPLE, values, _moving(_EXAMPLE, [1], 3))
    assert child.tolist() == [1, 2, 1, 2, 5, 6, 2, 1, 6, 5, 11, 12]
    # x = 10 is alone: its cluster empties.
    child, (K, _) = _moved_checked(_EXAMPLE, values, _moving(_EXAMPLE, [10], 4))
    assert child.tolist() == [1, 2, 1, 4, 2, 6, 4, 1, 6, 2, 6, 12] and K == 5
    # x = 7 is a later member and joins a cluster starting before it: only x's label moves.
    child, _ = _moved_checked(_EXAMPLE, values, _moving(_EXAMPLE, [7], 2))
    assert child.tolist() == [1, 2, 1, 4, 2, 6, 4, 2, 6, 2, 11, 12]


@pytest.mark.parametrize("hours", [1, 3])
def test_moved_isolate_example(hours):
    values = _zeros_and_repeats(np.random.default_rng(8), _EXAMPLE.size, hours)
    # x = 1, cluster 2's first member, starts a new cluster; cluster 2 now starts at 4.
    child, (K, _) = _moved_checked(_EXAMPLE, values, _moving(_EXAMPLE, [1], 7))
    assert child.tolist() == [1, 2, 1, 4, 5, 6, 4, 1, 6, 5, 11, 12] and K == 7
    # x = 9, cluster 2's last member, starts a new cluster after every other.
    child, _ = _moved_checked(_EXAMPLE, values, _moving(_EXAMPLE, [9], 7))
    assert child.tolist() == [1, 2, 1, 4, 2, 6, 4, 1, 6, 10, 11, 12]


@pytest.mark.parametrize("hours", [1, 3])
def test_moved_pull_example(hours):
    # On a line with tau = 1: x = 1 at 0.2 is alone, and its only neighbour is
    # point 0, the first member of cluster 1 = {0, 2}, whose point 2 at 1.8
    # lies outside x's row. The only move x has is to pull point 0.
    ps = _points([1.0, 0.2, 1.8, 10.0, 10.5, 20.0])
    nbrs = model.within_tau(ps, 1.0)
    parent = np.array([1, 2, 1, 3, 3, 4])
    values = _zeros_and_repeats(np.random.default_rng(9), parent.size, hours)
    held = solvers._held(parent, values)
    pulls = 0
    for seed in range(20):
        child, gone, made = _mutate(held[0], nbrs, 1.0, np.random.default_rng(seed))
        if not made:  # x = 5, which has no neighbour
            continue
        assert (gone, made) == ([2, 1], [[2], [0, 1]])
        assert child.tolist() == [1, 1, 3, 4, 4, 6]
        _child(held, values, child, gone, made)
        assert _moved_checked(parent, values, np.array([1, 1, 2, 3, 3, 4]))[0].tolist() == \
            child.tolist()
        pulls += 1
    assert pulls > 0


@pytest.mark.parametrize("hours", [1, 2, 24])
@pytest.mark.parametrize("size", [1, 2, 3, 8, 9, 40])
def test_summed_is_the_sequential_sum(hours, size):
    # A cluster's row adds its members' rows one after another in point order,
    # as bincount does, and its r reduces that row's deviations as the dense
    # reference reduces each of its rows. np.add.reduce sums a contiguous
    # column in blocks and pairs (at H = 1, from 8 members here), which gives
    # other bits.
    rng = np.random.default_rng(100 * hours + size)
    values = rng.random((60, hours)) * 10.0 ** rng.integers(-8, 3, size=(60, hours))
    for _ in range(20):
        mem = np.sort(rng.choice(60, size, replace=False)).tolist()
        total = values[mem[0]]
        for p in mem[1:]:
            total = total + values[p]
        got = solvers._summed(values, mem)
        assert type(got) is float
        assert _same_bits(got, np.add.reduce(np.abs(total - 1.0)))
        labels = np.where(np.isin(np.arange(60), mem), 1, 2)
        assert _same_bits(got, np.add.reduce(_rows(labels, values), axis=1)[0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=2, max_size=60), st.integers(0, 10**6),
       st.integers(1, 4), st.integers(0, 2**32 - 1), st.just(None))
@example(_EXAMPLE.tolist(), 0, 2, 0, "x = 0")  # x = 0 leads cluster 1 = {0, 2, 7}
@example(_EXAMPLE.tolist(), 11, 1, 1, "x alone, kx = K")
@example(_EXAMPLE.tolist(), 10, 3, 2, "x alone")
@example(_EXAMPLE.tolist(), 7, 1, 3, "x after its cluster's first")
@example(_EXAMPLE.tolist(), 1, 3, 5, "x led kx")  # 2 = {1, 4, 9}
def test_moved_in_two_steps_matches_one_step(raw, x, hours, seed, case):
    # Greedy scores a join as x's removal, then the join: in two steps, R
    # reaches the total of the one-step regrouping and of the full sums, bit
    # for bit, whatever order the changed clusters are taken in.
    labels = model.renumber(np.array(raw))
    x %= labels.size
    values = _special_traffic(np.random.default_rng(seed), labels.size, hours)
    held, r, total = solvers._held(labels, values)
    kx = int(held[x])
    rest = [p for p in np.flatnonzero(held == kx).tolist() if p != x]
    _, removed = solvers._moved(values, r, total, [kx], [rest] if rest else [], {})
    for k in np.unique(held).tolist():
        if k != kx:
            joined = sorted([*np.flatnonzero(held == k).tolist(), x])
            _, two = solvers._moved(values, r, removed, [k], [joined], {})
            made = [joined, *([rest] if rest else [])]
            _, one = solvers._moved(values, r, total, [k, kx], made, {})
            new = model.renumber(_moving(held, [x], k))
            assert two == one == _moved_checked(labels, values, new)[1]
    seen = {"x = 0"} if x == 0 else set()
    seen.add("x alone, kx = K" if not rest and labels[x] == labels.max() else "x alone"
             if not rest else "x after its cluster's first" if rest[0] < x else "x led kx")
    assert case is None or case in seen


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 120), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from(["join", "isolate", "pull"]))
def test_moved_matches_renumber_and_full_sums(n, hours, seed, kind):
    # Any move of x, alone or not, first or not, into any cluster, a new one
    # included, or a pull of any members of another cluster, its first or
    # all of them included.
    rng = np.random.default_rng(seed)
    labels = model.renumber(rng.integers(1, int(rng.integers(1, n + 1)) + 1, size=n))
    K = int(labels.max())
    values = _special_traffic(rng, n, hours)
    x = int(rng.integers(n))
    others = np.setdiff1d(np.arange(1, K + 1), [labels[x]])
    if kind == "join" and others.size:
        new = _moving(labels, [x], int(rng.choice(others)))
    elif kind == "pull" and others.size:
        donor = np.flatnonzero(labels == rng.choice(others))
        pulled = rng.choice(donor, size=int(rng.integers(1, donor.size + 1)), replace=False)
        new = _moving(labels, [x, *pulled.tolist()], K + 1)
    else:
        new = _moving(labels, [x], K + 1)
    _moved_checked(labels, values, new)


def _drawn_move(rng, held):
    """A join, pull or isolate of a random point x of ``held`` (labels by first point), as
    ``_changed`` gives it."""
    x, new = int(rng.integers(held.size)), held.copy()
    others = np.setdiff1d(np.unique(held), [held[x]])
    kind = rng.choice(["join", "pull", "isolate"])
    if kind == "join" and others.size:
        new[x] = rng.choice(others)
    elif kind == "pull" and others.size:
        donor = np.flatnonzero(held == rng.choice(others))
        new[[x, *rng.choice(donor, int(rng.integers(1, donor.size + 1)), replace=False)]] = 0
    else:
        new[x] = 0
    return _changed(held, new)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["2b", "zeros"]), st.integers(0, 2**16), st.just(None))
@example("2b", 0, "hits")
@example("zeros", 0, "hits")
def test_one_memo_per_day_scores_as_a_fresh_one(kind, seed, case):
    # Drawn join, pull and isolate sequences, a few candidates from each clustering and
    # one of them committed, as the solvers try them: one memo threaded through them all
    # gives each candidate the r and total a fresh memo gives, bit for bit, and every entry
    # is its key's r and that r's exact int. On 2b's planted groups (r ties at 0.0) and on
    # traffic with whole rows of zeros.
    rng = np.random.default_rng(seed)
    if kind == "2b":
        ds = datasets.make_dataset("2b", seed=seed, n_days=1, n_groups=3, np_max=6)
        values, labels = ds.traffic[0].values, np.array(ds.manifest.optimal_labels)
    else:
        n = int(rng.integers(2, 30))
        values = _special_traffic(rng, n, int(rng.integers(1, 5)))
        values[rng.random(n) < 0.4] = 0.0
        labels = model.renumber(rng.integers(1, n + 1, size=n))
    held, r, total = solvers._held(labels, values)
    seen, hits = {}, 0
    for _ in range(30):
        tried = []
        for _ in range(int(rng.integers(1, 4))):
            gone, made = _drawn_move(rng, held)
            if made:
                hits += any(tuple(mem) in seen for mem in made)
                rs, got = solvers._moved(values, r, total, gone, made, seen)
                fresh_rs, fresh = solvers._moved(values, r, total, gone, made, {})
                assert _same_bits(rs, fresh_rs) and got == fresh
                tried.append((made, rs, got))
        if tried:
            made, rs, total = tried[int(rng.integers(len(tried)))]
            held, r = held.copy(), r.copy()
            for mem, rk in zip(made, rs):
                held[mem], r[mem[0] + 1] = mem[0] + 1, rk
    for key, (rk, ek) in seen.items():
        want = solvers._summed(values, list(key))
        assert list(key) == sorted(key) and _same_bits(rk, want) and ek == objective.exact(want)
    assert total == _dense(held, values)[1]
    assert case is None or hits > 0


def _scored(solver, ps, traffic, problem, seed):
    """Run ``solver``; return each candidate it scores as (labels renumbered, total, f,
    values), checking that no candidate's f differs, in any bit, from the dense
    ``fitness_parts`` of those labels."""
    parts, seen = solvers.fitness_parts, []

    def checking_parts(labels, values, w, total=None):
        f = parts(labels, values, w, total)
        if total is not None:
            canon = model.renumber(labels)
            assert f == parts(canon, values, w)
            seen.append((canon, total, f[0], values))
        return f

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "fitness_parts", checking_parts)
        if solver == "greedy":
            solvers.run_greedy(ps, traffic, 150, problem, np.random.default_rng(seed))
        else:
            cfg = solvers.EaConfig(popsize=4, maxgen=25, prob=0.5, variant=solver, seed=seed)
            solvers.run_ea(ps, traffic, cfg, problem)
    return seen


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(solvers.VARIANTS + ("greedy",)), st.sampled_from(["2b", "zeros"]),
       st.integers(0, 2**16))
def test_every_scored_f_is_the_dense_f_of_its_labels(solver, kind, seed):
    # Over drawn join, pull and isolate sequences, on 2b's planted groups,
    # whose candidates tie exactly, and on traffic with whole rows of zeros.
    rng = np.random.default_rng(seed)
    if kind == "2b":
        ds = datasets.make_dataset("2b", seed=seed, n_days=2, n_groups=3, np_max=6)
        ps, traffic = ds.point_set, ds.traffic
    else:
        n = int(rng.integers(2, 40))
        ps = _blobs_and_loners(rng, n, 10.0)
        traffic = []
        for d in range(2):
            values = _special_traffic(rng, n, int(rng.integers(1, 5)) if not d else
                                      traffic[0].n_hours)
            values[rng.random(n) < 0.4] = 0.0
            traffic.append(model.TrafficDay(values=values))
    problem = model.ProblemConfig(w=0.01, tau=harness.resolve_tau(ps) if kind == "2b" else 3.0,
                                  H=traffic[0].n_hours)
    assert _scored(solver, ps, traffic, problem, seed)


@pytest.mark.parametrize("solver", solvers.VARIANTS + ("greedy",))
def test_scored_ties_are_exact_on_2b(solver):
    # On 2b, different clusterings reach the same f, bit for bit, and so does
    # one clustering however its candidate was built.
    ds = datasets.make_dataset("2b", seed=4, n_days=2, n_groups=4, np_max=6)
    problem = model.ProblemConfig(w=0.01, tau=harness.resolve_tau(ds.point_set),
                                  H=ds.manifest.hours)
    by_f = {}
    for canon, total, f, values in _scored(solver, ds.point_set, ds.traffic, problem, 3):
        by_f.setdefault((id(values), f), set()).add(canon.tobytes())
        assert total == _dense(canon, values)[1]
    assert any(len(clusterings) > 1 for clusterings in by_f.values())


@pytest.mark.parametrize("solver", solvers.VARIANTS + ("greedy",))
def test_audit_does_not_change_results(solver):
    rng = np.random.default_rng(12)
    ps = _random_geometry(rng, 30, box=5.0)
    traffic = [model.TrafficDay(values=_special_traffic(rng, 30, 4))
               for _ in range(3)]
    problem = model.ProblemConfig(w=0.01, tau=2.0, H=4)

    def solve(audit):
        if solver == "greedy":
            return solvers.run_greedy(ps, traffic, 200, problem, np.random.default_rng(5),
                                      audit=audit)
        cfg = solvers.EaConfig(popsize=5, maxgen=30, variant=solver, seed=5)
        return solvers.run_ea(ps, traffic, cfg, problem, audit=audit)

    seen = []
    for a, b in zip(solve(None), solve(seen.append), strict=True):
        assert a.day == b.day
        assert a.best.labels.tolist() == b.best.labels.tolist()
        assert a.best_fitness == b.best_fitness
        assert a.trace == b.trace
        assert a.evals_used == b.evals_used
    assert len(seen) >= sum(r.evals_used for r in solve(None))


@pytest.mark.parametrize("kind", ["1a", "2b"])
@pytest.mark.parametrize("solver", ["split", "rand", "greedy"])
def test_the_scorer_gets_int64_buffers_and_the_audit_fresh_arrays(kind, solver):
    # perfbench's tracer hashes the tobytes() of each labels object the solvers hand
    # fitness_parts (its distinct_ratio), so each must be N labels with the bytes of the
    # equal int64 vector; the audit is handed fresh int64 ndarrays labelled 1..K, which
    # the solver never writes afterwards.
    sizes = {"n_points": 60} if kind == "1a" else {"n_groups": 8}
    ds = datasets.make_dataset(kind, seed=2, n_days=3, **sizes)
    n = ds.point_set.n_points
    problem = model.ProblemConfig(w=0.01, tau=harness.resolve_tau(ds.point_set),
                                  H=ds.manifest.hours)
    parts, scored, audited = solvers.fitness_parts, [], []

    def recording_parts(labels, values, w, total=None):
        assert len(labels) == n
        assert labels.tobytes() == np.asarray(labels, dtype=np.int64).tobytes()
        scored.append(type(labels))
        return parts(labels, values, w, total)

    def audit(labels):
        assert type(labels) is np.ndarray and labels.dtype == np.int64
        assert labels.flags.owndata and labels.flags.writeable
        assert np.unique(labels).tolist() == list(range(1, int(labels.max()) + 1))
        audited.append((labels, labels.copy()))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "fitness_parts", recording_parts)
        if solver == "greedy":
            solvers.run_greedy(ds.point_set, ds.traffic, 300, problem,
                               np.random.default_rng(2), audit=audit)
        else:
            cfg = solvers.EaConfig(popsize=6, maxgen=30, variant=solver, seed=2)
            solvers.run_ea(ds.point_set, ds.traffic, cfg, problem, audit=audit)
    assert len(audited) == len(scored) - len(ds.traffic)  # all but the per-day re-scores
    assert all(lab.tobytes() == copy.tobytes() for lab, copy in audited)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 20), min_size=1, max_size=80))
@example([1])  # N = 1
@example(list(range(1, 41)))  # all singletons
@example([1] * 40)  # one single cluster
def test_singletons_are_the_labels_counted_once(raw):
    # Held by first point (_held), p is alone exactly when label p + 1 counts one
    # member, so _mutate_labels finds the singletons without gathering counts[labels].
    labels = solvers._held(model.renumber(np.array(raw)), np.zeros((len(raw), 1)))[0]
    counts = np.bincount(labels)
    assert np.flatnonzero(counts[1:] == 1).tolist() == \
        np.flatnonzero(counts[labels] == 1).tolist()


def test_held_total_is_the_sum_of_exact_on_uniform_2000():
    # The benchmark's uniform-2000 instance: seed individuals' totals from the
    # vectorised exact sum equal the sum of each cluster's exact value.
    ds = datasets.make_dataset("1a", seed=0, n_days=2, n_points=2000)
    rows = _lists(model.within_tau(ds.point_set, harness.resolve_tau(ds.point_set)))
    rng = np.random.default_rng(2000)
    for _ in range(3):
        given = solvers._initial_labels(rows, rng)
        for t in ds.traffic:
            assert solvers._held(given, t.values)[2] == _dense(given, t.values)[1]


def _solved(solver, ps, tau):
    """The pickled ``DayResult``s of one small solve: equal bytes, equal results."""
    traffic = _traffic_days(np.random.default_rng(3), ps.n_points, 2, hours=3)
    problem = model.ProblemConfig(w=0.01, tau=tau, H=3)
    if solver == "greedy":
        out = solvers.run_greedy(ps, traffic, 120, problem, np.random.default_rng(4))
    else:
        out = solvers.run_ea(ps, traffic, solvers.EaConfig(popsize=4, maxgen=15, seed=4),
                             problem)
    return pickle.dumps(out)


@pytest.fixture
def builds(monkeypatch):
    """The number of neighbourhood builds (``_pairs_within`` calls) so far."""
    calls, pairs = [], model._pairs_within
    monkeypatch.setattr(model, "_pairs_within", lambda *a: calls.append(a) or pairs(*a))
    return calls


@pytest.mark.parametrize("solver", ["greedy", "ea"])
def test_a_second_solve_on_a_point_set_and_tau_builds_nothing(builds, solver):
    ps = _random_geometry(np.random.default_rng(0), 25, box=4.0)
    first = _solved(solver, ps, 1.5)
    assert len(builds) == 1
    assert _solved(solver, ps, 1.5) == first
    assert _solved("ea" if solver == "greedy" else "greedy", ps, 1.5)
    assert len(builds) == 1
    _solved(solver, ps, 2.0)  # a new tau
    assert len(builds) == 2
    again = model.build_distance_matrix(ps.positions)  # a new point set, equal positions
    assert _solved(solver, again, 2.0) == _solved(solver, ps, 2.0)
    assert len(builds) == 4


def test_the_memo_keeps_only_the_last_point_set():
    rng = np.random.default_rng(1)
    sets = [_random_geometry(rng, 12, box=3.0) for _ in range(3)]
    first = weakref.ref(sets[0])
    for ps in sets:
        _solved("greedy", ps, 1.0)
    del sets[:2], ps
    gc.collect()
    assert first() is None
    assert solvers._last[0] is sets[0]


def test_writing_the_passed_positions_changes_no_later_solve(builds):
    pos = np.random.default_rng(2).uniform(0.0, 4.0, size=(25, 2))
    ps = model.build_distance_matrix(pos)
    want = _solved("ea", ps, 1.5)
    pos[:] = 0.0  # every point at one place: one cluster, were it seen
    assert _solved("ea", ps, 1.5) == want
    _solved("ea", ps, 2.0)  # rebuilt twice from the point set's own positions
    assert _solved("ea", ps, 1.5) == want
    assert len(builds) == 3
    assert not ps.positions.flags.writeable


def test_moving_the_points_of_a_directly_built_point_set_changes_no_later_solve():
    # The memo keys on the point set: its positions must not change under it.
    pos = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.5, 0.0]])
    ps = model.PointSet(pos)
    traffic = [model.TrafficDay(np.full((4, 2), 0.25))]
    problem = model.ProblemConfig(w=0.01, tau=0.6, H=2)
    first = solvers.run_greedy(ps, traffic, 50, problem, np.random.default_rng(0))[0].best
    pos[:, 0] *= 20.0  # 10 apart: no two points within tau, were it seen
    again = solvers.run_greedy(ps, traffic, 50, problem, np.random.default_rng(0))[0].best
    assert np.array_equal(again.labels, first.labels) and again.K < 4
    assert model.is_feasible(again, ps, 0.6)


def test_the_memo_rows_raise_on_write():
    ps = _random_geometry(np.random.default_rng(3), 20, box=3.0)
    _solved("greedy", ps, 1.5)
    _, _, rows = solvers._last
    with pytest.raises(ValueError):  # the arrays the memo's tuples are built from
        model.within_tau(ps, 1.5)[0][0] = 1
    with pytest.raises(TypeError):
        rows[0][0] = 1
    with pytest.raises(TypeError):
        rows[0] = rows[1]
    with pytest.raises(ValueError):
        ps.positions[0, 0] = 1.0


def test_threads_solving_two_point_sets_each_get_their_own_rows():
    # Each solve reads the memo once: a solve in another thread that replaces
    # it cannot hand this one the other point set's rows.
    rng = np.random.default_rng(5)
    sets = [_random_geometry(rng, 30, box=box) for box in (2.0, 6.0)]
    want = [_solved("greedy", ps, 1.5) for ps in sets]
    got, switch = [], sys.getswitchinterval()

    def work(i):
        for j in range(12):
            got.append(_solved("greedy", sets[(i + j) % 2], 1.5) == want[(i + j) % 2])

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == [True] * 48


class _SwappingTau(float):
    """A tau that puts ``other`` in the memo while the memo compares it, as another
    thread's solve might between this solve's reading the memo and using it."""

    def __ne__(self, other):
        solvers._last = self.other
        return float(self) != other


def test_a_solve_uses_the_memo_entry_it_checked():
    rng = np.random.default_rng(6)
    ps, other = _random_geometry(rng, 30, box=2.0), _random_geometry(rng, 30, box=6.0)
    _solved("greedy", other, 1.5)
    tau = _SwappingTau(1.5)
    tau.other = solvers._last
    want = _solved("greedy", ps, 1.5)
    assert _solved("greedy", ps, tau) == want
    assert solvers._last[0] is other
