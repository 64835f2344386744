import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bbuclust import datasets, harness, model, solvers
from _oracles import dense_distance, feasible, pure_renumber


def test_haversine_frozen_values():
    # Independently computed great-circle references (R = 6371008.8 m).
    def dist(p, q):
        ps = model.build_distance_matrix([p, q], "haversine_meters")
        return float(model.nearest_distances(ps)[0])

    d_lon = dist((9.19, 45.46), (9.20, 45.46))
    d_lat = dist((9.19, 45.46), (9.19, 45.47))
    assert d_lon == pytest.approx(779.9301161647776, abs=1e-6)
    assert d_lat == pytest.approx(1111.9508023352598, abs=1e-6)


def test_haversine_matrix_properties():
    pos = [[9.19, 45.46], [9.20, 45.46], [9.19, 45.47]]
    dist = dense_distance(pos, "haversine_meters")
    assert np.allclose(dist, dist.T)
    assert np.all(np.diag(dist) == 0.0)
    assert dist[0, 1] == pytest.approx(779.9301161647776, abs=1e-6)


def test_euclidean_matrix():
    pos = [[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]]
    ps = model.build_distance_matrix(pos)
    dist = dense_distance(pos)
    assert dist[0, 1] == pytest.approx(5.0)
    assert dist[0, 2] == pytest.approx(1.0)
    assert ps.n_points == 3


HAVERSINE_RANGE = "haversine positions must be (lon, lat) degrees with |lon|<=180, |lat|<=90"


def test_build_distance_matrix_errors():
    # One construction path: the old name, the class and dataclasses.replace all check.
    valid = model.build_distance_matrix([[1.0, 2.0]])
    for make in (model.build_distance_matrix, model.PointSet,
                 lambda pos, metric="euclidean": dataclasses.replace(valid, positions=pos,
                                                                     metric=metric)):
        for args, message in [
            ((np.empty((0, 2)),), "positions must be a non-empty (N, 2) array, got shape (0, 2)"),
            (([[0.0, np.nan]],), "positions contain non-finite values"),
            (([[0.0, 0.0]], "chebyshev"),
             "unknown metric 'chebyshev'; expected one of ('euclidean', 'haversine_meters')"),
            (([[200.0, 0.0]], "haversine_meters"), HAVERSINE_RANGE),
            (([[0.0, 95.0]], "haversine_meters"), HAVERSINE_RANGE),
            (([[0.0], [1.0]],), "positions must be a non-empty (N, 2) array, got shape (2, 1)"),
        ]:
            with pytest.raises(ValueError) as err:
                make(*args)
            assert str(err.value) == message, (make, args)


def test_a_point_set_holds_a_read_only_copy_of_its_positions():
    pos = np.array([[0, 0], [3, 4]])
    made = [model.PointSet(pos),
            dataclasses.replace(model.PointSet([[9.0, 9.0]]), positions=pos)]
    pos[1] = 0
    for ps in made:
        assert ps.metric == "euclidean" and ps.positions.dtype == float
        assert ps.positions.tolist() == [[0.0, 0.0], [3.0, 4.0]]
        assert not ps.positions.flags.writeable
    assert model.build_distance_matrix is model.PointSet


def test_a_traffic_day_holds_a_read_only_copy_of_its_values():
    a = np.array([[0.5, 0.25], [0.0, 1.0]])
    made = [model.TrafficDay(values=a),
            dataclasses.replace(model.TrafficDay(values=[[0.1]]), values=a)]
    a[0, 0] = -7.0  # past the check that entries are >= 0, were it seen
    for t in made:
        assert t.values.tolist() == [[0.5, 0.25], [0.0, 1.0]]
        assert not t.values.flags.writeable


def test_a_pickled_point_set_or_traffic_day_comes_back_checked_and_read_only():
    # Each task of a run with workers > 1 pickles them; unpickling rebuilds them.
    for x in (model.PointSet([[0.0, 0.0], [3.0, 4.0]]),
              model.PointSet([[9.19, 45.46], [9.2, 45.47]], metric="haversine_meters"),
              model.TrafficDay(values=[[0.5, 0.25], [0.0, 1.0]])):
        back = pickle.loads(pickle.dumps(x))
        assert type(back) is type(x)
        for f in dataclasses.fields(x):
            want, got = getattr(x, f.name), getattr(back, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == float and got.tolist() == want.tolist()
                with pytest.raises(ValueError, match="read-only"):
                    got[0, 0] = np.nan
            else:
                assert got == want
    # Through its checks: a NaN forced in past them is turned away on the way back.
    bad = model.TrafficDay(values=[[0.5]])
    object.__setattr__(bad, "values", np.array([[np.nan]]))
    with pytest.raises(ValueError, match="non-finite"):
        pickle.loads(pickle.dumps(bad))


def test_traffic_day_validation():
    t = model.TrafficDay(values=[[0.1, 0.2], [0.3, 0.4]])
    assert t.n_points == 2 and t.n_hours == 2
    with pytest.raises(ValueError):
        model.TrafficDay(values=[[0.1, -0.2]])
    with pytest.raises(ValueError):
        model.TrafficDay(values=[[np.inf, 0.0]])
    with pytest.raises(ValueError, match="too large to sum"):
        model.TrafficDay(values=[[1e308, 0.0], [1e308, 0.0]])
    with pytest.raises(ValueError):
        model.TrafficDay(values=[0.1, 0.2])


def test_clustering_validation():
    c = model.Clustering(labels=[1, 2, 1, 3])
    assert c.K == 3 and c.n_points == 4
    with pytest.raises(ValueError):
        model.Clustering(labels=[0, 1])  # labels start at 1
    with pytest.raises(ValueError):
        model.Clustering(labels=[1, 3])  # gap: no cluster 2
    # A gap is found before anything is allocated for the labels above N.
    for labels, missing in (([1, 2**40], 2), ([1, 10**9, 2], 3), ([2**62, 2, 1], 3)):
        with pytest.raises(ValueError, match=f"not contiguous: no point carries label {missing}$"):
            model.Clustering(labels=np.array(labels))
    with pytest.raises(ValueError):
        model.Clustering(labels=[])
    # Labels that int64 would change are no labels; whole floats are.
    for bad in ([1.5, 2.7, 1.2], [True, True], [1.0, np.nan], np.array([1.0, 2.0, np.inf])):
        with pytest.raises(ValueError, match="labels must be integers"):
            model.Clustering(labels=bad)
    c = model.Clustering(labels=np.array([1.0, 2.0, 1.0]))
    assert c.labels.dtype == np.int64 and c.labels.tolist() == [1, 2, 1]
    lab = np.array([1, 2, 2, 3], dtype=np.int64)
    assert model.Clustering(labels=lab).labels is lab  # taken as it is, no copy


def test_problem_config_validation():
    model.ProblemConfig(w=0.01, tau=5.0, H=24)
    with pytest.raises(ValueError):
        model.ProblemConfig(w=0.0, tau=5.0)
    with pytest.raises(ValueError):
        model.ProblemConfig(w=1.5, tau=5.0)
    with pytest.raises(ValueError):
        model.ProblemConfig(w=0.5, tau=0.0)
    with pytest.raises(ValueError):
        model.ProblemConfig(w=0.5, tau=1.0, H=0)
    with pytest.raises(ValueError, match="^H must be an integer >= 1, got 2.5"):
        model.ProblemConfig(w=0.5, tau=1.0, H=2.5)
    h = model.ProblemConfig(w=0.5, tau=1.0, H=np.int64(6)).H
    assert type(h) is int and h == 6


@pytest.mark.parametrize("name, make", [
    ("H", lambda: model.ProblemConfig(w=0.01, tau=1.0, H=True)),
    ("popsize", lambda: solvers.EaConfig(popsize=True)),
    ("n_points", lambda: datasets.make_dataset("1a", seed=0, n_points=True)),
    ("budget", lambda: solvers.run_greedy(
        model.build_distance_matrix([[0.0, 0.0]]), [model.TrafficDay(values=np.ones((1, 1)))],
        True, model.ProblemConfig(w=0.01, tau=1.0, H=1), np.random.default_rng(0))),
], ids=["ProblemConfig.H", "EaConfig.popsize", "make_dataset.n_points", "run_greedy.budget"])
def test_booleans_are_not_counts(name, make):
    # bool is a numbers.Integral, but True is no count of hours, individuals or points.
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got True"):
        make()


_TWO_POINTS = model.build_distance_matrix([[0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("name, make", [
    ("w", lambda: model.ProblemConfig(w=True, tau=1.0)),
    ("tau", lambda: model.ProblemConfig(w=0.01, tau=True)),
    ("prob", lambda: solvers.EaConfig(prob=True)),
    ("prob", lambda: solvers.EaConfig(prob=np.True_)),
    ("tau", lambda: harness.resolve_tau(_TWO_POINTS, True)),
], ids=["ProblemConfig.w", "ProblemConfig.tau", "EaConfig.prob", "EaConfig.prob-numpy",
        "resolve_tau"])
def test_booleans_are_not_reals(name, make):
    # True compares as 1: it used to pass as w = 1, tau = 1 or prob = 1.
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got (np.)?True_?$"):
        make()


def test_reals_take_numpy_scalars_and_keep_them():
    problem = model.ProblemConfig(w=np.float64(0.5), tau=np.int64(3), H=2)
    assert (problem.w, problem.tau) == (0.5, 3)
    assert solvers.EaConfig(prob=np.float32(0.25)).prob == 0.25
    with pytest.raises(ValueError, match="^w must be a real number, got '0.5'$"):
        model.ProblemConfig(w="0.5")


def test_is_feasible(line_points):
    ok = model.Clustering(labels=[1, 1, 1, 2, 3])
    assert model.is_feasible(ok, line_points, tau=2.0)
    bad = model.Clustering(labels=[1, 1, 1, 1, 2])  # 0 and 10 are 10 apart
    assert not model.is_feasible(bad, line_points, tau=2.0)
    with pytest.raises(ValueError):
        model.is_feasible(model.Clustering(labels=[1, 2]), line_points, tau=2.0)


@pytest.mark.parametrize("pos, labels, tau, expected", [
    ([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [5.0, 2.0]], [1, 1, 1, 2], 1.0, True),
    ([[0.0, 0.0], [3.0, 4.0]], [1, 1], 5.0, True),
    ([[0.0, 0.0], [3.0, 4.0]], [1, 1], math.nextafter(5.0, 0.0), False),
    ([[0.0, 0.0], [3.0, 4.0]], [1, 2], math.nextafter(5.0, 0.0), True),
    ([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]], [1, 1, 1], 5.0, False),
    ([[7.0, -3.0]], [1], 1e-9, True),
], ids=["co-located", "exactly-tau", "just-over-tau", "apart-in-two", "chain", "one-point"])
def test_is_feasible_edges(pos, labels, tau, expected):
    assert feasible(labels, dense_distance(pos).tolist(), tau) == expected
    ps = model.build_distance_matrix(pos)
    assert model.is_feasible(model.Clustering(labels), ps, tau) == expected


def test_renumber():
    assert model.renumber(np.array([5, 5, 9, 5, 2])).tolist() == [1, 1, 2, 1, 3]


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=40))
def test_renumber_is_contiguous_and_preserves_partition(raw):
    labels = np.array(raw, dtype=np.int64)
    out = model.renumber(labels)
    k = out.max()
    assert sorted(set(out.tolist())) == list(range(1, k + 1))
    # same points together before and after
    for i in range(len(raw)):
        for j in range(len(raw)):
            assert (labels[i] == labels[j]) == (out[i] == out[j])


@given(st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=60),
       st.integers(min_value=1, max_value=4))
def test_renumber_matches_first_appearance_oracle(raw, repeat):
    # Labels with gaps, each repeated, then the canonical result fed back in.
    labels = np.array(raw * repeat, dtype=np.int64)
    out = model.renumber(labels)
    assert out.dtype == np.int64
    assert out.tolist() == pure_renumber(labels.tolist())
    assert model.renumber(out).tolist() == out.tolist()



@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=80), st.integers(1, 50))
@example([7], 1)  # N = 1
@example([3, 3, 3, 3], 5)  # a single label
@example([9, 2, 30, 2, 9], 1)  # gaps
def test_renumber_numbers_labels_in_first_appearance_order(raw, scale):
    labels = np.array(raw, dtype=np.int64) * scale
    relabelled = model.renumber(labels)
    assert relabelled.tolist() == pure_renumber(labels.tolist())
    order = np.array([v * scale for v in dict.fromkeys(raw)])  # first appearance
    assert (order[relabelled - 1] == labels).all()  # new label j + 1 was old label order[j]


def test_renumber_rejects_labels_below_one():
    for bad in ([0, 1, 2], [3, -1], [-5]):
        with pytest.raises(ValueError, match="start at 1"):
            model.renumber(np.array(bad))


def test_renumber_of_no_labels_is_empty():
    out = model.renumber(np.array([], dtype=np.int64))
    assert out.dtype == np.int64 and out.size == 0


@st.composite
def point_sets(draw):
    """(positions, metric, tau) for the cases the tau grid must get exactly right.

    Lattices put many pairs at exactly tau (or a rounding error away from
    it, for a step of 0.1 or 0.3), every layout may hold co-located
    twins, small taus make every point a singleton, ``capped`` spreads
    points over more than 2**20 tau so the grid must widen its cells, and
    the haversine layouts cover the whole globe, the antimeridian and the
    poles. ``clumped`` leaves far points with no neighbour in the sampled
    radius of :func:`bbuclust.model.nearest_distances`.
    """
    kind = draw(st.sampled_from(["lattice", "uniform", "capped", "clumped", "globe",
                                 "antimeridian", "pole"]))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    metric = "euclidean"
    if kind == "lattice":
        # Half the points sit one lattice step from the other half, up to
        # thousands of steps from the lowest point.
        step = draw(st.sampled_from([1.0, 0.1, 0.3, 7.0]))
        cells = rng.integers(0, draw(st.sampled_from([5, 3000])), size=(n, 2))
        cells[n // 2:] = cells[: n - n // 2] + rng.integers(-1, 2, size=(n - n // 2, 2))
        pos = cells * step
        tau = step * draw(st.sampled_from([1.0, math.sqrt(2.0), 2.0]))
    elif kind == "uniform":
        pos = rng.uniform(-10.0, 10.0, size=(n, 2))
        tau = draw(st.floats(1e-9, 30.0))
    elif kind == "capped":
        pos = rng.uniform(0.0, 1e7, size=(n, 2))
        pos[n // 2:] = pos[: n - n // 2] + rng.uniform(-1e-3, 1e-3, size=(n - n // 2, 2))
        tau = 1e-3
    elif kind == "clumped":
        pos = rng.uniform(0.0, 0.01, size=(n, 2))
        pos[: n // 5] = rng.uniform(100.0, 1000.0, size=(n // 5, 2))
        tau = draw(st.floats(1e-4, 2000.0))
    else:
        metric = "haversine_meters"
        if kind == "globe":
            lon, lat = rng.uniform(-180.0, 180.0, n), rng.uniform(-90.0, 90.0, n)
            tau = draw(st.floats(1e3, 2.1e7))
        elif kind == "antimeridian":
            lon = rng.uniform(179.9, 180.0, n) * rng.choice([-1.0, 1.0], n)
            lat = rng.uniform(-1.0, 1.0, n)
            tau = draw(st.floats(10.0, 3e4))
        else:
            lon = rng.uniform(-180.0, 180.0, n)
            lat = rng.uniform(89.9, 90.0, n) * rng.choice([-1.0, 1.0], n)
            tau = draw(st.floats(10.0, 3e4))
        pos = np.column_stack([lon, lat])
    twins = draw(st.integers(0, n // 2))
    pos[:twins] = pos[n - twins:]
    return pos, metric, tau


def _assert_rows_match_dense(pos, metric, tau):
    nb = model.within_tau(model.build_distance_matrix(pos, metric), tau)
    near = dense_distance(pos, metric) <= tau
    assert len(nb) == len(pos)
    for i in range(len(pos)):
        row = nb[i]
        assert (np.diff(row) > 0).all() and i in row
        assert row.tolist() == np.flatnonzero(near[i]).tolist()


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_within_tau_rows_equal_dense_mask(case):
    _assert_rows_match_dense(*case)


@pytest.mark.parametrize("pos, metric, tau", [
    ([[0.0, 0.0]], "euclidean", 1.0),
    ([[0.0, 0.0], [0.0, 0.0]], "euclidean", 1e-9),  # co-located twins
    ([[0.0, 0.0], [3.0, 4.0]], "euclidean", 5.0),  # exactly tau apart
    ([[0.0, 0.0], [3.0, 4.0]], "euclidean", 4.999999999),
    ([[0.0, 0.0], [1.0, 1.0]], "euclidean", math.sqrt(2.0)),
    ([[179.99, 0.0], [-179.99, 0.0]], "haversine_meters", 2300.0),  # across the antimeridian
    ([[0.0, 90.0], [180.0, 90.0], [90.0, 89.99]], "haversine_meters", 1200.0),  # at the pole
    ([[0.0, 0.0], [180.0, 0.0]], "haversine_meters", 2.1e7),  # antipodes
])
def test_within_tau_edge_cases(pos, metric, tau):
    _assert_rows_match_dense(np.array(pos), metric, tau)


def test_within_tau_long_line_at_exactly_tau():
    # 2000 points one tau apart: a grid cell even 0.1% narrower than tau
    # would split some neighbours two cells apart.
    n = 2000
    nb = model.within_tau(model.build_distance_matrix(np.column_stack([np.arange(n) * 1.0,
                                                                        np.zeros(n)])), 1.0)
    for i in range(n):
        assert nb[i].tolist() == list(range(max(i - 1, 0), min(i + 2, n)))


def test_within_tau_below_every_gap_gives_singletons(rng):
    pos = rng.uniform(0.0, 100.0, size=(200, 2))
    d = dense_distance(pos)
    np.fill_diagonal(d, np.inf)
    nb = model.within_tau(model.build_distance_matrix(pos), d.min() / 2.0)
    assert [row.tolist() for row in nb] == [[i] for i in range(200)]


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_resolve_tau_equals_dense_three_mean_nn(case):
    pos, metric, _ = case
    if len(pos) < 2:
        return
    d = dense_distance(pos, metric)
    np.fill_diagonal(d, np.inf)
    expected = 3.0 * float(d.min(axis=1).mean())
    ps = model.build_distance_matrix(pos, metric)
    if expected == 0.0:
        with pytest.raises(ValueError, match="3x-mean-nn"):
            harness.resolve_tau(ps)
    else:
        assert harness.resolve_tau(ps) == expected


@settings(max_examples=200, deadline=None)
@given(point_sets(), st.integers(0, 2 ** 32 - 1))
def test_is_feasible_agrees_with_dense_check(case, seed):
    pos, metric, tau = case
    n = len(pos)
    rng = np.random.default_rng(seed)
    labels = model.renumber(rng.integers(1, rng.integers(1, n + 1) + 1, size=n))
    expected = feasible(labels.tolist(), dense_distance(pos, metric).tolist(), tau)
    ps = model.build_distance_matrix(pos, metric)
    assert model.is_feasible(model.Clustering(labels), ps, tau) == expected
