import numpy as np
import pytest
from hypothesis import given, strategies as st

from bbuclust import model
from _oracles import pure_renumber


def test_haversine_frozen_values():
    # Independently computed great-circle references (R = 6371008.8 m).
    d_lon = model.haversine_meters((9.19, 45.46), (9.20, 45.46))
    d_lat = model.haversine_meters((9.19, 45.46), (9.19, 45.47))
    assert d_lon == pytest.approx(779.9301161647776, abs=1e-6)
    assert d_lat == pytest.approx(1111.9508023352598, abs=1e-6)


def test_haversine_matrix_properties():
    ps = model.build_distance_matrix([[9.19, 45.46], [9.20, 45.46], [9.19, 45.47]],
                                     metric="haversine_meters")
    assert np.allclose(ps.dist, ps.dist.T)
    assert np.all(np.diag(ps.dist) == 0.0)
    assert ps.dist[0, 1] == pytest.approx(779.9301161647776, abs=1e-6)


def test_euclidean_matrix():
    ps = model.build_distance_matrix([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    assert ps.dist[0, 1] == pytest.approx(5.0)
    assert ps.dist[0, 2] == pytest.approx(1.0)
    assert ps.n_points == 3


def test_build_distance_matrix_errors():
    with pytest.raises(ValueError):
        model.build_distance_matrix(np.empty((0, 2)))
    with pytest.raises(ValueError):
        model.build_distance_matrix([[0.0, np.nan]])
    with pytest.raises(ValueError):
        model.build_distance_matrix([[0.0, 0.0]], metric="chebyshev")
    with pytest.raises(ValueError):
        model.build_distance_matrix([[200.0, 0.0]], metric="haversine_meters")
    with pytest.raises(ValueError):
        model.build_distance_matrix([[0.0, 95.0]], metric="haversine_meters")
    with pytest.raises(ValueError):
        model.build_distance_matrix([[0.0], [1.0]])


def test_traffic_day_validation():
    t = model.TrafficDay(values=[[0.1, 0.2], [0.3, 0.4]], day_index=2)
    assert t.n_points == 2 and t.n_hours == 2 and t.day_index == 2
    with pytest.raises(ValueError):
        model.TrafficDay(values=[[0.1, -0.2]])
    with pytest.raises(ValueError):
        model.TrafficDay(values=[[np.inf, 0.0]])
    with pytest.raises(ValueError):
        model.TrafficDay(values=[0.1, 0.2])


def test_clustering_validation():
    c = model.Clustering(labels=[1, 2, 1, 3])
    assert c.K == 3 and c.n_points == 4
    with pytest.raises(ValueError):
        model.Clustering(labels=[0, 1])  # labels start at 1
    with pytest.raises(ValueError):
        model.Clustering(labels=[1, 3])  # gap: no cluster 2
    with pytest.raises(ValueError):
        model.Clustering(labels=[])


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


def test_is_feasible(line_points):
    ok = model.Clustering(labels=[1, 1, 1, 2, 3])
    assert model.is_feasible(ok, line_points, tau=2.0)
    bad = model.Clustering(labels=[1, 1, 1, 1, 2])  # 0 and 10 are 10 apart
    assert not model.is_feasible(bad, line_points, tau=2.0)
    with pytest.raises(ValueError):
        model.is_feasible(model.Clustering(labels=[1, 2]), line_points, tau=2.0)


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


def test_renumber_rejects_labels_below_one():
    for bad in ([0, 1, 2], [3, -1], [-5]):
        with pytest.raises(ValueError, match="start at 1"):
            model.renumber(np.array(bad))
