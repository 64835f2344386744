import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bbuclust import model, objective
from conftest import random_clustering
from _oracles import pure_fitness, pure_metrics, reference_cluster_utility


def _problem(h, w=0.01):
    return model.ProblemConfig(w=w, tau=1.0, H=h)


def test_fitness_hand_value():
    t = model.TrafficDay(values=[[0.8, 0.5], [0.4, 0.6], [0.3, 0.3]])
    c = model.Clustering(labels=[1, 1, 2])
    f, K, u_mean = objective.fitness_parts(c.labels, t.values, 0.1)
    # cluster 1 sums (1.2, 1.1) -> U = 0.15; cluster 2 sums (0.3, 0.3) -> U = 0.7
    assert K == 2
    assert u_mean == pytest.approx(0.425)
    assert f == pytest.approx(0.1 * 2 + 0.425)


def test_fitness_matches_pure_oracle(rng):
    for _ in range(60):
        n = int(rng.integers(1, 12))
        h = int(rng.integers(1, 6))
        values = rng.random((n, h))
        c = random_clustering(rng, n)
        got_f, got_k, got_u = objective.fitness_parts(c.labels, values, 0.3)
        f, k, u = pure_fitness(c.labels.tolist(), values.tolist(), 0.3)
        assert got_k == k
        assert got_f == pytest.approx(f, abs=1e-12)
        assert got_u == pytest.approx(u, abs=1e-12)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=24),
       st.floats(min_value=0.001, max_value=1.0), st.data())
def test_fitness_parts_bit_exact(n, h, w, data):
    # u is the exactly rounded sum of the per-cluster row sums over K*H, and f
    # depends on the clusters alone: permuting the labels, which reorders the
    # rows, keeps every bit, and so does an exact total summed in reverse.
    # Zeros of both signs and repeated values are drawn too.
    raw = data.draw(st.lists(st.integers(min_value=1, max_value=n), min_size=n, max_size=n))
    flat = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.1, 1.0]) |
                              st.floats(min_value=0.0, max_value=2.0), min_size=n * h,
                              max_size=n * h))
    labels = model.renumber(np.array(raw))
    values = np.array(flat).reshape(n, h)
    dev = np.abs(objective.cluster_sums(labels, values) - 1.0)
    K, H = dev.shape
    u = math.fsum(np.add.reduce(row) for row in dev) / (K * H)
    assert objective.fitness_parts(labels, values, w) == (w * K + u, K, u)
    perm = np.array(data.draw(st.permutations(range(1, K + 1))))
    assert objective.fitness_parts(perm[labels - 1], values, w) == (w * K + u, K, u)
    total = (K, sum(objective.exact(float(np.add.reduce(row))) for row in dev[::-1]))
    assert objective.fitness_parts(labels, values, w, total) == (w * K + u, K, u)


@pytest.mark.parametrize("kh", [1, 7, 8, 9, 127, 128, 129, 1680, 43200])
def test_fitness_parts_sums_rows_as_ndarray_sum(kh):
    # Rows around numpy's pairwise-summation blocks (8 and 128 items), with
    # rows of all zeros among them: each row's deviations are summed as an
    # ndarray sums them, and those sums exactly; w = 0 leaves f = u_mean.
    rng = np.random.default_rng(kh)
    for K in sorted({1, *(k for k in (2, 3, 24, 120) if kh % k == 0), kh}):
        H = kh // K
        values = rng.random((2 * K, H)) * rng.choice([1e-3, 1.0, 1e3], size=(2 * K, 1))
        values[rng.random(2 * K) < 0.3] = 0.5  # rows of two halves: deviations of zero
        labels = np.repeat(np.arange(1, K + 1), 2)
        dev = np.abs(objective.cluster_sums(labels, values) - 1.0)
        sums = [float(row.sum()) for row in dev]
        want = math.fsum(sums) / (K * H)
        for w in (0.0, 0.01):
            assert objective.fitness_parts(labels, values, w) == (w * K + want, K, want)
            total = (K, sum(map(objective.exact, sums)))
            assert objective.fitness_parts(labels, values, w, total) == (w * K + want, K, want)
    one = np.full((1, kh), 1.0)
    assert objective.fitness_parts(np.ones(1, dtype=np.int64), one, 0.01) == (0.01, 1, 0.0)


def test_exact_is_the_double_in_units_of_its_smallest():
    for r in (0.0, 5e-324, 2.0 ** -1022, 0.1, 1.0, 3.75, 2.0 ** 1000, 1.7976931348623157e308):
        assert objective.exact(r) == Fraction(r) * 2 ** 1074
    rng = np.random.default_rng(0)
    for _ in range(200):
        rs = (rng.random(int(rng.integers(1, 50))) * 10.0 ** rng.integers(-20, 20)).tolist()
        assert sum(map(objective.exact, rs)) / 2 ** 1074 == math.fsum(rs)


# Doubles m * 2**e with m < 2**53: zeros, subnormals (e = -1074) up to the largest finite
# double (e = 971), either sign; and plain hypothesis floats beside them.
_DOUBLES = st.one_of(
    st.builds(math.ldexp, st.integers(-(2 ** 53) + 1, 2 ** 53 - 1), st.integers(-1074, 971)),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0, 5e-324]))


@given(st.lists(_DOUBLES, max_size=60))
def test_exact_sum_is_the_sum_of_exact(rs):
    assert objective._exact_sum(np.array(rs, dtype=float)) == sum(map(objective.exact, rs))


@given(st.integers(2 ** 11 + 1, 6000), st.integers(-1074, 971), st.integers(0, 2 ** 32 - 1))
def test_exact_sum_of_many_mantissas_near_2_53_in_one_binade(size, e, seed):
    # Over 2**11 mantissas near 2**53 sum past 2**64: int64 holds their sum only in halves.
    m = np.random.default_rng(seed).integers(2 ** 53 - 2 ** 20, 2 ** 53, size=size)
    rs = np.ldexp(m.astype(float), e)
    assert objective._exact_sum(rs) == sum(map(objective.exact, rs.tolist()))


def test_metrics_matches_pure_oracle(rng):
    for _ in range(60):
        n = int(rng.integers(1, 12))
        h = int(rng.integers(1, 6))
        values = rng.random((n, h)) * 1.5
        c = random_clustering(rng, n)
        rep = objective.metrics(c, model.TrafficDay(values=values), _problem(h))
        k, u, delay, under, f = pure_metrics(c.labels.tolist(), values.tolist(), 0.01)
        assert rep.K == k
        assert rep.U == pytest.approx(u, abs=1e-12)
        assert rep.Udelay == pytest.approx(delay, abs=1e-12)
        assert rep.Uunder1 == pytest.approx(under, abs=1e-12)
        assert rep.f == pytest.approx(f, abs=1e-12)


def test_metrics_identities(rng):
    for _ in range(40):
        n = int(rng.integers(1, 20))
        values = rng.random((n, 24)) * 2.0
        c = random_clustering(rng, n)
        rep = objective.metrics(c, model.TrafficDay(values=values), _problem(24))
        assert abs(rep.U - (rep.Udelay + rep.Uunder1)) <= 1e-9
        assert abs(rep.f - (0.01 * rep.K + rep.U)) <= 1e-9


def test_shape_errors():
    t = model.TrafficDay(values=[[0.5, 0.5]])
    c = model.Clustering(labels=[1, 2])
    with pytest.raises(ValueError):
        objective.metrics(c, t, _problem(2))
    c1 = model.Clustering(labels=[1])
    with pytest.raises(ValueError):
        objective.metrics(c1, t, _problem(3))


def test_peak_hours_tie_break():
    assert objective.peak_hours(np.array([0.3, 0.9, 0.9, 0.1])) == {1}
    assert objective.peak_hours(np.array([0.3, 0.9, 0.9, 0.1]), m=2) == {1, 2}
    assert objective.peak_hours(np.array([0.5, 0.5, 0.5]), m=1) == {0}
    with pytest.raises(ValueError):
        objective.peak_hours(np.array([0.5, 0.5]), m=3)
    with pytest.raises(ValueError):
        objective.peak_hours(np.array([[0.5]]))


def test_legacy_score_hand_values():
    # Hourly sums of {0, 1}: (1.0, 1.2, 0.4); fbar = 2.6/3;
    # u = fbar ** (-ln fbar); peaks hour 0 and hour 1 -> entropy 1 bit.
    t = model.TrafficDay(values=[[0.8, 0.5, 0.3], [0.2, 0.7, 0.1], [0.2, 0.6, 0.7]])
    sc = objective.legacy_score({0, 1}, t)
    assert sc.peak_hours == {0: frozenset({0}), 1: frozenset({1})}
    assert sc.h_entropy == pytest.approx(1.0)
    assert sc.u_legacy == pytest.approx(0.9797303958412122, abs=1e-12)
    assert sc.m_product == pytest.approx(sc.u_legacy * sc.h_entropy)

    singleton = objective.legacy_score({2}, t)
    assert singleton.h_entropy == 0.0
    assert math.copysign(1.0, singleton.h_entropy) == 1.0  # not -0.0

    whole = objective.legacy_score({0, 1, 2}, t)
    assert whole.h_entropy == pytest.approx(math.log2(3))  # three distinct peaks


def test_legacy_score_errors():
    t = model.TrafficDay(values=[[0.0, 0.0]])
    with pytest.raises(ValueError):
        objective.legacy_score({0}, t)  # zero mean traffic
    with pytest.raises(ValueError):
        objective.legacy_score(set(), t)


def test_micro_reference_rows():
    rows = objective.micro_reference_rows()
    assert len(rows) == 30  # six instances x five clusterings
    by_key = {(r["dataset"], r["clustering"]): r for r in rows}
    assert round(by_key[("ds1", "123")]["mean_m"], 3) == 1.004
    assert round(by_key[("ds2", "1, 23")]["mean_one_minus_u"], 3) == 0.683
    text = objective.render_micro_reference()
    assert "meanM" in text and "ds6" in text


def test_micro_reference_matches_per_member_utility():
    labelings = dict(objective.MICRO_CLUSTERINGS)
    for row in objective.micro_reference_rows():
        values = np.array(objective.MICRO_TRAFFIC[row["dataset"]], dtype=float)
        labels = np.array(labelings[row["clustering"]])
        want = [1.0 - reference_cluster_utility(values, np.flatnonzero(labels == k))
                for k in range(1, labels.max() + 1)]
        assert [u for u, _ in row["per_cluster"]] == want
        hs = [h for _, h in row["per_cluster"]]
        assert row["mean_m"] == float(np.mean([u * h for u, h in zip(want, hs)]))


def test_entropy_matches_pure_oracle(rng):
    from _oracles import pure_entropy_bits
    for _ in range(20):
        n = int(rng.integers(2, 10))
        values = rng.random((n, 24))
        t = model.TrafficDay(values=values)
        sc = objective.legacy_score(range(n), t)
        peaks = [min(h for h in objective.peak_hours(values[i])) for i in range(n)]
        assert sc.h_entropy == pytest.approx(pure_entropy_bits(peaks), abs=1e-12)
