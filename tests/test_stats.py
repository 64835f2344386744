import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from bbuclust import stats


def test_rank_rows_hand_examples():
    assert stats.rank_rows(np.array([[3.0, 1.0, 2.0]])).tolist() == [[3.0, 1.0, 2.0]]
    assert stats.rank_rows(np.array([[1.0, 1.0, 2.0]])).tolist() == [[1.5, 1.5, 3.0]]
    assert stats.rank_rows(np.array([[5.0, 5.0, 5.0]])).tolist() == [[2.0, 2.0, 2.0]]
    with pytest.raises(ValueError):
        stats.rank_rows(np.array([1.0, 2.0]))


@given(st.integers(1, 30), st.integers(1, 10), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 6))
def test_rank_rows_equals_scipy_rankdata(n, k, seed, levels):
    # Few distinct integer values, so most rows hold ties.
    v = np.random.default_rng(seed).integers(0, levels, size=(n, k)).astype(float)
    ranks = stats.rank_rows(v)
    assert ranks.shape == (n, k)
    assert (ranks == scipy.stats.rankdata(v, axis=1)).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rank_rows_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        stats.rank_rows(np.array([[1.0, bad, 2.0]]))


def test_chi2_sf_against_scipy():
    for df in (1, 2, 5, 9):
        for x in (0.0, 0.1, 1.0, 5.0, 20.0, 100.0):
            mine = stats.chi2_sf(x, df)
            ref = scipy.stats.chi2.sf(x, df)
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-300)
    with pytest.raises(ValueError):
        stats.chi2_sf(-1.0, 2)
    with pytest.raises(ValueError):
        stats.chi2_sf(1.0, 0)


def test_friedman_statistic_against_scipy():
    rng = np.random.default_rng(np.random.SeedSequence(424242))
    values = rng.random((30, 3))
    # scipy applies a tie correction this formulation omits, so the fixture
    # must be tie-free; continuous draws guarantee that, but check anyway.
    for row in values:
        assert len(set(row.tolist())) == 3
    res = stats.friedman_nemenyi(values, alpha=0.05)
    ref_stat, ref_p = scipy.stats.friedmanchisquare(values[:, 0], values[:, 1], values[:, 2])
    assert res.statistic == pytest.approx(ref_stat, abs=1e-6)
    assert res.p_value == pytest.approx(ref_p, abs=1e-9)


def test_critical_difference_hand_value():
    rng = np.random.default_rng(np.random.SeedSequence(7))
    res = stats.friedman_nemenyi(rng.random((10, 2)), alpha=0.05)
    # q_0.05(2) * sqrt(2*3 / (6*10))
    assert res.critical_difference == pytest.approx(1.960 * math.sqrt(6.0 / 60.0), abs=1e-12)


def test_clear_winner_is_detected():
    rng = np.random.default_rng(np.random.SeedSequence(99))
    n = 20
    a = rng.random(n)          # systematically smallest
    b = a + 0.5 + rng.random(n)
    c = a + 1.0 + rng.random(n)
    res = stats.friedman_nemenyi(np.column_stack([a, b, c]), names=("a", "b", "c"))
    assert res.significant
    assert res.mean_ranks[0] == pytest.approx(1.0)
    assert res.better(0, 1) and res.better(0, 2)
    assert not res.better(1, 0)
    assert res.names == ("a", "b", "c")


def test_identical_columns_not_significant():
    vals = np.tile(np.arange(5, dtype=float)[:, None], (1, 3))
    res = stats.friedman_nemenyi(vals)
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert not res.significant
    assert not res.pairwise.any()


def test_friedman_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        stats.friedman_nemenyi(rng.random((1, 3)))  # too few blocks
    with pytest.raises(ValueError):
        stats.friedman_nemenyi(rng.random((5, 11)))  # beyond the q table
    with pytest.raises(ValueError):
        stats.friedman_nemenyi(rng.random((5, 3)), alpha=0.01)
    bad = rng.random((5, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        stats.friedman_nemenyi(bad)
    with pytest.raises(ValueError):
        stats.friedman_nemenyi(rng.random((5, 3)), names=("x",))


def test_alpha_010_table():
    rng = np.random.default_rng(np.random.SeedSequence(55))
    res = stats.friedman_nemenyi(rng.random((12, 4)), alpha=0.10)
    assert res.critical_difference == pytest.approx(
        2.291 * math.sqrt(4 * 5 / (6.0 * 12)), abs=1e-12)
