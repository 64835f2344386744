"""Fitness, operational metrics, the legacy entropy-based score and the Table-1
micro reference that compares the two."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import Clustering, ProblemConfig, TrafficDay


@dataclass(frozen=True)
class FitnessValue:
    """Scalar objective f = w*K + mean cluster utility, with its two parts."""

    f: float
    K: int
    u_mean: float


@dataclass(frozen=True)
class MetricsReport:
    """Operational metrics of a deployed clustering on one day of traffic."""

    K: int
    U: float
    Udelay: float
    Uunder1: float
    f: float


@dataclass(frozen=True)
class LegacyScore:
    """Entropy-based score of a single cluster (older formulation)."""

    u_legacy: float
    h_entropy: float
    m_product: float
    peak_hours: dict[int, frozenset[int]]


def cluster_sums(labels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Aggregate per-point traffic into per-cluster hourly sums.

    Args:
        labels: (N,) int array of cluster labels 1..K.
        values: (N, H) traffic array.

    Returns:
        (K, H) array whose [k-1, h] entry is the summed hour-h traffic of
        cluster k.
    """
    K = int(labels.max())
    H = values.shape[1]
    idx = (labels[:, None] - 1) * H + np.arange(H)[None, :]
    return np.bincount(idx.ravel(), weights=values.ravel(), minlength=K * H).reshape(K, H)


def exact(r: float) -> int:
    """``r`` as an exact multiple of 2**-1074, the smallest positive double, of which
    every finite double is a whole multiple."""
    n, d = r.as_integer_ratio()
    return n << 1075 - d.bit_length()


def _exact_sum(r: np.ndarray) -> int:
    """``sum(map(exact, r.tolist()))`` in one pass: each double is q * 2**s in ``exact``'s
    units (|q| < 2**53, s >= 0); the q of each s are summed as int64 in 26-bit halves, so
    no group of fewer than 2**36 overflows, and each group sum is shifted by its s once."""
    m, e = np.frexp(r)
    s = np.maximum(e + 1021, 0)  # subnormals: s = 0
    order = np.argsort(s)
    q, s = np.ldexp(m, np.minimum(e + 1074, 53)).astype(np.int64)[order], s[order]
    first = np.flatnonzero(s != np.append(-1, s[:-1]))  # each group's start
    hi, lo = (np.add.reduceat(h, first).tolist() for h in (q >> 26, q & (1 << 26) - 1))
    return sum(((h << 26) + l) << k for h, l, k in zip(hi, lo, s[first].tolist()))


def fitness_parts(labels: np.ndarray, values: np.ndarray, w: float,
                  total: tuple[int, int] | None = None) -> tuple[float, int, float]:
    """Fitness on raw arrays: returns (f, K, mean utility).

    ``f = w*K + [R]/(K*H)``. Cluster k's ``r_k`` is ``np.add.reduce`` of its H
    deviations ``|S_kh - 1|`` (S summed in point order, as ``cluster_sums``
    adds); ``R = sum_k r_k`` exactly, and ``[R]`` is R rounded once. So f
    depends on the set of clusters alone, not on label numbering or row
    order. This dense reference rounds with ``math.fsum``; given a solver's
    exact ``total`` (K, R), R in ``exact``'s units, it only divides, to the
    same bits, and ``labels`` may be any int64 buffer (it reads none of them).
    """
    if total is None:
        dev = cluster_sums(labels, values)
        dev -= 1.0
        np.abs(dev, out=dev)
        K, u_sum = dev.shape[0], math.fsum(np.add.reduce(dev, axis=1).tolist())
    else:
        K, u_sum = total[0], total[1] / (1 << 1074)
    u_mean = u_sum / (K * values.shape[1])
    return w * K + u_mean, K, u_mean


def metrics(clustering: Clustering, traffic: TrafficDay, config: ProblemConfig) -> MetricsReport:
    """Operational report: K, mean utility U, and its delay/under-use split.

    Udelay charges hourly overload (sum above 1), Uunder1 charges idle
    capacity (sum at or below 1); U = Udelay + Uunder1 and f = w*K + U.
    """
    if clustering.n_points != traffic.n_points:
        raise ValueError(
            f"clustering has {clustering.n_points} points but traffic has {traffic.n_points}")
    if traffic.n_hours != config.H:
        raise ValueError(f"traffic has {traffic.n_hours} hours but config.H = {config.H}")
    f, K, u = fitness_parts(clustering.labels, traffic.values, config.w)
    sums = cluster_sums(clustering.labels, traffic.values)
    dev = np.abs(sums - 1.0)
    over = sums > 1.0
    udelay = float(dev[over].sum() / dev.size)
    uunder = float(dev[~over].sum() / dev.size)
    return MetricsReport(K=K, U=u, Udelay=udelay, Uunder1=uunder, f=f)


def peak_hours(point_traffic: np.ndarray, m: int = 1) -> set[int]:
    """The m busiest hours of one point's day; ties go to the earlier hour."""
    v = np.asarray(point_traffic, dtype=float)
    if v.ndim != 1:
        raise ValueError("point_traffic must be 1-D")
    if not (1 <= m <= v.size):
        raise ValueError(f"m must be in 1..{v.size}, got {m}")
    order = np.lexsort((np.arange(v.size), -v))
    return set(int(h) for h in order[:m])


def legacy_score(members: Iterable[int], traffic: TrafficDay, m: int = 1) -> LegacyScore:
    """Entropy-based score of one cluster.

    The utilization term is u = fbar ** (-ln fbar) with fbar the mean hourly
    aggregated traffic; the diversity term is the Shannon entropy (bits) of
    the multiset of member peak hours; m_product = u * entropy.
    """
    idx = sorted(int(i) for i in members)
    if not idx:
        raise ValueError("cluster has no members")
    peaks = {i: frozenset(peak_hours(traffic.values[i], m)) for i in idx}
    counts: dict[int, int] = {}
    for hours in peaks.values():
        for h in hours:
            counts[h] = counts.get(h, 0) + 1
    total = sum(counts.values())
    h_entropy = -sum((c / total) * math.log2(c / total) for c in counts.values()) + 0.0
    fbar = float(traffic.values[idx].sum(axis=0).mean())
    if fbar <= 0.0:
        raise ValueError("mean cluster traffic must be positive for the legacy score")
    u_legacy = fbar ** (-math.log(fbar))
    return LegacyScore(u_legacy=u_legacy, h_entropy=h_entropy,
                       m_product=u_legacy * h_entropy, peak_hours=peaks)


# Micro reference instances: six 3-point, 3-hour traffic tables whose scores
# are small enough to check by hand, under five fixed clusterings.

MICRO_TRAFFIC = {
    "ds1": [[0.8, 0.5, 0.3], [0.2, 0.7, 0.1], [0.2, 0.6, 0.7]],
    "ds2": [[0.8, 0.5, 0.3], [0.7, 0.2, 0.1], [0.2, 0.6, 0.7]],
    "ds3": [[0.8, 0.5, 0.3], [0.7, 0.2, 0.1], [0.7, 0.6, 0.2]],
    "ds4": [[0.18, 0.15, 0.13], [0.12, 0.17, 0.11], [0.12, 0.16, 0.17]],
    "ds5": [[0.18, 0.15, 0.13], [0.17, 0.12, 0.11], [0.12, 0.16, 0.17]],
    "ds6": [[0.18, 0.15, 0.13], [0.17, 0.12, 0.11], [0.17, 0.16, 0.12]],
}

MICRO_CLUSTERINGS = [
    ("12, 3", (1, 1, 2)),
    ("13, 2", (1, 2, 1)),
    ("1, 23", (1, 2, 2)),
    ("1, 2, 3", (1, 2, 3)),
    ("123", (1, 1, 1)),
]


def micro_reference_rows() -> list[dict]:
    """Score every micro instance under every fixed clustering.

    Each row carries per-cluster (1 - U, entropy) pairs in label order, with
    U the mean deviation of the cluster's hourly sums from 1 (not the exponent
    form of :func:`legacy_score`) and the entropy its peak-hour entropy, plus
    their means; meanM is the cluster-mean of (1 - U) * entropy.
    """
    rows = []
    for ds_name, table in MICRO_TRAFFIC.items():
        traffic = TrafficDay(values=np.array(table, dtype=float))
        for label, labs in MICRO_CLUSTERINGS:
            labels = np.array(labs, dtype=np.int64)
            one_minus_u = 1.0 - np.abs(cluster_sums(labels, traffic.values) - 1.0).mean(axis=1)
            per_cluster = [(float(v), legacy_score(np.flatnonzero(labels == k), traffic).h_entropy)
                           for k, v in enumerate(one_minus_u, start=1)]
            rows.append({
                "dataset": ds_name,
                "clustering": label,
                "per_cluster": per_cluster,
                "mean_one_minus_u": float(np.mean([c[0] for c in per_cluster])),
                "mean_m": float(np.mean([c[0] * c[1] for c in per_cluster])),
            })
    return rows


def render_micro_reference() -> str:
    """Text table of the micro reference scores (3 decimal places)."""
    lines = [f"{'dataset':8} {'clustering':10} {'per-cluster (1-U, H)':44} "
             f"{'mean(1-U)':>9} {'meanM':>7}"]
    for row in micro_reference_rows():
        pc = "  ".join(f"({u:.3f}, {h:.3f})" for u, h in row["per_cluster"])
        lines.append(f"{row['dataset']:8} {row['clustering']:10} {pc:44} "
                     f"{row['mean_one_minus_u']:9.3f} {row['mean_m']:7.3f}")
    return "\n".join(lines)
