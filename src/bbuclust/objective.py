"""Fitness, operational metrics, and the legacy entropy-based score."""
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


def fitness_parts(labels: np.ndarray, values: np.ndarray, w: float,
                  dev: np.ndarray | None = None) -> tuple[float, int, float]:
    """Fast-path fitness on raw arrays: returns (f, K, mean utility).

    ``dev``, when given, must be ``|cluster_sums(labels, values) - 1|`` as a
    C-contiguous (K, H) array; the kernel then only sums it, with the same
    result bit for bit.
    """
    if dev is None:
        dev = cluster_sums(labels, values)
        dev -= 1.0
        np.abs(dev, out=dev)
    K, H = dev.shape
    u_mean = float(dev.sum() / (K * H))
    return w * K + u_mean, K, u_mean


def cluster_utility(traffic: TrafficDay, members: Iterable[int]) -> float:
    """Mean absolute deviation of the cluster's hourly sums from 1."""
    idx = np.fromiter(members, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("cluster has no members")
    sums = traffic.values[idx].sum(axis=0)
    return float(np.abs(sums - 1.0).mean())


def metrics(clustering: Clustering, traffic: TrafficDay, config: ProblemConfig) -> MetricsReport:
    """Operational report: K, mean utility U, and its delay/under-use split.

    Udelay charges hourly overload (sum above 1), Uunder1 charges idle
    capacity (sum at or below 1); U = Udelay + Uunder1 and f = w*K + U.
    """
    _check_shapes(clustering, traffic, config)
    sums = cluster_sums(clustering.labels, traffic.values)
    K, H = sums.shape
    over = sums > 1.0
    udelay = float((sums - 1.0)[over].sum() / (K * H))
    uunder = float((1.0 - sums)[~over].sum() / (K * H))
    u = float(np.abs(sums - 1.0).sum() / (K * H))
    return MetricsReport(K=K, U=u, Udelay=udelay, Uunder1=uunder, f=config.w * K + u)


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


def legacy_terms(clustering: Clustering, traffic: TrafficDay,
                 m: int = 1) -> list[tuple[float, float]]:
    """Per-cluster (1 - U(C_k), entropy(C_k)) pairs, in label order.

    Uses the deviation-from-1 utility of :func:`cluster_utility` (not the
    exponent form) and the peak-hour entropy of :func:`legacy_score`.
    """
    terms = []
    for k in range(1, clustering.K + 1):
        mem = np.flatnonzero(clustering.labels == k)
        terms.append((1.0 - cluster_utility(traffic, mem),
                      legacy_score(mem, traffic, m).h_entropy))
    return terms


def legacy_mean_m(clustering: Clustering, traffic: TrafficDay, m: int = 1) -> float:
    """Cluster-mean of (1 - U(C_k)) * entropy(C_k), from :func:`legacy_terms`.

    A cluster is rewarded for both tight hourly sums and diverse member peak
    hours.
    """
    return float(np.mean([u * ent for u, ent in legacy_terms(clustering, traffic, m)]))


def _check_shapes(clustering: Clustering, traffic: TrafficDay, config: ProblemConfig) -> None:
    if clustering.n_points != traffic.n_points:
        raise ValueError(
            f"clustering has {clustering.n_points} points but traffic has {traffic.n_points}")
    if traffic.n_hours != config.H:
        raise ValueError(f"traffic has {traffic.n_hours} hours but config.H = {config.H}")
