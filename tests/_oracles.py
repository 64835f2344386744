"""Reference implementations used only as test oracles.

These deliberately avoid numpy vectorization so they share no code path with
the library: everything is nested loops over Python lists. The exception is
``dense_distance``, the library's former dense N x N distance matrix, kept
verbatim as the reference its neighbour lists must reproduce exactly.
"""
from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_M = 6371008.8  # mean Earth radius (IUGG), metres


def _haversine_matrix(positions: np.ndarray) -> np.ndarray:
    lon = np.radians(positions[:, 0])
    lat = np.radians(positions[:, 1])
    dlat = lat[:, None] - lat[None, :]
    dlon = lon[:, None] - lon[None, :]
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon / 2.0) ** 2
    a = np.clip(a, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(a))


def dense_distance(positions, metric: str = "euclidean") -> np.ndarray:
    """The dense N x N distance matrix of (N, 2) positions."""
    positions = np.asarray(positions, dtype=float)
    if metric == "euclidean":
        diff = positions[:, None, :] - positions[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=2))
    elif metric == "haversine_meters":
        d = _haversine_matrix(positions)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    np.fill_diagonal(d, 0.0)
    return d


def pure_fitness(labels, values, w):
    """Reference f = w*K + (1/K) sum_k U(C_k); labels 1..K, values N x H lists."""
    K = max(labels)
    H = len(values[0])
    total = 0.0
    for k in range(1, K + 1):
        for h in range(H):
            s = 0.0
            for i, lab in enumerate(labels):
                if lab == k:
                    s += values[i][h]
            total += abs(s - 1.0)
    u_mean = total / (K * H)
    return w * K + u_mean, K, u_mean


def pure_renumber(labels):
    """Reference relabelling onto 1..K in order of first appearance."""
    rank = {}
    for lab in labels:
        if lab not in rank:
            rank[lab] = len(rank) + 1
    return [rank[lab] for lab in labels]


def pure_metrics(labels, values, w):
    """Reference (K, U, Udelay, Uunder1, f)."""
    K = max(labels)
    H = len(values[0])
    u = delay = under = 0.0
    for k in range(1, K + 1):
        for h in range(H):
            s = 0.0
            for i, lab in enumerate(labels):
                if lab == k:
                    s += values[i][h]
            u += abs(s - 1.0)
            if s > 1.0:
                delay += s - 1.0
            else:
                under += 1.0 - s
    scale = K * H
    return K, u / scale, delay / scale, under / scale, w * K + u / scale


def pure_entropy_bits(hours):
    """Shannon entropy (bits) of a multiset of hours."""
    counts = {}
    for h in hours:
        counts[h] = counts.get(h, 0) + 1
    total = sum(counts.values())
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def partitions(n):
    """Every set partition of range(n), as a 1..K label list (restricted growth)."""
    labels = []

    def rec(i, mx):
        if i == n:
            yield list(labels)
            return
        for k in range(1, mx + 2):
            labels.append(k)
            yield from rec(i + 1, max(mx, k))
            labels.pop()

    yield from rec(0, 0)


def feasible(labels, dist, tau):
    """Reference pairwise feasibility check."""
    n = len(labels)
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j] and dist[i][j] > tau:
                return False
    return True


def brute_force_best(values, dist, tau, w):
    """Exhaustive minimum of the fitness over all feasible partitions (small n)."""
    n = len(values)
    best = None
    for labels in partitions(n):
        if not feasible(labels, dist, tau):
            continue
        f = pure_fitness(labels, values, w)[0]
        if best is None or f < best:
            best = f
    return best
