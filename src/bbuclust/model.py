"""Core data model: points, distances, traffic, clusterings, problem config."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EARTH_RADIUS_M = 6371008.8  # mean Earth radius (IUGG), metres

METRICS = ("euclidean", "haversine_meters")


@dataclass(frozen=True)
class PointSet:
    """A set of N points with a precomputed dense N x N distance matrix.

    ``positions`` is an (N, 2) float array. For the haversine metric the
    columns are (longitude, latitude) in degrees and distances are metres;
    for the euclidean metric the columns are plain planar coordinates.
    """

    positions: np.ndarray
    metric: str
    dist: np.ndarray = field(repr=False)

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class TrafficDay:
    """Traffic for one day: an (N, H) array of per-point, per-hour loads."""

    values: np.ndarray
    day_index: int = 0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"traffic must be a 2-D (points, hours) array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("traffic contains non-finite entries")
        if (v < 0).any():
            raise ValueError("traffic entries must be >= 0")
        object.__setattr__(self, "values", v)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def n_hours(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Clustering:
    """An assignment of N points to clusters labelled 1..K with no gaps."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.ndim != 1 or lab.size == 0:
            raise ValueError("labels must be a non-empty 1-D array")
        if lab.min() < 1:
            raise ValueError("cluster labels start at 1")
        k = int(lab.max())
        counts = np.bincount(lab, minlength=k + 1)
        if (counts[1:] == 0).any():
            missing = int(np.flatnonzero(counts[1:] == 0)[0]) + 1
            raise ValueError(f"labels are not contiguous: no point carries label {missing}")
        object.__setattr__(self, "labels", lab)

    @property
    def n_points(self) -> int:
        return self.labels.size

    @property
    def K(self) -> int:
        return int(self.labels.max())


@dataclass(frozen=True)
class ProblemConfig:
    """Objective parameters: cluster-count weight w, distance cap tau, hours per day."""

    w: float = 0.01
    tau: float = 1.0
    H: int = 24

    def __post_init__(self) -> None:
        if not (0.0 < self.w <= 1.0):
            raise ValueError(f"w must be in (0, 1], got {self.w}")
        if not (self.tau > 0.0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.H < 1:
            raise ValueError(f"H must be >= 1, got {self.H}")


def _haversine_matrix(positions: np.ndarray) -> np.ndarray:
    lon = np.radians(positions[:, 0])
    lat = np.radians(positions[:, 1])
    dlat = lat[:, None] - lat[None, :]
    dlon = lon[:, None] - lon[None, :]
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon / 2.0) ** 2
    a = np.clip(a, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(a))


def _distance_matrix(positions: np.ndarray, metric: str) -> np.ndarray:
    if metric == "euclidean":
        diff = positions[:, None, :] - positions[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=2))
    elif metric == "haversine_meters":
        d = _haversine_matrix(positions)
    else:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    np.fill_diagonal(d, 0.0)
    return d


def build_distance_matrix(positions, metric: str = "euclidean") -> PointSet:
    """Build a :class:`PointSet` with its dense distance matrix.

    Args:
        positions: sequence of (coord1, coord2) pairs; for haversine these
            are (longitude, latitude) in degrees.
        metric: "euclidean" or "haversine_meters".
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] == 0:
        raise ValueError(f"positions must be a non-empty (N, 2) array, got shape {pos.shape}")
    if not np.all(np.isfinite(pos)):
        raise ValueError("positions contain non-finite values")
    if metric == "haversine_meters":
        lon, lat = pos[:, 0], pos[:, 1]
        if (np.abs(lon) > 180.0).any() or (np.abs(lat) > 90.0).any():
            raise ValueError("haversine positions must be (lon, lat) degrees with |lon|<=180, |lat|<=90")
    return PointSet(positions=pos, metric=metric, dist=_distance_matrix(pos, metric))


def haversine_meters(p: tuple[float, float], q: tuple[float, float]) -> float:
    """Great-circle distance in metres between two (lon, lat) degree pairs."""
    pos = np.array([p, q], dtype=float)
    return float(_haversine_matrix(pos)[0, 1])


def within_tau(point_set: PointSet, tau: float) -> np.ndarray:
    """The (N, N) bool mask of point pairs at most tau apart."""
    return point_set.dist <= tau


def is_feasible(clustering: Clustering, point_set: PointSet, tau: float) -> bool:
    """True iff every within-cluster pairwise distance is <= tau."""
    labels = clustering.labels
    if labels.size != point_set.n_points:
        raise ValueError("clustering and point set sizes differ")
    same = labels[:, None] == labels[None, :]
    return bool(within_tau(point_set, tau)[same].all())


def renumber(labels: np.ndarray) -> np.ndarray:
    """Map a positive label vector onto contiguous 1..K.

    Order of first appearance is preserved so relabelling is stable. Runs in
    O(N + max label) time without sorting; its scratch memory is O(max
    label), which is at most N for every label array the solvers build.
    Raises ``ValueError`` for a label below 1.
    """
    lab = np.asarray(labels, dtype=np.int64)
    if lab.size == 0:
        return lab.copy()
    if lab.min() < 1:
        raise ValueError("cluster labels start at 1")
    pos = np.arange(lab.size)
    first = np.full(int(lab.max()) + 1, lab.size, dtype=np.int64)
    np.minimum.at(first, lab, pos)
    order = lab[first[lab] == pos]  # each label once, in first-appearance order
    rank = np.empty_like(first)
    rank[order] = np.arange(1, order.size + 1)
    return rank[lab]
