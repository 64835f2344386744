"""Core data model: points, distances, traffic, clusterings, problem config."""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

EARTH_RADIUS_M = 6371008.8  # mean Earth radius (IUGG), metres

METRICS = ("euclidean", "haversine_meters")


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int, if it is an integer (numpy's, not ``bool``) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _real(name: str, value):
    """``value``, if it is a real number (numpy's too, not ``bool``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _fitted(cls, doc):
    """``doc``, once each field of ``cls`` it holds has the field's type, as JSON gives it
    (bool is no number; a tuple is a list)."""
    real, ints = (int, float), lambda v: type(v) is list and all(type(x) is int for x in v)
    fits = {"int": lambda v: type(v) is int, "float": lambda v: type(v) in real,
            "str": lambda v: type(v) is str, "dict": lambda v: type(v) is dict,
            "tuple[int, ...] | None": lambda v: v is None or ints(v),
            "tuple[float, ...]": lambda v: type(v) is list and all(type(x) in real for x in v),
            "tuple[DayRecord, ...]": lambda v: type(v) is list and len(v) > 0}
    for f in fields(cls):
        if f.name in doc and not fits[f.type](doc[f.name]):
            raise TypeError(f"{f.name} = {doc[f.name]!r} is not {f.type}")
    return doc


@dataclass(frozen=True)
class PointSet:
    """A set of N points and the metric that measures them.

    ``positions`` is an (N, 2) float array. For the haversine metric the
    columns are (longitude, latitude) in degrees and distances are metres;
    for the euclidean metric the columns are plain planar coordinates. The
    point set holds its own read-only copy of them, so a caller writing into
    its array later changes neither it nor a neighbourhood built from it.
    """

    positions: np.ndarray
    metric: str = "euclidean"

    def __post_init__(self) -> None:
        pos = np.array(self.positions, dtype=float)
        pos.flags.writeable = False
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] == 0:
            raise ValueError(f"positions must be a non-empty (N, 2) array, got shape {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions contain non-finite values")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; expected one of {METRICS}")
        if self.metric == "haversine_meters":
            lon, lat = pos[:, 0], pos[:, 1]
            if (np.abs(lon) > 180.0).any() or (np.abs(lat) > 90.0).any():
                raise ValueError("haversine positions must be (lon, lat) degrees with |lon|<=180, |lat|<=90")
        object.__setattr__(self, "positions", pos)

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]


# The former name, which perfbench traces; no matrix is built (within_tau measures pairs).
build_distance_matrix = PointSet


@dataclass(frozen=True)
class TrafficDay:
    """Traffic for one day: an (N, H) array of per-point, per-hour loads."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"traffic must be a 2-D (points, hours) array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("traffic contains non-finite entries")
        with np.errstate(over="ignore"):  # every cluster's deviation total must be finite
            if not np.isfinite(v.sum()):
                raise ValueError("traffic is too large to sum")
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
        raw = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):  # nan: caught below
            lab = raw.astype(np.int64, copy=False)
        if raw.dtype == bool or raw.dtype.kind not in "iu" and not (lab == raw).all():
            raise ValueError(f"labels must be integers, got {raw.dtype} labels")
        if lab.ndim != 1 or lab.size == 0:
            raise ValueError("labels must be a non-empty 1-D array")
        if lab.min() < 1:
            raise ValueError("cluster labels start at 1")
        k, n = int(lab.max()), lab.size
        # Contiguous labels have K <= N; above N, one of 1..N+1 is missing: count only those.
        counts = np.bincount(lab if k <= n else lab[lab <= n + 1], minlength=min(k, n + 1) + 1)
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
        if not (0.0 < _real("w", self.w) <= 1.0):
            raise ValueError(f"w must be in (0, 1], got {self.w}")
        if not (_real("tau", self.tau) > 0.0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        object.__setattr__(self, "H", _integer("H", self.H, 1))


def _pair_dist(pos: np.ndarray, i, j, metric: str) -> np.ndarray:
    """Distances between points ``pos[i]`` and ``pos[j]``, for index arrays i and j.

    The one distance formula. Its operations and their order must not
    change: every tau decision, and so every golden output, rests on them.
    """
    if metric == "euclidean":
        dx = pos[i, 0] - pos[j, 0]
        dy = pos[i, 1] - pos[j, 1]
        return np.sqrt(dx * dx + dy * dy)
    lon = np.radians(pos[:, 0])
    lat = np.radians(pos[:, 1])
    cos_lat = np.cos(lat)
    a = (np.sin((lat[i] - lat[j]) / 2.0) ** 2
         + cos_lat[i] * cos_lat[j] * np.sin((lon[i] - lon[j]) / 2.0) ** 2)
    a = np.clip(a, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(a))


def _pairs_within(point_set: PointSet, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every unordered pair at most ``radius`` apart, once, as (i, j, distance).

    Candidates come from a uniform grid of cell side ``radius``, on 3-D unit
    vectors with the chord of ``radius`` for haversine (so the antimeridian
    and the poles need no special case): close points lie in touching cells.
    """
    pos = point_set.positions
    n = pos.shape[0]
    if point_set.metric == "haversine_meters":
        lon, lat = np.radians(pos[:, 0]), np.radians(pos[:, 1])
        xyz = np.column_stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon),
                               np.sin(lat)])
        # 1e-12 covers the rounding of the unit vectors themselves.
        side = 2.0 * math.sin(min(radius / (2.0 * EARTH_RADIUS_M), math.pi / 2)) + 1e-12
    else:
        xyz, side = pos, radius
    lo = xyz.min(axis=0)
    extent = float((xyz.max(axis=0) - lo).max())
    # The relative slack lets rounding only add candidates (_pair_dist decides
    # each pair); at most 2**20 cells per axis keep 3-D keys within int64; a
    # zero side means that every point coincides.
    side = max(side * (1.0 + 1e-6), extent / 2 ** 20) or 1.0
    cell = ((xyz - lo) // side).astype(np.int64) + 1  # one empty cell of padding
    dims = cell.max(axis=0) + 2
    strides = np.cumprod(np.append(1, dims[:0:-1]))[::-1]  # row-major
    key = cell @ strides
    order = np.argsort(key, kind="stable")
    key = key[order]
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=dims.size))) @ strides
    # Each pair once: the points after this one in its own cell (offset 0
    # comes first), then all points of the touching cells with larger keys.
    near = (key + offsets[offsets >= 0][:, None]).ravel()
    stop = np.searchsorted(key, near, "right")
    start = np.searchsorted(key, near, "left")
    start[:n] = np.arange(1, n + 1)
    count = stop - start
    src = np.repeat(np.tile(np.arange(n), count.size // n), count)
    dst = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(src.size)
    i, j = order[src], order[dst]
    d = _pair_dist(pos, i, j, point_set.metric)
    close = d <= radius
    return i[close], j[close], d[close]


def _nearest_of(pos: np.ndarray, metric: str, rows: np.ndarray) -> np.ndarray:
    """The nearest distance from each of ``rows`` to all other points, 2**16 at a time."""
    nn = np.empty(rows.size)
    step = max(1, 2 ** 16 // pos.shape[0])
    for lo in range(0, rows.size, step):
        blk = rows[lo:lo + step]
        d = _pair_dist(pos, blk[:, None], np.arange(pos.shape[0]), metric)
        d[np.arange(blk.size), blk] = np.inf
        nn[lo:lo + step] = d.min(axis=1)
    return nn


def nearest_distances(point_set: PointSet) -> np.ndarray:
    """Each point's distance to its nearest other point, in O(N) extra memory.

    Pairs come from the grid at four times the median nearest distance of a
    strided sample of up to 32 points; points with none are measured against all.
    """
    pos, metric = point_set.positions, point_set.metric
    sample = np.unique(np.linspace(0, pos.shape[0] - 1, 32).astype(np.int64))
    i, j, d = _pairs_within(point_set, 4.0 * float(np.median(_nearest_of(pos, metric, sample))))
    nn = np.full(pos.shape[0], np.inf)
    np.minimum.at(nn, i, d)
    np.minimum.at(nn, j, d)
    lonely = np.flatnonzero(nn == np.inf)
    nn[lonely] = _nearest_of(pos, metric, lonely)
    return nn


def within_tau(point_set: PointSet, tau: float) -> list[np.ndarray]:
    """Each point's neighbours within tau: row i is ascending and holds i.

    The rows are read-only views into one compressed-sparse-row index array.
    """
    n = point_set.n_points
    i, j, _ = _pairs_within(point_set, tau)
    rows = np.concatenate([i, j, np.arange(n)])
    indices = np.sort(rows * n + np.concatenate([j, i, np.arange(n)])) % n
    indices.flags.writeable = False
    ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    return [indices[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]


def is_feasible(clustering: Clustering, point_set: PointSet, tau: float) -> bool:
    """True iff every within-cluster pair is among the pairs at most tau apart."""
    labels = clustering.labels
    if labels.size != point_set.n_points:
        raise ValueError("clustering and point set sizes differ")
    i, j, _ = _pairs_within(point_set, tau)
    sizes = np.bincount(labels)
    return int(np.count_nonzero(labels[i] == labels[j])) == int((sizes * (sizes - 1) // 2).sum())


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
