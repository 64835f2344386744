"""Synthetic dataset generators, CSV persistence, and manifests.

Dataset kinds combine a location layout with a traffic model:

* ``1a``          random locations, uniform random traffic
* ``2a``          cohesive groups, uniform random traffic
* ``2b``          cohesive groups, known-optimum traffic (per-group hourly
                  sums are exactly 1, so the group partition scores U = 0)
* ``3a``          dense core plus isolated scatter, uniform random traffic
* ``1c-milan``    random locations, city-style daily pattern (midday plateau)
* ``1c-songliao`` random locations, industrial-style pattern (long plateau)
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .model import (Clustering, PointSet, TrafficDay, _fitted, _integer, _real,
                    build_distance_matrix)

# Each kind's size arguments and their defaults.
SIZES = {
    "1a": {"n_points": 150, "box": 100.0},
    "2a": {"n_groups": 30, "np_max": 5, "tau_gen": 10.0},
    "2b": {"n_groups": 30, "np_max": 10, "tau_gen": 10.0},
    "3a": {"ng": 100, "nt": 158, "tau_gen": 10.0},
    "1c-milan": {"n_points": 150, "box": 100.0},
    "1c-songliao": {"n_points": 150, "box": 100.0},
}
KINDS = tuple(SIZES)

# Tries to place one group centre or scatter point before a layout gives up.
MAX_TRIES = 10_000

# Hours where the patterned templates hold their plateau (union over draws).
MILAN_PLATEAU_HOURS = tuple(range(12, 18))
SONGLIAO_PLATEAU_HOURS = tuple(range(10, 22))


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    kind: str
    n_points: int
    n_days: int
    hours: int
    distance_metric: str
    seed: int
    generator_params: dict
    provenance: str = "generated"
    optimal_labels: tuple[int, ...] | None = None

    def __post_init__(self) -> None:  # the optimal labels, if any, are a clustering of the points
        if self.optimal_labels is not None and (
                Clustering(np.asarray(self.optimal_labels)).n_points != self.n_points):
            raise ValueError(f"optimal_labels has {len(self.optimal_labels)} entries "
                             f"for {self.n_points} points")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "DatasetManifest":
        d = _fitted(DatasetManifest, json.loads(text))
        if d.get("optimal_labels") is not None:
            d["optimal_labels"] = tuple(d["optimal_labels"])
        return DatasetManifest(**d)


@dataclass(frozen=True)
class Dataset:
    manifest: DatasetManifest
    point_set: PointSet
    traffic: list[TrafficDay]


def _disc(center: np.ndarray, radius: float, size: int, rng: np.random.Generator) -> np.ndarray:
    r = radius * np.sqrt(rng.random(size))
    theta = 2.0 * math.pi * rng.random(size)
    return center + np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def gen_locations_random(n_points: int, box: float, rng: np.random.Generator) -> np.ndarray:
    """n_points uniform in the [0, box]^2 square."""
    if n_points < 1 or box <= 0:
        raise ValueError("need n_points >= 1 and box > 0")
    return rng.uniform(0.0, box, size=(n_points, 2))


def gen_locations_cohesive(n_groups: int, np_max: int, tau: float,
                           rng: np.random.Generator) -> tuple[np.ndarray, list[list[int]]]:
    """Groups of 1..np_max points, each inside a disc of radius tau/2.

    Within a group all pairwise distances are strictly below tau; group
    centers are kept more than 2.2*tau apart so points of different groups
    are strictly farther than tau from each other.
    """
    if n_groups < 1 or np_max < 1 or tau <= 0:
        raise ValueError("need n_groups >= 1, np_max >= 1, tau > 0")
    side = 4.4 * tau * max(math.ceil(math.sqrt(n_groups)), 1) + 4.4 * tau
    centers: list[np.ndarray] = []
    for _ in range(n_groups):
        for _ in range(MAX_TRIES):
            c = rng.uniform(0.0, side, size=2)
            if all(float(np.hypot(*(c - prev))) > 2.2 * tau for prev in centers):
                centers.append(c)
                break
        else:
            raise RuntimeError(f"could not place {n_groups} group centers in a {side:.1f} box")
    positions: list[np.ndarray] = []
    groups: list[list[int]] = []
    idx = 0
    for c in centers:
        size = int(rng.integers(1, np_max + 1))
        pts = _disc(c, 0.4995 * tau, size, rng)
        positions.append(pts)
        groups.append(list(range(idx, idx + size)))
        idx += size
    return np.vstack(positions), groups


def gen_locations_core_scatter(ng: int, nt: int, tau: float,
                               rng: np.random.Generator) -> np.ndarray:
    """ng tightly packed core points plus nt - ng isolated scatter points.

    Core points sit inside a disc of radius tau/10 (pairwise far below tau);
    every scatter point is farther than tau from the core and from every
    other scatter point.
    """
    if not (1 <= ng <= nt) or tau <= 0:
        raise ValueError("need 1 <= ng <= nt and tau > 0")
    n_scatter = nt - ng
    side = 2.05 * tau * (2 * math.ceil(math.sqrt(max(n_scatter, 1))) + 2)
    center = np.array([side / 2.0, side / 2.0])
    core = _disc(center, tau / 10.0, ng, rng)
    placed = [core]
    for _ in range(n_scatter):
        existing = np.vstack(placed)
        for _ in range(MAX_TRIES):
            p = rng.uniform(0.0, side, size=2)
            if float(np.hypot(existing[:, 0] - p[0], existing[:, 1] - p[1]).min()) > 2.05 * tau:
                placed.append(p[None, :])
                break
        else:
            raise RuntimeError(f"could not scatter {n_scatter} points in a {side:.1f} box")
    return np.vstack(placed)


def gen_traffic_random(n_points: int, n_days: int, hours: int,
                       rng: np.random.Generator) -> list[TrafficDay]:
    """Independent uniform(0, 1) loads for every (day, point, hour)."""
    return [TrafficDay(values=rng.uniform(0.0, 1.0, size=(n_points, hours)))
            for _ in range(n_days)]


def gen_traffic_known_optimum(groups: list[list[int]], n_points: int, n_days: int,
                              hours: int, rng: np.random.Generator) -> list[TrafficDay]:
    """Traffic whose per-group hourly sums are exactly 1.

    Each hour, a group's members split a unit load in random proportions, so
    clustering by group achieves utility 0 — a known optimal certificate.
    """
    if sorted(i for g in groups for i in g) != list(range(n_points)):
        raise ValueError("groups must partition 0..n_points-1")
    days = []
    for _ in range(n_days):
        v = np.zeros((n_points, hours))
        for g in groups:
            idx = np.asarray(g, dtype=np.int64)
            u = rng.uniform(0.1, 1.0, size=(idx.size, hours))
            shares = u / u.sum(axis=0, keepdims=True)
            # Force the sequential (ascending-member) hourly sum to land on
            # exactly 1.0, matching the accumulation order of cluster_sums.
            partial = np.zeros(hours)
            for row in shares[:-1]:
                partial = partial + row
            shares[-1, :] = 1.0 - partial
            v[idx, :] = shares
        days.append(TrafficDay(values=v))
    return days


def _pattern_anchors(pattern: str, rng: np.random.Generator) -> tuple[list[int], list[float]]:
    if pattern == "milan":
        b1 = int(rng.integers(5, 7))
        plateau = int(rng.integers(5, 7))
        v0 = rng.uniform(0.3, 0.5)
        vmin = rng.uniform(0.05, 0.15)
        vend = rng.uniform(0.2, 0.4)
        return [0, b1, 12, 12 + plateau - 1, 23], [v0, vmin, 1.0, 1.0, vend]
    if pattern == "songliao":
        b1 = int(rng.integers(8, 10))
        plateau = int(rng.integers(10, 12))
        v0 = rng.uniform(0.12, 0.18)
        vmin = rng.uniform(0.08, 0.12)
        vend = rng.uniform(0.25, 0.35)
        ps = b1 + 2
        return [0, b1, ps, ps + plateau - 1, 23], [v0, vmin, 1.0, 1.0, vend]
    raise ValueError(f"unknown pattern {pattern!r}; expected 'milan' or 'songliao'")


def gen_traffic_patterned(n_points: int, n_days: int, pattern: str,
                          rng: np.random.Generator, hours: int = 24) -> list[TrafficDay]:
    """Daily piecewise-linear load curves with noise, clipped to (0, 1].

    ``milan`` dips in the early morning and plateaus over midday;
    ``songliao`` stays low through the morning and holds a long plateau.
    Breakpoints are redrawn per point and day; each point carries a fixed
    amplitude; every entry gets multiplicative noise.
    """
    if hours != 24:
        raise ValueError(f"patterned traffic is defined on 24 clock hours, got hours={hours}")
    amp = rng.uniform(0.5, 1.0, size=n_points)
    hs = np.arange(hours, dtype=float)
    days = []
    for _ in range(n_days):
        v = np.empty((n_points, hours))
        for i in range(n_points):
            xp, fp = _pattern_anchors(pattern, rng)
            template = np.interp(hs, xp, fp)
            noise = rng.uniform(0.95, 1.05, size=hours)
            v[i] = np.minimum(amp[i] * template * noise, 1.0)
        days.append(TrafficDay(values=v))
    return days


def make_dataset(kind: str, seed: int, n_days: int = 7, name: str | None = None,
                 hours: int = 24, **sizes) -> Dataset:
    """Generate one of the named dataset kinds deterministically from a seed.

    ``sizes`` may set any of the kind's size arguments in ``SIZES[kind]``;
    the rest take the defaults listed there.
    """
    if kind not in SIZES:
        raise ValueError(f"unknown dataset kind {kind!r}; expected one of {KINDS}")
    extra = sorted(set(sizes) - set(SIZES[kind]))
    if extra:
        raise ValueError(f"kind {kind!r} takes the size arguments {list(SIZES[kind])}, "
                         f"not {extra}")
    seed = _integer("seed", seed, 0)
    n_days, hours = _integer("n_days", n_days, 1), _integer("hours", hours, 1)
    params = {k: _integer(k, sizes.get(k, d), 1) if type(d) is int
              else float(_real(k, sizes.get(k, d))) for k, d in SIZES[kind].items()}
    if bad := [k for k, v in params.items() if not 0 < v < math.inf]:  # nan fails too
        raise ValueError(f"{bad[0]} must be a finite number > 0, got {params[bad[0]]!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if "n_points" in params:
        positions = gen_locations_random(params["n_points"], params["box"], rng)
    elif "ng" in params:
        positions = gen_locations_core_scatter(params["ng"], params["nt"], params["tau_gen"], rng)
    else:
        positions, groups = gen_locations_cohesive(params["n_groups"], params["np_max"],
                                                   params["tau_gen"], rng)
    n_points = positions.shape[0]
    optimal_labels: tuple[int, ...] | None = None
    if kind == "2b":
        traffic = gen_traffic_known_optimum(groups, n_points, n_days, hours, rng)
        # The groups are consecutive runs of point ids, in order.
        optimal_labels = tuple(k for k, g in enumerate(groups, start=1) for _ in g)
    elif kind.startswith("1c-"):
        traffic = gen_traffic_patterned(n_points, n_days, kind[3:], rng, hours=hours)
    else:
        traffic = gen_traffic_random(n_points, n_days, hours, rng)

    manifest = DatasetManifest(
        name=name or f"{kind}-seed{seed}",
        kind=kind, n_points=n_points, n_days=n_days, hours=hours,
        distance_metric="euclidean", seed=seed, generator_params=params,
        provenance="generated", optimal_labels=optimal_labels)
    return Dataset(manifest=manifest,
                   point_set=build_distance_matrix(positions, "euclidean"),
                   traffic=traffic)


def regenerate(manifest: DatasetManifest) -> Dataset:
    """Rebuild a generated dataset from its manifest, bit for bit."""
    if manifest.provenance != "generated":
        raise ValueError(f"cannot regenerate a {manifest.provenance!r} dataset")
    return make_dataset(manifest.kind, manifest.seed, n_days=manifest.n_days,
                        name=manifest.name, hours=manifest.hours,
                        **dict(manifest.generator_params))


def save_dataset(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write locations.csv, traffic.csv, and manifest.json under out_dir."""
    for d, day in enumerate(dataset.traffic):  # TrafficDay holds no value below 0
        if (top := float(day.values.max())) > 1.0:
            raise ValueError(f"day {d}: traffic value {top!r} is outside [0, 1]")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pos = dataset.point_set.positions
    with open(out / "locations.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["id", "coord1", "coord2"])
        wr.writerows(zip(range(pos.shape[0]), map(repr, pos[:, 0].tolist()),
                         map(repr, pos[:, 1].tolist())))
    with open(out / "traffic.csv", "w", newline="") as fh:
        fh.write("day,hour,point_id,value\r\n")
        for d, day in enumerate(dataset.traffic):  # hour, then point, as csv.writer writes them
            fh.write("".join([f"{d},{hour},{p},{v!r}\r\n"
                              for hour, row in enumerate(day.values.T.tolist())
                              for p, v in enumerate(row)]))
    (out / "manifest.json").write_text(dataset.manifest.to_json() + "\n")
    return out


def load_dataset(in_dir: str | Path) -> Dataset:
    """Load a dataset directory written by :func:`save_dataset`."""
    d = Path(in_dir)
    try:  # not an object, or a field missing or unknown
        manifest = DatasetManifest.from_json((d / "manifest.json").read_text())
    except (ValueError, TypeError, AttributeError) as e:
        raise ValueError(f"{d / 'manifest.json'}: not a dataset manifest ({e!r})") from None
    point_set, traffic = _read_csvs(d / "locations.csv", d / "traffic.csv",
                                    manifest.distance_metric)
    found = (point_set.n_points, len(traffic), traffic[0].n_hours)
    if found != (manifest.n_points, manifest.n_days, manifest.hours):
        raise ValueError("manifest disagrees with CSV contents")
    return Dataset(manifest=manifest, point_set=point_set, traffic=traffic)


def load_csv_dataset(locations_path: str | Path, traffic_path: str | Path,
                     metric: str = "euclidean", name: str = "csv") -> Dataset:
    """Load bare locations/traffic CSVs (e.g. a real measurement export)."""
    point_set, traffic = _read_csvs(Path(locations_path), Path(traffic_path), metric)
    manifest = DatasetManifest(
        name=name, kind="csv", n_points=point_set.n_points, n_days=len(traffic),
        hours=traffic[0].n_hours, distance_metric=metric, seed=0,
        generator_params={}, provenance="csv", optimal_labels=None)
    return Dataset(manifest=manifest, point_set=point_set, traffic=traffic)


# One row of each input CSV; the field names are its expected header.
_LOCATION_ROW = np.dtype([("id", "i8"), ("coord1", "f8"), ("coord2", "f8")])
_TRAFFIC_ROW = np.dtype([("day", "i8"), ("hour", "i8"), ("point_id", "i8"), ("value", "f8")])


def _read_table(path: Path, row: np.dtype) -> np.ndarray:
    """Check a CSV's header against ``row``'s names; parse its body with one ``np.loadtxt``."""
    with open(path) as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        header = next(csv.reader(fh), None)
        if header != list(row.names):
            raise ValueError(f"{path}: expected header {','.join(row.names)}, got {header}")
        try:
            return _parse_rows(fh, row)
        except ValueError as exc:
            line = _first_unparsable_line(path, row)
            raise ValueError(f"{path}: {exc}" + (f" (line {line})" if line else "")) from exc


def _parse_rows(lines, row: np.dtype) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", dtype=row, ndmin=1, comments=None, quotechar='"')


def _first_unparsable_line(path: Path, row: np.dtype) -> int | None:
    """The physical line number of the first data line that fails to parse on its own.

    ``np.loadtxt``'s own messages count rows from the first line after the
    header and skip blank lines, so they do not name a line of the file.
    """
    with open(path) as fh:
        next(fh)  # the header
        for k, text in enumerate(fh, start=2):
            if text != "\n":  # loadtxt skips blank lines
                try:
                    _parse_rows([text], row)
                except ValueError:
                    return k
    return None


def _read_csvs(locations_path: Path, traffic_path: Path,
               metric: str) -> tuple[PointSet, list[TrafficDay]]:
    loc = _read_table(locations_path, _LOCATION_ROW)
    loc = loc[np.argsort(loc["id"], kind="stable")]
    n = loc.size
    if not np.array_equal(loc["id"], np.arange(n)):
        raise ValueError(f"{locations_path}: point ids must be exactly 0..{n - 1}")
    point_set = build_distance_matrix(np.column_stack([loc["coord1"], loc["coord2"]]), metric)

    rows = _read_table(traffic_path, _TRAFFIC_ROW)
    day, hour, pid, val = (rows[f] for f in _TRAFFIC_ROW.names)
    bad = ~((val >= 0.0) & (val <= 1.0))  # NaN is bad too
    if bad.any():
        i = int(np.argmax(bad))
        with open(traffic_path) as fh:  # row i's line, counting the blank lines loadtxt skips
            line = [k for k, text in enumerate(fh, start=1) if k > 1 and text != "\n"][i]
        raise ValueError(f"{traffic_path} line {line}: value {float(val[i])!r} for day {day[i]}, "
                         f"hour {hour[i]}, point {pid[i]} is outside [0, 1]")
    if not rows.size:
        raise ValueError(f"{traffic_path}: no traffic rows")
    n_days, n_hours = int(day.max()) + 1, int(hour.max()) + 1
    # Allocated first, so a size numpy cannot allocate fails here and every key fits in int64.
    values = np.zeros((n_days, n, n_hours))
    outside = (day < 0) | (hour < 0) | (pid < 0) | (pid >= n)
    key = (day * n_hours + hour) * n + pid
    counts = None if outside.any() else np.bincount(key, minlength=values.size)
    if counts is None or counts.max() > 1:
        # The first row in file order that is out of range or repeats an earlier key.
        inside = np.flatnonzero(~outside)
        order = inside[np.argsort(key[inside], kind="stable")]
        i = np.append(np.flatnonzero(outside), order[1:][key[order[1:]] == key[order[:-1]]]).min()
        if outside[i]:
            raise ValueError(f"{traffic_path}: entry ({day[i]},{hour[i]},{pid[i]}) out of range")
        raise ValueError(f"{traffic_path}: duplicate entry for day {day[i]}, hour {hour[i]}, "
                         f"point {pid[i]}")
    if rows.size < values.size:
        day, hour, pid = np.argwhere(counts.reshape(n_days, n_hours, n) == 0)[0]
        raise ValueError(f"{traffic_path}: missing entry for day {day}, hour {hour}, point {pid}")
    values[day, pid, hour] = val
    return point_set, [TrafficDay(values=v) for v in values]
