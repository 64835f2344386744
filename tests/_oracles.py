"""Reference implementations used only as test oracles.

These deliberately avoid numpy vectorization so they share no code path with
the library: everything is nested loops over Python lists. The exceptions are
kept verbatim from earlier versions of the library, as the references their
replacements must reproduce exactly: ``dense_distance``, the former dense
N x N distance matrix, ``reference_read_csvs``, the former row-by-row CSV
reader, ``reference_save_dataset``, the former row-by-row CSV writer, and
``reference_run_ea``, the former EA loop that scores every individual with
the full fitness kernel, and the candidate operators ``_initial_labels``,
``_grow``, ``_joinable``, ``_move``, ``_mutate_labels`` and ``_split_labels``
as they were before they were rewritten without changing a draw or a label.
"""
from __future__ import annotations

import csv
import math
from bisect import bisect_left
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from bbuclust import solvers
from bbuclust.model import PointSet, TrafficDay, build_distance_matrix, renumber

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



def reference_read_csvs(locations_path: Path, traffic_path: Path,
                        metric: str) -> tuple[PointSet, list[TrafficDay]]:
    """The row-by-row reader ``datasets._read_csvs`` must reproduce, kept verbatim."""
    with open(locations_path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header != ["id", "coord1", "coord2"]:
            raise ValueError(f"{locations_path}: expected header id,coord1,coord2, got {header}")
        rows = [(int(r[0]), float(r[1]), float(r[2])) for r in rd]
    rows.sort(key=lambda r: r[0])
    n = len(rows)
    if [r[0] for r in rows] != list(range(n)):
        raise ValueError(f"{locations_path}: point ids must be exactly 0..{n - 1}")
    positions = np.array([[r[1], r[2]] for r in rows])
    point_set = build_distance_matrix(positions, metric)

    with open(traffic_path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header != ["day", "hour", "point_id", "value"]:
            raise ValueError(f"{traffic_path}: expected header day,hour,point_id,value, got {header}")
        entries = []
        for lineno, r in enumerate(rd, start=2):
            day, hour, pid, val = int(r[0]), int(r[1]), int(r[2]), float(r[3])
            if not (0.0 <= val <= 1.0):
                raise ValueError(
                    f"{traffic_path} line {lineno}: value {val!r} for day {day}, hour {hour}, "
                    f"point {pid} is outside [0, 1]")
            entries.append((day, hour, pid, val))
    if not entries:
        raise ValueError(f"{traffic_path}: no traffic rows")
    n_days = max(e[0] for e in entries) + 1
    n_hours = max(e[1] for e in entries) + 1
    seen = np.zeros((n_days, n_hours, n), dtype=bool)
    values = np.zeros((n_days, n, n_hours))
    for day, hour, pid, val in entries:
        if not (0 <= day < n_days and 0 <= hour < n_hours and 0 <= pid < n):
            raise ValueError(f"{traffic_path}: entry ({day},{hour},{pid}) out of range")
        if seen[day, hour, pid]:
            raise ValueError(f"{traffic_path}: duplicate entry for day {day}, hour {hour}, point {pid}")
        seen[day, hour, pid] = True
        values[day, pid, hour] = val
    if not seen.all():
        day, hour, pid = np.argwhere(~seen)[0]
        raise ValueError(f"{traffic_path}: missing entry for day {day}, hour {hour}, point {pid}")
    traffic = [TrafficDay(values=values[d], day_index=d) for d in range(n_days)]
    return point_set, traffic


def reference_save_dataset(dataset, out_dir) -> Path:
    """The row-by-row writer ``datasets.save_dataset`` must reproduce, kept verbatim."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pos = dataset.point_set.positions
    with open(out / "locations.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["id", "coord1", "coord2"])
        for i in range(pos.shape[0]):
            wr.writerow([i, repr(float(pos[i, 0])), repr(float(pos[i, 1]))])
    with open(out / "traffic.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["day", "hour", "point_id", "value"])
        for day in dataset.traffic:
            v = day.values
            for h in range(v.shape[1]):
                for p in range(v.shape[0]):
                    wr.writerow([day.day_index, h, p, repr(float(v[p, h]))])
    (out / "manifest.json").write_text(dataset.manifest.to_json() + "\n")
    return out


def _grow(labels: np.ndarray, nbrs: Sequence[np.ndarray], seed: int, picked: Iterable[int],
          k: int) -> None:
    """Pairwise repair: give seed label k, then each picked point within tau of all added."""
    labels[seed] = k
    common = set(nbrs[seed].tolist())  # the points within tau of every added point
    for c in picked:
        if c in common:
            labels[c] = k
            common.intersection_update(nbrs[c].tolist())


def _joinable(labels: np.ndarray, row: np.ndarray, x: int, counts: np.ndarray) -> np.ndarray:
    """Clusters other than x's wholly within tau of x; counts = bincount(labels)."""
    inside = np.bincount(labels[row], minlength=counts.size)
    full = np.flatnonzero(inside[1:] == counts[1:]) + 1
    return full[full != labels[x]]


def _move(labels: np.ndarray, x: int, k: int) -> np.ndarray:
    """A renumbered copy of labels with point x moved to cluster k."""
    new = labels.copy()
    new[x] = k
    return renumber(new)


def _initial_labels(nbrs: Sequence[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """Grow random feasible clusters until every point is assigned."""
    labels = np.zeros(len(nbrs), dtype=np.int64)
    pool = list(range(len(nbrs)))  # the unassigned points, ascending
    k = 0
    while pool:
        r = pool[rng.integers(len(pool))]
        k += 1
        row = nbrs[r]
        close = row[(labels[row] == 0) & (row != r)]
        num = int(rng.integers(0, close.size + 1)) if close.size else 0
        picked = rng.choice(close, size=num, replace=False).tolist() if num else []
        _grow(labels, nbrs, r, picked, k)
        for a in [r, *(c for c in picked if labels[c] == k)]:  # the points just assigned
            del pool[bisect_left(pool, a)]
    return labels


def _mutate_labels(labels: np.ndarray, nbrs: Sequence[np.ndarray], prob: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, tuple[int, ...]]:
    """Move one point (isolated points preferred) between feasible clusters.

    Returns the child and the parent labels whose clusters it regroups:
    ``(kx, k)`` when x joins cluster k, ``(kx,)`` when x is isolated,
    ``(kx, c)`` when x pulls members of c into a new cluster and ``()`` for
    the unchanged copy, kx being x's cluster.
    """
    n = labels.size
    counts = np.bincount(labels)
    K = counts.size - 1
    if rng.random() < prob and (iso := np.flatnonzero(counts[labels] == 1)).size:
        x = int(iso[rng.integers(iso.size)])
    else:
        x = int(rng.integers(n))
    kx = int(labels[x])
    row = nbrs[x]

    mut_clusters = _joinable(labels, row, x, counts)
    if mut_clusters.size:
        k = int(mut_clusters[rng.integers(mut_clusters.size)])
        return _move(labels, x, k), (kx, k)

    # Otherwise: clusters with at least one member within tau of x.
    near = np.bincount(labels[row], minlength=K + 1)
    near[kx] = 0
    adjacent = np.flatnonzero(near[1:] > 0) + 1
    if adjacent.size == 0:
        # Nothing reachable: x ends up isolated (a no-op if it already was).
        if counts[kx] == 1:
            return labels.copy(), ()
        return _move(labels, x, K + 1), (kx,)

    c = int(adjacent[rng.integers(adjacent.size)])
    cand = row[labels[row] == c]
    num = int(rng.integers(1, cand.size + 1))
    new = labels.copy()
    _grow(new, nbrs, x, rng.choice(cand, size=num, replace=False), K + 1)
    return renumber(new), (kx, c)


def _split_labels(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Split a random multi-member cluster; all-singleton solutions pass through."""
    counts = np.bincount(labels)
    multi = np.flatnonzero(counts[1:] > 1) + 1
    if multi.size == 0:
        return labels.copy()
    c = int(multi[rng.integers(multi.size)])
    mem = np.flatnonzero(labels == c)
    nsplit = int(rng.integers(1, mem.size // 2 + 1))
    picked = rng.choice(mem, size=nsplit, replace=False)
    new = labels.copy()
    new[picked] = counts.size
    return renumber(new)


def reference_run_ea(point_set, traffic_by_day, config, problem):
    """The full-kernel EA loop ``solvers.run_ea`` must reproduce, kept verbatim
    except that it seeds, mutates and splits through the frozen operators above, so
    drift in the live ones shows here too.
    """
    def search(nbrs, values_by_day, score):
        seeds = np.random.SeedSequence(config.seed).spawn(len(values_by_day) + 1)
        rng = np.random.default_rng(seeds[0])
        pop = [_initial_labels(nbrs, rng) for _ in range(config.popsize)]

        for d, values in enumerate(values_by_day):
            if d:
                # Seed today's population from yesterday's, with yesterday's rng.
                if config.variant == "split":
                    pop = [_split_labels(lab, rng) for lab in pop]
                elif config.variant == "rand":
                    pop = [_initial_labels(nbrs, rng) for _ in range(config.popsize)]
                # "copy": population carries over as-is.
            rng = np.random.default_rng(seeds[d + 1])
            fits = np.array([score(lab, values) for lab in pop])
            evals = config.popsize
            order = np.argsort(fits, kind="stable")
            pop = [pop[i] for i in order]
            fits = fits[order]
            trace = [float(fits[0])]

            for _ in range(config.maxgen):
                offspring = [_mutate_labels(lab, nbrs, config.prob, rng)[0]
                             for lab in pop]
                off_fits = np.array([score(lab, values) for lab in offspring])
                evals += config.popsize
                merged = pop + offspring
                merged_fits = np.concatenate([fits, off_fits])
                keep = np.argsort(merged_fits, kind="stable")[: config.popsize]
                pop = [merged[i] for i in keep]
                fits = merged_fits[keep]
                trace.append(float(fits[0]))
            yield pop[0], trace, evals

    return solvers._solve_days(point_set, traffic_by_day, problem, search, None)


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
