"""Day-by-day solvers: the split/copy/rand evolutionary family and a greedy baseline.

All solution construction goes through pairwise feasibility repair, so every
clustering these solvers ever hold satisfies the tau constraint by
construction. Internally individuals are raw 1..K int label arrays; the
public surface wraps them in :class:`~bbuclust.model.Clustering`.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .model import (Clustering, PointSet, ProblemConfig, TrafficDay, _relabel, renumber,
                    within_tau)
from .objective import FitnessValue, cluster_sums, fitness_parts

VARIANTS = ("split", "rand", "copy")

# Called with each label array a solver scores (feasibility instrumentation).
# Every array a solver builds is scored, so the hook sees all of them; an
# array scored again (a carried-over population, greedy's "stay") is seen again.
AuditHook = Callable[[np.ndarray], None]

# Scores one label array on one day's (N, H) traffic and returns its f. An
# optional third argument, the array's (K, H) rows |cluster_sums - 1|, spares
# the kernel recomputing them (see ``fitness_parts``).
Scorer = Callable[..., float]

# A solver's day-by-day search: given the tau neighbour lists, each day's
# (N, H) traffic and the scorer, it yields per day the labels to deploy, the
# search trace and the evaluations charged.
DaySearch = Callable[[Sequence[np.ndarray], list[np.ndarray], Scorer],
                     Iterator[tuple[np.ndarray, list[float], int]]]


@dataclass(frozen=True)
class EaConfig:
    """Evolutionary solver parameters."""

    popsize: int = 10
    maxgen: int = 150
    prob: float = 0.5
    variant: str = "split"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.popsize < 1:
            raise ValueError(f"popsize must be >= 1, got {self.popsize}")
        if self.maxgen < 0:
            raise ValueError(f"maxgen must be >= 0, got {self.maxgen}")
        if not (0.0 <= self.prob <= 1.0):
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


@dataclass(frozen=True)
class DayResult:
    """Outcome of optimizing one day: deployed solution, fitness, search trace."""

    day: int
    best: Clustering
    best_fitness: FitnessValue
    trace: list[float]
    evals_used: int


def _grow(labels: np.ndarray | list[int], nbrs: Sequence[np.ndarray], seed: int,
          picked: Iterable[int], k: int) -> None:
    """Pairwise repair: give seed label k, then each picked point within tau of all added."""
    labels[seed] = k
    common = set(nbrs[seed].tolist())  # the points within tau of every added point
    for c in picked:
        if c in common:
            labels[c] = k
            common.intersection_update(nbrs[c].tolist())


def _joinable(labels: np.ndarray, row: np.ndarray, kx: int, counts: np.ndarray) -> list[int]:
    """Clusters other than kx wholly within ``row``, ascending; counts = bincount(labels)."""
    inside: dict[int, int] = {}
    for k in labels[row].tolist():
        inside[k] = inside.get(k, 0) + 1
    return sorted(k for k, m in inside.items() if k != kx and m == counts[k])


def _move(labels: np.ndarray, x: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """A renumbered copy of labels with point x moved to cluster k, and ``_relabel``'s order."""
    new = labels.copy()
    new[x] = k
    return _relabel(new)


def _child_dev(labels: np.ndarray, dev: np.ndarray, values: np.ndarray, cand: np.ndarray,
               changed: tuple[int, ...], order: np.ndarray | None) -> np.ndarray:
    """The rows ``|cluster_sums(cand, values) - 1|`` of a child of ``labels``.

    ``dev`` holds the rows of ``labels`` (row j for label j + 1, whatever
    order the labels were numbered in), ``changed`` the parent labels whose
    clusters the child regroups and ``order`` the ``_relabel`` order that made
    ``cand``, so child row j is copied from ``dev[order[j] - 1]``. The rows of
    the child clusters holding a point of a changed cluster (at most three,
    one of them new) are then summed again from their members in ascending
    point order from 0.0, the order ``cluster_sums``'s ``bincount`` adds in,
    so every row matches a full recomputation byte for byte. With nothing
    changed, ``dev`` is returned.
    """
    if not changed:
        return dev
    hit = labels == changed[0]
    for c in changed[1:]:
        hit |= labels == c
    sel = np.flatnonzero(hit)
    members: dict[int, list[int]] = {}  # regrouped child label -> its points, ascending
    for p, t in zip(sel.tolist(), cand[sel].tolist()):
        members.setdefault(t, []).append(p)
    out = dev.take(order - 1, axis=0, mode="clip")  # a new cluster's row is clipped
    for t, (first, *rest) in members.items():
        row = values[first] + 0.0
        for p in rest:
            row += values[p]
        row -= 1.0
        out[t - 1] = np.abs(row, out=row)
    return out


def _initial_labels(nbrs: Sequence[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """Grow random feasible clusters until every point is assigned (labels in a list)."""
    labels = [0] * len(nbrs)
    pool = list(range(len(nbrs)))  # the unassigned points, ascending
    k = 0
    while pool:
        r = pool[rng.integers(len(pool))]
        k += 1
        close = [c for c in nbrs[r].tolist() if not labels[c] and c != r]
        num = int(rng.integers(0, len(close) + 1)) if close else 0
        # Drawing positions in close takes the same draws as drawing from close.
        drawn = rng.choice(len(close), size=num, replace=False).tolist() if num else []
        picked = [close[i] for i in drawn]
        _grow(labels, nbrs, r, picked, k)
        for a in [r, *(c for c in picked if labels[c] == k)]:  # the points just assigned
            del pool[bisect_left(pool, a)]
    return np.array(labels, dtype=np.int64)


def _mutate_labels(labels: np.ndarray, nbrs: Sequence[np.ndarray], prob: float,
                   rng: np.random.Generator
                   ) -> tuple[np.ndarray, tuple[int, ...], np.ndarray | None]:
    """Move one point (isolated points preferred) between feasible clusters.

    Returns the child, the parent labels whose clusters it regroups and the
    order of its relabel (see ``_relabel``; None for the unchanged copy).
    The labels are ``(kx, k)`` when x joins cluster k, ``(kx,)`` when x is
    isolated, ``(kx, c)`` when x pulls members of c into a new cluster and
    ``()`` for the unchanged copy, kx being x's cluster.
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
    new = labels.copy()
    # A point with no neighbour can neither join nor pull: it skips both tallies.
    joinable = _joinable(labels, row, kx, counts) if row.size > 1 else []
    # Failing a join: the clusters with at least one member within tau of x.
    adjacent = [] if joinable or row.size == 1 else sorted(set(labels[row].tolist()) - {kx})
    if joinable:
        k = joinable[rng.integers(len(joinable))]
        new[x], changed = k, (kx, k)
    elif adjacent:
        c = adjacent[rng.integers(len(adjacent))]
        cand = row[labels[row] == c]
        num = int(rng.integers(1, cand.size + 1))
        _grow(new, nbrs, x, rng.choice(cand, size=num, replace=False), K + 1)
        changed = (kx, c)
    elif counts[kx] == 1:  # nothing reachable and x already alone: the unchanged copy
        return new, (), None
    else:  # nothing reachable: x is isolated
        new[x], changed = K + 1, (kx,)
    child, order = _relabel(new)
    return child, changed, order


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


def _solve_days(point_set: PointSet, traffic_by_day: Sequence[TrafficDay],
                problem: ProblemConfig, search: DaySearch,
                audit: AuditHook | None) -> list[DayResult]:
    """The day driver both solvers share.

    Checks the traffic against the point set and ``problem.H``, builds
    ``within_tau`` once, runs ``search`` over the days with the one scorer every
    candidate passes through (it calls ``audit`` first, when set) and
    re-scores each day's deployed labels (an uncharged evaluation) into a
    :class:`DayResult`.
    """
    if len(traffic_by_day) == 0:
        raise ValueError("traffic_by_day is empty")
    for t in traffic_by_day:
        if t.n_points != point_set.n_points:
            raise ValueError("traffic and point set disagree on N")
        if t.n_hours != problem.H:
            raise ValueError(f"traffic has {t.n_hours} hours but config.H = {problem.H}")
    values_by_day = [t.values for t in traffic_by_day]

    def score(labels: np.ndarray, values: np.ndarray, dev: np.ndarray | None = None) -> float:
        if audit is not None:
            audit(labels)
        return fitness_parts(labels, values, problem.w, dev)[0]

    days = search(within_tau(point_set, problem.tau), values_by_day, score)
    results: list[DayResult] = []
    for d, (values, (labels, trace, evals)) in enumerate(zip(values_by_day, days)):
        f, K, u_mean = fitness_parts(labels, values, problem.w)
        results.append(DayResult(day=d, best=Clustering(labels.copy()),
                                 best_fitness=FitnessValue(f=f, K=K, u_mean=u_mean),
                                 trace=trace, evals_used=evals))
    return results


def run_ea(point_set: PointSet, traffic_by_day: Sequence[TrafficDay], config: EaConfig,
           problem: ProblemConfig, audit: AuditHook | None = None) -> list[DayResult]:
    """Run the evolutionary solver over consecutive days.

    Each day: evaluate the population on that day's traffic, run
    ``maxgen`` generations of mutate-then-truncate (mu+lambda, stable sort,
    so elitism holds), deploy the best individual, then seed the next day's
    population according to ``config.variant``:

    * ``split``: split one random cluster in every individual,
    * ``copy``:  carry the population over verbatim,
    * ``rand``:  start from a fresh random population.

    Returns one :class:`DayResult` per day; its trace holds the best fitness
    after initial evaluation and after each generation (maxgen + 1 entries),
    and ``evals_used`` is popsize * (maxgen + 1).

    Each individual carries its rows ``|cluster_sums - 1|``; an offspring's
    are built from its parent's (``_child_dev``), so it costs at most three
    recomputed rows, and none for an unchanged copy, instead of the O(N*H)
    kernel, with every ``f`` unchanged bit for bit.
    """
    def search(nbrs, values_by_day, score):
        seeds = np.random.SeedSequence(config.seed).spawn(len(values_by_day) + 1)
        rng = np.random.default_rng(seeds[0])
        labels = [_initial_labels(nbrs, rng) for _ in range(config.popsize)]

        for d, values in enumerate(values_by_day):
            if d:
                # Seed today's population from yesterday's, with yesterday's rng.
                if config.variant == "split":
                    labels = [_split_labels(lab, rng) for lab in labels]
                elif config.variant == "rand":
                    labels = [_initial_labels(nbrs, rng) for _ in range(config.popsize)]
                # "copy": population carries over as-is.
            rng = np.random.default_rng(seeds[d + 1])
            # Individuals are (labels, rows); the rows are summed in full once a
            # day, as the traffic is new, and built from the parent's after that.
            pop = [(lab, np.abs(cluster_sums(lab, values) - 1.0)) for lab in labels]
            fits = np.array([score(lab, values, dev) for lab, dev in pop])
            evals = config.popsize
            order = np.argsort(fits, kind="stable")
            pop = [pop[i] for i in order]
            fits = fits[order]
            trace = [float(fits[0])]

            for _ in range(config.maxgen):
                offspring = []
                for lab, dev in pop:
                    child, changed, order = _mutate_labels(lab, nbrs, config.prob, rng)
                    offspring.append((child, _child_dev(lab, dev, values, child, changed,
                                                        order)))
                off_fits = np.array([score(lab, values, dev) for lab, dev in offspring])
                evals += config.popsize
                merged = pop + offspring
                merged_fits = np.concatenate([fits, off_fits])
                keep = np.argsort(merged_fits, kind="stable")[: config.popsize]
                pop = [merged[i] for i in keep]
                fits = merged_fits[keep]
                del merged, offspring  # the discarded offspring's rows go now
                trace.append(float(fits[0]))
            labels = [lab for lab, _ in pop]
            yield labels[0], trace, evals

    return _solve_days(point_set, traffic_by_day, problem, search, audit)


def run_greedy(point_set: PointSet, traffic_by_day: Sequence[TrafficDay], budget: int,
               problem: ProblemConfig, rng: np.random.Generator,
               checkpoint_every: int = 10,
               audit: AuditHook | None = None) -> list[DayResult]:
    """Greedy point-relocation baseline under an evaluation budget.

    Each day restarts from the all-singleton clustering (its fitness is the
    uncharged first trace entry). Rounds pick a uniform random point and
    evaluate staying put plus every move into a cluster whose members all lie
    within tau, charging one evaluation per candidate; the cheapest candidate
    is committed, ties keeping the current placement. A round that would
    exceed the budget is cut short mid-candidate-list.

    The trace records the committed fitness at every ``checkpoint_every``
    evaluations, so its length is budget // checkpoint_every + 1.

    The committed clustering's rows ``|cluster_sums - 1|`` are kept, and each
    candidate's are built from them (``_child_dev``), so a candidate costs two
    recomputed rows instead of the O(N*H) kernel, with every ``f`` unchanged
    bit for bit.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    n = point_set.n_points

    def search(nbrs, values_by_day, score):
        for values in values_by_day:
            labels = np.arange(1, n + 1, dtype=np.int64)
            dev = np.abs(cluster_sums(labels, values) - 1.0)
            cur_f = score(labels, values, dev)
            trace = [cur_f]
            checkpoint = checkpoint_every
            evals = 0
            while evals < budget:
                x = int(rng.integers(n))
                kx = int(labels[x])
                targets = _joinable(labels, nbrs[x], kx, np.bincount(labels))

                # The first candidate is "stay"; strict < keeps it on ties.
                best_f = score(labels, values, dev)
                best_labels, best_dev = labels, dev
                evals += 1
                for t_label in targets:
                    if evals >= budget:
                        break
                    cand, order = _move(labels, x, t_label)
                    cand_dev = _child_dev(labels, dev, values, cand, (kx, t_label), order)
                    f = score(cand, values, cand_dev)
                    evals += 1
                    if f < best_f:
                        best_f, best_labels, best_dev = f, cand, cand_dev

                # Checkpoints passed mid-round still see the previous commit.
                while checkpoint < evals:
                    trace.append(cur_f)
                    checkpoint += checkpoint_every
                if best_f < cur_f:
                    labels, dev, cur_f = best_labels, best_dev, best_f
                if checkpoint == evals:
                    trace.append(cur_f)
                    checkpoint += checkpoint_every
            yield labels, trace, evals

    return _solve_days(point_set, traffic_by_day, problem, search, audit)
