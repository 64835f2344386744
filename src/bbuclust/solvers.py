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

from .model import Clustering, PointSet, ProblemConfig, TrafficDay, renumber, within_tau
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


def _move_dev(labels: np.ndarray, dev: np.ndarray, values: np.ndarray, x: int,
              k: int) -> tuple[np.ndarray, np.ndarray]:
    """``_move(labels, x, k)`` and its rows ``|cluster_sums(cand, values) - 1|``.

    ``dev`` holds the rows of ``labels`` (row j for label j + 1, whatever
    order the labels were numbered in). Each candidate row is copied from its
    parent row, found through the pre-renumber labels, except the rows of
    k with x and of x's old cluster without x (gone if x was alone). Those two
    are summed again from their members in ascending point order from 0.0,
    the order ``cluster_sums``'s ``bincount`` adds in, so every row matches a
    full recomputation byte for byte.
    """
    cand = _move(labels, x, k)
    parent = np.empty(dev.shape[0] + 1, dtype=np.int64)  # child label -> parent label
    parent[cand] = labels
    parent[cand[x]] = k
    sel = np.flatnonzero((labels == k) | (labels == labels[x]))  # ascending, x included
    kids = cand[sel]
    into_k = kids == cand[x]
    rows = cluster_sums(np.where(into_k, 1, 2), values[sel])
    rows -= 1.0
    np.abs(rows, out=rows)
    # The candidate has K rows, or K - 1 when x left a singleton (one row summed).
    out = dev.take(parent[1:dev.shape[0] + rows.shape[0] - 1] - 1, axis=0)
    out[cand[x] - 1] = rows[0]
    if rows.shape[0] == 2:
        out[kids[np.argmin(into_k)] - 1] = rows[1]
    return cand, out


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
                   rng: np.random.Generator) -> np.ndarray:
    """Move one point (isolated points preferred) between feasible clusters."""
    n = labels.size
    counts = np.bincount(labels)
    K = counts.size - 1
    r = rng.random()
    iso = np.flatnonzero(counts[labels] == 1)
    if r < prob and iso.size:
        x = int(iso[rng.integers(iso.size)])
    else:
        x = int(rng.integers(n))
    kx = int(labels[x])
    row = nbrs[x]

    mut_clusters = _joinable(labels, row, x, counts)
    if mut_clusters.size:
        return _move(labels, x, int(mut_clusters[rng.integers(mut_clusters.size)]))

    # Otherwise: clusters with at least one member within tau of x.
    near = np.bincount(labels[row], minlength=K + 1)
    near[kx] = 0
    adjacent = np.flatnonzero(near[1:] > 0) + 1
    if adjacent.size == 0:
        # Nothing reachable: x ends up isolated (a no-op if it already was).
        if counts[kx] == 1:
            return labels.copy()
        return _move(labels, x, K + 1)

    c = int(adjacent[rng.integers(adjacent.size)])
    cand = row[labels[row] == c]
    num = int(rng.integers(1, cand.size + 1))
    new = labels.copy()
    _grow(new, nbrs, x, rng.choice(cand, size=num, replace=False), K + 1)
    return renumber(new)


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


def initial_pop(nbrs: Sequence[np.ndarray], popsize: int,
                rng: np.random.Generator) -> list[Clustering]:
    """Generate popsize random feasible clusterings (unevaluated).

    ``nbrs`` is the neighbour lists of :func:`~bbuclust.model.within_tau`.
    """
    return [Clustering(_initial_labels(nbrs, rng)) for _ in range(popsize)]


def mutate(parent: Clustering, nbrs: Sequence[np.ndarray], prob: float,
           rng: np.random.Generator) -> Clustering:
    """One feasibility-preserving mutation of a parent clustering.

    ``nbrs`` is the neighbour lists of :func:`~bbuclust.model.within_tau`.
    """
    return Clustering(_mutate_labels(parent.labels, nbrs, prob, rng))


def split_population(population: Sequence[Clustering],
                     rng: np.random.Generator) -> list[Clustering]:
    """Split one random cluster in each individual (next-day diversification)."""
    return [Clustering(_split_labels(ind.labels, rng)) for ind in population]


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
                offspring = [_mutate_labels(lab, nbrs, config.prob, rng) for lab in pop]
                off_fits = np.array([score(lab, values) for lab in offspring])
                evals += config.popsize
                merged = pop + offspring
                merged_fits = np.concatenate([fits, off_fits])
                keep = np.argsort(merged_fits, kind="stable")[: config.popsize]
                pop = [merged[i] for i in keep]
                fits = merged_fits[keep]
                trace.append(float(fits[0]))
            yield pop[0], trace, evals

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
    candidate's are built from them (``_move_dev``), so a candidate costs two
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
                targets = _joinable(labels, nbrs[x], x, np.bincount(labels))

                # The first candidate is "stay"; strict < keeps it on ties.
                best_f = score(labels, values, dev)
                best_labels, best_dev = labels, dev
                evals += 1
                for t_label in targets:
                    if evals >= budget:
                        break
                    cand, cand_dev = _move_dev(labels, dev, values, x, t_label)
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
