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


def _pick(rng: np.random.Generator, items: Sequence, num: int) -> list:
    """``rng.choice(items, size=num, replace=False)`` as a list, with the same draws:
    one item is one bounded draw, as Floyd's sampling takes one step and the shuffle none."""
    if num == 1:
        return [items[rng.integers(len(items))]]
    return [items[i] for i in rng.choice(len(items), size=num, replace=False).tolist()]


def _grow(labels: np.ndarray | list[int], rows: Sequence[list[int]], seed: int,
          picked: Iterable[int], k: int) -> list[int]:
    """Pairwise repair: label seed k, then each picked point within tau of all added (returned)."""
    labels[seed] = k
    common = set(rows[seed])  # the points within tau of every added point
    for c in picked:
        if c in common:
            labels[c] = k
            common.intersection_update(rows[c])
    return [c for c in picked if labels[c] == k]  # no picked point had label k before


def _joinable(labels: np.ndarray, row: np.ndarray, kx: int, counts: np.ndarray
              ) -> tuple[list[int], dict[int, list[int]]]:
    """Clusters other than kx wholly within ``row``, ascending (counts =
    bincount(labels)), and the points of ``row`` by label, each ascending."""
    inside: dict[int, list[int]] = {}
    for p, k in zip(row.tolist(), labels[row].tolist()):
        inside.setdefault(k, []).append(p)
    return sorted(k for k, mem in inside.items() if k != kx and len(mem) == counts[k]), inside


def _join(labels: np.ndarray, x: int, k: int, inside: dict[int, list[int]]
          ) -> tuple[np.ndarray, list[tuple]]:
    """``labels`` with x moved into cluster k, and its regrouping; ``inside`` is x's row."""
    new = labels.copy()
    kx, new[x] = int(labels[x]), k
    mx, mk = inside[kx], inside[k]
    return new, [(kx, [p for p in mx if p != x], mx[0]), (k, sorted([*mk, x]), mk[0])]


def _regroup(labels: np.ndarray, dev: np.ndarray, values: np.ndarray, new: np.ndarray,
             groups: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """``renumber(new)`` and its rows ``|cluster_sums - 1|``, built from the parent's.

    ``labels`` (in first-appearance order, rows ``dev``) becomes ``new`` by
    regrouping ``groups``: (label in ``new``, K + 1 if new; members, ascending;
    first member in ``labels`` or -1). The other clusters keep their order, rows
    copied and labels shifted in blocks. A cluster now starting at p follows the
    ``labels[:p].max()`` clusters that started before p (r - 1 if cluster r keeps
    its first member); its row is summed in point order, as ``bincount`` adds but
    from the first member, not 0.0, which only flips a zero sum's sign (lost in |S - 1|).
    """
    K, n = dev.shape[0], labels.size
    # (parent rows before it, tie break, parent rows consumed, label, members): each
    # regrouped parent cluster drops its row, the last event copies the rows left.
    events = [(r - 1, n, r, r, []) for r, _, _ in groups if r <= K] + [(K, n, K, 0, [])]
    for r, mem, first in groups:
        if mem:
            m = r - 1 if mem[0] == first else int(labels[:mem[0]].max()) if mem[0] else 0
            events.append((m, mem[0], m, r, mem))
    pieces, blocks, placed, lo, size = [], [], [], 0, 0  # blocks: (row, end row, shift)
    for start, _, end, r, mem in sorted(events):
        if lo < start:
            pieces.append(dev[lo:start])
            blocks.append((lo, start, size - lo))
            size += start - lo
        lo = end
        if mem:
            row = (values[mem[0]:mem[0] + 1] if len(mem) == 1 else
                   np.add.accumulate(values.take(mem, axis=0), axis=0)[-1:]) - 1.0
            pieces.append(np.abs(row, out=row))
            size += 1
            placed.append((r, size))
    blocks = [(a, b, shift) for a, b, shift in blocks if shift]
    if not blocks and all(r == lab for r, lab in placed):
        return new, np.concatenate(pieces)
    rank = np.arange(K + 2)
    for a, b, shift in blocks:
        rank[a + 1:b + 1] += shift
    for r, lab in placed:
        rank[r] = lab
    return rank[new], np.concatenate(pieces)


def _initial_labels(rows: Sequence[list[int]], rng: np.random.Generator) -> np.ndarray:
    """Grow random feasible clusters until every point is assigned."""
    labels = [0] * len(rows)
    pool = list(range(len(rows)))  # the unassigned points, ascending
    k = 0
    while pool:
        r = pool.pop(rng.integers(len(pool)))
        k += 1
        labels[r] = k
        close = [c for c in rows[r] if not labels[c]]
        if num := int(rng.integers(0, len(close) + 1)) if close else 0:
            for a in _grow(labels, rows, r, _pick(rng, close, num), k):
                del pool[bisect_left(pool, a)]
    return np.array(labels, dtype=np.int64)


def _mutate_labels(labels: np.ndarray, nbrs: Sequence[np.ndarray], rows: Sequence[list[int]],
                   prob: float, rng: np.random.Generator) -> tuple[np.ndarray, list[tuple]]:
    """Move one point x (isolated points preferred) between feasible clusters.

    Returns the child before renumbering (a new cluster is K + 1) and the
    clusters it regroups for ``_regroup``: none for the unchanged copy, else
    x's own, then the one x joins, or the one x pulls from and the new one.
    """
    counts = np.bincount(labels)  # its length, K + 1, is a new cluster's label
    if rng.random() < prob and (iso := np.flatnonzero(counts[labels] == 1)).size:
        x = int(iso[rng.integers(iso.size)])
    else:
        x = int(rng.integers(labels.size))
    kx = int(labels[x])
    joinable, inside = _joinable(labels, nbrs[x], kx, counts)
    if joinable:
        return _join(labels, x, joinable[rng.integers(len(joinable))], inside)
    new, mx = labels.copy(), inside[kx]
    rest = (kx, [p for p in mx if p != x], mx[0])
    # Failing a join: the clusters with at least one member within tau of x.
    if adjacent := sorted(k for k in inside if k != kx):
        c = adjacent[rng.integers(len(adjacent))]
        num = int(rng.integers(1, len(inside[c]) + 1))
        pulled = _grow(new, rows, x, _pick(rng, inside[c], num), counts.size)
        mc = np.flatnonzero(labels == c).tolist()  # c is not wholly within the row
        return new, [rest, (c, [p for p in mc if p not in pulled], mc[0]),
                     (counts.size, sorted([x, *pulled]), -1)]
    if len(mx) == 1:  # nothing reachable and x already alone: the unchanged copy
        return new, []
    new[x] = counts.size  # nothing reachable: x is isolated
    return new, [rest, (counts.size, [x], -1)]


def _split_labels(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Split a random multi-member cluster; all-singleton solutions pass through."""
    counts = np.bincount(labels)
    multi = np.flatnonzero(counts[1:] > 1) + 1
    if multi.size == 0:
        return labels.copy()
    c = int(multi[rng.integers(multi.size)])
    mem = np.flatnonzero(labels == c)
    nsplit = int(rng.integers(1, mem.size // 2 + 1))
    picked = _pick(rng, mem, nsplit)
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
    are built from its parent's (``_regroup``), at most three summed again,
    except a seed individual's, which is renumbered and summed in full.
    """
    def search(nbrs, values_by_day, score):
        seeds = np.random.SeedSequence(config.seed).spawn(len(values_by_day) + 1)
        rng = np.random.default_rng(seeds[0])
        rows = [row.tolist() for row in nbrs]
        labels = [_initial_labels(rows, rng) for _ in range(config.popsize)]

        for d, values in enumerate(values_by_day):
            if d:
                # Seed today's population from yesterday's, with yesterday's rng.
                if config.variant == "split":
                    labels = [_split_labels(lab, rng) for lab in labels]
                elif config.variant == "rand":
                    labels = [_initial_labels(rows, rng) for _ in range(config.popsize)]
                # "copy": population carries over as-is.
            rng = np.random.default_rng(seeds[d + 1])
            # (labels, rows summed in full once a day, labels in first-appearance order)
            pop = [(lab, np.abs(cluster_sums(lab, values) - 1.0),
                    np.diff(np.maximum.accumulate(lab), prepend=0).max() <= 1)
                   for lab in labels]
            fits = np.array([score(lab, values, dev) for lab, dev, _ in pop])
            evals = config.popsize
            order = np.argsort(fits, kind="stable")
            pop = [pop[i] for i in order]
            fits = fits[order]
            trace = [float(fits[0])]

            for _ in range(config.maxgen):
                offspring = []
                for lab, dev, canon in pop:
                    new, groups = _mutate_labels(lab, nbrs, rows, config.prob, rng)
                    if not groups:
                        offspring.append((new, dev, canon))
                    elif canon:
                        offspring.append((*_regroup(lab, dev, values, new, groups), True))
                    else:  # a seed individual's child: renumbered and summed in full
                        new = renumber(new)
                        offspring.append((new, np.abs(cluster_sums(new, values) - 1.0), True))
                off_fits = np.array([score(lab, values, dev) for lab, dev, _ in offspring])
                evals += config.popsize
                merged = pop + offspring
                merged_fits = np.concatenate([fits, off_fits])
                keep = np.argsort(merged_fits, kind="stable")[: config.popsize]
                pop = [merged[i] for i in keep]
                fits = merged_fits[keep]
                del merged, offspring  # the discarded offspring's rows go now
                trace.append(float(fits[0]))
            labels = [lab for lab, *_ in pop]
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

    Each candidate is built from the committed labels and rows
    ``|cluster_sums - 1|`` (``_regroup``), two rows summed again.
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
                targets, inside = _joinable(labels, nbrs[x], int(labels[x]), np.bincount(labels))

                # The first candidate is "stay"; strict < keeps it on ties.
                best_f = score(labels, values, dev)
                best_labels, best_dev = labels, dev
                evals += 1
                for t_label in targets:
                    if evals >= budget:
                        break
                    cand, cand_dev = _regroup(labels, dev, values,
                                              *_join(labels, x, t_label, inside))
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
