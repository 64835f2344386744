"""Day-by-day solvers: the split/copy/rand evolutionary family and a greedy baseline.

All solution construction goes through pairwise feasibility repair, so every
clustering these solvers ever hold satisfies the tau constraint by
construction. Internally the labels need not be 1..K: each candidate is held
with its clusters' deviation totals and scored from their exact sum (see
``fitness_parts``). The audit hook and the public surface get 1..K labels, the
latter wrapped in :class:`~bbuclust.model.Clustering`.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import (Clustering, PointSet, ProblemConfig, TrafficDay, _integer, _real,
                    renumber, within_tau)
from .objective import FitnessValue, _exact_sum, cluster_sums, exact, fitness_parts

VARIANTS = ("split", "rand", "copy")

# Values per block of ``_initial_labels``' pool of unassigned points (chosen by timing).
_BLOCK = 4096

# Called with each label array a solver scores (feasibility instrumentation).
# Every array a solver builds is scored, so the hook sees all of them; an
# array scored again (a carried-over population, greedy's "stay") is seen again.
AuditHook = Callable[[np.ndarray], None]

# Scores labels (given a total, any int64 buffer, as the solvers hold them in an
# ``array('q')``) on one day's (N, H) traffic from their exact total (K, R), or densely
# given None (see ``fitness_parts``); the audit sees the last argument, else the labels
# ``renumber``ed.
Scorer = Callable[[Sequence[int], np.ndarray, tuple[int, int] | None, np.ndarray | None], float]

# A solver's day-by-day search: given the tau neighbour rows (tuples), each day's (N, H)
# traffic and the scorer, it yields per day the labels to deploy, the search trace and
# the evaluations charged.
DaySearch = Callable[[Sequence[Sequence[int]], list[np.ndarray], Scorer],
                     Iterator[tuple[np.ndarray, list[float], int]]]

# The last point set solved (held, so no other object can take its identity), its tau
# and its rows as tuples; ``_solve_days`` reads it once per solve.
_last: tuple = (None, None, ())


@dataclass(frozen=True)
class EaConfig:
    """Evolutionary solver parameters."""

    popsize: int = 10
    maxgen: int = 150
    prob: float = 0.5
    variant: str = "split"
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("popsize", 1), ("maxgen", 0), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        if not (0.0 <= _real("prob", self.prob) <= 1.0):
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


class _Draws:
    """The solvers' own uniform draws, from ``rng``'s raw 64-bit words fetched 512 at a time
    (MT19937's 32-bit words paired, high word first; ``rng`` advances by whole blocks):
    ``integers(b)`` in [0, b), 1 <= b <= 2**64, by Lemire's method; ``random()`` from the top
    53 bits; ``choice(n, size, replace=False)`` by a partial Fisher-Yates shuffle."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self._words = rng, []  # the block's unused words, next last
        self._pair = isinstance(rng.bit_generator, np.random.MT19937)

    def _word(self) -> int:
        if not self._words:
            raw = self.rng.bit_generator.random_raw(1024 if self._pair else 512)
            self._words = (raw[0::2] << 32 | raw[1::2] if self._pair else raw)[::-1].tolist()
        return self._words.pop()

    def integers(self, b: int) -> int:
        while True:
            m = self._word() * b
            if (low := m & 0xFFFFFFFFFFFFFFFF) >= b or low >= (1 << 64) % b:
                return m >> 64

    def random(self) -> float:
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)

    def choice(self, n: int, size: int, replace: bool = False) -> list[int]:
        """``size`` distinct values of range(n) (without replacement only)."""
        out, moved = [], {}  # moved[j]: the value now at position j, if not j
        for i in range(size):
            j = i + self.integers(n - i)
            out.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return out


def _repair(rows: Sequence[Sequence[int]], r: int, close: Sequence[int], num: int,
            rng: np.random.Generator) -> list[int]:
    """Pairwise repair: of ``num`` points of ``close`` (each within tau of r), drawn as
    ``rng.choice(len(close), num, replace=False)`` draws them, those within tau of every
    point kept before (one point: the one bounded draw that ``choice`` takes)."""
    if num == 1:
        return [close[rng.integers(len(close))]]
    common, kept = set(rows[r]), []  # the points within tau of every kept point
    for j in rng.choice(len(close), num, replace=False):
        if (c := close[j]) in common:
            kept.append(c)
            common.intersection_update(rows[c])
    return kept


def _joinable(labels: Sequence[int], row: Sequence[int], x: int, counts: Sequence[int]
              ) -> tuple[int, list[int], list[int], dict[int, list[int]]]:
    """x's cluster kx, x's cluster-mates (all in x's row ``row``: kx is feasible), the other
    clusters wholly within ``row`` by first point (counts[k]: k's size), ``row`` by label."""
    inside: dict[int, list[int]] = {}
    for p in row:
        inside.setdefault(labels[p], []).append(p)
    kx = labels[x]
    return (kx, [p for p in inside[kx] if p != x],
            [k for k, mem in inside.items() if k != kx and len(mem) == counts[k]], inside)


def _summed(values: np.ndarray, mem: list[int]) -> float:
    """``r`` of the points ``mem`` (ascending): ``np.add.reduce`` of ``|S - 1|``, S summed in
    point order as ``bincount`` adds (from ``mem[0]``, not 0.0: a zero's sign is lost in abs)."""
    a = mem[0]
    row = (values[a] if len(mem) == 1 else values[a] + values[mem[1]] if len(mem) == 2
           else np.add.accumulate(values.take(mem, axis=0), axis=0)[-1]) - 1.0
    return float(np.add.reduce(np.abs(row, out=row)))


def _moved(values: np.ndarray, r: Sequence[float], total: tuple[int, int], gone: list[int],
           made: list[list[int]], seen: dict[tuple[int, ...], tuple[float, int]]
           ) -> tuple[list[float], tuple[int, int]]:
    """Clusters ``gone`` (labels into ``r``) of a clustering with total (K, R) become ``made``
    (each its points, ascending): their ``r`` and the new total, R moved by exact values.
    ``seen``, the day's memo, maps a cluster's points (a tuple) to its ``r`` and ``exact``
    int: ``r`` depends on the member set alone, so a hit has ``_summed``'s bits."""
    K, R = total
    rs = []
    for mem in made:
        if (hit := seen.get(key := tuple(mem))) is None:
            rk = _summed(values, mem)
            hit = seen[key] = rk, exact(rk)
        rs.append(hit[0])
        R += hit[1]
    for k in gone:
        R -= exact(r[k])
    return rs, (K + len(made) - len(gone), R)


def _held(labels: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """``labels`` (1..K) with each cluster labelled 1 + its first point, as solvers hold them,
    the clusters' ``r`` by those labels (summed in full) and their exact total (K, R)."""
    _, first = np.unique(labels, return_index=True)
    dev = cluster_sums(labels, values)
    dev -= 1.0
    rk = np.add.reduce(np.abs(dev, out=dev), axis=1)
    r = np.zeros(labels.size + 1)
    r[first + 1] = rk
    return (first + 1)[labels - 1], r, (first.size, _exact_sum(rk))


def _initial_labels(rows: Sequence[Sequence[int]], rng: np.random.Generator) -> np.ndarray:
    """Grow random feasible clusters until every point is assigned (``_repair``), the
    unassigned points in ascending blocks of ``_BLOCK`` values, so that finding the drawn
    r-th point or deleting a grown one moves few pointers."""
    labels, n, k = [0] * len(rows), len(rows), 0
    pool = [list(range(a, min(a + _BLOCK, n))) for a in range(0, n, _BLOCK)]
    while n:
        i = rng.integers(n)
        for block in pool:
            if i < len(block):
                break
            i -= len(block)
        r = block.pop(i)
        k, n = k + 1, n - 1
        labels[r] = k
        close = [c for c in rows[r] if not labels[c]]
        num = rng.integers(len(close) + 1) if close else 0
        if not num:
            continue
        picked = _repair(rows, r, close, num, rng)
        for c in picked:
            labels[c] = k
            block = pool[c // _BLOCK]
            del block[bisect_left(block, c)]
        n -= len(picked)
    return np.array(labels, dtype=np.int64)


def _mutate_labels(labels: array, rows: Sequence[Sequence[int]], prob: float,
                   rng: np.random.Generator, memo: list | None = None,
                   order: np.ndarray | None = None) -> tuple[array, list[int], list[list[int]]]:
    """Move one point x (isolated points preferred) between feasible clusters.

    ``labels`` (an ``array('q')``) label each cluster 1 + its first point
    (``_held``); the draws take clusters in label order, or in that of
    ``order``, the same clusters numbered another way (a seed individual's, as
    it grew). Returns the child, labelled alike, the parent labels of the
    clusters it changes (x's, then the one x joins or pulls from) and the
    child's new clusters, each its points ascending; the unchanged copy is
    ``labels``, changing none. ``memo`` is ``labels``' own cache, empty at
    first: this fills it with their ``bincount`` and, once drawn from, the
    singleton clusters' points (p is alone exactly when ``counts[p + 1] == 1``).
    """
    memo = [] if memo is None else memo
    if not memo:
        memo.append(np.bincount(np.frombuffer(labels, np.int64)))
    counts, iso = memo[0], ()
    if rng.random() < prob:
        if len(memo) == 1:
            memo.append(np.flatnonzero(counts[1:] == 1))
        iso = memo[1]
    x = int(iso[rng.integers(len(iso))] if len(iso) else rng.integers(len(labels)))
    if len(rows[x]) == 1:  # no point within tau of x, which is alone: the unchanged copy
        return labels, [], []
    kx, mates, joinable, inside = _joinable(labels, rows[x], x, counts)
    rank = None if order is None else (lambda k: order[inside[k][0]])
    joinable.sort(key=rank)
    made = [mates] if mates else []
    if joinable:
        k = joinable[rng.integers(len(joinable))]
        gone = [kx, k]
        made.append(sorted([*inside[k], x]))
    # Failing a join: the clusters with at least one member within tau of x.
    elif adjacent := sorted((k for k in inside if k != kx), key=rank):
        c = adjacent[rng.integers(len(adjacent))]
        num = 1 + int(rng.integers(len(inside[c])))
        pulled = _repair(rows, x, inside[c], num, rng)
        gone = [kx, c]  # c is not wholly within the row, so some of it stays
        made += [[p for p in np.flatnonzero(np.frombuffer(labels, np.int64) == c).tolist()
                  if p not in pulled], sorted([x, *pulled])]
    else:  # only its own cluster's points in reach: x is isolated
        gone = [kx]
        made.append([x])
    child = labels[:]
    for mem in made:
        for p in mem:
            child[p] = mem[0] + 1
    return child, gone, made


def _split_labels(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Split a random multi-member cluster; all-singleton solutions pass through."""
    counts = np.bincount(labels)
    multi = np.flatnonzero(counts[1:] > 1) + 1
    if multi.size == 0:
        return labels.copy()
    c = int(multi[rng.integers(multi.size)])
    mem = np.flatnonzero(labels == c)
    nsplit = 1 + int(rng.integers(mem.size // 2))
    new = labels.copy()
    new[mem[rng.choice(mem.size, nsplit, replace=False)]] = counts.size
    return renumber(new)


def _solve_days(point_set: PointSet, traffic_by_day: Sequence[TrafficDay],
                problem: ProblemConfig, search: DaySearch,
                audit: AuditHook | None) -> list[DayResult]:
    """The day driver both solvers share.

    Checks the traffic against the point set and ``problem.H``, takes the
    ``within_tau`` rows, as tuples, from ``_last`` (built by the first solve on
    a point set and tau alone), runs ``search`` over the days with the one scorer every
    candidate passes through (it calls ``audit`` first, when set) and
    re-scores each day's deployed labels with the dense ``fitness_parts`` (an
    uncharged evaluation) into a :class:`DayResult`.
    """
    global _last
    if len(traffic_by_day) == 0:
        raise ValueError("traffic_by_day is empty")
    for t in traffic_by_day:
        if t.n_points != point_set.n_points:
            raise ValueError("traffic and point set disagree on N")
        if t.n_hours != problem.H:
            raise ValueError(f"traffic has {t.n_hours} hours but config.H = {problem.H}")
    values_by_day = [t.values for t in traffic_by_day]

    def score(labels: np.ndarray, values: np.ndarray, total: tuple[int, int] | None,
              shown: np.ndarray | None = None) -> float:
        if audit is not None:
            audit(renumber(labels) if shown is None else shown)
        return fitness_parts(labels, values, problem.w, total)[0]

    if (memo := _last)[0] is not point_set or memo[1] != problem.tau:
        rows = tuple(tuple(row.tolist()) for row in within_tau(point_set, problem.tau))
        _last = memo = point_set, problem.tau, rows
    days = search(memo[2], values_by_day, score)
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

    An individual holds its labels as ``_held`` gives them in an
    ``array('q')``, each cluster's ``r`` in an ``array('d')`` and the exact
    total (K, R). An offspring copies its parent's ``r`` and scores its at
    most three new clusters (``_moved``), so its f equals the dense
    ``fitness_parts`` of its labels exactly; the day's memo ``seen`` sums
    each distinct new cluster once (at most 3 * popsize * maxgen entries,
    freed with the day). The unchanged copy shares its parent's entry and
    ``_mutate_labels``' memo. A day's own population also keeps its labels
    as given, which the audit sees and its offspring's draws follow;
    offspring are audited and deployed renumbered.
    """
    def search(rows, values_by_day, score):
        seeds = np.random.SeedSequence(config.seed).spawn(len(values_by_day) + 1)
        rng = _Draws(np.random.default_rng(seeds[0]))
        for d, values in enumerate(values_by_day):
            # Today's population, by yesterday's rng (day 0: seeds[0]'s); "copy" keeps it.
            if not d or config.variant == "rand":
                labels = [_initial_labels(rows, rng) for _ in range(config.popsize)]
            elif config.variant == "split":
                labels = [_split_labels(lab, rng) for lab in labels]
            rng = _Draws(np.random.default_rng(seeds[d + 1]))
            # (f, labels, r, (K, R), _mutate_labels' memo, the labels as given or None)
            pop = []
            for given in labels:
                lab, r, total = _held(given, values)
                lab, r = array("q", lab.tobytes()), array("d", r.tobytes())
                pop.append((score(lab, values, total, given), lab, r, total, [], given))
            pop.sort(key=itemgetter(0))
            trace, seen = [pop[0][0]], {}  # seen: the day's memo for _moved

            for _ in range(config.maxgen):
                offspring = []
                for entry in pop:
                    _, lab, r, total, memo, given = entry
                    child, gone, made = _mutate_labels(lab, rows, config.prob, rng, memo, given)
                    if not made:  # the unchanged copy: its parent's entry, scored again
                        offspring.append((score(lab, values, total, given), *entry[1:]))
                        continue
                    rs, total = _moved(values, r, total, gone, made, seen)
                    r = r[:]
                    for mem, rk in zip(made, rs):
                        r[mem[0] + 1] = rk
                    offspring.append((score(child, values, total), child, r, total, [], None))
                pop = sorted(pop + offspring, key=itemgetter(0))[:config.popsize]
                trace.append(pop[0][0])
            labels = [renumber(lab) if given is None else given for _, lab, *_, given in pop]
            yield labels[0], trace, config.popsize * (config.maxgen + 1)

    return _solve_days(point_set, traffic_by_day, problem, search, audit)


def run_greedy(point_set: PointSet, traffic_by_day: Sequence[TrafficDay], budget: int,
               problem: ProblemConfig, rng: np.random.Generator,
               checkpoint_every: int = 10,
               audit: AuditHook | None = None) -> list[DayResult]:
    """Greedy point-relocation baseline under an evaluation budget.

    Each day restarts from the all-singleton clustering (its fitness is the
    uncharged first trace entry). Rounds pick a uniform random point and
    evaluate staying put plus every move into a cluster whose members all lie
    within tau, taken by first point, charging one evaluation per candidate;
    the cheapest candidate is committed, ties keeping the current placement.
    A round that would exceed the budget is cut short mid-candidate-list.

    The trace records the committed fitness at every ``checkpoint_every``
    evaluations, so its length is budget // checkpoint_every + 1. The points are
    drawn through ``_Draws``, so ``rng`` ends a whole number of 512-word blocks on,
    not where numpy's own ``Generator`` draws would have left it.

    The labels are held in an ``array('q')``. Each cluster keeps a label (x
    joining one takes it) and its ``r``, beside the exact total (K, R). A
    round scores x's removal once and each join from it (``_moved``), tried
    on the labels in place and undone; the best is committed. So a candidate
    costs O(H) per point of the clusters it changes, and its f equals the
    dense ``fitness_parts`` of its labels exactly. The day's memo ``seen``
    sums each distinct new cluster once (at most one entry per charged
    evaluation, so ``budget``, freed with the day).
    """
    budget = _integer("budget", budget, 1)
    checkpoint_every = _integer("checkpoint_every", checkpoint_every, 1)
    n = point_set.n_points

    def search(rows, values_by_day, score):
        draws = _Draws(rng)
        for values in values_by_day:
            labels, r, total = _held(np.arange(1, n + 1), values)
            labels, r = array("q", labels.tobytes()), r.tolist()
            counts = [0] + [1] * n  # counts[k]: cluster k's size
            cur_f = score(labels, values, total)
            trace, evals, seen = [cur_f], 0, {}  # seen: the day's memo for _moved
            while evals < budget:
                x = int(draws.integers(n))
                kx, mates, targets, inside = _joinable(labels, rows[x], x, counts)
                # The first candidate is "stay"; strict < keeps it on ties. A
                # round that would pass the budget is cut short.
                best_f, best = score(labels, values, total), None
                targets = targets[:budget - evals - 1]
                evals += 1 + len(targets)
                if targets:  # x's removal: kx without x, or no cluster
                    rest, removed = _moved(values, r, total, [kx], [mates] if mates else [], seen)
                    for t in targets:
                        rt, moved = _moved(values, r, removed, [t], [sorted([*inside[t], x])], seen)
                        labels[x] = t
                        f = score(labels, values, moved)
                        if f < best_f:
                            best_f, best = f, (t, rt, moved)
                    labels[x] = kx

                # Checkpoints passed mid-round still see the previous commit; so
                # len(trace) == 1 + evals // checkpoint_every after each round.
                trace += [cur_f] * ((evals - 1) // checkpoint_every + 1 - len(trace))
                if best is not None:  # a join beat "stay", whose f is cur_f: redo it
                    t, (r[t],), total = best
                    labels[x], r[kx], cur_f = t, rest[0] if rest else 0.0, best_f
                    counts[kx] -= 1
                    counts[t] += 1
                if evals % checkpoint_every == 0:
                    trace.append(cur_f)
            yield renumber(labels), trace, evals

    return _solve_days(point_set, traffic_by_day, problem, search, audit)
