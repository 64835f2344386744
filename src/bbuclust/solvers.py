"""Day-by-day solvers: the split/copy/rand evolutionary family and a greedy baseline.

All solution construction goes through pairwise feasibility repair, so every
clustering these solvers ever hold satisfies the tau constraint by
construction. Internally individuals are raw 1..K int label arrays; the
public surface wraps them in :class:`~bbuclust.model.Clustering`.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import (Clustering, PointSet, ProblemConfig, TrafficDay, _integer, _real,
                    renumber, within_tau)
from .objective import FitnessValue, cluster_sums, fitness_parts

VARIANTS = ("split", "rand", "copy")

# Values per block of ``_initial_labels``' pool of unassigned points (chosen by timing).
_BLOCK = 4096

# Called with each label array a solver scores (feasibility instrumentation).
# Every array a solver builds is scored, so the hook sees all of them; an
# array scored again (a carried-over population, greedy's "stay") is seen again.
AuditHook = Callable[[np.ndarray], None]

# Scores one label array on one day's (N, H) traffic, given the array's (K, H)
# rows |cluster_sums - 1|, and returns its f (see ``fitness_parts``).
Scorer = Callable[[np.ndarray, np.ndarray, np.ndarray], float]

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
    """``rng``'s ``integers(high)``, ``random`` and ``choice(n, size, replace=False)``: numpy's
    values (Lemire's method on 32-bit halves; Floyd's sampling, then a shuffle, into a list),
    replayed from PCG64 words fetched in blocks. ``rng`` draws the rest (ranges over 2**32, the
    tail shuffle)."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self._words = rng, []  # the block's unused words, next last
        self._pcg = isinstance(rng.bit_generator, np.random.PCG64)
        if self._pcg:  # its kept half-word, stale if not flagged
            state = rng.bit_generator.state
            self._has, self._hi = state["has_uint32"], state["uinteger"]
        else:  # MT19937's random() takes two 32-bit words; SFC64 cannot advance
            self.integers, self.random, self.choice = rng.integers, rng.random, rng.choice

    def sync(self) -> None:
        """Leave ``rng`` in the state the draws replayed so far would have left it in."""
        if self._pcg:
            bg = self.rng.bit_generator
            bg.advance((1 << 128) - len(self._words))  # back over the unused words
            bg.state = {**bg.state, "has_uint32": self._has, "uinteger": self._hi}
            self._words = []

    def _numpy(self, name: str, *args):
        self.sync()
        out = getattr(self.rng, name)(*args)
        self.__init__(self.rng)  # replay on from the state numpy's draw left
        return out

    def _word(self) -> int:
        if not self._words:
            self._words = self.rng.bit_generator.random_raw(512)[::-1].tolist()
        return self._words.pop()

    def _below(self, b: int) -> int:
        """A draw in [0, b), 1 <= b <= 2**32: Lemire's method on the next 32 bits."""
        while b > 1:
            if self._has:
                self._has, m = 0, self._hi * b
            else:
                w = self._word()
                self._has, self._hi, m = 1, w >> 32, (w & 0xFFFFFFFF) * b
            if (m & 0xFFFFFFFF) >= (1 << 32) % b:
                return m >> 32
        return 0

    def integers(self, high):
        if type(high) is int and 0 < high <= 1 << 32:
            return self._below(high)
        return self._numpy("integers", high)

    def random(self) -> float:
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)

    def choice(self, n, size, replace=False):
        if (replace or type(n) is not int or type(size) is not int or not 0 <= size <= n
                or n > 1 << 32 or n > 10000 and size > n // 50):
            return self._numpy("choice", n, size, replace)
        out = {}  # Floyd's sampling, in draw order
        for j in range(n - size, n):
            v = self._below(j + 1)
            out[j if v in out else v] = None
        out = list(out)
        for i in range(size - 1, 0, -1):  # then a Fisher-Yates shuffle
            k = self._below(i + 1)
            out[i], out[k] = out[k], out[i]
        return out


def _repair(rows: Sequence[list[int]], r: int, close: Sequence[int], num: int,
            rng: np.random.Generator) -> list[int]:
    """Pairwise repair: of ``num`` points of ``close`` (each within tau of r), drawn as
    ``rng.choice(len(close), num, replace=False)`` draws them, those within tau of every
    point kept before (one point: one bounded draw, Floyd's one step and no shuffle)."""
    if num == 1:
        return [close[rng.integers(len(close))]]
    common, kept = set(rows[r]), []  # the points within tau of every kept point
    for j in rng.choice(len(close), num, replace=False):
        if (c := close[j]) in common:
            kept.append(c)
            common.intersection_update(rows[c])
    return kept


def _joinable(labels: np.ndarray, row: np.ndarray, x: int, counts: np.ndarray
              ) -> tuple[int, list[int], list[int], dict[int, list[int]]]:
    """x's cluster kx and x's cluster-mates (all in x's row ``row``, as kx is feasible), the
    other clusters wholly within ``row``, ascending (counts = bincount(labels)), and the
    points of ``row`` by label, each ascending."""
    inside: dict[int, list[int]] = {}
    for p, k in zip(row.tolist(), labels[row].tolist()):
        inside.setdefault(k, []).append(p)
    kx = int(labels[x])
    return (kx, [p for p in inside[kx] if p != x],
            sorted(k for k, mem in inside.items() if k != kx and len(mem) == counts[k]), inside)


def _summed(values: np.ndarray, mem: list[int]) -> np.ndarray:
    """The (1, H) row ``|S - 1|`` of members ``mem`` (ascending), S summed in point order."""
    a = mem[0]
    row = (values[a:a + 1] if len(mem) == 1 else values[a:a + 1] + values[mem[1]]
           if len(mem) == 2 else np.add.accumulate(values.take(mem, axis=0), axis=0)[-1:]) - 1.0
    return np.abs(row, out=row)


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
            pieces.append(_summed(values, mem))
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


def _remove(labels: np.ndarray, dev: np.ndarray, values: np.ndarray, x: int, rest: list[int]
            ) -> tuple[np.ndarray, np.ndarray, int]:
    """x out of its cluster kx (``rest``: kx's other points, ascending): the labels (x's 0) and
    rows ``_regroup`` gives, built in closed form, and the number of clusters starting before x."""
    kx, K = int(labels[x]), dev.shape[0]
    if rest and rest[0] < x:  # kx keeps its first point, and its place
        base, rows = labels.copy(), dev.copy()
        base[x], rows[kx - 1] = 0, _summed(values, rest)
        return base, rows, int(base[:x].max())
    m = int(labels[:rest[0]].max()) if rest else K  # x led kx: the rest's label (none: K)
    rank = np.arange(K + 1)  # kx becomes m, and kx + 1..m move down one
    rank[kx], rank[kx + 1:m + 1] = m, np.arange(kx, m)
    base = rank[labels]
    base[x] = 0
    summed = [_summed(values, rest)] if rest else []
    return base, np.concatenate((dev[:kx - 1], dev[kx:m], *summed, dev[m:])), kx - 1


def _move_row(rows: np.ndarray, i: int, j: int, row: np.ndarray) -> None:
    """Move ``rows[i]`` to ``rows[j]`` in place, shifting the rows between by one, as ``row``."""
    if i > j:
        rows[j + 1:i + 1] = rows[j:i]
    elif i < j:
        rows[i:j] = rows[i + 1:j + 1]
    rows[j] = row


def _initial_labels(rows: Sequence[list[int]], rng: np.random.Generator) -> np.ndarray:
    """Grow random feasible clusters until every point is assigned (``_repair``; one pick
    inline), the unassigned points in ascending blocks of ``_BLOCK`` values, so that
    finding the drawn r-th point or deleting a grown one moves few pointers."""
    below = rng._below if getattr(rng, "_pcg", False) else rng.integers  # numpy's draws
    labels, n, k = [0] * len(rows), len(rows), 0
    pool = [list(range(a, min(a + _BLOCK, n))) for a in range(0, n, _BLOCK)]
    while n:
        i = below(n)
        for block in pool:
            if i < len(block):
                break
            i -= len(block)
        r = block.pop(i)
        k, n = k + 1, n - 1
        labels[r] = k
        close = [c for c in rows[r] if not labels[c]]
        num = below(len(close) + 1) if close else 0
        if not num:
            continue
        # One pick (within tau of r) inline: through _repair it costs this loop about 5%.
        picked = [close[below(len(close))]] if num == 1 else _repair(rows, r, close, num, rng)
        for c in picked:
            labels[c] = k
            block = pool[c // _BLOCK]
            del block[bisect_left(block, c)]
        n -= len(picked)
    return np.array(labels, dtype=np.int64)


def _mutate_labels(labels: np.ndarray, nbrs: Sequence[np.ndarray], rows: Sequence[list[int]],
                   prob: float, rng: np.random.Generator, memo: list | None = None
                   ) -> tuple[np.ndarray, list[tuple]]:
    """Move one point x (isolated points preferred) between feasible clusters.

    Returns the child before renumbering (a new cluster is K + 1) and the
    clusters it regroups for ``_regroup``: none for the unchanged copy, else
    x's own, then the one x joins, or the one x pulls from and the new one.
    ``memo`` is ``labels``' own cache, empty at first: this fills it with
    ``bincount(labels)`` and, once drawn from, the singleton clusters' points.
    """
    memo = [] if memo is None else memo
    if not memo:
        memo.append(np.bincount(labels))  # its length, K + 1, is a new cluster's label
    counts, iso = memo[0], ()
    if rng.random() < prob:
        if len(memo) == 1:
            memo.append(np.flatnonzero(counts[labels] == 1))
        iso = memo[1]
    x = int(iso[rng.integers(len(iso))] if len(iso) else rng.integers(labels.size))
    if len(rows[x]) == 1:  # no point within tau of x, which is alone: the unchanged copy
        return labels.copy(), []
    kx, mates, joinable, inside = _joinable(labels, nbrs[x], x, counts)
    new, rest = labels.copy(), (kx, mates, inside[kx][0])
    if joinable:
        new[x] = k = joinable[rng.integers(len(joinable))]
        return new, [rest, (k, sorted([*inside[k], x]), inside[k][0])]
    # Failing a join: the clusters with at least one member within tau of x.
    if adjacent := sorted(k for k in inside if k != kx):
        c = adjacent[rng.integers(len(adjacent))]
        num = 1 + int(rng.integers(len(inside[c])))
        pulled = _repair(rows, x, inside[c], num, rng)
        new[[x, *pulled]] = counts.size
        mc = np.flatnonzero(labels == c).tolist()  # c is not wholly within the row
        return new, [rest, (c, [p for p in mc if p not in pulled], mc[0]),
                     (counts.size, sorted([x, *pulled]), -1)]
    new[x] = counts.size  # only its own cluster's points in reach: x is isolated
    return new, [rest, (counts.size, [x], -1)]


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

    def score(labels: np.ndarray, values: np.ndarray, dev: np.ndarray) -> float:
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

    Each individual is one entry, its f first, then its labels and rows
    ``|cluster_sums - 1|``; an offspring's rows are built from its parent's
    (``_regroup``), at most three summed again, except a seed individual's,
    which is renumbered and summed in full. The unchanged copy shares its
    parent's labels, rows and the bookkeeping ``_mutate_labels`` works out.
    """
    def search(nbrs, values_by_day, score):
        seeds = np.random.SeedSequence(config.seed).spawn(len(values_by_day) + 1)
        rng = _Draws(np.random.default_rng(seeds[0]))
        rows = [row.tolist() for row in nbrs]
        for d, values in enumerate(values_by_day):
            # Today's population, by yesterday's rng (day 0: seeds[0]'s); "copy" keeps it.
            if not d or config.variant == "rand":
                labels = [_initial_labels(rows, rng) for _ in range(config.popsize)]
            elif config.variant == "split":
                labels = [_split_labels(lab, rng) for lab in labels]
            rng = _Draws(np.random.default_rng(seeds[d + 1]))
            # (f, labels, rows summed in full once a day, labels in first-appearance
            # order, _mutate_labels' memo)
            pop = []
            for lab in labels:
                dev = np.abs(cluster_sums(lab, values) - 1.0)
                pop.append((score(lab, values, dev), lab, dev,
                            np.diff(np.maximum.accumulate(lab), prepend=0).max() <= 1, []))
            pop.sort(key=itemgetter(0))
            trace = [pop[0][0]]

            for _ in range(config.maxgen):
                offspring = []
                for _, lab, dev, canon, memo in pop:
                    new, groups = _mutate_labels(lab, nbrs, rows, config.prob, rng, memo)
                    if not groups:  # the unchanged copy: its parent's entry, scored again
                        offspring.append((score(lab, values, dev), lab, dev, canon, memo))
                        continue
                    if canon:
                        new, dev = _regroup(lab, dev, values, new, groups)
                    else:  # a seed individual's child: renumbered and summed in full
                        new = renumber(new)
                        dev = np.abs(cluster_sums(new, values) - 1.0)
                    offspring.append((score(new, values, dev), new, dev, True, []))
                pop = sorted(pop + offspring, key=itemgetter(0))[:config.popsize]
                trace.append(pop[0][0])
            labels = [lab for _, lab, *_ in pop]
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
    within tau, charging one evaluation per candidate; the cheapest candidate
    is committed, ties keeping the current placement. A round that would
    exceed the budget is cut short mid-candidate-list.

    The trace records the committed fitness at every ``checkpoint_every``
    evaluations, so its length is budget // checkpoint_every + 1.

    A round builds x's removal once from the committed labels and rows
    ``|cluster_sums - 1|`` (``_remove``, x's remaining cluster summed again).
    Each join gets its own labels, sums its target's row with x, writes it
    into that removal's rows in place and is scored on them. A join into a
    cluster before x is undone at once; one that moves ahead to x's place is
    slid on by the next such join, and the last is undone after the round.
    The best join is redone and committed with those rows. So every
    candidate is scored on exact rows.
    """
    budget = _integer("budget", budget, 1)
    checkpoint_every = _integer("checkpoint_every", checkpoint_every, 1)
    n = point_set.n_points

    def search(nbrs, values_by_day, score):
        draws = _Draws(rng)
        for values in values_by_day:
            labels = np.arange(1, n + 1, dtype=np.int64)
            dev = np.abs(cluster_sums(labels, values) - 1.0)
            cur_f = score(labels, values, dev)
            trace, evals = [cur_f], 0
            while evals < budget:
                x = int(draws.integers(n))
                _, mates, targets, inside = _joinable(labels, nbrs[x], x, np.bincount(labels))
                # The first candidate is "stay"; strict < keeps it on ties. A
                # round that would pass the budget is cut short.
                best_f, best = score(labels, values, dev), None
                targets = targets[:budget - evals - 1]
                evals += 1 + len(targets)
                if targets:  # x's removal, x labelled 0: every join's labels and rows
                    base, rows, q = _remove(labels, dev, values, x, mates)
                    after = None  # the last join after x: its row before the move, parent row
                for t in targets:
                    # x joins cluster b: it keeps its place, or starts at x, after the q.
                    mt = inside[t]
                    b = int(base[mt[0]])
                    p = b - 1 if mt[0] < x else q
                    if p < b - 1:  # b becomes p + 1, and p + 1..b - 1 move up one
                        cand = np.arange(rows.shape[0] + 1)
                        cand[b], cand[p + 1:b] = p + 1, np.arange(p + 2, b + 1)
                        cand = cand[base]
                    else:
                        cand = base.copy()
                    cand[x] = p + 1
                    row = _summed(values, sorted([*mt, x]))
                    if mt[0] < x:
                        rows[p] = row
                    else:  # slide the last join after x's shift on to b (b ascends)
                        a, parent_row = after or (q - 1, row)
                        rows[a + 2:b] = rows[a + 1:b - 1]
                        rows[a + 1], rows[q] = parent_row, row
                        after = (b - 1, dev[t - 1])
                    f = score(cand, values, rows)
                    if f < best_f:
                        best_f, best = f, (cand, p, b, row)
                    if mt[0] < x:
                        rows[p] = dev[t - 1]
                if targets and after:  # back to x's removal
                    _move_row(rows, q, *after)

                # Checkpoints passed mid-round still see the previous commit; so
                # len(trace) == 1 + evals // checkpoint_every after each round.
                trace += [cur_f] * ((evals - 1) // checkpoint_every + 1 - len(trace))
                if best is not None:  # a join beat "stay", whose f is cur_f: redo it
                    labels, p, b, row = best
                    _move_row(rows, b - 1, p, row)
                    dev, cur_f = rows, best_f
                if evals % checkpoint_every == 0:
                    trace.append(cur_f)
            draws.sync()  # the day loop stops without resuming this after its last day
            yield labels, trace, evals

    return _solve_days(point_set, traffic_by_day, problem, search, audit)
