"""Independent checks of one benchmark run's results.

Nothing here imports bbuclust: distances (euclidean and haversine), the
3x-mean-nearest-neighbour tau, cluster sums and the metrics K, U, Udelay,
Uunder1 and f are all recomputed from the raw inputs with this file's own
code, so a fault shared by the solver and its own scoring cannot hide.

A result is a plain dict (see ``run.py``):

    metric, w, tau, positions (N, 2), actual [(N, H) per served day],
    algorithms [{name, kind, popsize, maxgen, budget}],
    runs [{algorithm, run, days [{labels, K, U, Udelay, Uunder1, f,
                                  evals_used, trace}]}],
    table_f {algorithm: mean f}, csv (None or written/loaded arrays),
    ea_below_greedy (bool)

``check(result)`` returns a list of error strings, empty when every check
passes. ``self_test(result)`` corrupts copies of a passing result one way at
a time and returns the corruptions that a check failed to reject.
"""
from __future__ import annotations

import copy
import math

import numpy as np

EARTH_RADIUS_M = 6371008.8
# Recomputed values differ from the program's only by summation order.
TOL = 1e-9
# Slack on the tau boundary for the same reason, relative to tau.
FEAS_SLACK = 1e-9


def _pair_dist(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    """Distances between every row of ``a`` and every row of ``b``."""
    if metric == "euclidean":
        dx = a[:, None, 0] - b[None, :, 0]
        dy = a[:, None, 1] - b[None, :, 1]
        return np.hypot(dx, dy)
    if metric == "haversine_meters":
        lon1, lat1 = np.radians(a[:, 0])[:, None], np.radians(a[:, 1])[:, None]
        lon2, lat2 = np.radians(b[:, 0])[None, :], np.radians(b[:, 1])[None, :]
        h = (np.sin((lat2 - lat1) * 0.5) ** 2
             + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) * 0.5) ** 2)
        return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(h, 1.0)))
    raise ValueError(f"unknown metric {metric!r}")


def tau_3x_mean_nn(positions: np.ndarray, metric: str, block: int = 256) -> float:
    """3 x the mean nearest-neighbour distance, in row blocks to bound memory."""
    n = positions.shape[0]
    nn = np.empty(n)
    for lo in range(0, n, block):
        d = _pair_dist(positions[lo:lo + block], positions, metric)
        d[np.arange(d.shape[0]), np.arange(lo, lo + d.shape[0])] = math.inf
        nn[lo:lo + block] = d.min(axis=1)
    return 3.0 * float(nn.mean())


def scores(labels: np.ndarray, traffic: np.ndarray, w: float) -> dict:
    """K, U, Udelay, Uunder1 and f of a clustering on one day of traffic."""
    K = int(labels.max())
    H = traffic.shape[1]
    sums = np.zeros((K, H))
    for k in range(K):
        sums[k] = traffic[labels == k + 1].sum(axis=0)
    dev = sums - 1.0
    udelay = float(dev[dev > 0].sum()) / (K * H)
    uunder = float(-dev[dev <= 0].sum()) / (K * H)
    u = float(np.abs(dev).sum()) / (K * H)
    return {"K": K, "U": u, "Udelay": udelay, "Uunder1": uunder, "f": w * K + u}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def check_feasible(res: dict) -> list[str]:
    errs = []
    pos, tau = res["positions"], res["tau"]
    for r in res["runs"]:
        for i, d in enumerate(r["days"]):
            lab = d["labels"]
            if lab.shape != (pos.shape[0],) or lab.min() < 1:
                errs.append(f"{r['algorithm']} run {r['run']} day {i}: malformed labels")
                continue
            order = np.argsort(lab, kind="stable")
            bounds = np.flatnonzero(np.diff(lab[order])) + 1
            for mem in np.split(order, bounds):
                if mem.size < 2:
                    continue
                p = pos[mem]
                if _pair_dist(p, p, res["metric"]).max() > tau * (1.0 + FEAS_SLACK):
                    errs.append(f"{r['algorithm']} run {r['run']} day {i}: cluster "
                                f"{int(lab[mem[0]])} has a pair farther apart than tau")
                    break
    return errs


def check_metrics(res: dict) -> list[str]:
    errs = []
    for r in res["runs"]:
        for i, d in enumerate(r["days"]):
            where = f"{r['algorithm']} run {r['run']} day {i}"
            want = scores(d["labels"], res["actual"][i], res["w"])
            if d["K"] != want["K"]:
                errs.append(f"{where}: K = {d['K']}, recomputed {want['K']}")
            for m in ("U", "Udelay", "Uunder1", "f"):
                if not _close(d[m], want[m]):
                    errs.append(f"{where}: {m} = {d[m]!r}, recomputed {want[m]!r}")
            if not _close(d["U"], d["Udelay"] + d["Uunder1"]):
                errs.append(f"{where}: U != Udelay + Uunder1")
            if not _close(d["f"], res["w"] * d["K"] + d["U"]):
                errs.append(f"{where}: f != w*K + U")
    return errs


def check_tau(res: dict) -> list[str]:
    want = tau_3x_mean_nn(res["positions"], res["metric"])
    if not _close(res["tau"], want):
        return [f"tau = {res['tau']!r}, recomputed 3x mean NN = {want!r}"]
    return []


def check_csv(res: dict) -> list[str]:
    c = res["csv"]
    if c is None:
        return []
    errs = []
    for key in ("positions", "traffic"):
        a, b = c["written_" + key], c["loaded_" + key]
        if a.shape != b.shape or not np.array_equal(a, b):
            errs.append(f"CSV round trip changed {key}")
    return errs


def check_traces(res: dict) -> list[str]:
    errs = []
    for r in res["runs"]:
        for i, d in enumerate(r["days"]):
            t = np.asarray(d["trace"], dtype=float)
            if t.size == 0 or (np.diff(t) > 0).any():
                errs.append(f"{r['algorithm']} run {r['run']} day {i}: trace increases")
    return errs


def check_evals(res: dict) -> list[str]:
    errs = []
    algs = {a["name"]: a for a in res["algorithms"]}
    for r in res["runs"]:
        a = algs[r["algorithm"]]
        want = a["popsize"] * (a["maxgen"] + 1) if a["kind"] == "ea" else a["budget"]
        for i, d in enumerate(r["days"]):
            if d["evals_used"] != want:
                errs.append(f"{r['algorithm']} run {r['run']} day {i}: "
                            f"evals_used = {d['evals_used']}, expected {want}")
    return errs


def _mean_f(res: dict) -> dict:
    per_alg: dict = {}
    for r in res["runs"]:
        run_mean = sum(d["f"] for d in r["days"]) / len(r["days"])
        per_alg.setdefault(r["algorithm"], []).append(run_mean)
    return {a: sum(v) / len(v) for a, v in per_alg.items()}


def check_table(res: dict) -> list[str]:
    want = _mean_f(res)
    if set(want) != set(res["table_f"]):
        return [f"table algorithms {sorted(res['table_f'])} != records {sorted(want)}"]
    return [f"table mean f of {a} = {res['table_f'][a]!r}, records give {want[a]!r}"
            for a in want if not _close(res["table_f"][a], want[a])]


def check_ordering(res: dict) -> list[str]:
    if not res["ea_below_greedy"]:
        return []
    kinds = {a["name"]: a["kind"] for a in res["algorithms"]}
    mean = _mean_f(res)
    ea = [v for a, v in mean.items() if kinds[a] == "ea"]
    greedy = [v for a, v in mean.items() if kinds[a] == "greedy"]
    if max(ea) >= min(greedy):
        return [f"mean EA f {max(ea)!r} is not below greedy's {min(greedy)!r}"]
    return []


CHECKS = {
    "feasible": check_feasible,
    "metrics": check_metrics,
    "tau": check_tau,
    "csv": check_csv,
    "traces": check_traces,
    "evals": check_evals,
    "table": check_table,
    "ordering": check_ordering,
}


def check(res: dict) -> list[str]:
    errs = []
    for name, fn in CHECKS.items():
        errs.extend(f"[{name}] {e}" for e in fn(res))
    return errs


# --- self-test ----------------------------------------------------------------
# Each corruption edits a deep copy of a passing result in place, and the
# check named beside it must then fail.

def _move_clustered_point(bad: dict) -> None:
    for r in bad["runs"]:
        for d in r["days"]:
            counts = np.bincount(d["labels"])
            multi = np.flatnonzero(counts[1:] > 1)
            if multi.size:
                i = int(np.flatnonzero(d["labels"] == multi[0] + 1)[0])
                pos = bad["positions"] = bad["positions"].copy()
                if bad["metric"] == "haversine_meters":
                    # 10 tau along the meridian, towards the equator.
                    step = math.degrees(10.0 * bad["tau"] / EARTH_RADIUS_M)
                    pos[i, 1] += step if pos[i, 1] < 0 else -step
                else:
                    pos[i, 0] += 10.0 * bad["tau"]
                return
    raise ValueError("no deployed clustering has a multi-member cluster")


def _merge_farthest(bad: dict) -> None:
    lab = bad["runs"][0]["days"][0]["labels"]
    far = np.argmax(_pair_dist(bad["positions"][:1], bad["positions"], bad["metric"])[0])
    lab[far] = lab[0]


def _nudge(metric: str):
    def corrupt(bad: dict) -> None:
        d = bad["runs"][0]["days"][0]
        d[metric] += 1 if metric == "K" else 1e-6
    return corrupt


def _raise_trace(bad: dict) -> None:
    d = bad["runs"][0]["days"][0]
    d["trace"] = list(d["trace"]) + [d["trace"][-1] + 1e-6]


def _extra_eval(bad: dict) -> None:
    bad["runs"][0]["days"][0]["evals_used"] += 1


def _nudge_table(bad: dict) -> None:
    bad["table_f"][bad["runs"][0]["algorithm"]] += 1e-6


def _flip_last_bit(key: str):
    def corrupt(bad: dict) -> None:
        arr = bad["csv"][key] = bad["csv"][key].copy()
        flat = arr.reshape(-1)
        flat[-1] = np.nextafter(flat[-1], np.inf)
    return corrupt


def _greedy_wins(bad: dict) -> None:
    kinds = {a["name"]: a["kind"] for a in bad["algorithms"]}
    for r in bad["runs"]:
        if kinds[r["algorithm"]] == "greedy":
            for d in r["days"]:
                d["f"] = 0.0


def _corruptions(res: dict) -> list[tuple[str, str, object]]:
    out = [("feasible", "a clustered point moved 10 tau away", _move_clustered_point),
           ("feasible", "the point farthest from point 0 put in its cluster", _merge_farthest)]
    out += [("metrics", f"{m} nudged", _nudge(m)) for m in ("K", "U", "Udelay", "Uunder1", "f")]
    out += [("tau", "tau nudged", lambda bad: bad.update(tau=bad["tau"] * (1.0 + 1e-6))),
            ("traces", "a trace entry raised", _raise_trace),
            ("evals", "one more evaluation charged", _extra_eval),
            ("table", "a table mean nudged", _nudge_table)]
    if res["csv"] is not None:
        out += [("csv", "last bit of a loaded traffic value flipped",
                 _flip_last_bit("loaded_traffic")),
                ("csv", "last bit of a loaded coordinate flipped",
                 _flip_last_bit("loaded_positions"))]
    if res["ea_below_greedy"]:
        out.append(("ordering", "greedy deploys at f = 0", _greedy_wins))
    return out


def self_test(res: dict) -> list[str]:
    """Corrupt ``res`` one way at a time; return the corruptions not rejected.

    ``res`` itself must pass every check, otherwise the test says nothing.
    """
    missed = []
    for name, what, corrupt in _corruptions(res):
        bad = copy.deepcopy(res)
        corrupt(bad)
        if not CHECKS[name](bad):
            missed.append(f"{name}: {what}")
    return missed
