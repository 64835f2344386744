"""Regression: the exact stream of candidates each solver scores.

Every label array a solver passes to its ``audit`` hook (each initial
individual, each offspring, each greedy move and "stay") is fed, in order,
into one sha256, followed by the per-day search traces. The constants below
were produced by an earlier version of the package, so any change to a
solver trajectory, to an RNG draw, to the initial population or to the
relabelling of a candidate shows up as a different digest.

Print the digests of the current code with:

    PYTHONPATH=src python tests/test_candidate_stream.py
"""
import hashlib
import math

import numpy as np
import pytest

from bbuclust import datasets, harness, model, solvers

DIGESTS = {
    ("1a", "split"): "0f5f23482e52857cd447dce3d2ae4ed3ba9ca10c0c68468b6536d85a5cab3997",
    ("1a", "copy"): "74e8ff38d878673b89b52243abd6d14c25757f7c5a1d6d2812de7429f6844383",
    ("1a", "rand"): "9fe956325d60de8f5d148c914366325f4cf58b9c192cdc3cb264c7f12864f15e",
    ("1a", "greedy"): "44358d0c5a3f5649ff4830d21a3d1d770b24b477cc20b75cf267d9dd21783aa6",
    ("2b", "split"): "985bbe1c460a5eb2bc5bd663682f706ff4e0534a357e18edd6889f8f97d6a70d",
    ("2b", "copy"): "89477db5a33567f8d6dcab89e925de65dcd3fb64c9df3d5844d4c107b768fd0d",
    ("2b", "rand"): "b7d3faf65733509a738b50315c8c248fb4b4e25a2882ed10f940980520c1cef4",
    ("2b", "greedy"): "2f2880eb2d23aea13d895334372a33d60f2d6fea0f4bd3b35bcd4643f1c786f9",
    ("milan-hav", "split"): "eac04cae221086acd644adb300f29867f3a845e3fc93d7c0c9e5de13225f4027",
    ("milan-hav", "copy"): "8ac6ed83a4a54d22008537b012ee98b8cff2209195ed2b0d752af45586b3c135",
    ("milan-hav", "rand"): "d01de661d3c2d30f9915c730da5988bcb035aae43351e6ce64bf8c206ec82795",
    ("milan-hav", "greedy"): "24fd5fc66c9cfad0fb40534f73f63e1385e60da6f3d503c70481c84c7bd10172",
}

# run_greedy on the ("1a", "greedy") instance above, budget 300: the state it
# leaves the caller's default_rng(21) in, and through other bit generators
# (seed 21), digests of its deployed labels and traces.
GREEDY_RNG_STATE = {
    "bit_generator": "PCG64",
    "state": {"state": 14723703805512551721556389275007431083,
              "inc": 309141390015141504862174807861076180645},
    "has_uint32": 0,
    "uinteger": 2773191265,
}
GREEDY_OTHER_DIGESTS = {
    "MT19937": "92a7555bae0e682b4aabad13c907e148fa567e10a88f357c9d3fe9656a28df93",
    "Philox": "8c589a2d158389524516b4f920aa3aaeb1dde6319724ce1b92b7fbd78c62a7a4",
}


def _milan_lonlat(xy):
    """The generator's 100 x 100 box as a 10 km x 10 km box of (lon, lat) near Milan."""
    metres = (xy - 50.0) * 100.0
    per_deg_lat = 6371008.8 * math.pi / 180.0
    lat0 = 45.4642
    lon = 9.19 + metres[:, 0] / (per_deg_lat * math.cos(math.radians(lat0)))
    lat = lat0 + metres[:, 1] / per_deg_lat
    return np.column_stack([lon, lat])


def _instance(kind):
    """The dataset and its point set for one pinned instance."""
    if kind == "1a":
        ds = datasets.make_dataset("1a", seed=11, n_days=2, n_points=150)
    elif kind == "2b":
        ds = datasets.make_dataset("2b", seed=12, n_days=2, n_groups=15)
    else:
        ds = datasets.make_dataset("1c-milan", seed=13, n_days=2, n_points=150)
        lonlat = _milan_lonlat(ds.point_set.positions)
        return ds, model.build_distance_matrix(lonlat, metric="haversine_meters")
    return ds, ds.point_set


def _digest(kind, solver):
    ds, ps = _instance(kind)
    problem = model.ProblemConfig(w=0.01, tau=harness.resolve_tau(ps), H=ds.manifest.hours)
    h = hashlib.sha256()

    def audit(labels):
        h.update(np.ascontiguousarray(labels, dtype="<i8").tobytes())

    if solver == "greedy":
        results = solvers.run_greedy(ps, ds.traffic, 300, problem, np.random.default_rng(21),
                                     checkpoint_every=10, audit=audit)
    else:
        cfg = solvers.EaConfig(popsize=10, maxgen=30, variant=solver, seed=21)
        results = solvers.run_ea(ps, ds.traffic, cfg, problem, audit=audit)
    for r in results:
        h.update(np.asarray(r.trace, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind, solver", sorted(DIGESTS))
def test_candidate_stream_digest(kind, solver):
    assert _digest(kind, solver) == DIGESTS[kind, solver]


def _greedy_1a(rng):
    ds, ps = _instance("1a")
    problem = model.ProblemConfig(w=0.01, tau=harness.resolve_tau(ps), H=ds.manifest.hours)
    return solvers.run_greedy(ps, ds.traffic, 300, problem, rng, checkpoint_every=10)


def test_greedy_leaves_the_callers_generator_where_its_draws_end():
    rng = np.random.default_rng(21)
    _greedy_1a(rng)
    assert rng.bit_generator.state == GREEDY_RNG_STATE


@pytest.mark.parametrize("bit_generator", sorted(GREEDY_OTHER_DIGESTS))
def test_greedy_through_other_bit_generators(bit_generator):
    h = hashlib.sha256()
    for r in _greedy_1a(np.random.Generator(getattr(np.random, bit_generator)(21))):
        h.update(np.ascontiguousarray(r.best.labels, dtype="<i8").tobytes())
        h.update(np.asarray(r.trace, dtype="<f8").tobytes())
    assert h.hexdigest() == GREEDY_OTHER_DIGESTS[bit_generator]


if __name__ == "__main__":
    for key in DIGESTS:
        print(f"    {key!r}: \"{_digest(*key)}\",")
