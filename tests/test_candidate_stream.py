"""Regression: the exact stream of candidates each solver scores.

Every label array a solver passes to its ``audit`` hook (each initial
individual, each offspring, each greedy move and "stay") is fed, in order,
into one sha256, followed by the per-day search traces. The constants below
were produced by an earlier version of the package, so any change to a
solver trajectory, to an RNG draw, to the initial population or to the
relabelling of a candidate shows up as a different digest.

``LABEL_DIGESTS`` hash the audited label arrays alone. Traces carry the bits
of ``f``, so a change to how ``f`` is rounded moves every ``DIGESTS`` entry,
while a label digest moves only where that change reorders candidates.

Print the digests of the current code with:

    PYTHONPATH=src python tests/test_candidate_stream.py
"""
import functools
import hashlib
import math

import numpy as np
import pytest

from bbuclust import datasets, harness, model, solvers

DIGESTS = {
    ("1a", "split"): "700bf367aef66b3727787309fa1570e09cd550204bb62b2d5dd8cf5687b3d469",
    ("1a", "copy"): "fe6525b4ac4c8f1af4437b08c7dd84010ac35342d719eadf7fefc40f6d2b1515",
    ("1a", "rand"): "15f29ecf76a2737a2d0862241a126d44839beda6d7fbb71c41d33ee7d750382e",
    ("1a", "greedy"): "c375419cd10e104f14c0459ea0f809a58c12e38fd7884d40f20e4e58347c51a9",
    ("2b", "split"): "afec86742a2a8d6ba95fec97930ac18410126b9413a50d328bace7ba88d6f7b6",
    ("2b", "copy"): "46f80d10969b3390a10b7c24733311a0ffd39e7e3fd59f3e1a4c3d4db8165c28",
    ("2b", "rand"): "25a0e00fc717ed99e21927d9f22aea8b23df7a5b3eff12c50fc6044832df3960",
    ("2b", "greedy"): "2f2880eb2d23aea13d895334372a33d60f2d6fea0f4bd3b35bcd4643f1c786f9",
    ("milan-hav", "split"): "778ec26c4ecb209c21fba54bafcf31e9a48e1ba4f57fb90cf1a68c22a06de13b",
    ("milan-hav", "copy"): "505efcf98eb150795ccedc20f2c4ebfec1c368f4038e63990675048dcf83e20d",
    ("milan-hav", "rand"): "d1e012569990b1dfff9205a987fa5b2f08c2dc3474ec5346bfd180351a7804dd",
    ("milan-hav", "greedy"): "58066dbe84e8f0f8287402905b17fd52f7df7e6b6c670b5d2ed15ccceec2909d",
}

LABEL_DIGESTS = {
    ("1a", "split"): "82b8dcdac0a32a2921af8f3cc4351a20a935b6e64fc48dd6c337db0f6f6e373f",
    ("1a", "copy"): "23a55883ebcd61126a499b1d6cea8f08dcf3ab3df17e7472207f0ac35419ecbb",
    ("1a", "rand"): "39515fe231b64b1815d13053a0b0eead65950247b989e41d0d1599f36d1492d0",
    ("1a", "greedy"): "68478fc5dd259c8ff77b32d5bf868eb8acf36dad89b00f3802447995030fd650",
    ("2b", "split"): "146d8a0fc5fe286d49d6c5e0af868029f1da1519d5316ae019285e81ae24e72f",
    ("2b", "copy"): "126ec48f5d5cfbfcf0cf913770ae2085d81b137faab7706791f132b97e9d6367",
    ("2b", "rand"): "f00059c882d5e8d6243ef3865844b73f90e53d07750620ab8f46018cacadab3d",
    ("2b", "greedy"): "87afa61d78091631dfd07fa7b04fe66bae95c210e5d38a2fa5940324d811e1cd",
    ("milan-hav", "split"): "d6d04d5ed3f6f5959e5b8886129ce998821d53453342d4aaea723d2845f90d5f",
    ("milan-hav", "copy"): "965c528542bc46e5a15ef544954712e4b471687cda4f62b6072a8f3f9746d03d",
    ("milan-hav", "rand"): "512ba9847600528c46704fc1170bc3f0cee2bf1c24d575abae7a9e0305b359d8",
    ("milan-hav", "greedy"): "4f0b255495f4d090c7e36b6d5d46f17c7f23d1b23ad9e6acfefec5c413807da5",
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
    "MT19937": "521b026a7eb1e102bfae92d63180ddab91b1838ec117d6b3b637745e6cf680de",
    "Philox": "410603f176392613dca852d7e132eede0804c0a53386a06ede0985a19c6d75f8",
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


@functools.lru_cache(maxsize=None)
def _digests(kind, solver):
    """(digest of the audited labels, then the traces; digest of the audited labels)"""
    ds, ps = _instance(kind)
    problem = model.ProblemConfig(w=0.01, tau=harness.resolve_tau(ps), H=ds.manifest.hours)
    h, only = hashlib.sha256(), hashlib.sha256()

    def audit(labels):
        data = np.ascontiguousarray(labels, dtype="<i8").tobytes()
        h.update(data)
        only.update(data)

    if solver == "greedy":
        results = solvers.run_greedy(ps, ds.traffic, 300, problem, np.random.default_rng(21),
                                     checkpoint_every=10, audit=audit)
    else:
        cfg = solvers.EaConfig(popsize=10, maxgen=30, variant=solver, seed=21)
        results = solvers.run_ea(ps, ds.traffic, cfg, problem, audit=audit)
    for r in results:
        h.update(np.asarray(r.trace, dtype="<f8").tobytes())
    return h.hexdigest(), only.hexdigest()


@pytest.mark.parametrize("kind, solver", sorted(DIGESTS))
def test_candidate_stream_digest(kind, solver):
    assert _digests(kind, solver)[0] == DIGESTS[kind, solver]


@pytest.mark.parametrize("kind, solver", sorted(LABEL_DIGESTS))
def test_label_stream_digest(kind, solver):
    assert _digests(kind, solver)[1] == LABEL_DIGESTS[kind, solver]


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
    for i, name in enumerate(("DIGESTS", "LABEL_DIGESTS")):
        print(f"{name} = {{")
        for kind, solver in DIGESTS:
            print(f"    (\"{kind}\", \"{solver}\"): \"{_digests(kind, solver)[i]}\",")
        print("}")
