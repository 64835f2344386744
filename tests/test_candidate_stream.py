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

Print the digests and the greedy generator pins of the current code with:

    PYTHONPATH=src python tests/test_candidate_stream.py
"""
import functools
import hashlib
import math

import numpy as np
import pytest

from bbuclust import datasets, harness, model, solvers

DIGESTS = {
    ("1a", "split"): "3b12c7e2f328a5a73422d0d26412cab73e4d150ab99e4db06572acb639837432",
    ("1a", "copy"): "3bf9465310ab3952fdcd52c5eb1d0cb1066bf5566f12405e32c72630583b3a98",
    ("1a", "rand"): "97fa788cd03e0ce568a4e4067d54ce7f1fca26b1b910bc97275452a9052e8ec4",
    ("1a", "greedy"): "51d5a12f9578c07f65f8a47fa0da225aa7ead7df0b85e14256be78eba765f10c",
    ("2b", "split"): "2a0515631ffdcd5db22fa1fc1c47884741ca344a25993d78cc4f1178c1cfb3c4",
    ("2b", "copy"): "e136199606b06d84d1eeced829c51d69459dcbb01ac8127f6f803c14d79bbf06",
    ("2b", "rand"): "d07ca90ecad42de7528a3eff3bbd66001b761c59fac3801594ae6172aa05d9fc",
    ("2b", "greedy"): "7e7b90522a18f0b94b464d7f1dfe901ccaa50aca4090fc31c3bf4b7d693c7d78",
    ("milan-hav", "split"): "9c93250180c1debc651f6f527cec2b5d763c4773f6b86cb3229172dceb4a19d6",
    ("milan-hav", "copy"): "e4e027f2095905373d0f8bd1ee0de86dd08ba8af3c865fda1b3ee72c4388771f",
    ("milan-hav", "rand"): "99708d1f1e9345624964e476fdb9d1c8e07000d466a88fa75922360d4204c01f",
    ("milan-hav", "greedy"): "c5b47fc8b4df7440ee0241e2c726853d36244599f10e1faf53c7b471c2cdd16a",
}

LABEL_DIGESTS = {
    ("1a", "split"): "86bb4c2a3378b8b6ad2b9cef4d87fd0dd5029450e08aacc934395d2fc0056df9",
    ("1a", "copy"): "733e030a6234df86c475708cd4a196b1b1d88d0d5f07e7bdd6bf43953ff0cc0b",
    ("1a", "rand"): "11832fa5fc42f5db57d139336caf00cf2dbf2b87ee346ddba45121c2045e1b49",
    ("1a", "greedy"): "f52a30ef88cb7715cc3eb638096e790a5ab903a1a62e88a172871b96cc0f39a1",
    ("2b", "split"): "c09027413dc67218823e73a3c7db4646670c43ddcfac34e7d4e9dbf6bdeeff36",
    ("2b", "copy"): "f1fef09c59b7ee246c3ecfdabafee68954e2d6dfeb4164f6c11d8b3b2be5b973",
    ("2b", "rand"): "1ad2178aebd09f0d0f8de4e3f31b8146acfcdeccc834c92e9766f3bed8bc1726",
    ("2b", "greedy"): "bac30f4f0c6258a783b1716a006a038015e3a1a9497b86ebdf0bec22d28729a9",
    ("milan-hav", "split"): "5147de17824916edc0c0273b48db2df26dfcf9db03cf2cb27178a7c7fcc5dc37",
    ("milan-hav", "copy"): "f00b378cbd23f07ae0d2bf853a8d78e3496c35b0bf27f4731161f00123f335b3",
    ("milan-hav", "rand"): "c01cf820f0d3ac11a067c03e27287c3a0f74d1d2d42ef63e6b81fc47d25a2b74",
    ("milan-hav", "greedy"): "29c1a93e63ec9ff0997ba6e1d9048ff2803f40c3a34a986fab2a7b93427298c2",
}

# run_greedy on the ("1a", "greedy") instance above, budget 300: the state it
# leaves the caller's default_rng(21) in, after the whole 512-word blocks its
# draws fetched, and through other bit generators (seed 21), digests of its
# deployed labels and traces.
GREEDY_RNG_STATE = {
    "bit_generator": "PCG64",
    "state": {"state": 167267476996351325716328254413439059360,
              "inc": 309141390015141504862174807861076180645},
    "has_uint32": 0,
    "uinteger": 0,
}
GREEDY_OTHER_DIGESTS = {
    "MT19937": "6bf07ae3a6f5afd565ce18521503c6a0d2035cdf6ab3ef885a53515135b3680c",
    "Philox": "5aaca002fbb27b4ae23ebf6d237a61af4dde641f41403b0087070e288ced5994",
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


def _greedy_state():
    rng = np.random.default_rng(21)
    _greedy_1a(rng)
    return rng.bit_generator.state


def _greedy_digest(bit_generator):
    h = hashlib.sha256()
    for r in _greedy_1a(np.random.Generator(getattr(np.random, bit_generator)(21))):
        h.update(np.ascontiguousarray(r.best.labels, dtype="<i8").tobytes())
        h.update(np.asarray(r.trace, dtype="<f8").tobytes())
    return h.hexdigest()


def test_greedy_leaves_the_callers_generator_where_its_draws_end():
    assert _greedy_state() == GREEDY_RNG_STATE
    # That is a whole number of blocks on from where it started.
    twin = np.random.default_rng(21).bit_generator
    blocks = [twin.advance(512).state for _ in range(4)]
    assert GREEDY_RNG_STATE in blocks


@pytest.mark.parametrize("bit_generator", sorted(GREEDY_OTHER_DIGESTS))
def test_greedy_through_other_bit_generators(bit_generator):
    assert _greedy_digest(bit_generator) == GREEDY_OTHER_DIGESTS[bit_generator]


if __name__ == "__main__":
    for i, name in enumerate(("DIGESTS", "LABEL_DIGESTS")):
        print(f"{name} = {{")
        for kind, solver in DIGESTS:
            print(f"    (\"{kind}\", \"{solver}\"): \"{_digests(kind, solver)[i]}\",")
        print("}")
    print(f"GREEDY_RNG_STATE = {_greedy_state()!r}")
    print("GREEDY_OTHER_DIGESTS = {")
    for name in GREEDY_OTHER_DIGESTS:
        print(f"    \"{name}\": \"{_greedy_digest(name)}\",")
    print("}")
