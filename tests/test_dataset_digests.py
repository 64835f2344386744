"""Regression: the exact bytes of each generated dataset kind.

Each kind is generated at its default sizes (``datasets.SIZES``) and the
positions, every day's traffic (both as little-endian float64) and the
manifest JSON are fed, in that order, into one sha256. The constants below
were produced by an earlier version of the package, so any change to a
layout or traffic generator, to an RNG draw, to a default size or to the
manifest shows up as a different digest.

Print the digests of the current code with:

    PYTHONPATH=src python tests/test_dataset_digests.py
"""
import hashlib

import numpy as np
import pytest

from bbuclust import datasets

DIGESTS = {
    "1a": "41accaf88c633c421eefba94bc689770b32282485ed1111cbc3c1cbf0db48875",
    "2a": "c922801e6de634f2d4f5cae353e9c7f6ac724b076def894c2ebffd4c065e073c",
    "2b": "017958c2106c24ec5b653f933e5a662300d04d877636bfae4f2610126eecd8aa",
    "3a": "aaf8ba74aff689f56261ecee3fe7e9ffbac22248f47a0bbce3a84b6b3f1da99b",
    "1c-milan": "cab0f662017e8860be59f1a96149a70c27bfadf365ecba9e194ff4a2072ef8fb",
    "1c-songliao": "4691df9c09a39cf3f74551756d0f6afb1635de46196cb62da6ba4f16b15e1eaf",
}


def _digest(kind):
    ds = datasets.make_dataset(kind, seed=31, n_days=2)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.point_set.positions, dtype="<f8").tobytes())
    for day in ds.traffic:
        h.update(np.ascontiguousarray(day.values, dtype="<f8").tobytes())
    h.update(ds.manifest.to_json().encode())
    return h.hexdigest()


@pytest.mark.parametrize("kind", datasets.KINDS)
def test_dataset_digest(kind):
    assert _digest(kind) == DIGESTS.get(kind)


if __name__ == "__main__":
    for kind in datasets.KINDS:
        print(f'    "{kind}": "{_digest(kind)}",')
