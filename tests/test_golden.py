"""Golden regression: exact output bytes of two fixed experiments.

The files under ``tests/golden/`` were written by an earlier version of the
package. Any change to a solver trajectory, to the scoring or to the record
layout shows up here as a byte difference, even when it would still pass
the self-comparing determinism check of acceptance criterion 8.

Regenerate the files only for an intended and explained change of output:

    PYTHONPATH=src python tests/test_golden.py
"""
from pathlib import Path

import pytest

from bbuclust import datasets, harness

GOLDEN = Path(__file__).parent / "golden"


def _criterion_8_files(out: Path) -> dict[str, bytes]:
    """The criterion-8 workload: kind 1a, splitea vs greedy, oracle forecasts."""
    algos = tuple(harness.standard_algorithms(("splitea", "greedy"),
                                              popsize=5, maxgen=20, budget=100))
    ds = datasets.make_dataset("1a", seed=3, n_days=3, n_points=25, box=40.0)
    res = harness.run_experiment(harness.ExperimentSpec(
        dataset=ds, algorithms=algos, runs=4, base_seed=1))
    harness.write_records(res.records, out / "records.ndjson")
    harness.export_curves(res.records, out / "curves.csv")
    (out / "table.json").write_text(res.table.to_json() + "\n")
    return {f"c8-{name}": (out / name).read_bytes()
            for name in ("records.ndjson", "curves.csv", "table.json")}


def _ablation_2b_files(out: Path) -> dict[str, bytes]:
    """Kind 2b over 3 days, all four presets, persistence forecasts."""
    algos = tuple(harness.standard_algorithms(("splitea", "copyea", "randea", "greedy"),
                                              popsize=5, maxgen=20, budget=100))
    ds = datasets.make_dataset("2b", seed=5, n_days=3, n_groups=15, np_max=6)
    res = harness.run_experiment(harness.ExperimentSpec(
        dataset=ds, algorithms=algos, runs=3, base_seed=2, forecaster="persistence"))
    harness.write_records(res.records, out / "records.ndjson")
    return {"2b-records.ndjson": (out / "records.ndjson").read_bytes()}


@pytest.mark.parametrize("make", [_criterion_8_files, _ablation_2b_files])
def test_outputs_match_golden_bytes(make, tmp_path):
    for name, data in make(tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for make in (_criterion_8_files, _ablation_2b_files):
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in make(Path(tmp)).items():
                (GOLDEN / name).write_bytes(data)
                print(f"wrote {GOLDEN / name} ({len(data)} bytes)")
