import csv
import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bbuclust import datasets, model, objective
from _oracles import dense_distance, reference_read_csvs, reference_save_dataset


def test_gen_locations_random(rng):
    pos = datasets.gen_locations_random(40, 25.0, rng)
    assert pos.shape == (40, 2)
    assert pos.min() >= 0.0 and pos.max() <= 25.0
    with pytest.raises(ValueError):
        datasets.gen_locations_random(0, 25.0, rng)


def test_gen_locations_cohesive_geometry(rng):
    tau = 8.0
    pos, groups = datasets.gen_locations_cohesive(12, 5, tau, rng)
    assert sum(len(g) for g in groups) == pos.shape[0]
    assert all(1 <= len(g) <= 5 for g in groups)
    dist = dense_distance(pos)
    group_of = {}
    for gi, g in enumerate(groups):
        for i in g:
            group_of[i] = gi
    n = pos.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if group_of[i] == group_of[j]:
                assert dist[i, j] < tau
            else:
                assert dist[i, j] > tau


def test_gen_locations_core_scatter_geometry(rng):
    tau = 5.0
    pos = datasets.gen_locations_core_scatter(20, 35, tau, rng)
    assert pos.shape == (35, 2)
    dist = dense_distance(pos)
    core = dist[:20, :20]
    assert core.max() <= tau / 5.0  # dense core, far below tau
    for s in range(20, 35):
        others = np.delete(dist[s], s)
        assert others.min() > tau  # scatter points are unclusterable
    with pytest.raises(ValueError):
        datasets.gen_locations_core_scatter(10, 5, tau, rng)


def test_gen_traffic_random(rng):
    days = datasets.gen_traffic_random(6, 3, 24, rng)
    assert len(days) == 3
    for d in days:
        assert d.values.shape == (6, 24)
        assert d.values.min() >= 0.0 and d.values.max() <= 1.0


def test_gen_traffic_known_optimum_exact_unit_sums(rng):
    groups = [[0, 1, 2], [3], [4, 5]]
    days = datasets.gen_traffic_known_optimum(groups, 6, 4, 24, rng)
    labels = model.Clustering(labels=[1, 1, 1, 2, 3, 3])
    cfg = model.ProblemConfig(w=0.01, tau=1.0, H=24)
    for d in days:
        for g in groups:
            sums = d.values[g].sum(axis=0) if len(g) > 1 else d.values[g[0]]
            # the certificate must be exact, not approximately 1
            assert np.all(objective.cluster_sums(labels.labels, d.values) == 1.0)
        assert objective.metrics(labels, d, cfg).U == 0.0
        assert d.values.min() > 0.0 and d.values.max() <= 1.0
    with pytest.raises(ValueError):
        datasets.gen_traffic_known_optimum([[0, 1], [3]], 4, 1, 24, rng)


def test_gen_traffic_patterned_requires_24_hours(rng):
    with pytest.raises(ValueError):
        datasets.gen_traffic_patterned(5, 2, "milan", rng, hours=12)
    with pytest.raises(ValueError):
        datasets.gen_traffic_patterned(5, 2, "tokyo", rng)


def test_gen_traffic_patterned_peaks_in_plateau(rng):
    for pattern, plateau in (("milan", datasets.MILAN_PLATEAU_HOURS),
                             ("songliao", datasets.SONGLIAO_PLATEAU_HOURS)):
        days = datasets.gen_traffic_patterned(300, 2, pattern, rng)
        peaks = np.concatenate([d.values.argmax(axis=1) for d in days])
        in_plateau = np.isin(peaks, plateau).mean()
        assert in_plateau >= 0.9
        for d in days:
            assert d.values.min() > 0.0 and d.values.max() <= 1.0


def test_patterns_differ(rng):
    milan = datasets.gen_traffic_patterned(200, 1, "milan", rng)[0].values.mean(axis=0)
    songliao = datasets.gen_traffic_patterned(200, 1, "songliao", rng)[0].values.mean(axis=0)
    # songliao holds its plateau mid-morning where milan is still climbing
    assert songliao[10] > milan[10]


def test_make_dataset_kinds():
    for kind in datasets.KINDS:
        ds = datasets.make_dataset(kind, seed=5, n_days=2)
        m = ds.manifest
        assert m.kind == kind
        assert m.n_points == ds.point_set.n_points
        assert m.n_days == len(ds.traffic) == 2
        assert all(t.n_hours == m.hours for t in ds.traffic)
        if kind == "2b":
            assert m.optimal_labels is not None
            cl = model.Clustering(labels=np.array(m.optimal_labels))
            cfg = model.ProblemConfig(w=0.01, tau=1.0, H=m.hours)
            assert objective.metrics(cl, ds.traffic[0], cfg).U == 0.0
        else:
            assert m.optimal_labels is None
    with pytest.raises(ValueError):
        datasets.make_dataset("9z", seed=0)
    with pytest.raises(ValueError, match=r"\['n_points', 'box'\], not \['widgets'\]"):
        datasets.make_dataset("1a", seed=0, widgets=3)


@pytest.mark.parametrize("kind, args, name", [
    ("1a", {"n_points": 20.7}, "n_points"),  # not truncated to 20 points
    ("2b", {"np_max": 3.0}, "np_max"),
    ("3a", {"ng": 0}, "ng"),
    ("1a", {"n_days": 2.5}, "n_days"),
    ("1a", {"hours": 3.5}, "hours"),
    ("1a", {"n_days": 0}, "n_days"),
], ids=["fractional-points", "float-group-size", "empty-core", "fractional-days",
        "fractional-hours", "no-days"])
def test_make_dataset_rejects_non_integer_sizes(kind, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got "):
        datasets.make_dataset(kind, seed=0, **args)
    # numpy integers build the same dataset as Python ints.
    ds = datasets.make_dataset("2b", seed=3, n_days=np.int64(2), hours=np.int32(5),
                               n_groups=np.int64(4))
    assert ds.manifest == datasets.make_dataset("2b", seed=3, n_days=2, hours=5,
                                                n_groups=4).manifest


@pytest.mark.parametrize("kind, args, match", [
    ("1a", {"box": "100"}, "box must be a real number, got '100'"),
    ("1a", {"box": True}, "box must be a real number, got True"),
    ("1a", {"box": math.inf}, "box must be a finite number > 0, got inf"),
    ("1a", {"box": math.nan}, "box must be a finite number > 0, got nan"),
    ("1a", {"box": -5.0}, "box must be a finite number > 0, got -5.0"),
    ("2a", {"tau_gen": math.nan}, "tau_gen must be a finite number > 0, got nan"),
    ("1a", {"seed": True}, "seed must be an integer >= 0, got True"),
    ("1a", {"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ("1a", {"seed": -1}, "seed must be an integer >= 0, got -1"),
], ids=["string-box", "bool-box", "infinite-box", "nan-box", "negative-box", "nan-tau-gen",
        "bool-seed", "fractional-seed", "negative-seed"])
def test_make_dataset_rejects_bad_reals_and_seeds(kind, args, match):
    args = {"seed": 0, **args}
    with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
        datasets.make_dataset(kind, n_days=1, **args)
    # numpy reals and integers build the same dataset as Python floats and ints.
    ds = datasets.make_dataset("1a", seed=np.int64(4), n_days=1, n_points=5,
                               box=np.float32(100.0))
    assert ds.manifest == datasets.make_dataset("1a", seed=4, n_days=1, n_points=5,
                                                box=100.0).manifest
    assert type(ds.manifest.seed) is int and type(ds.manifest.generator_params["box"]) is float


def test_make_dataset_deterministic_and_regenerate():
    a = datasets.make_dataset("2b", seed=9, n_days=3, n_groups=4, np_max=3)
    b = datasets.regenerate(a.manifest)
    assert np.array_equal(a.point_set.positions, b.point_set.positions)
    for ta, tb in zip(a.traffic, b.traffic):
        assert np.array_equal(ta.values, tb.values)
    assert a.manifest == b.manifest


def test_save_load_round_trip(tmp_path):
    ds = datasets.make_dataset("2a", seed=2, n_days=2, n_groups=5, np_max=3)
    out = datasets.save_dataset(ds, tmp_path / "d")
    loaded = datasets.load_dataset(out)
    assert loaded.manifest == ds.manifest
    assert np.array_equal(loaded.point_set.positions, ds.point_set.positions)
    for ta, tb in zip(loaded.traffic, ds.traffic):
        assert np.array_equal(ta.values, tb.values)
    # saving the loaded dataset reproduces the files byte for byte
    out2 = datasets.save_dataset(loaded, tmp_path / "d2")
    for name in ("locations.csv", "traffic.csv", "manifest.json"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()
    # a day's number is its place in the list, so days built from values alone round-trip too
    rebuilt = dataclasses.replace(ds, traffic=[model.TrafficDay(values=t.values)
                                               for t in ds.traffic])
    out3 = datasets.save_dataset(rebuilt, tmp_path / "d3")
    assert (out3 / "traffic.csv").read_bytes() == (out / "traffic.csv").read_bytes()
    reloaded = datasets.load_dataset(out3).traffic
    assert len(reloaded) == len(ds.traffic)
    for ta, tb in zip(reloaded, ds.traffic):
        assert np.array_equal(ta.values, tb.values)


def test_save_dataset_matches_row_by_row_writer(tmp_path):
    milan = datasets.make_dataset("1c-milan", seed=4, n_days=2, n_points=30)
    planted = datasets.make_dataset("2b", seed=3, n_days=2, n_groups=3, np_max=2)
    special = np.array([0.0, -0.0, 1.0, 0.1, 1.0 / 3.0, 5e-324, 2.2250738585072014e-308,
                        0.9999999999999999, 1e-5])
    rng = np.random.default_rng(8)
    odd = dataclasses.replace(
        milan,
        point_set=model.build_distance_matrix(
            rng.choice([-0.0, 0.0, -1e300, 123.456, 1e-310, -7.5], size=(30, 2))),
        traffic=[model.TrafficDay(values=rng.choice(special, size=(30, 24)))
                 for _ in range(3)])
    for i, ds in enumerate([milan, planted, odd]):
        got = datasets.save_dataset(ds, tmp_path / f"new{i}")
        want = reference_save_dataset(ds, tmp_path / f"old{i}")
        for name in ("locations.csv", "traffic.csv", "manifest.json"):
            assert (got / name).read_bytes() == (want / name).read_bytes()


def test_save_dataset_refuses_traffic_that_load_dataset_would_reject(tmp_path):
    ds = datasets.make_dataset("1a", seed=0, n_days=2, n_points=4)
    values = ds.traffic[1].values.copy()
    values[2, 5] = 1.5
    bad = dataclasses.replace(ds, traffic=[ds.traffic[0], model.TrafficDay(values)])
    with pytest.raises(ValueError, match=r"^day 1: traffic value 1\.5 is outside \[0, 1\]$"):
        datasets.save_dataset(bad, tmp_path / "d")
    assert list(tmp_path.iterdir()) == []


def test_regenerate_rejects_csv_provenance(tmp_path):
    ds = datasets.make_dataset("1a", seed=0, n_days=1, n_points=4)
    datasets.save_dataset(ds, tmp_path)
    loaded = datasets.load_csv_dataset(tmp_path / "locations.csv", tmp_path / "traffic.csv")
    assert loaded.manifest.provenance == "csv"
    assert loaded.manifest.n_points == 4
    with pytest.raises(ValueError):
        datasets.regenerate(loaded.manifest)


def test_loader_validation_errors(tmp_path):
    ds = datasets.make_dataset("1a", seed=1, n_days=1, n_points=3)
    datasets.save_dataset(ds, tmp_path)
    loc = tmp_path / "locations.csv"
    tra = tmp_path / "traffic.csv"

    bad = tmp_path / "bad.csv"
    bad.write_text("day,hour,point_id,value\n0,0,0,1.5\n")
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        datasets.load_csv_dataset(loc, bad)

    lines = tra.read_text().splitlines()
    bad.write_text("\n".join(lines[:-1]) + "\n")  # drop one row
    with pytest.raises(ValueError, match="missing entry"):
        datasets.load_csv_dataset(loc, bad)

    bad.write_text("\n".join(lines + [lines[-1]]) + "\n")  # duplicate row
    with pytest.raises(ValueError, match="duplicate"):
        datasets.load_csv_dataset(loc, bad)

    bad.write_text("h1,h2\n0,0\n")
    with pytest.raises(ValueError, match="header"):
        datasets.load_csv_dataset(loc, bad)

    badloc = tmp_path / "badloc.csv"
    badloc.write_text("id,coord1,coord2\n0,0.0,0.0\n2,1.0,1.0\n")
    with pytest.raises(ValueError, match="ids must be"):
        datasets.load_csv_dataset(badloc, tra)


def test_load_dataset_checks_manifest_hours(tmp_path):
    ds = datasets.make_dataset("1a", seed=1, n_days=1, n_points=3)
    datasets.save_dataset(ds, tmp_path)
    tra = tmp_path / "traffic.csv"
    lines = tra.read_text().splitlines()
    tra.write_text("\n".join(line for line in lines if not line.startswith("0,23,")) + "\n")
    with pytest.raises(ValueError, match="manifest disagrees with CSV contents"):
        datasets.load_dataset(tmp_path)


def _write_csvs(out: Path, ids, positions, rows, style: str, quoted: bool) -> tuple[Path, Path]:
    """Bare CSVs in ``save_dataset``'s CRLF csv.writer style or a LF style
    writing ``repr`` floats (as ``perfbench/run.py`` does), fields optionally quoted."""
    loc, tra = out / "locations.csv", out / "traffic.csv"
    tables = [(loc, ["id", "coord1", "coord2"], [(i, *positions[i]) for i in ids]),
              (tra, ["day", "hour", "point_id", "value"], rows)]
    for path, header, body in tables:
        body = [[repr(x) if isinstance(x, float) else str(x) for x in r] for r in body]
        with open(path, "w", newline="") as fh:
            if style == "crlf":
                wr = csv.writer(fh, quoting=csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL)
                wr.writerows([header, *body])
            else:
                q = '"' if quoted else ""
                fh.writelines(",".join(f"{q}{x}{q}" for x in r) + "\n" for r in [header, *body])
    return loc, tra


def _assert_same_load(loc: Path, tra: Path, ref_tra: Path | None = None) -> None:
    got = datasets.load_csv_dataset(loc, tra)
    ref_ps, ref_traffic = reference_read_csvs(loc, ref_tra or tra, "euclidean")
    assert got.point_set.positions.shape == ref_ps.positions.shape
    assert got.point_set.positions.tobytes() == ref_ps.positions.tobytes()
    assert len(got.traffic) == len(ref_traffic)
    for a, b in zip(got.traffic, ref_traffic):
        assert a.values.shape == b.values.shape
        assert a.values.tobytes() == b.values.tobytes()


_SPECIAL_VALUES = [0.0, -0.0, 1.0, 5e-324, 1 - 2**-53]


@st.composite
def _csv_inputs(draw):
    n, days, hours = draw(st.integers(1, 40)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    coord = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(allow_nan=False, allow_infinity=False))
    positions = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    value = st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats(0.0, 1.0))
    rows = [(d, h, p, draw(value)) for d in range(days) for h in range(hours) for p in range(n)]
    return (draw(st.permutations(range(n))), positions, draw(st.permutations(rows)),
            draw(st.sampled_from(["crlf", "lf"])), draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(_csv_inputs())
def test_read_csvs_matches_row_by_row_reference(case):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_same_load(*_write_csvs(Path(tmp), *case))


def test_read_csvs_skips_blank_lines_and_counts_them(tmp_path):
    ids, positions = [0, 1], [(0.0, 0.0), (1.0, 1.0)]
    rows = [(0, 0, 0, 0.5), (0, 0, 1, 0.25)]
    plain = tmp_path / "plain"
    plain.mkdir()
    loc, ref_tra = _write_csvs(plain, ids, positions, rows, "lf", False)
    tra = tmp_path / "traffic.csv"
    lines = ref_tra.read_text().splitlines()
    tra.write_text("\n".join([lines[0], "", lines[1], "", lines[2], "", ""]) + "\n")
    _assert_same_load(loc, tra, ref_tra)
    tra.write_bytes(b"day,hour,point_id,value\r\n\r\n0,0,0,0.5\r\n\r\n0,0,1,1.5\r\n")
    with pytest.raises(ValueError, match=r"traffic.csv line 5: value 1.5 "):
        datasets.load_csv_dataset(loc, tra)


_LOC = "id,coord1,coord2\n0,0.0,0.0\n1,3.0,0.0\n2,0.0,4.0\n"
_TRAFFIC = "day,hour,point_id,value\n"
_ROWS = ["0,0,0,0.5", "0,0,1,0.25", "0,0,2,0.125", "0,1,0,1.0", "0,1,1,0.0", "0,1,2,0.75"]


def _traffic(rows) -> str:
    return _TRAFFIC + "".join(r + "\n" for r in rows)


@pytest.mark.parametrize("loc_text, traffic_text, match", [
    (_LOC, _traffic(_ROWS[:2] + ["0,0,2,1.5"] + _ROWS[3:]), r"line 4: value 1\.5 for day 0"),
    (_LOC, _traffic(["0,0,0,nan"] + _ROWS[1:]), r"line 2: value nan "),
    (_LOC, _traffic(_ROWS[:3] + [_ROWS[0]] + _ROWS[3:] + ["0,1,3,0.5"]), "duplicate entry"),
    (_LOC, _traffic(_ROWS[:2] + ["0,1,3,0.5"] + _ROWS[2:] + [_ROWS[0]]), "out of range"),
    (_LOC, _traffic(_ROWS[:2] + _ROWS[4:]), "missing entry for day 0, hour 0, point 2"),
    (_LOC, _traffic(_ROWS[:2] + ["-1,0,0,0.5"] + _ROWS[2:]), r"entry \(-1,0,0\) out of range"),
    (_LOC, _traffic(_ROWS[:5] + ["0,1,3,0.75"]), r"entry \(0,1,3\) out of range"),
    (_LOC, _traffic(_ROWS[:3] + ["0,-1,0,0.5"] + _ROWS[3:]), r"entry \(0,-1,0\) out of range"),
    (_LOC, _traffic(_ROWS[:3] + ["0,1,-1,0.5"] + _ROWS[3:]), r"entry \(0,1,-1\) out of range"),
    (_LOC, _traffic(["-2,0,0,0.5", "-3,0,1,0.5"]), "negative dimensions"),
    (_LOC, "day,hour,point,value\n" + "".join(r + "\n" for r in _ROWS), "expected header day,"),
    (_LOC, "", "expected header day,hour,point_id,value, got None"),
    ("id,x,y\n0,0.0,0.0\n", _traffic(_ROWS), "expected header id,coord1,coord2"),
    ("id,coord1,coord2\n0,0.0,0.0\n2,1.0,1.0\n", _traffic(_ROWS), r"ids must be exactly 0\.\.1"),
    (_LOC, _TRAFFIC, "no traffic rows"),
], ids=["value-1.5", "value-nan", "duplicate-then-range", "range-then-duplicate", "missing",
        "negative-day", "point-id-n", "negative-hour", "negative-point-id", "every-day-negative",
        "traffic-header", "empty-file", "locations-header", "ids-0-2", "empty-body"])
def test_read_csvs_rejects_like_row_by_row_reference(tmp_path, loc_text, traffic_text, match):
    loc, tra = tmp_path / "locations.csv", tmp_path / "traffic.csv"
    loc.write_text(loc_text)
    tra.write_text(traffic_text)
    with pytest.raises(ValueError, match=match) as ref:
        reference_read_csvs(loc, tra, "euclidean")
    with pytest.raises(ValueError) as got:
        datasets.load_csv_dataset(loc, tra)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("loc_text, traffic_text, bad", [
    ("id,coord1,coord2\n0,0.0,0.0\n1.5,1.0,1.0\n", _traffic(_ROWS), "locations"),
    (_LOC, _traffic(_ROWS[:3] + ["0,1,x,1.0"] + _ROWS[4:]), "traffic"),
], ids=["id-1.5", "point-id-x"])
def test_read_csvs_parse_errors_name_the_file(tmp_path, loc_text, traffic_text, bad):
    # Both readers reject an unparsable number. The messages differ: the
    # library passes on np.loadtxt's, prefixed with the file's path.
    loc, tra = tmp_path / "locations.csv", tmp_path / "traffic.csv"
    loc.write_text(loc_text)
    tra.write_text(traffic_text)
    with pytest.raises(ValueError):
        reference_read_csvs(loc, tra, "euclidean")
    with pytest.raises(ValueError, match="could not convert string") as got:
        datasets.load_csv_dataset(loc, tra)
    assert str(got.value).startswith(f"{tmp_path / (bad + '.csv')}: ")


@pytest.mark.parametrize("traffic_bytes, line", [
    (b"day,hour,point_id,value\n0,0,0,0.5\n\n0,0,x,0.25\n", 4),
    (b"day,hour,point_id,value\r\n\r\n0,0,0,0.5\r\n\r\n\r\n0,0,1\r\n", 6),
    (b"day,hour,point_id,value\n0,0,0,0.5\n   \n0,0,1,0.25\n", 3),
], ids=["blank-then-bad-number", "crlf-blanks-then-short-row", "whitespace-line"])
def test_read_csvs_parse_errors_give_the_physical_line(tmp_path, traffic_bytes, line):
    loc, tra = tmp_path / "locations.csv", tmp_path / "traffic.csv"
    loc.write_text(_LOC)
    tra.write_bytes(traffic_bytes)
    with pytest.raises(ValueError) as got:
        datasets.load_csv_dataset(loc, tra)
    assert str(got.value).startswith(f"{tra}: ")
    assert str(got.value).endswith(f" (line {line})")


def test_manifest_json_round_trip():
    ds = datasets.make_dataset("2b", seed=3, n_days=1, n_groups=3, np_max=2)
    m2 = datasets.DatasetManifest.from_json(ds.manifest.to_json())
    assert m2 == ds.manifest
    doc = json.loads(ds.manifest.to_json())
    assert doc["kind"] == "2b" and isinstance(doc["optimal_labels"], list)
