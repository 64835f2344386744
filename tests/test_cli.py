import inspect
import json
import shutil

import pytest

import bbuclust
from bbuclust import cli, harness, solvers


@pytest.fixture(scope="module")
def ds_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "tiny2b"
    rc = cli.main(["gen-dataset", "--type", "2b", "--seed", "1", "--days", "2",
                   "--n-groups", "4", "--np-max", "3", "--tau-gen", "10",
                   "--name", "tiny2b", "--out", str(out)])
    assert rc == 0
    return out


RUN_FLAGS = ["--algorithms", "splitea,greedy", "--runs", "2", "--popsize", "4",
             "--maxgen", "5", "--budget", "20", "--tau", "10"]


def test_gen_dataset_files(ds_dir):
    assert (ds_dir / "manifest.json").exists()
    assert (ds_dir / "locations.csv").exists()
    assert (ds_dir / "traffic.csv").exists()
    manifest = json.loads((ds_dir / "manifest.json").read_text())
    assert manifest["kind"] == "2b"
    assert manifest["optimal_labels"] is not None


def test_run_writes_outputs(ds_dir, tmp_path, capsys):
    out = tmp_path / "res"
    rc = cli.main(["run", "--dataset", str(ds_dir), *RUN_FLAGS, "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "tau" in printed and "splitea" in printed and "greedy" in printed
    assert (out / "records.ndjson").exists()
    assert (out / "table.txt").exists()
    table = json.loads((out / "table.json").read_text())
    assert table["algorithms"] == ["splitea", "greedy"]
    assert len(table["metrics"]["f"]["means"]) == 2


def test_run_deterministic_bytes(ds_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--dataset", str(ds_dir), *RUN_FLAGS, "--out", str(out1)]) == 0
    assert cli.main(["run", "--dataset", str(ds_dir), *RUN_FLAGS,
                     "--workers", "2", "--out", str(out2)]) == 0
    for name in ("records.ndjson", "table.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_compare_merges_records(ds_dir, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    base = ["--dataset", str(ds_dir), "--runs", "2", "--popsize", "4", "--maxgen", "5",
            "--budget", "20", "--tau", "10"]
    assert cli.main(["run", *base, "--algorithms", "splitea", "--out", str(out1)]) == 0
    assert cli.main(["run", *base, "--algorithms", "greedy", "--out", str(out2)]) == 0
    capsys.readouterr()
    rc = cli.main(["compare", "--records", str(out1 / "records.ndjson"),
                   "--records", str(out2 / "records.ndjson"),
                   "--out", str(tmp_path / "cmp")])
    assert rc == 0
    table = json.loads((tmp_path / "cmp" / "table.json").read_text())
    assert table["algorithms"] == ["splitea", "greedy"]
    assert len(table["metrics"]["f"]["means"]) == 2


def test_export_curves_cmd(ds_dir, tmp_path):
    out = tmp_path / "res"
    assert cli.main(["run", "--dataset", str(ds_dir), *RUN_FLAGS, "--out", str(out)]) == 0
    curves = tmp_path / "curves.csv"
    rc = cli.main(["export-curves", "--records", str(out / "records.ndjson"),
                   "--out", str(curves)])
    assert rc == 0
    lines = curves.read_text().splitlines()
    assert lines[0] == "algorithm,run,day,generation,best_f"
    assert len(lines) > 10


def test_sweep_cmd(ds_dir, tmp_path, capsys):
    out = tmp_path / "sw"
    rc = cli.main(["sweep", "--dataset", str(ds_dir), *RUN_FLAGS,
                   "--param", "w", "--values", "0.01,0.1", "--out", str(out)])
    assert rc == 0
    sweep = json.loads((out / "sweep.json").read_text())
    assert [entry["value"] for entry in sweep] == [0.01, 0.1]
    assert all("table" in entry for entry in sweep)
    assert (out / "records-w-0.01.ndjson").exists()
    assert (out / "records-w-0.1.ndjson").exists()


@pytest.mark.parametrize("argv, named", [
    (["sweep", "--param", "budget", "--values", "20,20.9"], "20.9"),
    (["run", "--workers", "-3"], "-3"),
    (["run", "--workers", "0"], "0"),
], ids=["fractional-budget", "negative-workers", "no-workers"])
def test_run_and_sweep_reject_bad_counts(ds_dir, tmp_path, capsys, argv, named):
    # Rejected before anything runs: one error line naming the value, no output.
    out = tmp_path / "res"
    assert cli.main([argv[0], "--dataset", str(ds_dir), *RUN_FLAGS, *argv[1:],
                     "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert captured.out == "" and not out.exists()


def test_run_flag_defaults_are_the_spec_defaults():
    args = cli.build_parser().parse_args(["run", "--dataset", "x"])
    exp, alg, ea = harness.ExperimentSpec, harness.AlgorithmSpec, solvers.EaConfig
    assert args.seed == exp.base_seed
    for name in ("runs", "w", "tau", "forecaster", "alpha", "workers"):
        assert getattr(args, name) == getattr(exp, name), name
    for name in ("popsize", "maxgen", "prob", "budget"):
        assert getattr(args, name) == getattr(alg, name), name
    for name in ("popsize", "maxgen", "prob"):
        assert getattr(args, name) == getattr(ea, name), name
    params = inspect.signature(harness.standard_algorithms).parameters
    for name in ("popsize", "maxgen", "prob", "budget"):
        assert params[name].default == getattr(alg, name), name


def test_table1_output(capsys):
    rc = cli.main(["table1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.004" in out
    assert "ds6" in out


@pytest.mark.parametrize("flags", [
    ["--type", "1a", "--days", "0"],
    ["--type", "1a", "--days", "-2"],
    ["--type", "1a", "--hours", "0"],
    ["--type", "3a", "--n-points", "5"],
    ["--type", "1a", "--box", "inf"],
    ["--type", "2a", "--tau-gen", "nan"],
    ["--type", "1a", "--seed", "-1"],
], ids=["no-days", "negative-days", "no-hours", "size-of-other-kind", "infinite-box",
        "nan-tau-gen", "negative-seed"])
def test_gen_dataset_rejects_empty_sizes(tmp_path, capsys, flags):
    out = tmp_path / "x"
    assert cli.main(["gen-dataset", *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert captured.out == "" and not out.exists()


def test_public_names_resolve_once():
    names = bbuclust.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(bbuclust, name), name


def test_error_exits(ds_dir, tmp_path, capsys):
    assert cli.main(["run", "--dataset", str(tmp_path / "nope"), *RUN_FLAGS]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(["gen-dataset", "--type", "1c-milan", "--seed", "0", "--days", "1",
                     "--hours", "12", "--out", str(tmp_path / "x")]) == 1
    assert "24" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["run", "--dataset", str(ds_dir), "--alpha", "0.2"])


@pytest.mark.parametrize("edit, named", [
    (lambda m: {**m, "extra": 1}, "'extra'"),
    (lambda m: {k: v for k, v in m.items() if k != "seed"}, "'seed'"),
    (lambda m: [m], "'list'"),
    (lambda m: {**m, "optimal_labels": [1, 2]}, "optimal_labels has 2 entries for"),
    (lambda m: {**m, "optimal_labels": [3] + [1] * (m["n_points"] - 1)}, "carries label 2"),
    (lambda m: {**m, "optimal_labels": [1.9] + [1] * (m["n_points"] - 1)},
     "optimal_labels = [1.9, 1, "),
    (lambda m: {**m, "optimal_labels": "1"}, "optimal_labels = '1' is not tuple[int, ...]"),
    (lambda m: {**m, "n_days": True}, "n_days = True is not int"),
    (lambda m: {**m, "seed": 0.0}, "seed = 0.0 is not int"),
    (lambda m: {**m, "generator_params": []}, "generator_params = [] is not dict"),
    (lambda m: {**m, "distance_metric": None}, "distance_metric = None is not str"),
], ids=["unknown-field", "missing-field", "not-an-object", "short-labels", "gapped-labels",
        "real-labels", "text-labels", "bool-count", "real-seed", "list-params", "null-metric"])
def test_run_rejects_malformed_manifest(ds_dir, tmp_path, capsys, edit, named):
    d = tmp_path / "bad"
    shutil.copytree(ds_dir, d)
    (d / "manifest.json").write_text(json.dumps(edit(json.loads((d / "manifest.json")
                                                                .read_text()))))
    assert cli.main(["run", "--dataset", str(d), *RUN_FLAGS]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and named in err[0]
    assert err[0].startswith(f"error: {d / 'manifest.json'}: not a dataset manifest (")


@pytest.fixture(scope="module")
def records_lines(ds_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("res")
    assert cli.main(["run", "--dataset", str(ds_dir), *RUN_FLAGS, "--out", str(out)]) == 0
    return (out / "records.ndjson").read_text().splitlines()


@pytest.mark.parametrize("edit, named", [
    (lambda r: {k: v for k, v in r.items() if k != "days"}, "'days'"),
    (lambda r: {**r, "days": [{k: v for k, v in d.items() if k != "trace"}
                              for d in r["days"]]}, "'trace'"),
    (lambda r: {**r, "extra": 1}, "'extra'"),
    (lambda r: [r], "list indices"),
    ("{", "JSONDecodeError"),
    (lambda r: {**r, "days": [{**r["days"][0], "f": "abc"}]}, "f = 'abc' is not float"),
    (lambda r: {**r, "days": [{**r["days"][0], "U": True}]}, "U = True is not float"),
    (lambda r: {**r, "days": [{**r["days"][0], "K": 2.0}]}, "K = 2.0 is not int"),
    (lambda r: {**r, "run": False}, "run = False is not int"),
    (lambda r: {**r, "algorithm": 3}, "algorithm = 3 is not str"),
    (lambda r: {**r, "days": [{**r["days"][0], "trace": [1.0, "x"]}]}, "trace = [1.0, 'x']"),
    (lambda r: {**r, "days": [{**r["days"][0], "trace": 1.0}]}, "trace = 1.0 is not tuple"),
    (lambda r: {**r, "days": []}, "days = [] is not tuple"),
    (lambda r: {**r, "days": [1]}, "'int' is not iterable"),
], ids=["no-days", "no-trace", "unknown-field", "not-an-object", "not-json", "text-real",
        "bool-real", "real-int", "bool-int", "int-str", "trace-text", "trace-number",
        "no-day", "day-number"])
def test_compare_rejects_malformed_records(records_lines, tmp_path, capsys, edit, named):
    # The second line is bad: the error names the file, the line and the field.
    path, lines = tmp_path / "records.ndjson", list(records_lines)
    lines[1] = edit if type(edit) is str else json.dumps(edit(json.loads(lines[1])))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["compare", "--records", str(path), "--out", str(tmp_path / "cmp")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and named in err[0]
    assert err[0].startswith(f"error: {path} line 2: not a run record (")


@pytest.mark.parametrize("name, edit", [
    ("traffic.csv", lambda lines: lines[:3] + ["0,0,2"] + lines[4:]),
    ("traffic.csv", lambda lines: lines[:3] + [lines[3] + ",7"] + lines[4:]),
    ("locations.csv", lambda lines: lines[:2] + ["1,0.5"] + lines[3:]),
    ("traffic.csv", lambda lines: lines[:3] + ["   "] + lines[3:]),
], ids=["too-few-fields", "five-fields", "locations-two-fields", "whitespace-line"])
def test_run_rejects_malformed_rows(ds_dir, tmp_path, capsys, name, edit):
    d = tmp_path / "bad"
    shutil.copytree(ds_dir, d)
    lines = (d / name).read_text().splitlines()
    (d / name).write_text("\n".join(edit(lines)) + "\n")
    assert cli.main(["run", "--dataset", str(d), *RUN_FLAGS]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {d / name}: ")
