"""Command-line interface: run experiments, sweeps, dataset generation, reports."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import datasets, forecast, harness, objective, stats


def _common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True, help="dataset directory (manifest + CSVs)")
    p.add_argument("--algorithms", default="splitea,greedy",
                   help="comma-separated subset of: " + ",".join(harness.ALGORITHM_PRESETS))
    exp, alg = harness.ExperimentSpec, harness.AlgorithmSpec
    p.add_argument("--runs", type=int, default=exp.runs)
    p.add_argument("--seed", type=int, default=exp.base_seed,
                   help="base seed; per-run seeds derive from it")
    p.add_argument("--w", type=float, default=exp.w)
    p.add_argument("--tau", type=float, default=exp.tau,
                   help="absolute distance cap (default: 3x the mean nearest-neighbour distance)")
    p.add_argument("--forecaster", choices=forecast.FORECASTERS, default=exp.forecaster)
    p.add_argument("--alpha", type=float, default=exp.alpha, choices=stats.Q_ALPHA)
    p.add_argument("--popsize", type=int, default=alg.popsize)
    p.add_argument("--maxgen", type=int, default=alg.maxgen)
    p.add_argument("--prob", type=float, default=alg.prob)
    p.add_argument("--budget", type=int, default=alg.budget)
    p.add_argument("--workers", type=int, default=exp.workers)
    p.add_argument("--out", default=None, help="output directory")


def _build_spec(args) -> harness.ExperimentSpec:
    ds = datasets.load_dataset(args.dataset)
    names = [n.strip() for n in args.algorithms.split(",") if n.strip()]
    algs = harness.standard_algorithms(names, popsize=args.popsize, maxgen=args.maxgen,
                                       prob=args.prob, budget=args.budget)
    return harness.ExperimentSpec(
        dataset=ds, algorithms=tuple(algs), runs=args.runs, base_seed=args.seed,
        w=args.w, tau=args.tau, forecaster=args.forecaster,
        alpha=args.alpha, workers=args.workers)


def _write_table(table: harness.ResultTable, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "table.json").write_text(table.to_json() + "\n")
    (out / "table.txt").write_text(table.render() + "\n")


def _cmd_run(args) -> int:
    result = harness.run_experiment(_build_spec(args))
    print(f"tau = {result.tau!r}")
    print(result.table.render())
    if args.out:
        out = Path(args.out)
        _write_table(result.table, out)
        harness.write_records(result.records, out / "records.ndjson")
        print(f"wrote {out / 'records.ndjson'}, table.json, table.txt")
    return 0


def _cmd_sweep(args) -> int:
    spec = _build_spec(args)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    results = harness.sweep(spec, args.param, values)
    docs = []
    for v, res in results:
        print(f"--- {args.param} = {v} (tau = {res.tau!r}) ---")
        print(res.table.render())
        docs.append({"value": v, "tau": res.tau, "table": json.loads(res.table.to_json())})
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep.json").write_text(json.dumps(docs, indent=2, sort_keys=True) + "\n")
        for v, res in results:
            harness.write_records(res.records, out / f"records-{args.param}-{v}.ndjson")
        print(f"wrote {out / 'sweep.json'}")
    return 0


def _cmd_compare(args) -> int:
    records = []
    for path in args.records:
        records.extend(harness.read_records(path))
    table = harness.aggregate(records, alpha=args.alpha)
    print(table.render())
    if args.out:
        _write_table(table, Path(args.out))
    return 0


def _cmd_export_curves(args) -> int:
    records = harness.read_records(args.records)
    harness.export_curves(records, args.out)
    print(f"wrote {args.out}")
    return 0


# gen-dataset's size flags and their types: every kind's size arguments (a kind
# rejects those it does not take), plus ``hours``.
_SIZE_TYPES = {**{k: type(d) for sizes in datasets.SIZES.values() for k, d in sizes.items()},
               "hours": int}


def _cmd_gen_dataset(args) -> int:
    sizes = {k: getattr(args, k) for k in _SIZE_TYPES if getattr(args, k) is not None}
    ds = datasets.make_dataset(args.type, seed=args.seed, n_days=args.days,
                               name=args.name, **sizes)
    out = datasets.save_dataset(ds, args.out)
    print(f"wrote {ds.manifest.n_points} points x {ds.manifest.n_days} days "
          f"x {ds.manifest.hours} hours to {out}")
    return 0


def _cmd_table1(args) -> int:
    text = objective.render_micro_reference()
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bbuclust",
                                 description="Constrained day-by-day traffic clustering toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="compare algorithms on a dataset")
    _common_run_flags(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="re-run a comparison across one parameter")
    _common_run_flags(p)
    p.add_argument("--param", required=True, choices=list(harness.SWEEPS))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("compare", help="aggregate stored run records")
    p.add_argument("--records", action="append", required=True)
    p.add_argument("--alpha", type=float, default=0.05, choices=stats.Q_ALPHA)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("export-curves", help="dump per-day convergence traces to CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_curves)

    p = sub.add_parser("gen-dataset", help="generate a synthetic dataset directory")
    p.add_argument("--type", required=True, choices=list(datasets.KINDS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=int, default=7)
    p.add_argument("--name", default=None)
    p.add_argument("--out", required=True)
    for key, cast in _SIZE_TYPES.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=cast, default=None)
    p.set_defaults(fn=_cmd_gen_dataset)

    p = sub.add_parser("table1", help="print the micro reference score table")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_table1)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
