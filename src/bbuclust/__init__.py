"""bbuclust: constrained day-by-day clustering of radio heads onto baseband units."""

from .model import (Clustering, PointSet, ProblemConfig, TrafficDay,
                    build_distance_matrix, is_feasible, within_tau)
from .objective import (FitnessValue, LegacyScore, MetricsReport, legacy_score, metrics,
                        micro_reference_rows, peak_hours, render_micro_reference)
from .forecast import (ForecastError, forecast_error, make_forecaster,
                       oracle_predict, persistence_predict)
from .datasets import (Dataset, DatasetManifest, load_csv_dataset, load_dataset,
                       make_dataset, regenerate, save_dataset)
from .solvers import DayResult, EaConfig, run_ea, run_greedy
from .stats import ComparisonResult, chi2_sf, friedman_nemenyi, rank_rows
from .harness import (AlgorithmSpec, ExperimentResult, ExperimentSpec, ResultTable,
                      RunRecord, aggregate, export_curves, read_records, resolve_tau,
                      run_experiment, standard_algorithms, sweep, write_records)

__version__ = "0.1.0"

__all__ = [
    "Clustering", "PointSet", "ProblemConfig", "TrafficDay",
    "build_distance_matrix", "is_feasible", "within_tau",
    "FitnessValue", "LegacyScore", "MetricsReport", "legacy_score", "metrics",
    "micro_reference_rows", "peak_hours", "render_micro_reference",
    "ForecastError", "forecast_error", "make_forecaster", "oracle_predict",
    "persistence_predict",
    "Dataset", "DatasetManifest", "load_csv_dataset", "load_dataset",
    "make_dataset", "regenerate", "save_dataset",
    "DayResult", "EaConfig", "run_ea", "run_greedy",
    "ComparisonResult", "chi2_sf", "friedman_nemenyi", "rank_rows",
    "AlgorithmSpec", "ExperimentResult", "ExperimentSpec", "ResultTable",
    "RunRecord", "aggregate", "export_curves", "read_records", "resolve_tau",
    "run_experiment", "standard_algorithms", "sweep", "write_records",
    "__version__",
]
