"""Next-day traffic forecasters and forecast-error reporting."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import TrafficDay

FORECASTERS = ("oracle", "persistence")


@dataclass(frozen=True)
class ForecastError:
    mae: float
    rmse: float


def persistence_predict(traffic_days: Sequence[TrafficDay], d: int) -> TrafficDay:
    """Predict day d+1 as a copy of day d (tomorrow looks like today)."""
    if not (0 <= d < len(traffic_days)):
        raise ValueError(f"day {d} out of range 0..{len(traffic_days) - 1}")
    return TrafficDay(values=traffic_days[d].values.copy())


def oracle_predict(traffic_days: Sequence[TrafficDay], d: int) -> TrafficDay:
    """Predict day d+1 as its actual traffic (perfect-information baseline)."""
    if not (0 <= d < len(traffic_days) - 1):
        raise ValueError(f"oracle needs day {d + 1} to exist; have days 0..{len(traffic_days) - 1}")
    return TrafficDay(values=traffic_days[d + 1].values.copy())


def forecast_error(predicted: TrafficDay, actual: TrafficDay) -> ForecastError:
    """Elementwise MAE and RMSE between predicted and actual traffic."""
    if predicted.values.shape != actual.values.shape:
        raise ValueError("predicted and actual traffic shapes differ")
    diff = predicted.values - actual.values
    return ForecastError(mae=float(np.abs(diff).mean()),
                         rmse=float(np.sqrt((diff * diff).mean())))


def make_forecaster(name: str) -> Callable[[Sequence[TrafficDay], int], TrafficDay]:
    """Look up a forecaster by CLI name."""
    if name == "persistence":
        return persistence_predict
    if name == "oracle":
        return oracle_predict
    raise ValueError(f"unknown forecaster {name!r}; expected one of {FORECASTERS}")
