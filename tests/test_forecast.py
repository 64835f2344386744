import numpy as np
import pytest

from bbuclust import forecast, model


def _days(rng, n=4, points=3, hours=5):
    return [model.TrafficDay(values=rng.random((points, hours)))
            for _ in range(n)]


def test_persistence_predict(rng):
    days = _days(rng)
    pred = forecast.persistence_predict(days, 1)
    assert np.array_equal(pred.values, days[1].values)
    with pytest.raises(ValueError):
        forecast.persistence_predict(days, 4)
    with pytest.raises(ValueError):
        forecast.persistence_predict(days, -1)


def test_oracle_predict(rng):
    days = _days(rng)
    pred = forecast.oracle_predict(days, 1)
    assert np.array_equal(pred.values, days[2].values)
    with pytest.raises(ValueError):
        forecast.oracle_predict(days, 3)  # day 4 does not exist


def test_forecast_error_hand_values():
    a = model.TrafficDay(values=[[0.5, 0.5]])
    b = model.TrafficDay(values=[[0.7, 0.1]])
    err = forecast.forecast_error(a, b)
    assert err.mae == pytest.approx((0.2 + 0.4) / 2)
    assert err.rmse == pytest.approx(np.sqrt((0.04 + 0.16) / 2))
    with pytest.raises(ValueError):
        forecast.forecast_error(a, model.TrafficDay(values=[[0.1, 0.1, 0.1]]))


def test_persistence_error_matches_plain_loops(rng):
    days = _days(rng, n=2, points=4, hours=6)
    err = forecast.forecast_error(forecast.persistence_predict(days, 0), days[1])
    total = 0.0
    for i in range(4):
        for h in range(6):
            total += abs(days[0].values[i][h] - days[1].values[i][h])
    assert err.mae == pytest.approx(total / 24)


def test_make_forecaster():
    assert forecast.make_forecaster("oracle") is forecast.oracle_predict
    assert forecast.make_forecaster("persistence") is forecast.persistence_predict
    with pytest.raises(ValueError):
        forecast.make_forecaster("lstm")
