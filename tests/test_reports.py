import math

import pytest

from sasaklab.reports import ResidualLedger, ResidualStat


@pytest.mark.parametrize("values", [
    [math.nan],
    [1e-9, math.nan],
    [math.nan, 1e-9],
    [1e-9, math.nan, 2.0],
], ids=["alone", "last", "first", "before-a-breach"])
def test_nan_residual_is_out_of_tolerance(values):
    stat = ResidualStat("x", 1e-5)
    for v in values:
        stat.add(v)
    assert math.isnan(stat.max)
    assert not stat.ok and not stat.as_dict()["within_tolerance"]


def test_nan_residual_fails_the_ledger():
    led = ResidualLedger()
    led.add("a", 1e-5, 1e-9)
    led.add("b", 1e-5, float("nan"))
    led.add("b", 1e-5, 1e-9)
    assert not led.all_ok()
    assert [s["name"] for s in led.as_list() if not s["within_tolerance"]] == ["b"]
