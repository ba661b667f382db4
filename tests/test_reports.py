import math
import struct

import numpy as np
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


@pytest.mark.parametrize("values", [
    [0.5, 1e-9, 3.0, 0.1, 2.0],
    [math.nan, 1e-9, 2.0],
    [1e-9, math.nan, 2.0],
    [1e-9, 2.0, math.nan],
    [-0.0],
    [-0.0, 0.0, -1e-300],
    [1e16] + [1.0] * 16,  # summed in order, each 1.0 rounds away
], ids=["plain", "nan-first", "nan-middle", "nan-last", "negative-zero", "signed-zeros",
        "order-sensitive-sum"])
def test_array_add_matches_per_value_adds(values):
    def bits(x):
        return "nan" if math.isnan(x) else struct.pack("<d", x)

    # the rule one float at a time: NaN sticks in max, the total in order
    count, top, total = 0, 0.0, 0.0
    for v in map(abs, values):
        count += 1
        top = v if v > top or math.isnan(v) else top
        total += v
    want = (count, bits(top), bits(total / count))

    one, whole, halves = (ResidualStat("x", 1e-5) for _ in range(3))
    for v in values:
        one.add(v)
    whole.add(np.array(values))
    for part in (values[:2], values[2:]):
        if part:
            halves.add(np.array(part))
    for stat in (one, whole, halves):
        assert type(stat.count) is int and type(stat.max) is float
        assert (stat.count, bits(stat.max), bits(stat.mean)) == want


def test_empty_array_makes_no_entry():
    led = ResidualLedger()
    led.add("a", 1e-5, np.array([]))
    led.add("b", 1e-5, np.zeros((0, 2)))
    assert led.as_list() == [] and led.all_ok()
    led.add("a", 1e-5, np.array([1e-9]))
    led.add("a", 1e-5, np.array([]))
    assert [(s["name"], s["count"]) for s in led.as_list()] == [("a", 1)]
