import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasaklab import jets
from sasaklab.jets import (Dual, along, d_scalar, enter_level, exit_level, imag, jsqrt, stack,
                           value)
from sasaklab.vecops import clamped_sqrt, lane_max, lane_pow, nonnegative

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
nonzero = st.floats(min_value=0.1, max_value=10).map(lambda x: x)


class TestAlong:
    def test_nested_output_keeps_shape(self):
        # constants and untouched entries come back as 0.0
        fn = lambda q: (q[0] * q[0], [q[1], (7.0, [q[0] * q[1]])], [])
        got = along(fn, [2.0, 3.0], [1.0, 0.0])
        assert got == (4.0, [0.0, (0.0, [3.0])], [])
        assert isinstance(got, tuple) and isinstance(got[1], list)
        assert isinstance(got[1][1], tuple)

    def test_three_level_nesting_of_vector_output(self):
        # f = (x y z, x^2 y): d3/dxdydz = (1, 0) exactly
        f = lambda v: [v[0] * v[1] * v[2], v[0] * v[0] * v[1]]
        g = lambda q: along(f, q, [0.0, 0.0, 1.0])
        h = lambda q: along(g, q, [0.0, 1.0, 0.0])
        got = along(h, [1.1, 2.2, 3.3], [1.0, 0.0, 0.0])
        assert got[0] == pytest.approx(1.0, rel=1e-13)
        assert got[1] == 0.0

    def test_level_restored_when_fn_raises(self):
        def boom(q):
            raise ZeroDivisionError("inside the jet")

        before = enter_level()
        exit_level()
        with pytest.raises(ZeroDivisionError):
            along(lambda q: along(boom, q, [1.0]), [1.0], [1.0])
        after = enter_level()
        exit_level()
        assert after == before


class TestDualTower:
    def test_first_derivative(self):
        d = d_scalar(lambda v: v[0] * v[0] * v[0], [2.0], [1.0])
        assert d == pytest.approx(12.0, rel=1e-14)

    def test_mixed_partial_via_nesting(self):
        # f(x, y) = x^2 y + y^3, d2f/dxdy at (3, 5) = 2x = 6
        f = lambda v: v[0] * v[0] * v[1] + v[1] * v[1] * v[1]
        mixed = d_scalar(lambda q: d_scalar(f, q, [0.0, 1.0]), [3.0, 5.0], [1.0, 0.0])
        assert mixed == pytest.approx(6.0, rel=1e-14)

    def test_triple_nesting(self):
        # f = x y z: d3f/dxdydz = 1 exactly
        f = lambda v: v[0] * v[1] * v[2]
        g = lambda q: d_scalar(f, q, [0.0, 0.0, 1.0])
        h = lambda q: d_scalar(g, q, [0.0, 1.0, 0.0])
        assert d_scalar(h, [1.1, 2.2, 3.3], [1.0, 0.0, 0.0]) == pytest.approx(1.0, rel=1e-13)

    def test_same_direction_pair_matches_second_derivative(self):
        # two equal perturbations: the mixed coefficient is f''
        f = lambda v: v[0] * v[0] * v[0]
        mixed = d_scalar(lambda q: d_scalar(f, q, [1.0]), [2.0], [1.0])
        assert mixed == pytest.approx(12.0, rel=1e-14)

    def test_division_and_sqrt(self):
        f = lambda v: jsqrt(v[0] * v[0] + v[1] * v[1]) / v[1]
        x, y = 3.0, 4.0
        d = d_scalar(f, [x, y], [1.0, 0.0])
        r = math.hypot(x, y)
        assert d == pytest.approx((x / r) / y, rel=1e-13)

    def test_vector_field_derivative(self):
        field = lambda q: [q[0] * q[1], q[1] * q[1]]
        d = along(field, [2.0, 3.0], [1.0, 1.0])
        assert d[0] == pytest.approx(5.0)
        assert d[1] == pytest.approx(6.0)

    def test_value_strips_all_structure(self):
        lvl = enter_level()
        try:
            x = Dual(lvl, Dual(lvl - 1, 2.0, 1.0) if lvl > 1 else 2.0, 1.0)
        finally:
            exit_level()
        assert value(x) == 2.0

    def test_imag_of_constant_is_zero(self):
        lvl = enter_level()
        try:
            assert imag(7.5, lvl) == 0.0
        finally:
            exit_level()

    @given(x=nonzero, v=finite)
    @settings(max_examples=30, deadline=None)
    def test_derivative_of_inverse(self, x, v):
        d = d_scalar(lambda q: 1.0 / q[0], [x], [v])
        assert d == pytest.approx(-v / (x * x), rel=1e-12, abs=1e-12)


class TestLanes:
    """Array leaves: one entry per sample, each rounded like a float."""

    def test_array_operands_defer_to_dual(self):
        a = np.array([1.0, 2.0, 3.0])
        lvl = enter_level()
        try:
            d = Dual(lvl, np.array([0.5, -1.5, 2.5]), np.array([1.0, 0.0, -2.0]))
            for got in (a * d, d * a, a + d, a - d, a / d, d / a):
                assert isinstance(got, Dual)
                assert isinstance(got.re, np.ndarray) and got.re.dtype == float
                assert isinstance(got.im, np.ndarray) and got.im.dtype == float
            assert np.array_equal((a * d).im, a * d.im)
        finally:
            exit_level()

    def test_jsqrt_on_arrays(self):
        x = np.array([0.0, 2.0, 9.0])
        assert np.array_equal(jsqrt(x), [math.sqrt(v) for v in x])
        d = along(lambda q: jsqrt(q[0] * q[0] + 1.0), [x], [np.ones(3)])
        assert np.array_equal(d, [along(lambda q: jsqrt(q[0] * q[0] + 1.0), [v], [1.0])
                                  for v in x])

    def test_nested_along_matches_each_lane_bitwise(self):
        r = np.random.default_rng(7)
        point, direction = r.standard_normal((2, 4, 5))

        def rational(v):
            return (v[0] * v[1] + 1.0) / jsqrt(v[2] * v[2] + 2.0) + v[3] * v[0]

        def mixed(p, u):
            return along(lambda q: along(rational, q, u), p, u[::-1])

        lanes = mixed(list(point), list(direction))
        assert isinstance(lanes, np.ndarray) and lanes.shape == (5,)
        for i in range(5):
            scalar = mixed([float(c) for c in point[:, i]], [float(c) for c in direction[:, i]])
            assert lanes[i] == scalar


    def test_clamped_sqrt_keeps_nan_and_clamps_negatives_like_floats(self):
        x = np.array([4.0, -1e-17, math.nan, -0.0, 0.0, 2.0, -3.0])
        lanes = clamped_sqrt(x)
        floats = [math.sqrt(max(v, 0.0)) for v in x.tolist()]
        assert [math.copysign(1.0, v) for v in lanes] == [math.copysign(1.0, v) for v in floats]
        assert np.array_equal(lanes, floats, equal_nan=True)
        assert lanes[1] == 0.0 and math.isnan(lanes[2])
        assert math.isnan(clamped_sqrt(math.nan)) and clamped_sqrt(-2.0) == 0.0
        lvl = enter_level()
        try:
            assert clamped_sqrt(Dual(lvl, 9.0, 1.0)) == 3.0
            assert np.array_equal(nonnegative(Dual(lvl, x, x)), nonnegative(x), equal_nan=True)
        finally:
            exit_level()

    def test_lane_max_keeps_what_python_max_keeps(self):
        # a NaN is kept only where it comes first; -0.0 and 0.0 tie
        rows = [[1.0, math.nan, 2.0], [math.nan, 1.0, 0.5], [-0.0, 0.0, 3.0],
                [0.0, -0.0, math.nan], [2.0, 1.0, -1.0]]
        lanes = lane_max([np.array(col) for col in zip(*rows)])
        floats = [max(row) for row in rows]
        assert np.array_equal(lanes, floats, equal_nan=True)
        assert [math.copysign(1.0, v) for v in lanes] == [math.copysign(1.0, v) for v in floats]
        assert lane_max([math.nan, 1.0]) != lane_max([1.0, math.nan])
        assert lane_max([0.5, np.array([math.nan, 1.0])]).tolist() == [0.5, 1.0]

    def test_lane_pow_rounds_like_float_pow(self):
        # numpy's power (and its x * x fast path) differ from libm's pow
        # in the last bit for some inputs; every lane must keep pow's bits
        x = np.random.default_rng(3).standard_normal(20000)
        for k in (2, 1.0 / 3.0):
            lanes = lane_pow(np.abs(x), k)
            assert np.array_equal(lanes, [v ** k for v in np.abs(x).tolist()])
        assert lane_pow(3.0, 2) == 9.0


class TestStack:
    def test_entries_keep_their_levels_and_fill_the_lanes(self):
        # a float entry, and an entry without the outer level, get 0.0 there
        lanes = np.array([1.0, 2.0])
        xs = [Dual(2, Dual(1, lanes, 3.0), 4.0), Dual(1, 5.0, lanes), 6.0]
        got = stack(xs, (2,))
        assert got.lvl == 2 and got.re.lvl == 1
        assert got.re.re.tolist() == [[1.0, 2.0], [5.0, 5.0], [6.0, 6.0]]
        assert got.re.im.tolist() == [[3.0, 3.0], [1.0, 2.0], [0.0, 0.0]]
        assert got.im.tolist() == [[4.0, 4.0], [0.0, 0.0], [0.0, 0.0]]

    def test_stacked_arithmetic_keeps_each_entrys_bits(self):
        # one evaluation over the stack, then each entry, against the
        # entry's own evaluation
        r = np.random.default_rng(5)
        xs = [Dual(1, float(a), float(b)) for a, b in r.standard_normal((4, 2))]
        f = lambda x: jsqrt(x * x + 2.0) / (x + 3.0) - x * x
        got = f(stack(xs))
        for k, x in enumerate(xs):
            want = f(x)
            assert (got.re[k], got.im[k]) == (want.re, want.im)


def test_backend_is_reported():
    assert jets.BACKEND == "python"
