import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import act
from sasaklab.actions import (
    MomentumCovector,
    TorusAction,
    kernel_algebra,
    local_freeness,
    ray_membership,
    slice_condition,
)
from sasaklab.errors import ZeroMu
from sasaklab.jets import value
from sasaklab.structures import RoundSphereStructure
from sasaklab.vecops import vvalue

rng = np.random.default_rng(2024)

PAIRS = TorusAction.of([[1, 1, 0, 0], [0, 0, 1, 1]])
FLIPPED = TorusAction.of([[-1, 1, 0, 0], [0, 0, 1, 1]])


def rand_point(m):
    p = rng.standard_normal(m)
    return list(p / np.linalg.norm(p))


class TestFundamentalField:
    def test_pairs_generator_first_circle(self):
        out = vvalue(PAIRS.fundamental_field((1.0, 0.0), [1.0, 0, 0, 0, 0, 0, 0, 0]))
        assert out == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_zero_parameter_gives_zero_field(self):
        p = rand_point(8)
        out = vvalue(PAIRS.fundamental_field((0.0, 0.0), p))
        assert np.max(np.abs(out)) == 0.0

    def test_flipped_generator(self):
        out = vvalue(FLIPPED.fundamental_field((1.0, 0.0), [1.0, 0, 0, 0, 0, 0, 0, 0]))
        assert out == [0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_fields_are_tangent(self):
        for _ in range(10):
            p = rand_point(8)
            v = vvalue(PAIRS.fundamental_field(tuple(rng.standard_normal(2)), p))
            assert abs(np.dot(v, p)) < 1e-12


class TestMomentum:
    def test_pairs_momentum_at_pole(self):
        assert PAIRS.momentum([1.0, 0, 0, 0, 0, 0, 0, 0]) == [1.0, 0.0]

    def test_flipped_momentum_at_pole(self):
        assert FLIPPED.momentum([1.0, 0, 0, 0, 0, 0, 0, 0]) == [-1.0, 0.0]

    def test_zero_weights(self):
        A = TorusAction.of([[0, 0, 0, 0]])
        assert A.momentum(rand_point(8)) == [0.0]

    def test_pairing_identity_sweep(self):
        S = RoundSphereStructure(4)
        worst = 0.0
        for _ in range(1000):
            p = rand_point(8)
            r = tuple(rng.standard_normal(2))
            j = PAIRS.momentum(p)
            xm = PAIRS.fundamental_field(r, p)
            worst = max(worst, abs(np.dot(j, r) - value(S.eta(p, xm))))
        assert worst < 1e-12

    def test_momentum_constant_on_orbits(self):
        p = rand_point(8)
        j0 = np.asarray(PAIRS.momentum(p))
        for _ in range(20):
            t = rng.uniform(0, 2 * np.pi, 2)
            j1 = np.asarray(PAIRS.momentum(act(PAIRS, t, p)))
            assert np.max(np.abs(j1 - j0)) < 1e-10

    def test_eta_invariance_along_fields(self):
        # strong contactomorphisms: the Lie derivative of eta along every
        # fundamental field vanishes
        S = RoundSphereStructure(4)
        from sasaklab.jets import along

        worst = 0.0
        for _ in range(20):
            p = rand_point(8)
            r = tuple(rng.standard_normal(2))
            y = rng.standard_normal(8)
            y -= (y @ np.asarray(p)) * np.asarray(p)
            y = list(y)
            xm_field = lambda q: PAIRS.fundamental_field(r, q)
            y_field = S.sphere.project
            xm = vvalue(xm_field(p))
            # (L_X eta)(Y) = X eta(Y~) - eta([X, Y~])
            def eta_and_y(q):
                yq = y_field(q, y)
                return S.eta(q, yq), yq

            t1, d_x_y = along(eta_and_y, p, xm)
            t2 = along(xm_field, p, y)
            bracket = [a - b for a, b in zip(d_x_y, t2)]
            resid = abs(value(t1) - value(S.eta(p, bracket)))
            worst = max(worst, resid)
        assert worst < 1e-8


class TestKernelAlgebra:
    def test_diagonal_mu(self):
        k = kernel_algebra([1.0, 1.0])
        b = np.asarray(k.basis[0])
        assert k.k == 1
        # spans {(-x, x)}
        assert abs(b @ [1.0, 1.0]) < 1e-12
        assert np.linalg.norm(b) == pytest.approx(1.0)

    def test_first_axis_mu(self):
        k = kernel_algebra([1.0, 0.0])
        assert np.allclose(k.basis, [[0.0, 1.0]])

    def test_second_axis_mu(self):
        k = kernel_algebra([0.0, 1.0])
        assert np.allclose(k.basis, [[1.0, 0.0]])

    def test_zero_mu_raises(self):
        with pytest.raises(ZeroMu):
            MomentumCovector.of([0.0, 0.0])

    def test_deterministic(self):
        a = kernel_algebra([1.0, 2.0, 3.0])
        b = kernel_algebra([1.0, 2.0, 3.0])
        assert a.basis == b.basis
        assert len(a.basis) == 2
        for row in a.basis:
            assert abs(np.dot(row, [1.0, 2.0, 3.0])) < 1e-12


class TestSliceCondition:
    def test_nonzero_mu(self):
        ok, info = slice_condition([1.0, 1.0])
        assert ok and info["dim_sum"] == 2

    def test_zero_mu(self):
        # ray reduction needs mu != 0; config validation rejects it first
        with pytest.raises(ZeroMu):
            slice_condition([0.0, 0.0])

    def test_rank_report(self):
        ok, info = slice_condition([1.0, 1.0])
        assert info["dim_g"] == 2


class TestRayMembership:
    def test_positive_ray(self):
        out = ray_membership([0.5, 0.5], [1.0, 1.0])
        assert out.kind == "on_positive_ray"
        assert out.s == pytest.approx(0.5)

    def test_outside(self):
        out = ray_membership([1.0, 0.0], [1.0, 1.0])
        assert out.kind == "outside"
        assert out.residual == pytest.approx(1.0 / np.sqrt(2.0))

    def test_negative_ray(self):
        out = ray_membership([-1.0, 0.0], [1.0, 0.0])
        assert out.kind == "on_negative_ray"
        assert out.s == pytest.approx(1.0)

    def test_zero(self):
        assert ray_membership([0.0, 0.0], [1.0, 1.0]).kind == "on_zero"

    @given(c=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, c):
        j = [0.3, 0.3]
        base = ray_membership(j, [1.0, 1.0])
        scaled = ray_membership(j, [c, c])
        assert scaled.kind == base.kind
        assert scaled.s * c == pytest.approx(base.s * 1.0, rel=1e-9)


class TestLocalFreeness:
    def test_trivial_action_on_slice(self):
        # first-axis ray of the pairs action: the kernel circle fixes the
        # whole level set {z_2 = z_3 = 0}
        k = kernel_algebra([1.0, 0.0])
        p = [0.6, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        rank, degenerate, _ = local_freeness(PAIRS, k, p)
        assert rank == 0 and degenerate

    def test_free_generic_sample(self):
        k = kernel_algebra([1.0, 1.0])
        p = rand_point(8)
        rank, degenerate, _ = local_freeness(PAIRS, k, p)
        assert rank == 1 and not degenerate

    def test_empty_kernel(self):
        A = TorusAction.of([[1, 1, 1, 1]])
        k = kernel_algebra([2.0])
        rank, degenerate, svals = local_freeness(A, k, rand_point(8))
        assert rank == 0 and not degenerate and svals == []
