import math

import numpy as np
import pytest

from oracles import tensors_at
from sasaklab.errors import DegenerateContact
from sasaklab.geometry import Geometry, InducedMetric
from sasaklab.manifolds import Constraint, EmbeddedManifold
from sasaklab.structures import (
    RoundSphereStructure,
    WeightedContactMetric,
    WeightedSphereStructure,
    contact_nondegeneracy,
)
from sasaklab.jets import value
from sasaklab.vecops import cmult, vdot, vscale, vsub, vvalue

rng = np.random.default_rng(77)


def rand_point(m):
    p = rng.standard_normal(m)
    return list(p / np.linalg.norm(p))


def rand_tangent(p):
    v = rng.standard_normal(len(p))
    v -= (v @ np.asarray(p)) * np.asarray(p)
    return list(v / np.linalg.norm(v))


class TestEta:
    def test_round_eta_of_reeb_is_one(self):
        S = RoundSphereStructure(3)
        p = rand_point(6)
        assert value(S.eta(p, S.reeb(p))) == pytest.approx(1.0, abs=1e-14)

    def test_round_eta_vanishes_orthogonal_to_reeb(self):
        S = RoundSphereStructure(3)
        p = rand_point(6)
        xi = vvalue(S.reeb(p))
        v = rand_tangent(p)
        v = vsub(v, vscale(xi, vdot(v, xi)))
        assert abs(value(S.eta(p, v))) < 1e-14

    def test_weighted_eta_equals_round_at_unit_modulus_point(self):
        # at z = (1, 0) the conformal factor is a_1 = 1
        S = WeightedSphereStructure(2, [1.0, 2.0])
        R = RoundSphereStructure(2)
        p = [1.0, 0.0, 0.0, 0.0]
        v = [0.0, 0.7, 0.0, -0.2]
        assert value(S.eta(p, v)) == pytest.approx(value(R.eta(p, v)), abs=1e-15)


class TestReeb:
    def test_round_reeb_is_i_p(self):
        S = RoundSphereStructure(2)
        assert vvalue(S.reeb([1.0, 0.0, 0.0, 0.0])) == [0.0, 1.0, 0.0, 0.0]

    def test_weighted_reeb_first_block(self):
        S = WeightedSphereStructure(2, [1.0, 2.0])
        assert vvalue(S.reeb([1.0, 0.0, 0.0, 0.0])) == [0.0, 1.0, 0.0, 0.0]

    def test_weighted_reeb_second_block_and_normalization(self):
        S = WeightedSphereStructure(2, [1.0, 2.0])
        p = [0.0, 0.0, 1.0, 0.0]
        xi = vvalue(S.reeb(p))
        assert xi == [0.0, 0.0, 0.0, 2.0]
        assert value(S.eta(p, xi)) == pytest.approx(1.0, abs=1e-14)


class TestWeightedMetric:
    def test_all_ones_matches_round(self):
        W = WeightedSphereStructure(3, [1.0, 1.0, 1.0])
        R = RoundSphereStructure(3)
        for _ in range(5):
            p = rand_point(6)
            x, y = rand_tangent(p), rand_tangent(p)
            assert value(W.metric.g(p, x, y)) == pytest.approx(
                value(R.metric.g(p, x, y)), abs=1e-9)

    def test_reeb_has_unit_length(self):
        W = WeightedSphereStructure(2, [1.0, 2.0])
        p = rand_point(4)
        assert value(W.metric.g(p, W.reeb(p), W.reeb(p))) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        W = WeightedSphereStructure(2, [1.0, 2.0])
        p = rand_point(4)
        x, y = rand_tangent(p), rand_tangent(p)
        assert value(W.metric.g(p, x, y)) == pytest.approx(value(W.metric.g(p, y, x)), abs=1e-10)

    def test_jet_and_closed_form_d_eta_agree(self):
        a = [1.0, 2.0, 3.0]
        W = WeightedSphereStructure(3, a)
        for _ in range(10):
            p = rand_point(6)
            u, v = rand_tangent(p), rand_tangent(p)
            dj = value(W.d_eta(p, u, v))
            dc = value(W.metric.d_eta(p, u, v))
            assert dj == pytest.approx(dc, abs=1e-12)

    def test_positivity_gate_trips_on_sign_flipped_form(self):
        class Backwards(WeightedContactMetric):
            def d_eta(self, q, u, v):
                return -super().d_eta(q, u, v)

        class Broken(WeightedSphereStructure):
            def __init__(self):
                from sasaklab.manifolds import Sphere

                sphere = Sphere(4)
                # bypass the public constructor wiring to plant the
                # sign-flipped metric, then run the probe
                from sasaklab.structures import SphereStructure

                SphereStructure.__init__(self, 2, Backwards([1.0, 2.0], sphere))
                self.a = [1.0, 2.0]
                self._probe_positivity()

        with pytest.raises(DegenerateContact):
            Broken()

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightedSphereStructure(2, [2.0, 1.0])
        with pytest.raises(ValueError):
            WeightedSphereStructure(2, [-1.0, 1.0])


class TestPhi:
    @pytest.mark.parametrize("structure", ["round", "weighted"])
    def test_phi_kills_reeb(self, structure):
        S = RoundSphereStructure(3) if structure == "round" else WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        p = rand_point(6)
        xi = vvalue(S.reeb(p))
        out = vvalue(S.phi(p, xi))
        assert np.max(np.abs(out)) < 1e-9

    def test_round_phi_is_tangential_complex_multiplication(self):
        S = RoundSphereStructure(4)
        p = rand_point(8)
        xi = vvalue(S.reeb(p))
        x = rand_tangent(p)
        x = vsub(x, vscale(xi, vdot(x, xi)))
        got = np.asarray(vvalue(S.phi(p, x)))
        ix = cmult(x)
        want = np.asarray(vsub(ix, vscale(p, vdot(ix, p))))
        assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize("structure,tol", [("round", 1e-8), ("weighted", 1e-5)])
    def test_structure_identities_random_sweep(self, structure, tol):
        S = RoundSphereStructure(3) if structure == "round" else WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        g = S.metric.g
        worst = 0.0
        for _ in range(100):
            p = rand_point(6)
            x, y = rand_tangent(p), rand_tangent(p)
            xi = vvalue(S.reeb(p))
            phx = vvalue(S.phi(p, x))
            phy = vvalue(S.phi(p, y))
            phphx = vvalue(S.phi(p, phx))
            r1 = [a + b - value(S.eta(p, x)) * c for a, b, c in zip(phphx, x, xi)]
            worst = max(worst, math.sqrt(max(value(g(p, r1, r1)), 0.0)))
            r2 = abs(value(g(p, phx, phy)) - value(g(p, x, y))
                     + value(S.eta(p, x)) * value(S.eta(p, y)))
            worst = max(worst, r2)
        assert worst < tol

    def test_reeb_defining_properties(self):
        for S in (RoundSphereStructure(3), WeightedSphereStructure(3, [1.0, 2.0, 3.0])):
            for _ in range(10):
                p = rand_point(6)
                xi = vvalue(S.reeb(p))
                assert value(S.eta(p, xi)) == pytest.approx(1.0, abs=1e-12)
                x = rand_tangent(p)
                assert abs(value(S.d_eta(p, xi, x))) < 1e-9


class TestKillingResidual:
    def test_round_sweep(self):
        S = RoundSphereStructure(3)
        worst = 0.0
        for _ in range(100):
            p = rand_point(6)
            worst = max(worst, S.killing_residual(p, rand_tangent(p), rand_tangent(p)))
        assert worst < 1e-9

    def test_weighted_sweep(self):
        S = WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        worst = 0.0
        for _ in range(100):
            p = rand_point(6)
            worst = max(worst, S.killing_residual(p, rand_tangent(p), rand_tangent(p)))
        assert worst < 1e-5

    def test_non_killing_field_fails(self):
        class CoordinateField(RoundSphereStructure):
            """The projected coordinate field e_0 in place of the Reeb field."""

            def reeb_field(self, q):
                return self.sphere.project(q, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

        S = CoordinateField(3)
        worst = 0.0
        for _ in range(10):
            p = rand_point(6)
            worst = max(worst, S.killing_residual(p, rand_tangent(p), rand_tangent(p)))
        assert worst > 1e-2


class _BandConstraint(Constraint):
    """x_0^2 + y_0^2 = r^2: a flat cylinder through the sample band."""

    def __init__(self, r):
        self.r2 = r * r

    def value(self, q):
        return q[0] * q[0] + q[1] * q[1] - self.r2

    def grad(self, q):
        g = [0.0] * 6
        g[0] = 2.0 * q[0]
        g[1] = 2.0 * q[1]
        return g


class TestSasakianResidual:
    def test_round_sweep(self):
        S = RoundSphereStructure(4)
        worst = 0.0
        for _ in range(25):
            p = rand_point(8)
            worst = max(worst, S.sasakian_residual(p, rand_tangent(p), rand_tangent(p)))
        assert worst < 1e-7

    def test_weighted_residual_small(self):
        S = WeightedSphereStructure(3, [1.0, 2.0, 2.0])
        p = rand_point(6)
        x, y = rand_tangent(p), rand_tangent(p)
        assert S.sasakian_residual(p, x, y) < 1e-4

    def test_flat_band_negative_control(self):
        man = EmbeddedManifold(6, [_BandConstraint(0.8)])
        S = RoundSphereStructure(3)
        S.geometry = Geometry(man, InducedMetric())  # curvature of the band, not the sphere
        theta = 0.3
        p = [0.8 * math.cos(theta), 0.8 * math.sin(theta), 0.4, 0.2, -0.1, 0.3]
        x = vvalue(man.project(p, list(rng.standard_normal(6))))
        x = list(np.asarray(x) / np.linalg.norm(x))
        resid = S.sasakian_residual(p, x, x)
        assert resid > 0.1  # flat metric: curvature term is absent


class TestContactNondegeneracy:
    @pytest.mark.parametrize("structure", ["round", "weighted"])
    def test_determinant_bounded_away_from_zero(self, structure):
        S = RoundSphereStructure(3) if structure == "round" else WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        vals = [contact_nondegeneracy(S, rand_point(6)) for _ in range(100)]
        assert min(vals) > 1e-6


class _FlippedRound(RoundSphereStructure):
    """Global orientation flip: xi = -i p, eta = -eta_0."""

    def reeb_field(self, q):
        return [-c for c in cmult(q)]

    def eta(self, p, v):
        return -vdot(cmult(p), v)


class TestOrientationFlip:
    def test_flip_is_consistent(self):
        F = _FlippedRound(3)
        p = rand_point(6)
        assert value(F.eta(p, F.reeb(p))) == pytest.approx(1.0, abs=1e-14)

    def test_residuals_invariant_under_global_flip(self):
        S, F = RoundSphereStructure(3), _FlippedRound(3)
        for _ in range(10):
            p = rand_point(6)
            x, y = rand_tangent(p), rand_tangent(p)
            assert F.killing_residual(p, x, y) == pytest.approx(
                S.killing_residual(p, x, y), abs=1e-12)
            assert F.sasakian_residual(p, x, y) == pytest.approx(
                S.sasakian_residual(p, x, y), abs=1e-10)


class TestStructureTensors:
    def test_pointwise_tensor_bundle(self):
        S = WeightedSphereStructure(2, [1.0, 2.0])
        p = rand_point(4)
        t = tensors_at(S, p)
        m = len(t.gram)
        assert np.max(np.abs(t.gram - np.eye(m))) < 1e-10
        # phi is antisymmetric in an orthonormal frame (g(phi X, Y) = d eta / 2 ...)
        assert np.max(np.abs(t.phi_matrix + t.phi_matrix.T)) < 1e-8
        # eta covector has unit length (dual of the unit Reeb field)
        assert np.linalg.norm(t.eta_covector) == pytest.approx(1.0, abs=1e-9)


class TestWrapperTypes:
    def test_ambient_point_validates_norm(self):
        from sasaklab.tensor_kernel import AmbientPoint

        with pytest.raises(ValueError):
            AmbientPoint.of([1.0, 1.0, 0.0, 0.0])
        AmbientPoint.of([1.0, 0.0, 0.0, 0.0])
