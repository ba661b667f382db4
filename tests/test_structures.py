import math
from functools import partial

import numpy as np
import pytest

from oracles import (d_eta_grid_per_pair, gram_per_entry, positivity_probe_lows, probe_points,
                     tensors_at, weighted_metric_pair)
from sasaklab import tolerances
from sasaklab.errors import DegenerateContact
from sasaklab.geometry import Geometry, InducedMetric
from sasaklab.manifolds import Constraint, EmbeddedManifold
from sasaklab.structures import (
    RoundSphereStructure,
    WeightedContactMetric,
    WeightedSphereStructure,
    contact_nondegeneracy,
)
from sasaklab.jets import Dual, along, expand, value, vector
from sasaklab.vecops import cmult, lane_pow, lane_stack, pairings, stack_lanes, vdot

rng = np.random.default_rng(77)
# the closed-form d(eta) against its references: round, weighted, and a
# weighted sphere whose conformal factor spans three orders of magnitude
STRUCTURES = {"round": lambda: RoundSphereStructure(3),
              "weighted": lambda: WeightedSphereStructure(3, [1.0, 2.0, 3.0]),
              "weighted-1000": lambda: WeightedSphereStructure(4, [1.0, 1.0, 1.0, 1000.0])}


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
        xi = value(S.reeb(p))
        v = np.asarray(rand_tangent(p))
        v = v - xi * vdot(v, xi)
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
        assert value(S.reeb([1.0, 0.0, 0.0, 0.0])).tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_weighted_reeb_first_block(self):
        S = WeightedSphereStructure(2, [1.0, 2.0])
        assert value(S.reeb([1.0, 0.0, 0.0, 0.0])).tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_weighted_reeb_second_block_and_normalization(self):
        S = WeightedSphereStructure(2, [1.0, 2.0])
        p = [0.0, 0.0, 1.0, 0.0]
        xi = value(S.reeb(p))
        assert xi.tolist() == [0.0, 0.0, 0.0, 2.0]
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
            dj = value(W.d_eta_jet(p, u, v))
            dc = value(W.metric.d_eta(p, u, v))
            assert dj == pytest.approx(dc, abs=1e-12)
            assert value(W.d_eta(p, u, v)) == dc

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

    @staticmethod
    def bits(x):
        """Every leaf of a scalar, with its jet level tags, as bytes."""
        if isinstance(x, Dual):
            return x.lvl, TestWeightedMetric.bits(x.re), TestWeightedMetric.bits(x.im)
        return np.asarray(x, dtype=float).tobytes()

    @staticmethod
    def at_jets(fn, p, d1, d2):
        """fn at the two-level jet point p + s d1 + t d2, every jet leaf kept."""
        out = []
        along(lambda q: along(lambda r: out.append(fn(r)) or 0.0, q, d2), p, d1)
        return out[0]

    @pytest.mark.parametrize("point", ["float", "lane", "jet"])
    def test_gram_and_g_match_the_composition_bitwise(self, point):
        W = WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        metric = W.metric
        points = [rand_point(6) for _ in range(3)]
        vectors = [[rand_tangent(q) for q in points] for _ in range(4)]
        if point == "float":
            p, vs = points[0], [v[0] for v in vectors]
        else:
            p, vs = stack_lanes(points), [stack_lanes(v) for v in vectors]

        def entries(q):
            # the vectors follow the point, as the cone's projections do
            q = vector(q)
            moved = [v - q * vdot(q, v) for v in map(np.asarray, vs)]
            gram = metric.gram(q, moved)
            got, want = [], []
            for i, u in enumerate(moved):
                for j, v in enumerate(moved):
                    pair = weighted_metric_pair(metric, q, u, v)
                    got.append(metric.g(q, u, v))
                    want.append(pair)
                    if i <= j:
                        got.append(gram[i][j])
                        want.append(pair)
            return got, want

        if point == "jet":  # two jet levels over the lanes
            d1, d2 = (stack_lanes([rand_tangent(q) for q in points]) for _ in range(2))
            got, want = self.at_jets(entries, p, d1, d2)
        else:
            got, want = entries(p)
        assert [self.bits(x) for x in got] == [self.bits(x) for x in want]

    @pytest.mark.parametrize("point", ["float", "lane", "float-lane", "jet"])
    def test_gram_matches_the_per_entry_gram_bitwise(self, point):
        # "float-lane": a float point with float frame vectors and one lane
        # vector, as the g-orthogonal projection of a pair pass asks
        metric = WeightedSphereStructure(3, [1.0, 2.0, 3.0]).metric
        points = [rand_point(6) for _ in range(3)]
        vectors = [[rand_tangent(q) for q in points] for _ in range(4)]
        if point == "float":
            p, vs = points[0], [v[0] for v in vectors]
        elif point == "float-lane":
            p, vs = points[0], [v[0] for v in vectors[:3]] + [stack_lanes(vectors[3])]
        else:
            p, vs = stack_lanes(points), [stack_lanes(v) for v in vectors]

        def both(q):
            q = vector(q)
            moved = [v - expand(q, v.ndim) * vdot(q, v) for v in map(np.asarray, vs)]
            return metric.gram(q, moved), gram_per_entry(metric, q, moved)

        if point == "jet":
            d1, d2 = (stack_lanes([rand_tangent(q) for q in points]) for _ in range(2))
            got, want = self.at_jets(both, p, d1, d2)
        else:
            got, want = both(p)
        lanes = (3,) if point != "float" else ()
        for row_got, row_want in zip(got, want):
            for x, y in zip(row_got, row_want):
                if point == "float-lane":  # an entry of two float vectors fills the lanes
                    y = np.broadcast_to(y, lanes)
                assert self.bits(x) == self.bits(y)

    @pytest.mark.parametrize("structure", ["round", "weighted", "weighted-1000"])
    @pytest.mark.parametrize("point", ["float", "lane"])
    @pytest.mark.parametrize("turn", [False, True])
    def test_d_eta_grid_matches_the_pair_loop_bitwise(self, structure, point, turn):
        # turn: the columns i v of the positivity probe's contact Gram
        S = STRUCTURES[structure]()
        points = [rand_point(S.ambient_dim) for _ in range(5)]
        p = np.asarray(points[0]) if point == "float" else stack_lanes(points)
        frame = S.contact_frame(p)
        cols = [cmult(v) for v in frame] if turn else frame
        got = lane_stack(pairings(partial(S.d_eta, p), frame, cols))
        want = d_eta_grid_per_pair(S.d_eta, p, frame, cols)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    def test_probe_grid_is_the_per_pair_grid(self, monkeypatch):
        # the probe's d(eta) grid, at its own 32 points, reaches eigvalsh unchanged
        W = WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: seen.append(H) or eigvalsh(H))
        W._probe_positivity()
        p = stack_lanes(probe_points(W))
        frame = W.contact_frame(p)
        H = 0.5 * d_eta_grid_per_pair(W.metric.d_eta, p, frame, [cmult(v) for v in frame])
        H = 0.5 * (H + H.transpose(0, 2, 1))
        assert len(seen) == 1 and seen[0].tobytes() == H.tobytes()

    @pytest.mark.parametrize("n,a", [(3, [1.0, 2.0, 3.0]), (2, [1.0, 100.0])])
    @pytest.mark.parametrize("rank", [0, 1])
    def test_lane_probe_matches_the_float_loop(self, monkeypatch, n, a, rank):
        W = WeightedSphereStructure(n, a)
        lows = positivity_probe_lows(W)
        # rank 0: every probe point fails, so the first one is reported;
        # rank 1: only the probe point of the smallest eigenvalue fails
        floor = max(lows) + 1.0 if rank == 0 else sorted(lows)[1]
        first = next(k for k, lo in enumerate(lows) if lo < floor)
        assert first == (0 if rank == 0 else int(np.argmin(lows)))
        monkeypatch.setattr(tolerances, "WEIGHTED_POSITIVITY", floor)
        with pytest.raises(DegenerateContact) as exc:
            W._probe_positivity()
        assert str(exc.value) == (
            f"contact Gram eigenvalue {lows[first]:.3e} below {floor:.1e} at probe point")

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
        xi = value(S.reeb(p))
        out = value(S.phi(p, xi))
        assert np.max(np.abs(out)) < 1e-9

    def test_round_phi_is_tangential_complex_multiplication(self):
        S = RoundSphereStructure(4)
        p = rand_point(8)
        xi = value(S.reeb(p))
        x = np.asarray(rand_tangent(p))
        x = x - xi * vdot(x, xi)
        got = np.asarray(value(S.phi(p, x)))
        ix = cmult(x)
        p = np.asarray(p)
        want = ix - p * vdot(ix, p)
        assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize("structure,tol", [("round", 1e-8), ("weighted", 1e-5)])
    def test_structure_identities_random_sweep(self, structure, tol):
        S = RoundSphereStructure(3) if structure == "round" else WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        g = S.metric.g
        worst = 0.0
        for _ in range(100):
            p = rand_point(6)
            x, y = rand_tangent(p), rand_tangent(p)
            xi = value(S.reeb(p))
            phx = value(S.phi(p, x))
            phy = value(S.phi(p, y))
            phphx = value(S.phi(p, phx))
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
                xi = value(S.reeb(p))
                assert value(S.eta(p, xi)) == pytest.approx(1.0, abs=1e-12)
                x = rand_tangent(p)
                assert abs(value(S.d_eta(p, xi, x))) < 1e-9
                assert abs(value(S.d_eta_jet(p, xi, x))) < 1e-9


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
        return vector(g)


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
        x = value(man.project(p, list(rng.standard_normal(6))))
        x = list(np.asarray(x) / np.linalg.norm(x))
        resid = S.sasakian_residual(p, x, x)
        assert resid > 0.1  # flat metric: curvature term is absent


class TestContactNondegeneracy:
    @pytest.mark.parametrize("structure", ["round", "weighted"])
    def test_determinant_bounded_away_from_zero(self, structure):
        S = RoundSphereStructure(3) if structure == "round" else WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        vals = [contact_nondegeneracy(S, rand_point(6)) for _ in range(100)]
        assert min(vals) > 1e-6

    @pytest.mark.parametrize("structure", ["round", "weighted"])
    def test_lane_point_equals_each_sample_bitwise(self, structure):
        S = RoundSphereStructure(3) if structure == "round" else WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        points = [rand_point(6) for _ in range(7)]
        lanes = contact_nondegeneracy(S, stack_lanes(points))
        assert isinstance(lanes, np.ndarray) and lanes.shape == (7,)
        assert lanes.tolist() == [contact_nondegeneracy(S, q) for q in points]


    @pytest.mark.parametrize("structure", ["round", "weighted"])
    def test_matches_the_per_pair_determinant_bitwise(self, structure):
        S = RoundSphereStructure(3) if structure == "round" else WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        p = stack_lanes([rand_point(6) for _ in range(6)])
        frame = S.contact_frame(p)
        M = d_eta_grid_per_pair(S.d_eta, p, frame, frame)
        want = lane_pow(np.abs(np.linalg.det(M)), 1.0 / len(frame))
        assert contact_nondegeneracy(S, p).tobytes() == want.tobytes()

    @pytest.mark.parametrize("structure", ["round", "weighted", "weighted-1000"])
    @pytest.mark.parametrize("point", ["float", "lane"])
    def test_closed_form_matches_the_jet_oracle(self, monkeypatch, structure, point):
        # the determinant and each d(eta) entry take the closed form, never
        # the jet evaluation, which gives them to a few ulps of the matrix;
        # an even-sized determinant cannot see a sign flip, an entry can
        S = STRUCTURES[structure]()
        points = [rand_point(S.ambient_dim) for _ in range(20)]
        ps = ([np.asarray(q) for q in points] if point == "float"
              else [stack_lanes(points[:10]), stack_lanes(points[10:])])
        jets = []
        for p in ps:
            frame = S.contact_frame(p)
            M = d_eta_grid_per_pair(S.d_eta_jet, p, frame, frame)
            jets.append((M, lane_pow(np.abs(np.linalg.det(M)), 1.0 / len(frame))))
        monkeypatch.setattr(S, "d_eta_jet", None)
        for p, (jet, jet_det) in zip(ps, jets):
            M = lane_stack(pairings(partial(S.d_eta, p), S.contact_frame(p), S.contact_frame(p)))
            scale = np.max(np.abs(jet), axis=(-2, -1), keepdims=True)
            assert np.all(np.abs(M - jet) <= 1e-14 * scale)
            assert np.asarray(contact_nondegeneracy(S, p)) == pytest.approx(jet_det, rel=1e-14,
                                                                             abs=0.0)


class _FlippedRound(RoundSphereStructure):
    """Global orientation flip: xi = -i p, eta = -eta_0."""

    def reeb_field(self, q):
        return -cmult(vector(q))

    def eta(self, p, v):
        return -vdot(cmult(vector(p)), vector(v))


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
    def test_unit_points_validates_norm(self):
        from sasaklab.tensor_kernel import unit_points

        with pytest.raises(ValueError):
            unit_points(np.array([1.0, 1.0, 0.0, 0.0]))
        # a chunk is checked at once; the first bad row is named
        with pytest.raises(ValueError, match="2.0, not 1"):
            unit_points(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]]))
        unit_points(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.6, 0.8, 0.0]]))
