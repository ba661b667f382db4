import math

import numpy as np
import pytest

from oracles import (cone_tensors_per_entry, contract_nested, covariant_koszul, fd_curvature,
                     koszul_curvature, lane_lists, metric_field_per_entry)
from sasaklab import structures, vecops
from sasaklab.errors import EmptyFrame, SingularMetric
from sasaklab.geometry import Cone, Geometry, InducedMetric, _contract
from sasaklab.jets import along, jsqrt, value
from sasaklab.manifolds import Sphere
from sasaklab.structures import RoundSphereStructure, WeightedSphereStructure
from sasaklab.tensor_kernel import gram_schmidt, orthogonal_tail
from sasaklab.vecops import LanesDisagree, agreeing_parts, cmult, split_frame, stack_lanes, vdot

rng = np.random.default_rng(1234)
EUCLIDEAN = InducedMetric()


def project(p, v):
    return Sphere(len(p)).project(p, v)


def bracket(X_field, Y_field, p):
    """[X, Y](p), projected to the sphere."""
    sphere = Sphere(len(p))
    return sphere.project(p, Geometry(sphere, EUCLIDEAN).bracket(p, X_field, Y_field))


def along_sphere(field, p, direction):
    """First derivative of t -> field(normalize(p + t direction)) at 0."""
    return along(lambda q: field(q * (1.0 / jsqrt(vdot(q, q)))), p, direction)


def rand_point(m):
    p = rng.standard_normal(m)
    return list(p / np.linalg.norm(p))


def rand_tangent(p):
    v = rng.standard_normal(len(p))
    v -= (v @ np.asarray(p)) * np.asarray(p)
    return list(v / np.linalg.norm(v))


class TestComplexMult:
    def test_i_on_c1(self):
        assert cmult(np.array([1.0, 0.0])).tolist() == [0.0, 1.0]

    def test_twice_is_minus_identity(self):
        v = rng.standard_normal(8)
        assert np.allclose(cmult(cmult(v)), -v)

    def test_componentwise_rule_n2(self):
        assert cmult(np.array([0.0, 1.0, 1.0, 0.0])).tolist() == [-1.0, 0.0, 0.0, 1.0]


class TestTangentialProject:
    def test_radial_direction_dies(self):
        p = rand_point(8)
        assert np.allclose(project(p, p), 0.0, atol=1e-15)

    def test_idempotent_on_tangent(self):
        p = rand_point(8)
        v = rand_tangent(p)
        assert np.allclose(project(p, v), v, atol=1e-15)

    def test_direct_arithmetic(self):
        out = project([1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0])
        assert out.tolist() == [0.0, 1.0, 0.0, 0.0]


class TestGramSchmidt:
    def test_orthonormal_input_is_fixed_point(self):
        p = rand_point(4)
        base = [rand_tangent(p) for _ in range(2)]
        frame0 = gram_schmidt(EUCLIDEAN, p, base)
        frame1 = gram_schmidt(EUCLIDEAN, p, [list(v) for v in frame0.vectors])
        assert np.max(np.abs(np.asarray(frame0.vectors) - frame1.vectors)) < 1e-12

    def test_dependent_vector_dropped(self):
        p = rand_point(8)
        v, w = rand_tangent(p), rand_tangent(p)
        frame = gram_schmidt(EUCLIDEAN, p, [v, np.asarray(v) * 2.0, w])
        assert len(frame) == 2

    def test_textbook_example(self):
        p = [0.0, 0.0, 1.0, 0.0]
        frame = gram_schmidt(EUCLIDEAN, p, [[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(frame.vectors[0], [s, s, 0.0, 0.0])
        assert np.allclose(frame.vectors[1], [-s, s, 0.0, 0.0])

    def test_weighted_point_terms_formed_once_with_the_bits_of_g(self, monkeypatch):
        metric = WeightedSphereStructure(3, [1.0, 2.0, 3.0]).metric
        p = rand_point(6)
        vectors = [rand_tangent(p) for _ in range(4)]
        # the same modified Gram-Schmidt through metric.g, pair by pair
        kept = []
        for v in vectors:
            w = np.asarray(v)
            for _ in range(2):
                for u in kept:
                    w = w - u * metric.g(p, u, w)
            kept.append(w * (1.0 / math.sqrt(metric.g(p, w, w))))
        calls = []
        terms = metric._point_terms
        monkeypatch.setattr(metric, "_point_terms", lambda q: calls.append(1) or terms(q))
        frame = gram_schmidt(metric, p, vectors)
        assert len(calls) == 1
        assert np.asarray(frame.vectors).tobytes() == np.asarray(kept).tobytes()

    def test_weighted_kept_vectors_terms_formed_once(self, monkeypatch):
        metric = WeightedSphereStructure(3, [1.0, 2.0, 3.0]).metric
        p = rand_point(6)
        vectors = [rand_tangent(p) for _ in range(4)]
        calls = []
        part = structures._contact_part
        monkeypatch.setattr(structures, "_contact_part",
                            lambda *a: calls.append(1) or part(*a))
        k = len(gram_schmidt(metric, p, vectors))
        # one per kept vector, one per pairing of two passes, two per norm
        assert k == 4 and len(calls) == k + k * (k - 1) + 2 * len(vectors)

    def test_empty_frame_raises(self):
        p = rand_point(4)
        with pytest.raises(EmptyFrame):
            gram_schmidt(EUCLIDEAN, p, [[0.0] * 4, [1e-14] * 4])

    def test_bitwise_deterministic(self):
        p = rand_point(8)
        vs = [list(rng.standard_normal(8)) for _ in range(5)]
        a = gram_schmidt(EUCLIDEAN, p, [list(v) for v in vs])
        b = gram_schmidt(EUCLIDEAN, p, [list(v) for v in vs])
        assert a.vectors.tobytes() == b.vectors.tobytes()

    @pytest.mark.parametrize("metric", [EUCLIDEAN,
                                        WeightedSphereStructure(2, [1.0, 3.0]).metric],
                             ids=["euclidean", "weighted"])
    def test_lanes_that_disagree_on_a_drop_split_into_float_frames(self, metric):
        # lane 1 gets a parallel second input and lane 3 a zero one: both
        # drop it, the other lanes keep it
        points, inputs = [], []
        for k in range(5):
            p = rand_point(4)
            v, w, x = rand_tangent(p), rand_tangent(p), rand_tangent(p)
            second = {1: np.asarray(v) * -3.0, 3: [0.0] * 4}.get(k, w)
            points.append(p)
            inputs.append([v, second, x])
        with pytest.raises(LanesDisagree):
            gram_schmidt(metric, stack_lanes(points), [stack_lanes(vs) for vs in zip(*inputs)])

        def frames(idx):
            return gram_schmidt(metric, stack_lanes([points[i] for i in idx]),
                                [stack_lanes(vs) for vs in zip(*(inputs[i] for i in idx))])

        parts = agreeing_parts(frames, list(range(5)))
        assert [idx for idx, _ in parts] == [[0, 2, 4], [1, 3]]
        for idx, frame in parts:
            for k, vectors in zip(idx, split_frame(frame.vectors, len(idx))):
                ref = gram_schmidt(metric, points[k], inputs[k])
                assert frame.inputs == ref.inputs
                assert (np.asarray(vectors).tobytes()
                        == np.asarray(ref.vectors, dtype=float).tobytes())

    def test_orthogonal_tail_skips_dropped_head_vectors(self):
        p = [0.0, 0.0, 0.0, 1.0]
        e1, e2, e3 = ([float(i == k) for i in range(4)] for k in range(3))
        tail = orthogonal_tail(EUCLIDEAN, p, [e1, np.asarray(e1) * 2.0],
                               [np.asarray(e1) * 3.0, e2, e3])
        assert tail.tolist() == [e2, e3]


class TestDirectionalDerivative:
    def test_constant_field(self):
        p = rand_point(6)
        v = rand_tangent(p)
        d = along_sphere(lambda q: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], p, v)
        assert np.allclose(d, 0.0)

    def test_identity_field_gives_direction(self):
        p = rand_point(6)
        v = rand_tangent(p)
        d = along_sphere(lambda q: q, p, v)
        assert np.allclose(d, v, atol=1e-12)

    def test_linear_field_commutes(self):
        p = rand_point(6)
        v = rand_tangent(p)
        d = along_sphere(lambda q: cmult(q), p, v)
        assert np.allclose(d, cmult(np.asarray(v)), atol=1e-12)

    def test_order_two_on_normalized_curve(self):
        # t -> normalize(p + t v) has |q(t)| = 1, so f = <q, q> is constant
        p = rand_point(6)
        v = rand_tangent(p)
        first = lambda r: along_sphere(lambda q: [vdot(q, q)], r, v)
        d1, d2 = first(p), along(first, p, v)
        assert abs(d1[0]) < 1e-14 and abs(d2[0]) < 1e-12

    def test_rejecting_evaluator_raises(self):
        p = rand_point(4)
        v = rand_tangent(p)

        def bad(q):
            return [float(q[0])]  # float() on a jet raises TypeError

        with pytest.raises(TypeError):
            along_sphere(bad, p, v)


class TestKoszul:
    def test_round_reeb_matches_gauss_oracle(self):
        S = RoundSphereStructure(4)
        p = rand_point(8)
        x = rand_tangent(p)
        got = value(covariant_koszul(S.geometry, p, S.geometry.extend(x), S.reeb_field))
        # Gauss-formula oracle: tangential projection of the ambient
        # derivative of q -> i q along the curve through p
        oracle = project(p, cmult(np.asarray(x)))
        assert np.max(np.abs(np.asarray(got) - oracle)) < 1e-9

    def test_metric_compatibility(self):
        S = WeightedSphereStructure(2, [1.0, 2.0])
        geo = S.geometry
        p = rand_point(4)
        x, y, z = rand_tangent(p), rand_tangent(p), rand_tangent(p)
        Yf, Zf = geo.extend(y), geo.extend(z)
        lhs = float(along(lambda q: S.metric.g(q, Yf(q), Zf(q)), p, x))
        gy = covariant_koszul(geo, p, geo.extend(x), Yf)
        gz = covariant_koszul(geo, p, geo.extend(x), Zf)
        rhs = value(S.metric.g(p, gy, z)) + value(S.metric.g(p, y, gz))
        assert abs(lhs - rhs) < 1e-8

    def test_torsion_free(self):
        S = WeightedSphereStructure(2, [1.0, 3.0])
        geo = S.geometry
        p = rand_point(4)
        x, y = rand_tangent(p), rand_tangent(p)
        Xf, Yf = geo.extend(x), geo.extend(y)
        nxy = value(covariant_koszul(geo, p, Xf, Yf))
        nyx = value(covariant_koszul(geo, p, Yf, Xf))
        br = value(geo.bracket(p, Xf, Yf))
        resid = np.asarray(nxy) - np.asarray(nyx) - np.asarray(br)
        assert np.max(np.abs(resid)) < 1e-8

    def test_explicit_koszul_equals_collapsed_form_on_induced(self):
        geo = Geometry(Sphere(8), InducedMetric())
        p = rand_point(8)
        x, y = rand_tangent(p), rand_tangent(p)
        a = value(geo.covariant(p, geo.extend(x), geo.extend(y)))
        b = value(covariant_koszul(geo, p, geo.extend(x), geo.extend(y)))
        assert np.max(np.abs(np.asarray(a) - b)) < 1e-12

    def test_singular_metric_raises(self):
        class Degenerate:
            euclidean = False

            def g(self, q, u, v):
                return 0.0 * vdot(u, v)

            def gram(self, q, vectors):
                return np.array([[self.g(q, u, v) for v in vectors] for u in vectors])

        with pytest.raises(SingularMetric):
            Geometry(Sphere(4), Degenerate()).curvature(
                rand_point(4), [1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0])


class TestCurvature:
    def test_round_constant_curvature(self):
        p = rand_point(8)
        x, y, z = rand_tangent(p), rand_tangent(p), rand_tangent(p)
        got = value(Geometry(Sphere(8), EUCLIDEAN).curvature(p, x, y, z))
        x, y, z = map(np.asarray, (x, y, z))
        want = x * vdot(y, z) - y * vdot(x, z)
        assert np.max(np.abs(np.asarray(got) - want)) < 1e-7

    def test_antisymmetry(self):
        p = rand_point(6)
        x, z = rand_tangent(p), rand_tangent(p)
        got = value(Geometry(Sphere(6), EUCLIDEAN).curvature(p, x, x, z))
        assert np.max(np.abs(got)) < 1e-10

    def test_weighted_curvature_vs_fd_oracle(self):
        a = [1.0, 2.0]
        S = WeightedSphereStructure(2, a)
        p = rand_point(4)
        x, y, z = rand_tangent(p), rand_tangent(p), rand_tangent(p)
        jet = np.asarray(value(S.geometry.curvature(p, x, y, z)))
        fd = fd_curvature(S.metric.g, p, x, y, z, step=1e-4)
        assert np.max(np.abs(jet - fd)) < 1e-4


class TestLieBracket:
    def test_self_bracket_vanishes(self):
        p = rand_point(6)
        f = lambda q: cmult(q)
        assert np.max(np.abs(value(bracket(f, f, p)))) < 1e-14

    def test_torus_fields_commute(self):
        from sasaklab.actions import TorusAction

        A = TorusAction.of([[1, 1, 0, 0], [0, 0, 1, 1]])
        p = rand_point(8)
        f1 = lambda q: A.fundamental_field((1.0, 0.0), q)
        f2 = lambda q: A.fundamental_field((0.0, 1.0), q)
        assert np.max(np.abs(value(bracket(f1, f2, p)))) < 1e-9

    def test_fundamental_fields_commute_with_reeb(self):
        from sasaklab.actions import TorusAction

        A = TorusAction.of([[1, 1, 0, 0], [0, 0, 1, 1]])
        S = RoundSphereStructure(4)
        p = rand_point(8)
        f = lambda q: A.fundamental_field((0.3, -0.8), q)
        assert np.max(np.abs(value(bracket(f, S.reeb_field, p)))) < 1e-8


class TestEngineInvariants:
    def test_koszul_properties_random_sweep(self):
        S = RoundSphereStructure(3)
        geo = S.geometry
        worst_comp, worst_tors = 0.0, 0.0
        for _ in range(100):
            p = rand_point(6)
            x, y, z = rand_tangent(p), rand_tangent(p), rand_tangent(p)
            Xf, Yf, Zf = geo.extend(x), geo.extend(y), geo.extend(z)
            dg = float(along(lambda q: S.metric.g(q, Yf(q), Zf(q)), p, x))
            ny = value(geo.covariant(p, Xf, Yf))
            nz = value(geo.covariant(p, Xf, Zf))
            comp = abs(dg - vdot(ny, np.asarray(z)) - vdot(np.asarray(y), nz))
            nxy = np.asarray(value(geo.covariant(p, Xf, Yf)))
            nyx = np.asarray(value(geo.covariant(p, Yf, Xf)))
            br = np.asarray(value(geo.bracket(p, Xf, Yf)))
            tors = float(np.max(np.abs(nxy - nyx - br)))
            worst_comp = max(worst_comp, comp)
            worst_tors = max(worst_tors, tors)
        assert worst_comp < 1e-8 and worst_tors < 1e-8

    def test_round_curvature_random_sweep(self):
        p_count = 100
        worst = 0.0
        for _ in range(p_count):
            p = rand_point(8)
            x, y, z = rand_tangent(p), rand_tangent(p), rand_tangent(p)
            got = np.asarray(value(Geometry(Sphere(8), EUCLIDEAN).curvature(p, x, y, z)))
            x, y, z = map(np.asarray, (x, y, z))
            want = x * vdot(y, z) - y * vdot(x, z)
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-7


def cone_point(n, seed):
    r = np.random.default_rng(seed)
    p = r.standard_normal(2 * n)
    return list(p / np.linalg.norm(p)), r


class TestConeTensor:
    """The weighted sphere's curvature and connection from the Riemann
    tensor and Christoffel symbols of its cone dr^2 + r^2 g."""

    @staticmethod
    def koszul_gap(n, a):
        """Worst relative departure of the sphere curvature from the
        Koszul oracle over five points."""
        W = WeightedSphereStructure(n, a)
        worst = 0.0
        for k in range(5):
            p, r = cone_point(n, 700 + k)
            x, y, z = (value(project(p, list(r.standard_normal(2 * n)))) for _ in range(3))
            got = np.asarray(value(W.geometry.curvature(p, x, y, z)))
            want = np.asarray(value(koszul_curvature(W.geometry, p, x, y, z)))
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
        return worst

    @pytest.mark.parametrize("n,a", [(3, [1.0, 2.0, 3.0]), (2, [1.0, 3.0])])
    def test_sphere_curvature_matches_koszul_oracle(self, n, a):
        assert self.koszul_gap(n, a) < 1e-12

    @pytest.mark.parametrize("w,bound", [(100.0, 1e-11), (1000.0, 1e-9)])
    def test_large_weight_ratio_matches_koszul_oracle(self, w, bound):
        # cond(M) of the cone metric grows like w^2: forming M^-1 and
        # applying it twice loses about its square
        assert self.koszul_gap(2, [1.0, w]) < bound

    def test_riemann_symmetries(self):
        W = WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        cone = W.metric.cone
        for k in range(3):
            p, r = cone_point(3, 710 + k)
            M = np.asarray(cone.metric_field(p))
            x, y, z, w = (list(r.standard_normal(6)) for _ in range(4))
            R = lambda a, b, c: np.asarray(cone.riemann(p, a, b, c))
            scale = float(np.max(np.abs(R(x, y, z))))
            # antisymmetry in the first pair
            assert np.max(np.abs(R(x, y, z) + R(y, x, z))) < 1e-12 * scale
            # pair symmetry R(X,Y,Z,W) = R(Z,W,X,Y), lowered with the cone metric
            assert abs(R(x, y, z) @ M @ w - R(z, w, x) @ M @ y) < 1e-12 * scale
            # antisymmetry in the second pair
            assert abs(R(x, y, z) @ M @ w + R(x, y, w) @ M @ z) < 1e-12 * scale
            # first Bianchi identity
            bianchi = R(x, y, z) + R(y, z, x) + R(z, x, y)
            assert np.max(np.abs(bianchi)) < 1e-12 * scale

    def test_radial_direction_is_flat(self):
        W = WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        for k in range(3):
            p, r = cone_point(3, 720 + k)
            x, y = list(r.standard_normal(6)), list(r.standard_normal(6))
            scale = float(np.max(np.abs(W.metric.cone.riemann(p, x, y, list(r.standard_normal(6))))))
            assert np.max(np.abs(W.metric.cone.riemann(p, x, y, p))) < 1e-13 * scale

    def test_round_weights_give_the_flat_cone(self):
        cone = WeightedSphereStructure(3, [1.0, 1.0, 1.0]).metric.cone
        p, r = cone_point(3, 730)
        basis = [list(e) for e in np.eye(6)]
        worst = max(float(np.max(np.abs(cone.riemann(p, x, y, z))))
                    for x in basis for y in basis for z in basis)
        assert worst < 1e-13

    def test_level_set_connection_matches_koszul_oracle(self):
        from sasaklab.actions import TorusAction
        from sasaklab.oneill import SubmersionContext
        from sasaklab.reduction import ReductionSetup, build_frame

        W = WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        setup = ReductionSetup(W, TorusAction.of([[1, 1, 0], [0, 0, 1]]), mu=[1.0, 1.0])
        frame = build_frame(setup, setup.samples(1, seed=740)[0])
        ctx = SubmersionContext.from_reduction(setup, frame)
        geo, p = ctx.geometry, ctx.p
        fields = [ctx.horizontal_extend(v) for v in ctx.horizontal_frame] + [W.reeb_field]
        worst = 0.0
        for Xf in fields[:-1]:
            for Yf in fields:
                got = np.asarray(value(geo.covariant(p, Xf, Yf)))
                want = np.asarray(value(covariant_koszul(geo, p, Xf, Yf)))
                worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-12

    @staticmethod
    def tensors(cone, p):
        """(Gamma, R^) at p as arrays, lanes last at a lane point."""
        return [np.asarray(cone._tensor(p, which)) for which in (0, 1)]

    @staticmethod
    def points_per_pass(monkeypatch, n, points):
        """Cone builds on S^{2n-1} of ``points`` points a pass, m^2 lanes
        to a point; None keeps ``PASS_LANES``."""
        if points is not None:
            monkeypatch.setattr(vecops, "PASS_LANES", points * (2 * n) ** 2)

    @pytest.mark.parametrize("batch_points", [None, 2])
    @pytest.mark.parametrize("n,a", [(3, [1.0, 2.0, 3.0]), (2, [1.0, 100.0])])
    def test_a_batch_equals_batches_of_one_bitwise(self, monkeypatch, n, a, batch_points):
        self.points_per_pass(monkeypatch, n, batch_points)
        metric = WeightedSphereStructure(n, a).metric
        points = [cone_point(n, 760 + k)[0] for k in range(5)]
        batched = self.tensors(Cone(metric.pairs), stack_lanes(points))
        for k, p in enumerate(points):
            for lanes, one in zip(batched, self.tensors(Cone(metric.pairs), p)):
                assert np.ascontiguousarray(lanes[..., k]).tobytes() == one.tobytes()

    PER_ENTRY = {}  # (n, point) -> the per-entry oracle's tensors

    @pytest.mark.parametrize("batch_points", [32, 2])
    @pytest.mark.parametrize("samples", [1, 3, 33])
    @pytest.mark.parametrize("n,a", [(3, [1.0, 2.0, 3.0]), (2, [1.0, 100.0])])
    def test_tensors_match_the_per_entry_build_bitwise(self, monkeypatch, n, a, samples,
                                                        batch_points):
        # 33 samples cross a batch of 32; at a = (1, 100) some jet leaves
        # hold no lanes and must stand for all of them
        self.points_per_pass(monkeypatch, n, batch_points)
        metric = WeightedSphereStructure(n, a).metric
        points = [cone_point(n, 800 + k)[0] for k in range(samples)]
        got = self.tensors(Cone(metric.pairs), stack_lanes(points))
        for k, p in enumerate(points):
            key = (n, tuple(p))
            if key not in self.PER_ENTRY:
                self.PER_ENTRY[key] = cone_tensors_per_entry(metric, p)
            for lanes, want in zip(got, self.PER_ENTRY[key]):
                one = lanes if samples == 1 else np.ascontiguousarray(lanes[..., k])
                assert one.tobytes() == want.tobytes()

    def test_cached_tensors_are_read_only(self):
        # at a float point the cache's own arrays are handed out
        metric = WeightedSphereStructure(3, [1.0, 2.0, 3.0]).metric
        p = cone_point(3, 890)[0]
        cone = Cone(metric.pairs)
        for which in (0, 1):
            t = cone._tensor(p, which)
            with pytest.raises(ValueError):
                t[(0,) * t.ndim] = 1.0
        assert cone._tensor(p, 1).tobytes() == cone_tensors_per_entry(metric, p)[1].tobytes()

    @pytest.mark.parametrize("point", ["float", "lane", "jet"])
    def test_metric_field_matches_the_per_entry_field_bitwise(self, point):
        metric = WeightedSphereStructure(3, [1.0, 2.0, 3.0]).metric
        points = [cone_point(3, 850 + k)[0] for k in range(4)]
        p = points[0] if point == "float" else stack_lanes(points)
        if point == "jet":  # the cone build's two jet levels, over the lanes
            d1, d2 = (stack_lanes([rng.standard_normal(6) for _ in points]) for _ in range(2))
            got = along(lambda q: along(Cone(metric.pairs).metric_field, q, d2), p, d1)
            want = along(lambda q: along(lambda r: metric_field_per_entry(metric, r), q, d2),
                         p, d1)
            got = value(got)
        else:
            got = Cone(metric.pairs).metric_field(p)
            want = metric_field_per_entry(metric, p)
        want = np.asarray([[np.broadcast_to(value(e), np.shape(got)[2:]) for e in row]
                           for row in want])
        assert np.asarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["float-float", "lane-lane", "float-lane"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_contract_matches_the_nested_sums_bitwise(self, case, which):
        # "float-lane" is a float tensor against lane vectors, as in a
        # one-sample pair pass
        cone = WeightedSphereStructure(3, [1.0, 2.0, 3.0]).metric.cone
        points = [cone_point(3, 870 + k)[0] for k in range(3)]
        p = points[0] if case.startswith("float") else stack_lanes(points)
        t = cone._tensor(p, which)
        nested = t.tolist() if case.startswith("float") else lane_lists(t)
        vectors = [rng.standard_normal(6) for _ in range(which + 2)]
        if case.endswith("lane"):
            vectors = [rng.standard_normal((6, 3)) for _ in range(which + 2)]
        got = _contract(t, vectors)
        want = contract_nested(nested, vectors)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @staticmethod
    def recording(monkeypatch, cone):
        """The list of the points of each of the cone's builds, in order."""
        built = []
        build = cone._build_batch
        monkeypatch.setattr(cone, "_build_batch", lambda pts: built.append(pts.tolist()) or build(pts))
        return built

    def test_repeated_and_cached_points_are_built_once(self, monkeypatch):
        self.points_per_pass(monkeypatch, 3, 2)  # PASS_LANES = 72 at m = 6
        cone = Cone(WeightedSphereStructure(3, [1.0, 2.0, 3.0]).metric.pairs)
        built = self.recording(monkeypatch, cone)
        p, q, r, s = (cone_point(3, 780 + k)[0] for k in range(4))
        cone._tensor(p, 0)
        cone._tensor(stack_lanes([q, p, q, r, s, r]), 1)
        cone._tensor(stack_lanes([s, p]), 0)
        assert built == [[p], [q, r], [s]]

    @pytest.mark.parametrize("n,count,pass_lanes,sizes", [
        (3, 40, None, [28, 12]),
        (10, 5, None, [2, 2, 1]),
        (3, 3, 10, [1, 1, 1]),  # fewer lanes than one point holds: a point a pass
    ])
    def test_a_pass_holds_at_most_pass_lanes(self, monkeypatch, n, count, pass_lanes, sizes):
        if pass_lanes is not None:
            monkeypatch.setattr(vecops, "PASS_LANES", pass_lanes)
        cone = Cone(WeightedSphereStructure(n, [float(k) for k in range(1, n + 1)]).metric.pairs)
        built = self.recording(monkeypatch, cone)
        points = [cone_point(n, 900 + k)[0] for k in range(count)]
        cone._tensor(stack_lanes(points), 0)
        assert [len(pts) for pts in built] == sizes
        assert [q for pts in built for q in pts] == points
        for pts in built:
            assert len(pts) * (2 * n) ** 2 <= vecops.PASS_LANES or len(pts) == 1

    def test_curvature_off_the_metric_sphere_raises(self):
        from sasaklab.actions import TorusAction
        from sasaklab.reduction import ReductionSetup

        W = WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        setup = ReductionSetup(W, TorusAction.of([[1, 1, 0], [0, 0, 1]]), mu=[1.0, 1.0])
        p = setup.samples(1, seed=750)[0][0]
        t = [list(v) for v in setup.manifold.tangent_basis(p)]
        with pytest.raises(ValueError, match="metric's own sphere"):
            Geometry(setup.manifold, W.metric).curvature(p, t[0], t[1], t[2])

    def test_covariant_at_a_jet_point_raises(self):
        W = WeightedSphereStructure(2, [1.0, 3.0])
        geo = W.geometry
        p = rand_point(4)
        x = rand_tangent(p)
        with pytest.raises(TypeError, match="float and lane points"):
            along(lambda q: geo.covariant(q, geo.extend(x), W.reeb_field), p, x)
