import math

import numpy as np
import pytest

from oracles import fd_curvature
from sasaklab.errors import EmptyFrame, SingularMetric
from sasaklab.geometry import Geometry, InducedMetric
from sasaklab.jets import along, jsqrt, value
from sasaklab.manifolds import Sphere
from sasaklab.structures import RoundSphereStructure, WeightedSphereStructure
from sasaklab.tensor_kernel import gram_schmidt, orthogonal_tail
from sasaklab.vecops import cmult, vdot, vscale, vsub, vvalue

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
    return along(lambda q: field(vscale(q, 1.0 / jsqrt(vdot(q, q)))), p, direction)


def rand_point(m):
    p = rng.standard_normal(m)
    return list(p / np.linalg.norm(p))


def rand_tangent(p):
    v = rng.standard_normal(len(p))
    v -= (v @ np.asarray(p)) * np.asarray(p)
    return list(v / np.linalg.norm(v))


class TestComplexMult:
    def test_i_on_c1(self):
        assert cmult([1.0, 0.0]) == [0.0, 1.0]

    def test_twice_is_minus_identity(self):
        v = list(rng.standard_normal(8))
        assert np.allclose(cmult(cmult(v)), [-x for x in v])

    def test_componentwise_rule_n2(self):
        assert cmult([0.0, 1.0, 1.0, 0.0]) == [-1.0, 0.0, 0.0, 1.0]


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
        assert out == [0.0, 1.0, 0.0, 0.0]


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
        frame = gram_schmidt(EUCLIDEAN, p, [v, vscale(v, 2.0), w])
        assert len(frame) == 2

    def test_textbook_example(self):
        p = [0.0, 0.0, 1.0, 0.0]
        frame = gram_schmidt(EUCLIDEAN, p, [[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(frame.vectors[0], [s, s, 0.0, 0.0])
        assert np.allclose(frame.vectors[1], [-s, s, 0.0, 0.0])

    def test_empty_frame_raises(self):
        p = rand_point(4)
        with pytest.raises(EmptyFrame):
            gram_schmidt(EUCLIDEAN, p, [[0.0] * 4, [1e-14] * 4])

    def test_bitwise_deterministic(self):
        p = rand_point(8)
        vs = [list(rng.standard_normal(8)) for _ in range(5)]
        a = gram_schmidt(EUCLIDEAN, p, [list(v) for v in vs])
        b = gram_schmidt(EUCLIDEAN, p, [list(v) for v in vs])
        assert a.vectors == b.vectors

    def test_orthogonal_tail_skips_dropped_head_vectors(self):
        p = [0.0, 0.0, 0.0, 1.0]
        e1, e2, e3 = ([float(i == k) for i in range(4)] for k in range(3))
        tail = orthogonal_tail(EUCLIDEAN, p, [e1, vscale(e1, 2.0)], [vscale(e1, 3.0), e2, e3])
        assert tail == [e2, e3]


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
        assert np.allclose(d, cmult(v), atol=1e-12)

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
        got = vvalue(S.geometry.covariant_koszul(p, S.geometry.extend(x), S.reeb_field))
        # Gauss-formula oracle: tangential projection of the ambient
        # derivative of q -> i q along the curve through p
        oracle = project(p, cmult(x))
        assert np.max(np.abs(np.asarray(got) - oracle)) < 1e-9

    def test_metric_compatibility(self):
        S = WeightedSphereStructure(2, [1.0, 2.0])
        geo = S.geometry
        p = rand_point(4)
        x, y, z = rand_tangent(p), rand_tangent(p), rand_tangent(p)
        Yf, Zf = geo.extend(y), geo.extend(z)
        lhs = float(along(lambda q: S.metric.g(q, Yf(q), Zf(q)), p, x))
        gy = geo.covariant_koszul(p, geo.extend(x), Yf)
        gz = geo.covariant_koszul(p, geo.extend(x), Zf)
        rhs = value(S.metric.g(p, gy, z)) + value(S.metric.g(p, y, gz))
        assert abs(lhs - rhs) < 1e-8

    def test_torsion_free(self):
        S = WeightedSphereStructure(2, [1.0, 3.0])
        geo = S.geometry
        p = rand_point(4)
        x, y = rand_tangent(p), rand_tangent(p)
        Xf, Yf = geo.extend(x), geo.extend(y)
        nxy = vvalue(geo.covariant_koszul(p, Xf, Yf))
        nyx = vvalue(geo.covariant_koszul(p, Yf, Xf))
        br = vvalue(geo.bracket(p, Xf, Yf))
        resid = np.asarray(nxy) - np.asarray(nyx) - np.asarray(br)
        assert np.max(np.abs(resid)) < 1e-8

    def test_explicit_koszul_equals_collapsed_form_on_induced(self):
        geo = Geometry(Sphere(8), InducedMetric())
        p = rand_point(8)
        x, y = rand_tangent(p), rand_tangent(p)
        a = vvalue(geo.covariant(p, geo.extend(x), geo.extend(y)))
        b = vvalue(geo.covariant_koszul(p, geo.extend(x), geo.extend(y)))
        assert np.max(np.abs(np.asarray(a) - b)) < 1e-12

    def test_singular_metric_raises(self):
        class Degenerate:
            euclidean = False

            def g(self, q, u, v):
                return 0.0 * vdot(u, v)

        with pytest.raises(SingularMetric):
            Geometry(Sphere(4), Degenerate()).curvature(
                rand_point(4), [1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0])


class TestCurvature:
    def test_round_constant_curvature(self):
        p = rand_point(8)
        x, y, z = rand_tangent(p), rand_tangent(p), rand_tangent(p)
        got = vvalue(Geometry(Sphere(8), EUCLIDEAN).curvature(p, x, y, z))
        want = vsub(vscale(x, vdot(y, z)), vscale(y, vdot(x, z)))
        assert np.max(np.abs(np.asarray(got) - want)) < 1e-7

    def test_antisymmetry(self):
        p = rand_point(6)
        x, z = rand_tangent(p), rand_tangent(p)
        got = vvalue(Geometry(Sphere(6), EUCLIDEAN).curvature(p, x, x, z))
        assert np.max(np.abs(got)) < 1e-10

    def test_weighted_curvature_vs_fd_oracle(self):
        a = [1.0, 2.0]
        S = WeightedSphereStructure(2, a)
        p = rand_point(4)
        x, y, z = rand_tangent(p), rand_tangent(p), rand_tangent(p)
        jet = np.asarray(vvalue(S.geometry.curvature(p, x, y, z)))
        fd = fd_curvature(S.metric.g, p, x, y, z, step=1e-4)
        assert np.max(np.abs(jet - fd)) < 1e-4


class TestLieBracket:
    def test_self_bracket_vanishes(self):
        p = rand_point(6)
        f = lambda q: cmult(q)
        assert np.max(np.abs(vvalue(bracket(f, f, p)))) < 1e-14

    def test_torus_fields_commute(self):
        from sasaklab.actions import TorusAction

        A = TorusAction.of([[1, 1, 0, 0], [0, 0, 1, 1]])
        p = rand_point(8)
        f1 = lambda q: A.fundamental_field((1.0, 0.0), q)
        f2 = lambda q: A.fundamental_field((0.0, 1.0), q)
        assert np.max(np.abs(vvalue(bracket(f1, f2, p)))) < 1e-9

    def test_fundamental_fields_commute_with_reeb(self):
        from sasaklab.actions import TorusAction

        A = TorusAction.of([[1, 1, 0, 0], [0, 0, 1, 1]])
        S = RoundSphereStructure(4)
        p = rand_point(8)
        f = lambda q: A.fundamental_field((0.3, -0.8), q)
        assert np.max(np.abs(vvalue(bracket(f, S.reeb_field, p)))) < 1e-8


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
            ny = vvalue(geo.covariant(p, Xf, Yf))
            nz = vvalue(geo.covariant(p, Xf, Zf))
            comp = abs(dg - vdot(ny, z) - vdot(y, nz))
            nxy = np.asarray(vvalue(geo.covariant(p, Xf, Yf)))
            nyx = np.asarray(vvalue(geo.covariant(p, Yf, Xf)))
            br = np.asarray(vvalue(geo.bracket(p, Xf, Yf)))
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
            got = np.asarray(vvalue(Geometry(Sphere(8), EUCLIDEAN).curvature(p, x, y, z)))
            want = np.asarray(vsub(vscale(x, vdot(y, z)), vscale(y, vdot(x, z))))
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-7
