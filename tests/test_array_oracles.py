"""Vectors as one array each, against the list code they replaced, bit
for bit: ``vdot``, ``cmult``, the two tangent projections, Gram-Schmidt
and the A and h pair passes (``oracles`` list code), the last two on the
round and on the weighted metric.  Each runs at floats and at 1, 2 and
80 lanes, the primitives and Gram-Schmidt at m = 8 and m = 64, and the
jet-generic ones at Dual levels 0, 1 and 2."""

import numpy as np
import pytest

from oracles import (ListPairPasses, ListWeightedMetric, list_cmult, list_gram_schmidt,
                     list_project, list_sphere_project, list_vdot)
from sasaklab import vecops
from sasaklab.actions import TorusAction
from sasaklab.geometry import InducedMetric
from sasaklab.jets import Dual, value
from sasaklab.manifolds import (EmbeddedManifold, LinearConstraint, ModuliConstraint, Sphere,
                                SphereConstraint)
from sasaklab.oneill import SubmersionContext
from sasaklab.reduction import ReductionSetup, build_frame
from sasaklab.structures import RoundSphereStructure, WeightedSphereStructure
from sasaklab.tensor_kernel import gram_schmidt

LANES = [None, 1, 2, 80]
DIMS = [8, 64]
LEVELS = [0, 1, 2]


def jet_vector(rng, m, lanes, level):
    """A random vector (m,) or (m, lanes), a jet of ``level`` nested levels."""
    if level == 0:
        return rng.standard_normal((m,) if lanes is None else (m, lanes))
    return Dual(level, jet_vector(rng, m, lanes, level - 1), jet_vector(rng, m, lanes, level - 1))


def _jet_stack(rng, m, lanes, level):
    """Three random vectors (m, lanes) stacked on axis 1, a jet of ``level``."""
    if level == 0:
        return rng.standard_normal((m, 3, lanes))
    return Dual(level, _jet_stack(rng, m, lanes, level - 1), _jet_stack(rng, m, lanes, level - 1))


def as_list(x):
    """The list vector of an array vector: its coordinates, floats at a
    float point."""
    if isinstance(x, np.ndarray) and x.ndim == 1:
        return x.tolist()
    return [x[k] for k in range(len(value(x)))]


def bits(x):
    """Every leaf of a scalar with its level tags, as bytes."""
    if isinstance(x, Dual):
        return x.lvl, bits(x.re), bits(x.im)
    return np.ascontiguousarray(x, dtype=float).tobytes()


def coordinate_bits(x):
    """bits of each coordinate of an array vector or of a list vector."""
    return [bits(c) for c in (x if isinstance(x, list) else as_list(x))]


def moduli_manifold(m):
    """The sphere cut by a linear and a moduli constraint, one of whose
    blocks has a zero coefficient."""
    a = np.zeros(m)
    a[-1] = 1.0
    c = [1.0, -1.0, 0.0] + [0.5] * (m // 2 - 3)
    return EmbeddedManifold(m, [SphereConstraint(), LinearConstraint(a), ModuliConstraint(c)])


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("lanes", LANES)
class TestPrimitives:
    def test_vdot(self, lanes, m, level):
        rng = np.random.default_rng([1, m, lanes or 0, level])
        u, v = (jet_vector(rng, m, lanes, level) for _ in range(2))
        assert bits(vecops.vdot(u, v)) == bits(list_vdot(as_list(u), as_list(v)))

    def test_vdot_against_a_stack(self, lanes, m, level):
        # a stack (m, k) + lanes
        rng = np.random.default_rng([6, m, lanes or 0, level])
        u = jet_vector(rng, m, lanes, level)
        stack = _jet_stack(rng, m, lanes or 1, level)
        got = vecops.vdot(u, stack)
        for j in range(3):
            want = list_vdot(as_list(u), as_list(stack[:, j]))
            assert bits(got[j]) == bits(want)

    def test_cmult(self, lanes, m, level):
        rng = np.random.default_rng([2, m, lanes or 0, level])
        v = jet_vector(rng, m, lanes, level)
        assert coordinate_bits(vecops.cmult(v)) == coordinate_bits(list_cmult(as_list(v)))

    def test_embedded_project(self, lanes, m, level):
        rng = np.random.default_rng([3, m, lanes or 0, level])
        q, v = (jet_vector(rng, m, lanes, level) for _ in range(2))
        man = moduli_manifold(m)
        assert (coordinate_bits(man.project(q, v))
                == coordinate_bits(list_project(man, as_list(q), as_list(v))))

    def test_sphere_project(self, lanes, m, level):
        rng = np.random.default_rng([4, m, lanes or 0, level])
        q, v = (jet_vector(rng, m, lanes, level) for _ in range(2))
        assert (coordinate_bits(Sphere(m).project(q, v))
                == coordinate_bits(list_sphere_project(as_list(q), as_list(v))))


@pytest.mark.parametrize("metric", ["round", "weighted"])
@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("lanes", LANES)
def test_gram_schmidt(lanes, m, metric):
    # floats and lanes only: a drop is a float-level decision
    rng = np.random.default_rng([5, m, lanes or 0])
    p = jet_vector(rng, m, lanes, 0)
    vectors = [jet_vector(rng, m, lanes, 0) for _ in range(4)]
    vectors.append(2.0 * vectors[1])  # dropped on every lane
    if metric == "round":
        g, list_g = InducedMetric(), list_vdot
    else:
        # tangent vectors at a unit point, where the weighted metric is positive
        p = p / np.sqrt(vecops.vdot(p, p))
        vectors = [v - p * vecops.vdot(p, v) for v in vectors]
        a = np.linspace(1.0, 3.0, m // 2)
        g, list_g = WeightedSphereStructure(m // 2, a).metric, ListWeightedMetric(a).at(as_list(p))
    frame = gram_schmidt(g, p, vectors)
    kept, inputs = list_gram_schmidt(as_list(p), [as_list(v) for v in vectors], list_g)
    assert list(frame.inputs) == inputs == [0, 1, 2, 3]
    assert [coordinate_bits(v) for v in frame.vectors] == [coordinate_bits(v) for v in kept]


def test_one_lane_takes_the_ordered_sum():
    # a one-lane and a float vector whose products numpy's add.reduce sums
    # pairwise, to other bits than the ordered sum of the list code
    rng = np.random.default_rng(7)
    for _ in range(1000):
        u, v = rng.standard_normal((2, 64)) * 10.0 ** rng.integers(-8, 8, (2, 64))
        if np.add.reduce(u * v).tobytes() != np.float64(list_vdot(list(u), list(v))).tobytes():
            break
    else:
        pytest.fail("no vector found on which add.reduce leaves the ordered sum")
    want = bits(list_vdot(u.tolist(), v.tolist()))
    assert bits(vecops.vdot(u, v)) == want
    assert bits(vecops.vdot(u[:, None], v[:, None])) == want


def _context(n, samples):
    """A reduction context over the given number of samples (floats for
    one): round ex1 (n = 4, m = 8) or ex1gen at n, or at n = 3 the
    weighted preset (weights 1, 2, 3, action blocks [1, 1, 0], [0, 0, 1])."""
    if n == 3:
        S = WeightedSphereStructure(3, [1.0, 2.0, 3.0])
        A = TorusAction.of([[1, 1, 0], [0, 0, 1]])
    else:
        S = RoundSphereStructure(n)
        A = TorusAction.of([[1, 1] + [0] * (n - 2), [0, 0] + [1] * (n - 2)])
    setup = ReductionSetup(S, A, mu=[1.0, 1.0])
    frame = build_frame(setup, setup.samples(samples, seed=11)[0])
    return setup, frame, SubmersionContext.from_reduction(setup, frame)


def _one_lane_context(n):
    """A float sample's context with its point and frames as one lane."""
    setup, frame, ctx = _context(n, 1)
    col = SubmersionContext(ctx.structure, ctx.manifold, ctx.vertical_fields, ctx.p[:, None],
                            [v[:, None] for v in ctx.horizontal_frame],
                            tangent_basis=frame.tangent[..., None])
    return setup, frame, col


@pytest.mark.parametrize("n,lanes", [(4, None), (4, 1), (4, 2), (4, 80), (32, None), (32, 2),
                                     (3, None), (3, 1), (3, 2), (3, 80)])
def test_pair_passes_match_the_list_code(monkeypatch, n, lanes):
    if lanes == 1:
        setup, frame, ctx = _one_lane_context(n)
    else:
        setup, frame, ctx = _context(n, lanes or 1)
    ref = ListPairPasses(setup, frame, ctx)
    d = ctx.horizontal_frame
    zeta = ctx.structure.reeb(ctx.p)
    pairs = [(d[0], d[1]), (d[1], zeta), (d[2], d[2]), (zeta, d[0]), (d[-1], d[1])]
    for per_pass in (len(pairs), 2):
        monkeypatch.setattr(vecops, "PASS_LANES", per_pass * (lanes or 1))
        for got, want in zip(ctx.a_tensors(pairs), ref.a_tensors(pairs, per_pass)):
            assert coordinate_bits(got) == coordinate_bits(want)
        for got, want in zip(ctx.second_fundamentals(pairs), ref.second_fundamentals(pairs, per_pass)):
            assert coordinate_bits(got) == coordinate_bits(want)
