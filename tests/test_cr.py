import numpy as np
import pytest

from oracles import (cr_decomposition_reference, cr_residuals, lane, submersion_context,
                     tangent_frame)
from sasaklab import cr, tensor_kernel
from sasaklab.actions import TorusAction
from sasaklab.cr import (
    cr_decomposition,
    final_identity,
    oneill_plane_residual,
    relation_residuals,
)
from sasaklab.errors import AmbiguousSplit
from sasaklab.manifolds import EmbeddedManifold, LinearConstraint, Sphere, SphereConstraint
from sasaklab.oneill import SubmersionContext
from sasaklab.reduction import ReductionSetup, build_frame
from sasaklab.structures import RoundSphereStructure, WeightedSphereStructure
from sasaklab.vecops import LanesDisagree, agreeing_parts, split_frame, stack_lanes

PAIRS = TorusAction.of([[1, 1, 0, 0], [0, 0, 1, 1]])
FLIPPED = TorusAction.of([[-1, 1, 0, 0], [0, 0, 1, 1]])
S7 = RoundSphereStructure(4)


def pairs_context(seed=0):
    setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
    samp = setup.samples(1, seed=seed)[0]
    frame = build_frame(setup, samp)
    return setup, frame, SubmersionContext.from_reduction(setup, frame)


def zero_context(seed=0):
    # zero level of the first circle of the sign-flipped action:
    # {|z_0| = |z_1|}, reduced by that circle
    setup = ReductionSetup(S7, FLIPPED, zero_rows=[[1.0, 0.0]])
    samp = setup.samples(1, seed=seed)[0]
    frame = build_frame(setup, samp)
    return setup, frame, SubmersionContext.from_reduction(setup, frame)


def frame_mix(frame_vectors, seed):
    r = np.random.default_rng(seed)
    c = r.standard_normal(len(frame_vectors))
    c /= np.linalg.norm(c)
    return list(np.asarray(frame_vectors).T @ c)


class TestDecomposition:
    def test_pairs_level_set_dims(self):
        _, _, ctx = pairs_context(seed=1)
        crd = cr_decomposition(ctx)
        assert crd.dims["D"] == 4
        assert crd.dims["D_perp"] == 1
        assert crd.dims["nu"] == 0

    def test_zero_level_has_no_nu(self):
        _, _, ctx = zero_context(seed=2)
        crd = cr_decomposition(ctx)
        assert crd.dims["nu"] == 0
        assert crd.dims["D_perp"] == 1

    def test_invariance_residuals(self):
        _, _, ctx = pairs_context(seed=3)
        res = cr_residuals(ctx, cr_decomposition(ctx))
        assert res["phi_d_in_d"] < 1e-8
        assert res["phi_dperp_normal"] < 1e-8
        assert res["phi_nu_invariant"] < 1e-8

    def test_invariant_great_sphere(self):
        # the equatorial S^5 = {z_3 = 0} is phi-invariant: D_perp = 0 and
        # nu is the phi-invariant rank-2 normal bundle
        cons = [SphereConstraint()]
        for off in (6, 7):
            e = np.zeros(8)
            e[off] = 1.0
            cons.append(LinearConstraint(e))
        man = EmbeddedManifold(8, cons)
        rng = np.random.default_rng(4)
        p = np.concatenate([rng.standard_normal(6), [0.0, 0.0]])
        p = list(p / np.linalg.norm(p))
        ctx = submersion_context(S7, man, [], p)
        # the Reeb field is tangent: the hand-made frame ends in it
        assert bits(ctx.tangent_frame[-1]) == bits(S7.reeb(ctx.p))
        crd = cr_decomposition(ctx)
        assert crd.dims["D_perp"] == 0
        assert crd.dims["nu"] == 2
        assert cr_residuals(ctx, crd)["phi_nu_invariant"] < 1e-8

    def test_generic_submanifold_is_ambiguous(self):
        # a random great S^3 in S^7 is not semi-invariant: the singular
        # values of the phi-normality map land strictly inside (0, 1)
        rng = np.random.default_rng(5)
        rows = []
        basis = rng.standard_normal((4, 8))
        cons = [SphereConstraint()]
        for row in basis:
            cons.append(LinearConstraint(row))
        man = EmbeddedManifold(8, cons)
        p, _ = man.newton_refine(list(rng.standard_normal(8)))
        p = list(np.asarray(p) / np.linalg.norm(p))
        ctx = submersion_context(S7, man, [], p)
        with pytest.raises(AmbiguousSplit):
            cr_decomposition(ctx)


class TestRelations:
    def test_relation_sweep_on_pairs(self):
        _, frame, ctx = pairs_context(seed=6)
        crd = cr_decomposition(ctx)
        worst = {}
        for k in range(20):
            x = frame_mix(crd.d_frame, 2 * k)
            y = frame_mix(crd.d_frame, 2 * k + 1)
            for name, v in relation_residuals(ctx, crd, x, y).items():
                worst[name] = max(worst.get(name, 0.0), v)
        assert max(worst.values()) < 1e-6

    def test_oneill_plane_identity(self):
        _, frame, ctx = pairs_context(seed=7)
        crd = cr_decomposition(ctx)
        worst = 0.0
        for k in range(10):
            worst = max(worst, oneill_plane_residual(ctx, frame_mix(crd.d_frame, k)))
        assert worst < 1e-6


class TestFinalIdentity:
    def test_toric_level_set(self):
        _, frame, ctx = pairs_context(seed=8)
        crd = cr_decomposition(ctx)
        worst_res, worst_tilde = 0.0, 0.0
        for k in range(10):
            fin = final_identity(ctx, frame_mix(crd.d_frame, k), crd)
            worst_res = max(worst_res, fin["residual"])
            worst_tilde = max(worst_tilde, fin["h_tilde_sq"])
        assert worst_res < 1e-5
        assert worst_tilde < 1e-8

    def test_totally_geodesic_case(self):
        # great-sphere zero level: h = 0, both correction terms vanish
        # and the quotient curvature equals the ambient one
        SPLIT = TorusAction.of([[1, 0, 0, 0], [0, 1, 1, 1]])
        setup = ReductionSetup(S7, SPLIT, zero_rows=[[1.0, 0.0]])
        samp = setup.samples(1, seed=9)[0]
        frame = build_frame(setup, samp)
        ctx = SubmersionContext.from_reduction(setup, frame)
        crd = cr_decomposition(ctx)
        fin = final_identity(ctx, frame_mix(crd.d_frame, 3), crd)
        assert fin["h_bar_sq"] < 1e-10
        assert fin["h_tilde_sq"] < 1e-10
        assert fin["k_quotient"] == pytest.approx(1.0, abs=1e-7)
        assert fin["k_ambient"] == pytest.approx(1.0, abs=1e-9)

    def test_positivity_on_zero_level_reduction(self):
        _, frame, ctx = zero_context(seed=10)
        crd = cr_decomposition(ctx)
        for k in range(25):
            x = frame_mix(crd.d_frame, k)
            k_p = ctx.phi_sectional_quotient(x)
            assert k_p >= 1.0 - 1e-6


def lane_contexts(setup, count, seed):
    """The lane context of ``count`` samples from one lane frame, and the
    float context of each sample."""
    samples = setup.samples(count, seed=seed)[0]
    ctx = SubmersionContext.from_reduction(setup, build_frame(setup, samples))
    return ctx, [SubmersionContext.from_reduction(setup, build_frame(setup, s))
                 for s in samples[:, None]]


W5 = WeightedSphereStructure(3, [1.0, 2.0, 3.0])
SETUPS = {
    "ray": lambda: ReductionSetup(S7, PAIRS, mu=[1.0, 1.0]),
    "zero": lambda: ReductionSetup(S7, FLIPPED, zero_rows=[[1.0, 0.0]]),
    # z_0 = 0 on the level set: nu has rank 2
    "ray-nu": lambda: ReductionSetup(S7, TorusAction.of([[1, 0, 0, 0], [0, 1, 1, 1]]),
                                     mu=[0.0, 1.0]),
    "weighted-ray": lambda: ReductionSetup(W5, TorusAction.of([[1, 1, 0], [0, 0, 1]]),
                                           mu=[1.0, 1.0]),
    "weighted-zero": lambda: ReductionSetup(W5, TorusAction.of([[-1, 1, 0], [0, 0, 1]]),
                                            zero_rows=[[1.0, 0.0]]),
}


def bits(vectors):
    return np.asarray(vectors, dtype=float).tobytes()


class TestStackedSplitting:
    """The splitting of a lane context, and the identities on it, hold
    each sample's float evaluation, bit for bit."""

    @pytest.mark.parametrize("name", list(SETUPS))
    def test_lanes_equal_each_sample_bitwise(self, name):
        count = 3 if name.startswith("weighted") else 4
        ctx, floats = lane_contexts(SETUPS[name](), count, seed=30)
        crd = cr_decomposition(ctx)
        crds = [cr_decomposition(c) for c in floats]
        for field in ("d_frame", "dperp_frame", "phi_dperp_frame", "nu_frame"):
            for lanes, ref in zip(split_frame(getattr(crd, field), count), crds):
                assert bits(lanes) == bits(getattr(ref, field))
        assert all(ref.dims == crd.dims for ref in crds)

        xs = [frame_mix(d.d_frame, 40 + i) for i, d in enumerate(crds)]
        ys = [frame_mix(d.d_frame, 50 + i) for i, d in enumerate(crds)]
        x, y = stack_lanes(xs), stack_lanes(ys)
        fin = final_identity(ctx, x, crd)
        rels = relation_residuals(ctx, crd, x, y)
        onil = oneill_plane_residual(ctx, x)
        for i, (c, d) in enumerate(zip(floats, crds)):
            assert {k: lane(v, i) for k, v in fin.items()} == final_identity(c, xs[i], d)
            assert ({k: lane(v, i) for k, v in rels.items()}
                    == relation_residuals(c, d, xs[i], ys[i]))
            assert lane(onil, i) == oneill_plane_residual(c, xs[i])

    def test_lanes_that_disagree_on_the_dperp_count_split_into_float_splittings(self):
        # two level sets in S^7 whose TN has rank 5 and normal space rank 2:
        # D_perp has rank 2 on one, 0 on the other; their samples alternate
        three = ReductionSetup(S7, TorusAction.of([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]),
                               mu=[1.0, 1.0, 1.0])
        _, twos = lane_contexts(three, 2, seed=60)
        _, nones = lane_contexts(SETUPS["ray-nu"](), 2, seed=61)
        floats = [twos[0], nones[0], twos[1], nones[1]]

        def split(idx):
            # the lane context of the samples idx, N's frames stacked as they
            # are; the sphere's own normal frame in T_pS is empty
            stacked = [[stack_lanes(vs) for vs in zip(*(getattr(floats[i], name) for i in idx))]
                       for name in ("tangent_frame", "normal_frame")]
            ctx = SubmersionContext(S7, Sphere(8), [], stack_lanes([floats[i].p for i in idx]),
                                    horizontal_frame=[], tangent_frame=stacked[0])
            ctx.normal_frame = stacked[1]
            return cr_decomposition(ctx)

        with pytest.raises(LanesDisagree) as disagree:
            split([0, 1, 2, 3])
        assert disagree.value.keys == [2, 0, 2, 0]  # the D_perp count, lane by lane
        parts = agreeing_parts(split, [0, 1, 2, 3])
        assert [idx for idx, _ in parts] == [[0, 2], [1, 3]]
        for idx, crd in parts:
            for k, i in enumerate(idx):
                ref = cr_decomposition(floats[i])
                assert crd.dims == ref.dims
                for field in ("d_frame", "dperp_frame", "phi_dperp_frame", "nu_frame"):
                    assert (bits(split_frame(getattr(crd, field), len(idx))[k])
                            == bits(getattr(ref, field)))

    def test_ambiguous_lanes_raise_the_first_lanes_float_message(self):
        # three points of the generic great S^3 of
        # TestDecomposition.test_generic_submanifold_is_ambiguous
        rng = np.random.default_rng(5)
        cons = [SphereConstraint(), *(LinearConstraint(r) for r in rng.standard_normal((4, 8)))]
        man = EmbeddedManifold(8, cons)
        points = []
        for _ in range(3):
            p, _ = man.newton_refine(list(rng.standard_normal(8)))
            points.append(list(np.asarray(p) / np.linalg.norm(p)))

        def split(p):
            cr_decomposition(SubmersionContext(S7, man, [], p, horizontal_frame=[],
                                               tangent_frame=tangent_frame(S7, man, p)))

        with pytest.raises(AmbiguousSplit) as first:
            split(points[0])
        with pytest.raises(AmbiguousSplit) as lanes:
            split(stack_lanes(points))
        assert str(lanes.value) == str(first.value)


def projector(frame):
    """The Euclidean orthogonal projector onto the span of a float frame (k, m)."""
    frame = np.asarray(frame, dtype=float)
    if not len(frame):
        return 0.0
    q = np.linalg.qr(frame.T)[0]
    return q @ q.T


FIELDS = ("d_frame", "dperp_frame", "phi_dperp_frame", "nu_frame")


class TestAgainstTheReference:
    """The splitting read from the frames the reduction formed spans the
    subspaces of the splitting that rebuilt them
    (``oracles.cr_decomposition_reference``)."""

    @pytest.mark.parametrize("lanes", [False, True])
    @pytest.mark.parametrize("name", list(SETUPS))
    def test_same_subspaces_and_dims(self, name, lanes):
        count = 3
        ctx, floats = lane_contexts(SETUPS[name](), count, seed=70)
        for c in [ctx] if lanes else floats:
            got, ref = cr_decomposition(c), cr_decomposition_reference(c)
            assert got.dims == ref.dims
            width = count if lanes else 1
            for field in FIELDS:
                for a, b in zip(split_frame(getattr(got, field), width),
                                split_frame(getattr(ref, field), width)):
                    assert np.max(np.abs(projector(a) - projector(b)), initial=0.0) <= 1e-12


def ex1gen_context(n):
    setup = ReductionSetup(RoundSphereStructure(n),
                           TorusAction.of([[1, 1] + [0] * (n - 2), [0, 0] + [1] * (n - 2)]),
                           mu=[1.0, 1.0])
    return SubmersionContext.from_reduction(setup, build_frame(setup, setup.samples(1, 12)[0]))


WORK_CONTEXTS = {
    "round": lambda: pairs_context(seed=13)[2],
    "weighted": lambda: lane_contexts(SETUPS["weighted-ray"](), 1, seed=14)[1][0],
    "ex1gen-64": lambda: ex1gen_context(64),
}


@pytest.mark.parametrize("name", list(WORK_CONTEXTS))
def test_one_gram_schmidt_and_one_phi_pass(monkeypatch, name):
    # TN's contact part is read from the tangent frame, phi(D_perp) is
    # combined from phi(contact), and one Gram-Schmidt takes
    # [phi(D_perp)..., normal frame...]
    ctx = WORK_CONTEXTS[name]()
    offered, phis = [], []
    real_gs, real_phi = tensor_kernel.gram_schmidt, ctx.structure.phi

    def counting_gs(metric, p, vectors):
        offered.append(len(vectors))
        return real_gs(metric, p, vectors)

    def counting_phi(*args):
        phis.append(1)
        return real_phi(*args)

    for module in (cr, tensor_kernel):
        monkeypatch.setattr(module, "gram_schmidt", counting_gs)
    monkeypatch.setattr(ctx.structure, "phi", counting_phi)
    crd = cr_decomposition(ctx)
    assert offered == [crd.dims["D_perp"] + len(ctx.normal_frame)]
    assert len(phis) == len(ctx.tangent_frame) - 1
