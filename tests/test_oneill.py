import numpy as np
import pytest

from oracles import (
    QuotientPerPair,
    a_tensor_bracket,
    hopf_context,
    product_sphere_h_norm,
    weingarten_residual,
)
from sasaklab import jets, vecops
from sasaklab.actions import TorusAction
from sasaklab.geometry import Geometry, InducedMetric
from sasaklab.jets import value
from sasaklab.oneill import SubmersionContext
from sasaklab.reduction import ReductionSetup, build_frame
from sasaklab.structures import RoundSphereStructure, WeightedSphereStructure
from sasaklab.vecops import lane_width, split_frame, stack_lanes, vdot

rng = np.random.default_rng(31)

PAIRS = TorusAction.of([[1, 1, 0, 0], [0, 0, 1, 1]])
SPLIT = TorusAction.of([[1, 0, 0, 0], [0, 1, 1, 1]])
S7 = RoundSphereStructure(4)


def pairs_context(seed=0, mu=(1.0, 1.0)):
    setup = ReductionSetup(S7, PAIRS, mu=list(mu))
    samp = setup.samples(1, seed=seed)[0]
    frame = build_frame(setup, samp)
    return setup, frame, SubmersionContext.from_reduction(setup, frame)


def frame_mix(frame_vectors, seed):
    r = np.random.default_rng(seed)
    c = r.standard_normal(len(frame_vectors))
    c /= np.linalg.norm(c)
    return list(np.asarray(frame_vectors).T @ c)


class TestHopfGate:
    def test_downstairs_curvature_is_four(self):
        ctx = hopf_context()
        x, y = ctx.horizontal_frame
        assert ctx.quotient_curvature_4(x, y, y, x) == pytest.approx(4.0, abs=1e-7)

    def test_gate_at_generic_points(self):
        for seed in range(5):
            r = np.random.default_rng(seed)
            p = r.standard_normal(4)
            p = list(p / np.linalg.norm(p))
            ctx = hopf_context(p)
            x, y = ctx.horizontal_frame
            assert ctx.quotient_curvature_4(x, y, y, x) == pytest.approx(4.0, abs=1e-7)

    def test_a_tensor_magnitude(self):
        ctx = hopf_context()
        x, y = ctx.horizontal_frame
        a = value(ctx.a_tensor(x, y))
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-9)


class TestATensor:
    def test_vanishes_on_diagonal(self):
        _, frame, ctx = pairs_context(seed=1)
        x = frame_mix([list(v) for v in frame.contact_d.vectors], 7)
        assert np.max(np.abs(value(ctx.a_tensor(x, x)))) < 1e-8

    def test_antisymmetry(self):
        _, frame, ctx = pairs_context(seed=1)
        d = [list(v) for v in frame.contact_d.vectors]
        a_xy = np.asarray(value(ctx.a_tensor(d[0], d[1])))
        a_yx = np.asarray(value(ctx.a_tensor(d[1], d[0])))
        assert np.max(np.abs(a_xy + a_yx)) < 1e-8

    def test_bracket_oracle_sweep(self):
        _, frame, ctx = pairs_context(seed=2)
        d = [list(v) for v in frame.contact_d.vectors]
        worst = 0.0
        for k in range(50):
            x, y = frame_mix(d, 2 * k), frame_mix(d, 2 * k + 1)
            a = np.asarray(value(ctx.a_tensor(x, y)))
            b = np.asarray(value(a_tensor_bracket(ctx, x, y)))
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst < 1e-6

    def test_a_with_reeb_slot_vanishes(self):
        _, frame, ctx = pairs_context(seed=3)
        x = list(frame.contact_d.vectors[0])
        zeta = list(frame.reeb)
        assert np.max(np.abs(value(ctx.a_tensor(x, zeta)))) < 1e-9


class TestSecondFundamentalForm:
    def test_symmetry(self):
        _, frame, ctx = pairs_context(seed=4)
        d = [list(v) for v in frame.contact_d.vectors]
        h_xy = np.asarray(value(ctx.second_fundamental(d[0], d[1])))
        h_yx = np.asarray(value(ctx.second_fundamental(d[1], d[0])))
        assert np.max(np.abs(h_xy - h_yx)) < 1e-8

    def test_great_sphere_totally_geodesic(self):
        # zero level of the kernel circle of the split action is a great
        # S^5 = {z_0 = 0}; great spheres have h = 0
        setup = ReductionSetup(S7, SPLIT, zero_rows=[[1.0, 0.0]])
        samp = setup.samples(1, seed=5)[0]
        frame = build_frame(setup, samp)
        ctx = SubmersionContext.from_reduction(setup, frame)
        d = [list(v) for v in frame.contact_d.vectors]
        for k in range(4):
            x, y = frame_mix(d, k), frame_mix(d, k + 11)
            assert np.max(np.abs(value(ctx.second_fundamental(x, y)))) < 1e-8

    def test_product_of_spheres_oracle(self):
        # diagonal-ray level set of the pairs action is S^3 x S^3 with
        # equal radii: |h(X,X)| = 1 for unit X tangent to one factor
        _, frame, ctx = pairs_context(seed=6)
        p = np.asarray(ctx.p)
        e = np.zeros(8)
        e[0], e[1] = -p[1], p[0]  # tangent to the first factor
        block = e - (e @ p) * p
        x = list(block / np.linalg.norm(block))
        h = np.asarray(value(ctx.second_fundamental(x, x)))
        assert np.linalg.norm(h) == pytest.approx(
            product_sphere_h_norm(p, x, 0), abs=1e-8
        )


class TestWeingarten:
    def test_identity_sweep(self):
        _, frame, ctx = pairs_context(seed=7)
        d = [list(v) for v in frame.contact_d.vectors] + [list(frame.reeb)]
        worst = 0.0
        for k in range(50):
            y, z = frame_mix(d, 3 * k), frame_mix(d, 3 * k + 1)
            worst = max(worst, weingarten_residual(ctx, 0, y, z))
        assert worst < 1e-7

    def test_reeb_slot(self):
        _, frame, ctx = pairs_context(seed=8)
        zeta = list(frame.reeb)
        z = list(frame.contact_d.vectors[0])
        assert weingarten_residual(ctx, 0, zeta, z) < 1e-8


class TestGaussConsistency:
    def test_direct_jet_curvature_matches_gauss_path(self):
        setup, frame, ctx = pairs_context(seed=9)
        geo_n = Geometry(setup.manifold, InducedMetric())
        d = [list(v) for v in frame.contact_d.vectors] + [list(frame.reeb)]
        worst = 0.0
        for k in range(10):
            x, y = frame_mix(d, 4 * k), frame_mix(d, 4 * k + 1)
            z, v = frame_mix(d, 4 * k + 2), frame_mix(d, 4 * k + 3)
            direct = vdot(value(geo_n.curvature(ctx.p, x, y, z)), np.asarray(v))
            gauss = ctx.gauss_curvature_n4(x, y, z, v)
            worst = max(worst, abs(direct - gauss))
        assert worst < 1e-5


class TestQuotientCurvature:
    def test_reeb_slot_reduces_to_level_set_curvature(self):
        _, frame, ctx = pairs_context(seed=10)
        zeta = list(frame.reeb)
        d = [list(v) for v in frame.contact_d.vectors]
        worst = 0.0
        for k in range(25):
            x, y, z = frame_mix(d, 3 * k), frame_mix(d, 3 * k + 1), frame_mix(d, 3 * k + 2)
            a = ctx.quotient_curvature_4(x, zeta, y, z)
            b = ctx.gauss_curvature_n4(x, zeta, y, z)
            worst = max(worst, abs(a - b))
        assert worst < 1e-6

    def test_first_bianchi(self):
        _, frame, ctx = pairs_context(seed=11)
        d = [list(v) for v in frame.contact_d.vectors]
        x, y, z = d[0], d[1], d[2]
        v = d[3]
        acc = (
            ctx.quotient_curvature_4(x, y, z, v)
            + ctx.quotient_curvature_4(y, z, x, v)
            + ctx.quotient_curvature_4(z, x, y, v)
        )
        assert abs(acc) < 1e-7

    def test_pair_symmetries(self):
        _, frame, ctx = pairs_context(seed=12)
        d = [list(v) for v in frame.contact_d.vectors]
        x, y, z, v = d[0], d[1], d[2], d[3]
        r1 = ctx.quotient_curvature_4(x, y, z, v)
        assert ctx.quotient_curvature_4(y, x, z, v) == pytest.approx(-r1, abs=1e-7)
        assert ctx.quotient_curvature_4(z, v, x, y) == pytest.approx(r1, abs=1e-7)


class TestQuotientSasakian:
    def test_pairs_diagonal(self):
        _, frame, ctx = pairs_context(seed=13)
        d = [list(v) for v in frame.contact_d.vectors]
        worst = 0.0
        for k in range(20):
            worst = max(worst, ctx.quotient_sasakian_residual(
                frame_mix(d, 5 * k), frame_mix(d, 5 * k + 1)))
        assert worst < 1e-5

    def test_split_action_sphere_quotient(self):
        setup = ReductionSetup(S7, SPLIT, mu=[0.0, 1.0])
        samp = setup.samples(1, seed=14)[0]
        frame = build_frame(setup, samp)
        ctx = SubmersionContext.from_reduction(setup, frame)
        d = [list(v) for v in frame.contact_d.vectors]
        worst = 0.0
        for k in range(10):
            worst = max(worst, ctx.quotient_sasakian_residual(
                frame_mix(d, 2 * k), frame_mix(d, 2 * k + 1)))
        assert worst < 1e-5

    def test_negative_control_fake_reeb(self):
        _, frame, ctx = pairs_context(seed=15)
        S = ctx.structure
        g = S.metric.g
        x, y, fake = frame.contact_d.vectors[:3]
        r = ctx.quotient_curvature_vector(x, fake, y)
        expected = x * value(g(ctx.p, fake, y)) - fake * value(g(ctx.p, x, y))
        diff = np.asarray(r) - np.asarray(expected)
        assert np.linalg.norm(diff) > 0.1


class TestPhiSectional:
    def test_round_sphere_is_one(self):
        S = RoundSphereStructure(4)
        for _ in range(10):
            p = rng.standard_normal(8)
            p = list(p / np.linalg.norm(p))
            xi = value(S.reeb(p))
            x = rng.standard_normal(8)
            x -= (x @ np.asarray(p)) * np.asarray(p)
            x -= (x @ np.asarray(xi)) * np.asarray(xi)
            x = list(x / np.linalg.norm(x))
            phx = value(S.phi(p, x))
            k = S.ambient_curvature_4(p, x, phx, phx, x) / (
                value(S.metric.g(p, x, x)) * value(S.metric.g(p, phx, phx))
            )
            assert k == pytest.approx(1.0, abs=1e-9)

    def test_two_path_agreement_on_quotient(self):
        from sasaklab.cr import cr_decomposition, final_identity

        _, frame, ctx = pairs_context(seed=16)
        crd = cr_decomposition(ctx)
        x = frame_mix(crd.d_frame, 21)
        fin = final_identity(ctx, x, crd)
        reconstructed = fin["k_ambient"] + 4.0 * fin["h_bar_sq"] - 2.0 * fin["h_tilde_sq"]
        assert fin["k_quotient"] == pytest.approx(reconstructed, abs=1e-5)


class TestStackedContext:
    """A context built from one lane frame holds each sample's float
    evaluation, bit for bit."""

    @pytest.mark.parametrize("make, count", [
        (lambda: ReductionSetup(S7, PAIRS, mu=[1.0, 1.0]), 5),
        (lambda: ReductionSetup(S7, SPLIT, zero_rows=[[1.0, 0.0]]), 4),
        (lambda: ReductionSetup(WeightedSphereStructure(3, [1.0, 2.0, 3.0]),
                                TorusAction.of([[1, 1, 0], [0, 0, 1]]), mu=[1.0, 1.0]), 3),
    ], ids=["round-ray", "round-zero", "weighted-ray"])
    def test_lanes_equal_each_sample_bitwise(self, make, count):
        setup = make()
        samples = setup.samples(count, seed=9)[0]
        ctx = SubmersionContext.from_reduction(setup, build_frame(setup, samples))
        frames = [build_frame(setup, s) for s in samples[:, None]]
        xs = [frame_mix(f.contact_d.vectors, 10 + i) for i, f in enumerate(frames)]
        ys = [frame_mix(f.contact_d.vectors, 20 + i) for i, f in enumerate(frames)]
        lanes = ctx.quotient_sasakian_residual(stack_lanes(xs), stack_lanes(ys))
        assert lanes.shape == (count,)
        for i, frame in enumerate(frames):
            one = SubmersionContext.from_reduction(setup, frame)
            assert lanes[i] == one.quotient_sasakian_residual(xs[i], ys[i])


def lane_context(structure, action, samples, seed):
    """The context of one reduction frame over ``samples`` samples, and
    two horizontal directions; at samples = 1 a float context."""
    setup = ReductionSetup(structure, action, mu=[1.0, 1.0])
    frame = build_frame(setup, setup.samples(samples, seed=seed)[0])
    ctx = SubmersionContext.from_reduction(setup, frame)
    d = split_frame(frame.contact_d.vectors, samples)
    x = stack_lanes([frame_mix(v, seed + i) for i, v in enumerate(d)])
    y = stack_lanes([frame_mix(v, seed + 50 + i) for i, v in enumerate(d)])
    return ctx, x, y


CONTEXTS = {
    "round-float": lambda: lane_context(S7, PAIRS, 1, 3),
    "round-lanes": lambda: lane_context(S7, PAIRS, 4, 3),
    "weighted-float": lambda: lane_context(
        WeightedSphereStructure(3, [1.0, 2.0, 3.0]), TorusAction.of([[1, 1, 0], [0, 0, 1]]), 1, 5),
    "weighted-lanes": lambda: lane_context(
        WeightedSphereStructure(3, [1.0, 2.0, 3.0]), TorusAction.of([[1, 1, 0], [0, 0, 1]]), 3, 5),
}


def bits(x):
    """The raw bytes of a scalar or a vector, floats or lanes."""
    return np.asarray(value(x), dtype=float).tobytes()


class TestPairLanes:
    """A and h pairs run as lanes of one pass hold the bits of the
    per-pair evaluation (``oracles.QuotientPerPair``)."""

    @pytest.mark.parametrize("name", list(CONTEXTS))
    def test_curvature_vector_matches_per_pair_bitwise(self, name):
        ctx, x, y = CONTEXTS[name]()
        ref = QuotientPerPair(ctx)
        zeta = value(ctx.structure.reeb(ctx.p))
        # (x, y, x): h(y, x) is requested before h(x, y), and A(x, x) is
        # stored as its own negation
        for args in [(x, zeta, y), (x, y, x), (y, x, zeta)]:
            got = ctx.quotient_curvature_vector(*args)
            assert bits(got) == bits(ref.quotient_curvature_vector(*args))
        if lane_width(ctx.p) is None:  # a pass over pairs splits into float vectors
            for vec in ctx.a_tensors([(x, y), (y, zeta)]) + ctx.second_fundamentals(
                    [(x, y), (y, zeta)]):
                assert vec.shape == np.shape(ctx.p)

    @pytest.mark.parametrize("name", list(CONTEXTS))
    def test_shared_caches_match_per_pair_bitwise(self, name):
        ctx, x, y = CONTEXTS[name]()
        ref = QuotientPerPair(ctx)
        z, v = ctx.horizontal_frame[0], ctx.horizontal_frame[-1]
        got_a, got_h, ref_a, ref_h = {}, {}, {}, {}
        # the second call asks for every pair of the first one reversed
        for args in [(x, y, z, v), (y, x, v, z), (v, y, x, v)]:
            got = ctx.quotient_curvature_4(*args, a_cache=got_a, h_cache=got_h)
            want = ref.quotient_curvature_4(*args, a_cache=ref_a, h_cache=ref_h)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert got_a.keys() == ref_a.keys() and got_h.keys() == ref_h.keys()
        for key in ref_a:
            assert bits(got_a[key]) == bits(ref_a[key])
        for key in ref_h:
            assert bits(got_h[key]) == bits(ref_h[key])

    @pytest.mark.parametrize("name", ["round-float", "round-lanes", "weighted-lanes"])
    @pytest.mark.parametrize("pairs_per_pass", [1, 2])
    def test_pass_cap_does_not_change_bits(self, monkeypatch, name, pairs_per_pass):
        ctx, x, y = CONTEXTS[name]()
        whole = bits(ctx.quotient_sasakian_residual(x, y))
        monkeypatch.setattr(vecops, "PASS_LANES", pairs_per_pass * (lane_width(ctx.p) or 1))
        ctx, x, y = CONTEXTS[name]()
        assert bits(ctx.quotient_sasakian_residual(x, y)) == whole

    def test_one_residual_opens_a_fixed_number_of_levels(self, monkeypatch):
        opened = []
        enter = jets.enter_level

        def counting():
            opened.append(1)
            return enter()

        monkeypatch.setattr(jets, "enter_level", counting)
        counts = []
        for samples in (2, 6):
            ctx, x, y = lane_context(S7, PAIRS, samples, 3)
            ctx._tangent_frames()
            opened.clear()
            ctx.quotient_sasakian_residual(x, y)
            counts.append(len(opened))
        # one along for the A pass and one for the h pass
        assert counts == [2, 2]

    @pytest.mark.parametrize("name", list(CONTEXTS))
    def test_later_directions_reuse_the_zeta_pairs(self, monkeypatch, name):
        # A(zeta, f) and h(zeta, f) of the frame vectors f carry over from
        # one direction to the next; the pairs with x or y do not
        ctx, x, y = CONTEXTS[name]()
        fresh, *_ = CONTEXTS[name]()
        seen = {"a": [], "h": []}
        for kind, name_ in (("a", "a_tensors"), ("h", "second_fundamentals")):
            run = getattr(ctx, name_)
            monkeypatch.setattr(ctx, name_, lambda todo, run=run, kind=kind:
                                seen[kind].append(len(todo)) or run(todo))
        first = ctx.quotient_sasakian_residual(x, y)
        second = ctx.quotient_sasakian_residual(y, x)
        frame = len(ctx.horizontal_frame)
        assert seen["a"][1] == seen["a"][0] - frame
        assert seen["h"][1] == seen["h"][0] - frame
        assert bits(first) == bits(fresh.quotient_sasakian_residual(x, y))
        fresh, *_ = CONTEXTS[name]()
        assert bits(second) == bits(fresh.quotient_sasakian_residual(y, x))
