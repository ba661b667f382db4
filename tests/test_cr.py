import numpy as np
import pytest

from oracles import submersion_context
from sasaklab.actions import TorusAction
from sasaklab.cr import (
    cr_decomposition,
    final_identity,
    oneill_plane_residual,
    relation_residuals,
)
from sasaklab.errors import AmbiguousSplit
from sasaklab.manifolds import EmbeddedManifold, LinearConstraint, SphereConstraint
from sasaklab.oneill import SubmersionContext
from sasaklab.reduction import ReductionSetup, build_frame
from sasaklab.structures import RoundSphereStructure

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
        crd = cr_decomposition(ctx)
        assert crd.residuals["phi_d_in_d"] < 1e-8
        assert crd.residuals["phi_dperp_normal"] < 1e-8
        assert crd.residuals["phi_nu_invariant"] < 1e-8

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
        crd = cr_decomposition(ctx)
        assert crd.dims["D_perp"] == 0
        assert crd.dims["nu"] == 2
        assert crd.residuals["phi_nu_invariant"] < 1e-8

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
        p = man.newton_refine(list(rng.standard_normal(8)))
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
