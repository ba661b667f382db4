import math

import numpy as np
import pytest

from sasaklab.actions import TorusAction
from sasaklab.cone import (
    ConePoint,
    cone_metric,
    iota_transpose_residual,
    kernel_momentum,
    sample_phi_zero,
    stratify,
    symplectic_momentum,
    symplectic_pairing_residual,
    zero_stratum_degeneracy,
)
from sasaklab.errors import StratificationLeak
from sasaklab.structures import RoundSphereStructure

PAIRS = TorusAction.of([[1, 1, 0, 0], [0, 0, 1, 1]])
FLIPPED = TorusAction.of([[-1, 1, 0, 0], [0, 0, 1, 1]])
S7 = RoundSphereStructure(4)

rng = np.random.default_rng(12)


def rand_point(m=8):
    p = rng.standard_normal(m)
    return list(p / np.linalg.norm(p))


def rand_tangent(p):
    v = rng.standard_normal(len(p))
    v -= (v @ np.asarray(p)) * np.asarray(p)
    return list(v)


class TestConeMetric:
    def test_restriction_at_unit_radius(self):
        p = rand_point()
        x, y = rand_tangent(p), rand_tangent(p)
        cp = ConePoint.of(p, 1.0)
        assert cone_metric(cp, (x, 0.0), (y, 0.0)) == pytest.approx(np.dot(x, y))

    def test_pure_radial(self):
        cp = ConePoint.of(rand_point(), 1.7)
        z = [0.0] * 8
        assert cone_metric(cp, (z, 2.0), (z, 3.0)) == pytest.approx(6.0)

    def test_radial_scaling(self):
        p = rand_point()
        x, y = rand_tangent(p), rand_tangent(p)
        g1 = cone_metric(ConePoint.of(p, 1.0), (x, 0.0), (y, 0.0))
        g2 = cone_metric(ConePoint.of(p, 2.0), (x, 0.0), (y, 0.0))
        assert g2 == pytest.approx(4.0 * g1)

    def test_apex_excluded(self):
        with pytest.raises(ValueError):
            ConePoint.of(rand_point(), 0.0)


class TestSymplecticMomentum:
    def test_restriction_is_contact_momentum(self):
        p = rand_point()
        assert symplectic_momentum(PAIRS, ConePoint.of(p, 1.0)) == PAIRS.momentum(p)

    def test_homogeneity(self):
        p = rand_point()
        j1 = np.asarray(symplectic_momentum(PAIRS, ConePoint.of(p, 1.0)))
        j2 = np.asarray(symplectic_momentum(PAIRS, ConePoint.of(p, 2.0)))
        assert np.allclose(j2, 4.0 * j1)

    def test_pole_value(self):
        cp = ConePoint.of([1, 0, 0, 0, 0, 0, 0, 0], 2.0)
        assert symplectic_momentum(PAIRS, cp) == [4.0, 0.0]

    def test_pairing_oracle(self):
        worst = 0.0
        for k in range(10):
            cp = ConePoint.of(rand_point(), float(rng.uniform(0.5, 2.0)))
            worst = max(worst, symplectic_pairing_residual(
                PAIRS, cp, tuple(rng.standard_normal(2)), seed=k))
        assert worst < 1e-10

    def test_invariance_along_fields(self):
        # <J_s, e_k> is constant along every fundamental field
        from sasaklab.jets import along, value

        p = rand_point()
        xm = [float(v) for v in PAIRS.fundamental_field((0.7, -0.4), p)]
        for d in along(PAIRS.momentum, p, xm):
            assert abs(value(d)) < 1e-10


class TestIotaTranspose:
    def test_two_paths_agree(self):
        for k in range(20):
            cp = ConePoint.of(rand_point(), float(rng.uniform(0.5, 2.0)))
            assert iota_transpose_residual(FLIPPED, [1.0, 0.0], cp) < 1e-12

    def test_pole_value(self):
        # J = (1, 0) paired with the kernel direction (-1, 1)/sqrt(2)
        cp = ConePoint.of([1, 0, 0, 0, 0, 0, 0, 0], 1.0)
        phi = kernel_momentum(PAIRS, [1.0, 1.0], cp.base.as_list())
        assert abs(abs(phi[0]) - 1.0 / math.sqrt(2.0)) < 1e-14

    def test_level_set_samples_have_zero_phi(self):
        from sasaklab.reduction import sample_level_set

        for samp in sample_level_set(PAIRS, [1.0, 1.0], 10, seed=6):
            phi = kernel_momentum(PAIRS, [1.0, 1.0], samp.coords())
            assert max(abs(x) for x in phi) < 1e-12


class TestStratification:
    def test_explicit_points(self):
        pts = [
            [0, 0, 1, 0, 0, 0, 0, 0],                      # |z_1| = 1: J_1 > 0
            [1, 0, 0, 0, 0, 0, 0, 0],                      # J_1 < 0
            [1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0, 0, 0, 0, 0],
        ]
        census = stratify(FLIPPED, [1.0, 0.0], pts)
        labels = [row[1] for row in census.samples]
        assert labels == ["positive_stratum", "negative_stratum", "zero_stratum"]

    def test_random_census_is_exhaustive(self):
        pts = sample_phi_zero(FLIPPED, [1.0, 0.0], 200, seed=3)
        census = stratify(FLIPPED, [1.0, 0.0], pts)
        assert sum(census.counts.values()) == 200

    def test_leak_raises(self):
        # a point with nonzero kernel momentum cannot be classified
        bad = [0, 0, 0, 0, 1, 0, 0, 0]
        with pytest.raises(StratificationLeak):
            stratify(FLIPPED, [1.0, 0.0], [bad])


class TestZeroStratum:
    def test_flipped_action_zero_stratum_is_degenerate(self):
        p = [1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0, 0, 0, 0, 0]
        out = zero_stratum_degeneracy(S7, FLIPPED, [1.0, 0.0], p)
        assert out["kernel_dim"] >= 1
        assert out["antisymmetry"] < 1e-10

    def test_contact_quotient_control_has_no_kernel(self):
        # the same rank rule applied to the reduced d(eta) of a genuine
        # contact quotient reports a trivial kernel
        from sasaklab.reduction import ReductionSetup, build_frame, reduced_tensors

        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        samp = setup.samples(1, seed=11)[0]
        red = reduced_tensors(setup, build_frame(setup, samp))
        sv = np.linalg.svd(red.d_eta_matrix, compute_uv=False)
        rank = int(np.sum(sv > 1e-8 * sv[0]))
        assert red.d_eta_matrix.shape[0] - rank == 0

    def test_cone_of_zero_set_matches_base(self):
        # a cone sample has zero kernel momentum iff its base does
        pts = sample_phi_zero(FLIPPED, [1.0, 0.0], 20, seed=9)
        for pt, r in zip(pts, np.linspace(0.5, 2.0, 20)):
            base_phi = kernel_momentum(FLIPPED, [1.0, 0.0], pt.as_list())
            cone_phi = [r * r * x for x in base_phi]
            assert max(abs(x) for x in cone_phi) < 1e-12
