import math

import numpy as np
import pytest

from oracles import cone_point_loop, kernel_momentum, stratify_per_point
from sasaklab import cli, tolerances, vecops
from sasaklab.actions import MomentumCovector, TorusAction
from sasaklab.config import build_config
from sasaklab.cone import (
    ConePoint,
    iota_transpose_residual,
    momentum_identities,
    sample_phi_zero,
    stratify,
    symplectic_momentum,
    symplectic_pairing_residual,
    zero_stratum_degeneracy,
)
from sasaklab.errors import StratificationLeak
from sasaklab.gallery import preset_config
from sasaklab.reduction import sample_level_set
from sasaklab.structures import RoundSphereStructure

PAIRS = TorusAction.of([[1, 1, 0, 0], [0, 0, 1, 1]])
FLIPPED = TorusAction.of([[-1, 1, 0, 0], [0, 0, 1, 1]])
S7 = RoundSphereStructure(4)

rng = np.random.default_rng(12)


def rand_point(m=8):
    p = rng.standard_normal(m)
    return list(p / np.linalg.norm(p))


class TestConeMetric:
    def test_apex_excluded(self):
        with pytest.raises(ValueError):
            ConePoint.of(rand_point(), 0.0)


class TestSymplecticMomentum:
    def test_restriction_is_contact_momentum(self):
        p = rand_point()
        assert (symplectic_momentum(PAIRS, ConePoint.of(p, 1.0)).tolist()
                == PAIRS.momentum(p).tolist())

    def test_homogeneity(self):
        p = rand_point()
        j1 = np.asarray(symplectic_momentum(PAIRS, ConePoint.of(p, 1.0)))
        j2 = np.asarray(symplectic_momentum(PAIRS, ConePoint.of(p, 2.0)))
        assert np.allclose(j2, 4.0 * j1)

    def test_pole_value(self):
        cp = ConePoint.of([1, 0, 0, 0, 0, 0, 0, 0], 2.0)
        assert symplectic_momentum(PAIRS, cp).tolist() == [4.0, 0.0]

    def test_pairing_oracle(self):
        worst = 0.0
        for _ in range(10):
            cp = ConePoint.of(rand_point(), float(rng.uniform(0.5, 2.0)))
            worst = max(worst, symplectic_pairing_residual(
                PAIRS, cp, tuple(rng.standard_normal(2)), tangent=rng.standard_normal(9)))
        assert worst < 1e-10

    def test_pairing_oracle_without_a_tangent_draws_from_its_stream(self):
        cp = ConePoint.of(rand_point(), 1.5)
        drawn = vecops.normals(vecops.uniforms(5, 506, 0, 1, 10))[0, :9]
        assert (symplectic_pairing_residual(PAIRS, cp, (0.3, -0.8), seed=5)
                == symplectic_pairing_residual(PAIRS, cp, (0.3, -0.8), tangent=drawn))

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
        phi = kernel_momentum(PAIRS, [1.0, 1.0], cp.base)
        assert abs(abs(phi[0]) - 1.0 / math.sqrt(2.0)) < 1e-14

    def test_level_set_samples_have_zero_phi(self):
        from sasaklab.reduction import sample_level_set

        for p in sample_level_set(PAIRS, [1.0, 1.0], 10, seed=6)[0]:
            phi = kernel_momentum(PAIRS, [1.0, 1.0], p)
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
            base_phi = kernel_momentum(FLIPPED, [1.0, 0.0], pt)
            cone_phi = [r * r * x for x in base_phi]
            assert max(abs(x) for x in cone_phi) < 1e-12


ONE_ROW = {"n": 3, "action_weights": [[1, 0, 1]], "mu": [2]}  # k = 0: no kernel group


def _cone_config(name, samples):
    raw = dict(ONE_ROW) if name == "one-row" else preset_config(name)
    raw.update(samples=samples, seed=3)
    return build_config(raw, command="cone-check")


def _drawn_cone_points(cfg):
    """cone-check's cone points, each drawn on its own at its offset."""
    ones = [cli._cone_points(cfg, i, 1) for i in range(cfg.samples)]
    return [ConePoint(cp.base[0], float(cp.r[0])) for cp in ones]


def _batch(cps):
    """The cone points cps as one batch."""
    return ConePoint.of([cp.base for cp in cps], [cp.r for cp in cps])


class _Rows(list):
    """A csv writer's two calls, keeping the rows."""

    writerow = list.append

    def writerows(self, rows):
        self.extend(list(row) for row in rows)


class TestConeCheckLanes:
    @pytest.mark.parametrize("name", ["ex2", "ex1", "one-row"])
    def test_run_matches_the_per_point_loop(self, name, monkeypatch):
        # batches of 7, 7 and 1 points: lanes, and a batch of one on floats
        monkeypatch.setattr(vecops, "LANE_BATCH_WIDTH", 7)
        cfg = _cone_config(name, 15)
        rows = _Rows()
        report, _ = cli.run_cone_check(cfg, rows)
        rows = rows[1:]  # the header
        A, mu = TorusAction.of(cfg.action_weights), MomentumCovector.of(cfg.mu)
        want = cone_point_loop(A, mu, _drawn_cone_points(cfg))
        got = {e["name"]: e for e in report["residuals"]}
        for key, values in want.items():
            assert got[key]["max"] == max(values)
            assert got[key]["mean"] == sum(values) / len(values)
        assert rows and [tuple(row[-3:]) for row in rows] == [
            (s, label, resid) for _, label, s, resid in
            stratify_per_point(A, mu, [row[1:1 + 2 * cfg.n] for row in rows],
                               cfg.tol["stratification"])]

    def test_identities_of_a_list_equal_one_point_calls(self):
        cps = _drawn_cone_points(_cone_config("ex2", 40))
        # each identity as one value per point, read off the arrays
        lanes = tuple(v.tolist() for v in momentum_identities(FLIPPED, [1.0, 0.0], _batch(cps)))
        alone = [momentum_identities(FLIPPED, [1.0, 0.0], _batch([cp])) for cp in cps]
        assert lanes == tuple([a[k][0] for a in alone] for k in range(3))
        assert any(lanes[0])
        assert lanes[0] == [iota_transpose_residual(FLIPPED, [1.0, 0.0], cp) for cp in cps]
        assert lanes[0] == cone_point_loop(FLIPPED, MomentumCovector.of([1.0, 0.0]), cps)[
            "iota_transpose"]
        assert (symplectic_momentum(FLIPPED, _batch(cps[:1])).tobytes()
                == symplectic_momentum(FLIPPED, cps[0]).tobytes())

    def test_stratify_labels_a_mixed_list_as_one_point_calls_do(self):
        mu = [1.0, 0.0]
        pts = [
            [0, 0, 1, 0, 0, 0, 0, 0],
            *sample_level_set(FLIPPED, mu, 3, seed=2)[0],
            np.asarray([1.0, 0, 0, 0, 0, 0, 0, 0]),
            *sample_phi_zero(FLIPPED, mu, 4, seed=3),
            [1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0, 0, 0, 0, 0],
        ]
        census = stratify(FLIPPED, mu, pts)
        one_by_one = [stratify(FLIPPED, mu, [pt]).samples[0] for pt in pts]
        assert census.samples == one_by_one
        assert census.samples == stratify_per_point(
            FLIPPED, mu, pts, tolerances.DEFAULTS["stratification"])
        assert set(row[1] for row in one_by_one) == {
            "positive_stratum", "negative_stratum", "zero_stratum"}

    def test_stratify_leak_in_a_list_raises_as_its_one_point_call(self):
        bad = [0, 0, 0, 0, 0.6, 0.8, 0, 0]
        with pytest.raises(StratificationLeak) as alone:
            stratify(FLIPPED, [1.0, 0.0], [bad])
        with pytest.raises(StratificationLeak) as listed:
            stratify(FLIPPED, [1.0, 0.0], [[0, 0, 1, 0, 0, 0, 0, 0], bad, [1, 0, 0, 0, 0, 0, 0, 0]])
        assert str(listed.value) == str(alone.value)
