"""The sample streams: one counter-based SplitMix64 stream per (seed,
salt), each sample's block of uniforms at its own offset
(``vecops.uniforms``).

The stream matches a Python-integer reference bit for bit
(``oracles.splitmix_uniforms``), its finaliser the published SplitMix64
outputs, and no two streams in use share a key.  Sample i's draws must
equal a one-sample draw at start = i, whatever chunk it is drawn in; and
each marginal must follow the law it stands for, checked by a two-sample
Kolmogorov-Smirnov test against numpy's own generators (numpy only: no
scipy)."""

import math

import numpy as np
import pytest

from oracles import GAMMA, WORD, splitmix_finaliser, splitmix_uniforms
from sasaklab import cli, vecops
from sasaklab.actions import TorusAction
from sasaklab.config import build_config
from sasaklab.gallery import preset_config
from sasaklab.reduction import ReductionSetup, _draws
from sasaklab.structures import RoundSphereStructure, WeightedSphereStructure

S7 = RoundSphereStructure(4)
SETUPS = {
    "pairs": lambda: ReductionSetup(S7, TorusAction.of([[1, 1, 0, 0], [0, 0, 1, 1]]),
                                    mu=[1.0, 1.0]),
    "split": lambda: ReductionSetup(S7, TorusAction.of([[1, 0, 0, 0], [0, 1, 1, 1]]),
                                    mu=[0.0, 1.0]),
    "zero": lambda: ReductionSetup(S7, TorusAction.of([[-1, 1, 0, 0], [0, 0, 1, 1]]),
                                   zero_rows=[[1.0, 0.0]]),
}


def _config(command, preset="ex1", **extra):
    raw = preset_config(preset)
    raw.update(seed=5, **extra)
    return build_config(raw, command=command)


def _bits(arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


# every salt a stream is drawn with: the walk, verify-structure's points,
# the directions of reduce and curvature-scan, reeb-flow's start, the cone
# points, the pairing oracle and the weighted positivity probe
SALTS = [0, 101, 202, 303, 404, 505, 506, WeightedSphereStructure.PROBE_SALT]


class TestStream:
    @pytest.mark.parametrize("seed, salt, start, count, shape", [
        (0, 0, 0, 3, (4,)),
        (9, 7, 2, 5, (3, 2)),
        (5, 202, 4, 2, (4, 8)),
        (2 ** 64, 101, 0, 2, (6,)),
        (2 ** 64 + 5, 0, 3, 1, (164,)),
        (3 ** 90, 506, 1, 3, (10,)),
        (WORD, 505, 7, 0, (9,)),
    ])
    def test_matches_the_integer_reference(self, seed, salt, start, count, shape):
        got = vecops.uniforms(seed, salt, start, count, *shape)
        want = splitmix_uniforms(seed, salt, start, count, *shape)
        assert got.shape == want.shape == (count, *shape)
        assert got.tobytes() == want.tobytes()

    def test_hash_blocks_do_not_show(self, monkeypatch):
        whole = vecops.uniforms(11, 0, 2, 9, 5)
        monkeypatch.setattr(vecops, "_HASH_BLOCK", 7)
        assert vecops.uniforms(11, 0, 2, 9, 5).tobytes() == whole.tobytes()
        assert whole.tobytes() == splitmix_uniforms(11, 0, 2, 9, 5).tobytes()

    def test_finaliser_gives_the_splitmix64_reference_outputs(self):
        # SplitMix64 from state 1234567: state += gamma, output the finaliser's
        want = [6457827717110365317, 3203168211198807973, 9817491932198370423]
        states = [(1234567 + k * GAMMA) & WORD for k in (1, 2, 3)]
        assert [splitmix_finaliser(z) for z in states] == want
        z = np.array(states, dtype=np.uint64)
        assert vecops.mix64(z, np.empty_like(z)).tolist() == want

    def test_keys_are_distinct(self):
        keys = {vecops.stream_key(seed, salt) for seed in range(1000) for salt in SALTS}
        assert len(keys) == 1000 * len(SALTS)


class TestOffsets:
    def test_uniform_rows_are_slices_of_one_long_draw(self):
        long = vecops.uniforms(9, 7, 0, 6, 5).ravel()
        for start in range(6):
            rows = vecops.uniforms(9, 7, start, 6 - start, 5)
            assert rows.tobytes() == long[5 * start:].tobytes()

    @pytest.mark.parametrize("name", SETUPS)
    def test_walk_draws(self, name):
        poly = SETUPS[name]().polytope
        whole = _draws(poly, 11, 0, 6)
        for i in range(6):
            assert _bits(d[i] for d in whole) == _bits(d[0] for d in _draws(poly, 11, i, 1))

    @pytest.mark.parametrize("name", SETUPS)
    def test_level_set_samples(self, name, monkeypatch):
        setup = SETUPS[name]()
        coords, s = setup.samples(7, seed=11)
        monkeypatch.setattr(vecops, "LANE_BATCH_WIDTH", 2)
        for i in range(7):
            one = setup.samples(1, seed=11, start=i)
            assert _bits(one) == _bits((coords[i:i + 1], s[i:i + 1]))
        assert _bits(setup.samples(4, seed=11, start=3)) == _bits((coords[3:], s[3:]))

    @pytest.mark.parametrize("salt", [202, 303])
    def test_direction_normals(self, salt):
        cfg = _config("reduce", directions=3)
        whole = cli._direction_normals(cfg, salt, 0, 6)
        assert whole.shape == (6, 6, 8)
        for i in range(6):
            assert whole[i].tobytes() == cli._direction_normals(cfg, salt, i, 1)[0].tobytes()

    def test_direction_lanes_equal_each_sample_on_floats(self):
        cfg = _config("reduce", directions=2)
        z = cli._direction_normals(cfg, 202, 0, 3)
        frame = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 5)))[0].T
        frames = np.stack([frame, frame[::-1], -frame], axis=-1)  # (k, m, 3 lanes)
        lanes = cli._direction_lanes(z, frames)
        assert len(lanes) == 2
        for i in range(3):
            alone = cli._direction_lanes(z[i:i + 1], frames[..., i])
            for (x, y), (x1, y1) in zip(lanes, alone):
                assert x[:, i].tobytes() == x1.tobytes() and y[:, i].tobytes() == y1.tobytes()
                assert abs(x1 @ x1 - 1.0) < 1e-14
        # a smaller frame reads the first entries of the same rows
        small = cli._direction_lanes(z[:1], frame[:2])
        c = z[0, 0, :2] / math.sqrt(z[0, 0, :2] @ z[0, 0, :2])
        assert np.allclose(small[0][0], c[0] * frame[0] + c[1] * frame[1], atol=1e-15)

    @pytest.mark.parametrize("preset", ["ex1", "weighted"])
    def test_verify_structure_points_and_tangents(self, preset):
        cfg = _config("verify-structure", preset)
        whole = cli._structure_points(cfg, 0, 6)
        p, x, y = whole
        assert np.allclose(np.sum(p * p, axis=1), 1.0) and np.allclose(np.sum(x * p, axis=1), 0.0)
        for i in range(6):
            assert _bits(a[i] for a in whole) == _bits(a[0] for a in cli._structure_points(cfg, i, 1))

    def test_cone_points(self):
        cfg = _config("cone-check", "ex2")
        whole = cli._cone_points(cfg, 0, 6)
        assert np.all((whole.r >= 0.5) & (whole.r < 2.0))
        for i in range(6):
            one = cli._cone_points(cfg, i, 1)
            assert _bits((whole.base[i], whole.r[i])) == _bits((one.base[0], one.r[0]))


def ks_statistic(a, b):
    """The two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, x, side="right") / len(a)
                               - np.searchsorted(b, x, side="right") / len(b))))


def ks_critical(n, m, alpha=1e-3):
    """The asymptotic two-sample critical value at level alpha."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) * math.sqrt((n + m) / (n * m))


N = 10_000


def _unit_coordinate(normals):
    """Coordinate 0 of each row of normals, normalised: a coordinate of a
    uniform point of the sphere."""
    return normals[:, 0] / np.sqrt(np.sum(normals * normals, axis=1))


class TestDistributions:
    """Each marginal against numpy's own generator at a fixed seed."""

    @pytest.fixture(scope="class")
    def walk(self):
        poly = SETUPS["pairs"]().polytope
        assert poly.null_basis.shape[0] >= 1
        return _draws(poly, 21, 0, N)

    def test_step_fraction_is_beta_2_2(self, walk):
        ref = np.random.default_rng(31).beta(2.0, 2.0, N)
        assert ks_statistic(walk[1][:, 0], ref) < ks_critical(N, N)

    def test_phase_is_uniform(self, walk):
        ref = np.random.default_rng(32).uniform(0.0, 2.0 * math.pi, N)
        assert ks_statistic(walk[2][:, 0], ref) < ks_critical(N, N)

    def test_walk_normal_is_standard(self, walk):
        ref = np.random.default_rng(33).standard_normal(N)
        assert ks_statistic(walk[0][:, 0, 0], ref) < ks_critical(N, N)

    def test_direction_coordinate(self):
        cfg = _config("reduce", directions=1)
        z = cli._direction_normals(cfg, 202, 0, N)
        frame = np.eye(8)[:5]  # k = 5: coordinate 0 of x is the first coefficient
        x, _ = cli._direction_lanes(z, np.repeat(frame[..., None], N, axis=-1))[0]
        ref = _unit_coordinate(np.random.default_rng(34).standard_normal((N, 5)))
        assert ks_statistic(x[0], ref) < ks_critical(N, N)

    def test_verify_structure_coordinate(self):
        p, _, _ = cli._structure_points(_config("verify-structure"), 0, N)
        ref = _unit_coordinate(np.random.default_rng(35).standard_normal((N, 8)))
        assert ks_statistic(p[:, 0], ref) < ks_critical(N, N)

    def test_ks_rejects_a_uniform_for_the_beta(self):
        # the statistic separates the laws it is asked to tell apart
        rng = np.random.default_rng(36)
        assert ks_statistic(rng.uniform(size=N), rng.beta(2.0, 2.0, N)) > ks_critical(N, N)
