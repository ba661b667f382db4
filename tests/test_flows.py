"""The Reeb flow on a float state against the ndarray loop it replaced,
bit for bit, and the reprojection gate that stops a flow leaving its
manifold."""

import math

import numpy as np
import pytest

from oracles import (
    factor_coordinate,
    newton_refine_ndarray,
    reduced_flow_comparison_complex,
    reeb_flow_ndarray,
    rotation_flow_per_element,
)
from sasaklab import cli, tolerances
from sasaklab.config import build_config
from sasaklab.errors import NoConvergence
from sasaklab.flows import _factor_coordinates, reduced_flow_comparison, reeb_flow, rotation_flow
from sasaklab.gallery import preset_config
from sasaklab.manifolds import EmbeddedManifold, LinearConstraint, SphereConstraint
from sasaklab.reports import EXIT_NUMERICAL
from sasaklab.structures import RoundSphereStructure

T_MAX = 2.0 * math.pi


def _level_set_start(preset, lam=None, seed=3):
    """(structure, manifold, z0) of reeb-flow's start on the level set of
    a preset's mu, as ``cli.run_reeb_flow`` draws it."""
    setup = cli._setup(build_config(preset_config(preset, lam=lam), command="reeb-flow"))
    return setup.structure, setup.manifold, setup.samples(1, seed)[0][0]


@pytest.mark.parametrize("preset, lam", [
    ("ex4", (1.0, 1.0)), ("ex4", (2.0, 3.0)), ("weighted", None), ("ex2", None)])
def test_flow_matches_the_ndarray_loop_bitwise(preset, lam):
    S, manifold, z0 = _level_set_start(preset, lam)
    times, traj = reeb_flow(S, manifold, np.asarray(z0), T_MAX, 256)
    times_o, traj_o = reeb_flow_ndarray(S, manifold, np.asarray(z0), T_MAX, 256)
    assert np.array_equal(times, times_o)
    assert np.array_equal(traj, traj_o)
    if preset == "ex4":
        assert reduced_flow_comparison(times, traj, lam) == \
            reduced_flow_comparison_complex(times, traj, lam)


def test_flow_on_the_sphere_matches_the_ndarray_loop_bitwise():
    S, _, _ = _level_set_start("weighted")
    rng = np.random.default_rng(404)
    z0 = rng.standard_normal(6)
    z0 /= np.linalg.norm(z0)
    times, traj = reeb_flow(S, S.sphere, z0, T_MAX, 128)
    assert np.array_equal(traj, reeb_flow_ndarray(S, S.sphere, z0, T_MAX, 128)[1])


@pytest.mark.parametrize("lam", [(1.0, 1.0), (2.0, 3.0), (0.5, 3.0)])
def test_reduced_comparison_matches_complex_arithmetic_bitwise(lam):
    # a perturbed trajectory, so the factor errors are far from rounding
    S, manifold, z0 = _level_set_start("ex4", lam)
    times, traj = reeb_flow(S, manifold, z0, T_MAX, 64)
    traj = traj + 1e-3 * np.random.default_rng(7).standard_normal(traj.shape)
    got = reduced_flow_comparison(times, traj, lam)
    assert got == reduced_flow_comparison_complex(times, traj, lam)
    assert all(type(v) is float for v in got.values())
    # every row's factor coordinate, not only the sup over the rows
    rows = np.random.default_rng(8).standard_normal((2000, 8))
    re, im = _factor_coordinates(rows, lam)
    assert [complex(a, b) for a, b in zip(re, im)] == [factor_coordinate(r, lam) for r in rows]


@pytest.mark.parametrize("speed", [1.0, 1.5, 2.0, 3.0, 7.0])
def test_rotation_flow_matches_per_element_bitwise(speed):
    times = np.linspace(0.0, T_MAX, 2049)
    z0 = np.random.default_rng(11).standard_normal(10)
    speeds = [1.0, speed, 2.0, 3.0, 7.0]
    assert np.array_equal(rotation_flow(z0, times, speeds),
                          rotation_flow_per_element(z0, times, speeds))


def test_newton_refine_off_the_set_takes_lstsq_and_matches(monkeypatch):
    _, manifold, z0 = _level_set_start("ex4", (2.0, 3.0))
    start = [1.01 * a + 1e-3 * k for k, a in enumerate(z0)]
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    x, residual = manifold.newton_refine(start)
    assert calls
    assert x.tolist() == newton_refine_ndarray(manifold, start)
    assert x.dtype == float and x.shape == (len(start),)
    assert residual == manifold.residual(x) < tolerances.REFINE_TOL


def test_newton_refine_hands_back_the_residual_it_stopped_on():
    _, manifold, z0 = _level_set_start("ex4")
    x, residual = manifold.newton_refine(z0)
    assert x.tolist() == newton_refine_ndarray(manifold, z0)
    assert residual == manifold.residual(x)


def test_reprojection_gate_fires_off_the_manifold(monkeypatch):
    # x_0 = 0 on S^7: the Reeb field i p moves x_0 at rate -y_0 = -1
    S7 = RoundSphereStructure(4)
    manifold = EmbeddedManifold(8, [SphereConstraint(), LinearConstraint([1.0] + [0.0] * 7)])
    z0 = [0.0, 1.0] + [0.0] * 6
    monkeypatch.setattr(tolerances, "REFINE_MAX_ITER", 0)
    with pytest.raises(NoConvergence, match="step 0"):
        reeb_flow(S7, manifold, z0, T_MAX, 64)
    with pytest.raises(NoConvergence, match="step 0"):
        reeb_flow_ndarray(S7, manifold, z0, T_MAX, 64)


def test_reprojection_failure_ends_in_its_exit_code(monkeypatch, capsys, tmp_path):
    # without Newton steps, the RK4 drift off S^7 (about h^6/72 a step)
    # crosses the 1e-9 gate on the first step of a 64-step flow
    monkeypatch.setattr(tolerances, "REFINE_MAX_ITER", 0)
    status = cli.main(["reeb-flow", "--preset", "ex4", "--flow-steps", "64",
                       "--seed", "3", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert status == EXIT_NUMERICAL
    assert "NoConvergence: reprojection failed at step 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
