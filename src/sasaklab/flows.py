"""Reeb flow integration on constraint manifolds.

Classical RK4 in ambient coordinates with a Gauss-Newton reprojection
onto the constraint set after every step.  The Reeb field is tangent to
every momentum level set, so the projection only removes integrator
drift (one Newton step is usually exact to roundoff).
"""

import cmath
import math

import numpy as np

from .errors import NoConvergence
from .vecops import vvalue


def reeb_flow(structure, manifold, z0, t_max, steps):
    """Integrate the structure's Reeb field from z0 over [0, t_max].

    Returns (times, trajectory) with trajectory[k] the ambient point at
    times[k]; trajectory has steps+1 rows including the start.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    h = float(t_max) / steps
    field = lambda q: np.asarray(vvalue(structure.reeb_field(list(q))), dtype=float)
    x = np.asarray(z0, dtype=float).copy()
    times = np.linspace(0.0, float(t_max), steps + 1)
    out = np.empty((steps + 1, len(x)))
    out[0] = x
    for k in range(steps):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = np.asarray(manifold.newton_refine(list(x)), dtype=float)
        if manifold.residual(list(x)) > 1e-9:
            raise NoConvergence(f"reprojection failed at step {k}")
        out[k + 1] = x
    return times, out


def rotation_flow(z0, times, speeds):
    """Closed form of a diagonal Reeb flow: z_j(t) = e^{i speeds[j] t} z_j(0)."""
    z0 = np.asarray(z0, dtype=float)
    out = np.empty((len(times), len(z0)))
    for k, t in enumerate(times):
        for j, w in enumerate(speeds):
            c, s = math.cos(w * t), math.sin(w * t)
            x, y = z0[2 * j], z0[2 * j + 1]
            out[k, 2 * j] = c * x - s * y
            out[k, 2 * j + 1] = s * x + c * y
    return out


def _factor_coordinate(point, lam):
    """z_0^{lam_1} z_1^{lam_0} of the first two complex coordinates."""
    z0 = complex(point[0], point[1])
    z1 = complex(point[2], point[3])
    r = (abs(z0) ** lam[1]) * (abs(z1) ** lam[0])
    ang = lam[1] * cmath.phase(z0) + lam[0] * cmath.phase(z1)
    return r * cmath.exp(1j * ang)


def reduced_flow_comparison(times, trajectory, lam):
    """Compare an integrated trajectory on the two-weighted-circles level
    set against the closed-form reduced flow.

    In the invariant coordinate f(z) = z_0^{lam_1} z_1^{lam_0} the flow
    is A e^{i(a + b t)} with A, a frozen at t = 0 and b = lam_0 + lam_1;
    the remaining coordinates rotate as a block: (z_2, z_3)(t) =
    e^{it} (z_2, z_3)(0).
    """
    start = trajectory[0]
    f0 = _factor_coordinate(start, lam)
    A, a = abs(f0), cmath.phase(f0)
    b = lam[0] + lam[1]
    sup_factor = 0.0
    for t, point in zip(times, trajectory):
        expected = A * cmath.exp(1j * (a + b * t))
        got = _factor_coordinate(point, lam)
        sup_factor = max(sup_factor, abs(expected - got))

    rot = rotation_flow(list(start[4:]), times, [1.0] * (len(start[4:]) // 2))
    sup_rot = float(np.max(np.abs(rot - trajectory[:, 4:]))) if trajectory.shape[1] > 4 else 0.0
    return {
        "sup_factor_error": sup_factor,
        "sup_rotation_error": sup_rot,
        "sup_error": max(sup_factor, sup_rot),
        "amplitude": A,
        "angular_speed": b,
    }
