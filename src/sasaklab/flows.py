"""Reeb flow integration on constraint manifolds.

Classical RK4 in ambient coordinates with a Gauss-Newton reprojection
onto the constraint set after every step.  The Reeb field is tangent to
every momentum level set, so the projection only removes integrator
drift (one Newton step is usually exact to roundoff).

The state is one float vector: the jet-generic Reeb field takes it as
it is, each RK4 stage is one elementwise pass, and the reprojection
hands back the constraint residual it has already evaluated, so a step
evaluates the constraints once.  The closed-form
oracles are built as whole arrays over the times.
"""

import math

import numpy as np

from . import tolerances
from .errors import NoConvergence


def reeb_flow(structure, manifold, z0, t_max, steps):
    """Integrate the structure's Reeb field from z0 over [0, t_max].

    Returns (times, trajectory) with trajectory[k] the ambient point at
    times[k]; trajectory has steps+1 rows including the start.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    h = float(t_max) / steps
    half, sixth = 0.5 * h, h / 6.0
    field = structure.reeb_field
    x = np.array(z0, dtype=float)
    times = np.linspace(0.0, float(t_max), steps + 1)
    out = np.empty((steps + 1, len(x)))
    out[0] = x
    for k in range(steps):
        k1 = field(x)
        k2 = field(x + half * k1)
        k3 = field(x + half * k2)
        k4 = field(x + h * k3)
        x = x + sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
        x, residual = manifold.newton_refine(x)
        if residual > tolerances.REPROJECTION:
            raise NoConvergence(f"reprojection failed at step {k}")
        out[k + 1] = x
    return times, out


def rotation_flow(z0, times, speeds):
    """Closed form of a diagonal Reeb flow: z_j(t) = e^{i speeds[j] t} z_j(0)."""
    z0 = np.asarray(z0, dtype=float)
    times = np.asarray(times, dtype=float)
    out = np.empty((len(times), len(z0)))
    for j, w in enumerate(speeds):
        angle = w * times
        c, s = np.cos(angle), np.sin(angle)
        x, y = z0[2 * j], z0[2 * j + 1]
        out[:, 2 * j] = c * x - s * y
        out[:, 2 * j + 1] = s * x + c * y
    return out


def _polar(r, ang):
    """r e^{i ang} as (real, imaginary) arrays, rounded as Python rounds
    ``r * cmath.exp(1j * ang)`` on floats: (r cos - 0 sin, r sin + 0 cos)."""
    c, s = np.cos(ang), np.sin(ang)
    return r * c - 0.0 * s, r * s + 0.0 * c


def _factor_coordinates(points, lam):
    """z_0^{lam_1} z_1^{lam_0} of the first two complex coordinates of
    each row of points, as (real, imaginary) arrays.  numpy's power and
    arctan2 may round differently from libm's (they have SIMD kernels on
    some CPUs), so those run row by row on Python floats."""
    x0, y0, x1, y1 = (points[:, k] for k in range(4))
    l0, l1 = lam
    r = np.fromiter((float(a) ** l1 * float(b) ** l0
                     for a, b in zip(np.hypot(x0, y0), np.hypot(x1, y1))), float, len(points))
    ang = np.fromiter((l1 * math.atan2(b, a) + l0 * math.atan2(d, c)
                       for a, b, c, d in zip(x0, y0, x1, y1)), float, len(points))
    return _polar(r, ang)


def reduced_flow_comparison(times, trajectory, lam):
    """Compare an integrated trajectory on the two-weighted-circles level
    set against the closed-form reduced flow.

    In the invariant coordinate f(z) = z_0^{lam_1} z_1^{lam_0} the flow
    is A e^{i(a + b t)} with A, a frozen at t = 0 and b = lam_0 + lam_1;
    the remaining coordinates rotate as a block: (z_2, z_3)(t) =
    e^{it} (z_2, z_3)(0).
    """
    trajectory = np.asarray(trajectory, dtype=float)
    got_re, got_im = _factor_coordinates(trajectory, lam)
    A = float(np.hypot(got_re[0], got_im[0]))
    a = math.atan2(got_im[0], got_re[0])
    b = lam[0] + lam[1]
    want_re, want_im = _polar(A, a + b * np.asarray(times, dtype=float))
    # Python's max in time order, as a loop over the times takes it
    sup_factor = max([0.0, *np.hypot(want_re - got_re, want_im - got_im).tolist()])

    start = trajectory[0]
    rot = rotation_flow(list(start[4:]), times, [1.0] * (len(start[4:]) // 2))
    sup_rot = float(np.max(np.abs(rot - trajectory[:, 4:]))) if trajectory.shape[1] > 4 else 0.0
    return {
        "sup_factor_error": sup_factor,
        "sup_rotation_error": sup_rot,
        "sup_error": max(sup_factor, sup_rot),
        "amplitude": A,
        "angular_speed": b,
    }
