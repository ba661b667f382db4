"""Sasakian structures on odd spheres.

Two families live here: the round structure induced by flat ambient
space, and its weighted deformations driven by a positive weight vector
a = (a_1, ..., a_n).  The contact form of the weighted family is the
round one rescaled by 1/(sum a_j |z_j|^2); its metric is assembled from
the rescaled form's exterior derivative on the contact distribution,
with the weighted Reeb field unit and normal to it.

The tensor phi is always computed as nabla(xi) through the connection
engine rather than hard-coded, so the defining identities stay testable
on every structure.
"""

import math

import numpy as np

from . import tolerances
from .errors import DegenerateContact
from .geometry import Geometry, InducedMetric
from .jets import along, value
from .manifolds import Sphere
from .vecops import as_list, cmult, vdot, vscale, vsub, vvalue


def _eta0(q, v):
    """Round contact form sum(x_j dy_j - y_j dx_j) = <i q, v>."""
    return vdot(cmult(q), v)


class WeightedContactMetric:
    """Metric of the weighted structure, defined on tangent vectors.

    g_A(X, Y) = eta_A(X) eta_A(Y) + (1/2) d(eta_A)(X_c, I Y_c)
    with X_c the component of X in the kernel of eta_A.  The complex
    structure sits in the second slot because this package orients the
    Reeb field as +i p; with the opposite orientation the slots swap.
    Under either choice a = (1,...,1) reproduces the round metric
    exactly, which is the anchoring test.  The exterior derivative is
    the closed-form expansion of d(eta_A); the jet evaluation
    ``SphereStructure.d_eta`` is kept as its oracle.
    """

    euclidean = False

    def __init__(self, a, sphere):
        self.a = [float(x) for x in a]
        self.sphere = sphere

    # -- weighted contact data, all jet-generic -------------------------

    def conformal_factor(self, q):
        acc = 0.0
        for j, aj in enumerate(self.a):
            x, y = q[2 * j], q[2 * j + 1]
            acc = acc + aj * (x * x + y * y)
        return acc

    def eta(self, q, v):
        return _eta0(q, v) / self.conformal_factor(q)

    def reeb(self, q):
        out = []
        for j, aj in enumerate(self.a):
            out.append(-aj * q[2 * j + 1])
            out.append(aj * q[2 * j])
        return out

    def d_eta(self, q, u, v):
        """d(eta_A) = (1/f) d(eta_0) - (1/f^2) df ^ eta_0, expanded."""
        f = self.conformal_factor(q)
        iu = cmult(u)
        t_round = 2.0 * vdot(iu, v)
        aw_q = []
        for j, aj in enumerate(self.a):
            aw_q.append(aj * q[2 * j])
            aw_q.append(aj * q[2 * j + 1])
        df_u = 2.0 * vdot(aw_q, u)
        df_v = 2.0 * vdot(aw_q, v)
        wedge = df_u * _eta0(q, v) - df_v * _eta0(q, u)
        return t_round / f - wedge / (f * f)

    def g(self, q, u, v):
        eu = self.eta(q, u)
        ev = self.eta(q, v)
        xi = self.reeb(q)
        uc = vsub(u, vscale(xi, eu))
        vc = vsub(v, vscale(xi, ev))
        return eu * ev + 0.5 * self.d_eta(q, uc, cmult(vc))


class SphereStructure:
    """Common machinery: geometry context, phi = nabla(xi), residuals."""

    def __init__(self, n, metric):
        self.n = n
        self.ambient_dim = 2 * n
        self.sphere = Sphere(self.ambient_dim)
        self.geometry = Geometry(self.sphere, metric)
        self.metric = self.geometry.metric

    # subclasses supply eta / reeb evaluators (jet-generic)

    def reeb_field(self, q):
        raise NotImplementedError

    def eta(self, p, v):
        raise NotImplementedError

    def reeb(self, p):
        return self.reeb_field(as_list(p))

    def d_eta(self, p, u, v):
        """d(eta)(U, V) through the jet engine, extension convention."""
        p, u, v = as_list(p), as_list(u), as_list(v)
        proj = self.sphere.project

        def eta_on(w):
            # eta of the extended field of w, and the field itself
            def fn(rs):
                W_rs = proj(rs, w)
                return self.eta(rs, W_rs), W_rs

            return fn

        t1, dUV = along(eta_on(v), p, u)
        t2, dVU = along(eta_on(u), p, v)
        t3 = self.eta(p, vsub(dUV, dVU))
        return t1 - t2 - t3

    def contact_frame(self, p):
        """Euclidean-orthonormal basis of Ker(eta) inside T_p S: the
        complement of span(p, i p), since every eta here is a multiple
        of the round form."""
        p = as_list(p)
        rows = np.vstack([np.asarray(p), np.asarray(vvalue(cmult(p)))])
        _, _, vt = np.linalg.svd(rows)
        return [list(r) for r in vt[2:]]

    def phi(self, p, X):
        """phi(X) = (nabla_X xi)(p) with the structure's own metric."""
        p = as_list(p)
        geo = self.geometry
        return geo.covariant(p, geo.extend(as_list(X)), self.reeb_field)

    def killing_residual(self, p, X, Y):
        """|g(nabla_X xi, Y) + g(nabla_Y xi, X)|."""
        p, X, Y = as_list(p), as_list(X), as_list(Y)
        geo = self.geometry
        a = self.metric.g(p, geo.covariant(p, geo.extend(X), self.reeb_field), Y)
        b = self.metric.g(p, geo.covariant(p, geo.extend(Y), self.reeb_field), X)
        return abs(value(a) + value(b))

    def ambient_curvature_4(self, p, x, y, z, v):
        """R(X,Y,Z,V) of the structure; closed form on the round metric
        (constant curvature one), jet engine otherwise."""
        p = as_list(p)
        g = self.metric.g
        if self.metric.euclidean:
            return value(g(p, y, z)) * value(g(p, x, v)) - value(g(p, x, z)) * value(
                g(p, y, v)
            )
        R = self.geometry.curvature(p, x, y, z)
        return value(g(p, R, v))

    def sasakian_residual(self, p, X, Y):
        """|R(X, xi)Y - eta(Y) X + g(X, Y) xi| in the structure metric."""
        p, X, Y = as_list(p), as_list(X), as_list(Y)
        xi = self.reeb_field(p)
        R = self.geometry.curvature(p, X, xi, Y)
        expected = vsub(vscale(X, self.eta(p, Y)), vscale(xi, self.metric.g(p, X, Y)))
        diff = vsub(R, expected)
        return math.sqrt(max(value(self.metric.g(p, diff, diff)), 0.0))


class RoundSphereStructure(SphereStructure):
    """Standard structure: xi = i p, eta = <i q, .>, induced metric."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("need complex dimension n >= 2")
        super().__init__(n, InducedMetric())

    def reeb_field(self, q):
        return cmult(q)

    def eta(self, p, v):
        return _eta0(p, v)


class WeightedSphereStructure(SphereStructure):
    """Weighted structure for 0 < a_1 <= ... <= a_n.

    Construction probes metric positivity on a fixed 32-point set and
    aborts with DegenerateContact when the contact Gram drops below the
    positivity floor.
    """

    PROBE_POINTS = 32

    def __init__(self, n, a):
        if n < 2:
            raise ValueError("need complex dimension n >= 2")
        a = [float(x) for x in a]
        if len(a) != n:
            raise ValueError("weight vector length must equal n")
        if any(x <= 0 for x in a) or any(x > y for x, y in zip(a, a[1:])):
            raise ValueError("weights must be positive and nondecreasing")
        sphere = Sphere(2 * n)
        super().__init__(n, WeightedContactMetric(a, sphere))
        self.a = a
        self._probe_positivity()

    def reeb_field(self, q):
        return self.metric.reeb(q)

    def eta(self, p, v):
        return self.metric.eta(p, v)

    def _probe_positivity(self):
        rng = np.random.default_rng(320032)
        floor = tolerances.WEIGHTED_POSITIVITY
        for _ in range(self.PROBE_POINTS):
            p = rng.standard_normal(self.ambient_dim)
            p = list(p / np.linalg.norm(p))
            frame = self.contact_frame(p)
            H = np.asarray(
                [
                    [0.5 * value(self.metric.d_eta(p, u, cmult(v))) for v in frame]
                    for u in frame
                ],
                dtype=float,
            )
            H = 0.5 * (H + H.T)
            lo = float(np.linalg.eigvalsh(H)[0])
            if lo < floor:
                raise DegenerateContact(
                    f"contact Gram eigenvalue {lo:.3e} below {floor:.1e} at probe point"
                )


def contact_nondegeneracy(structure, p):
    """|pf|-style determinant of d(eta) on an orthonormal contact frame."""
    p = as_list(p)
    frame = structure.contact_frame(p)
    M = np.asarray(
        [[value(structure.d_eta(p, u, v)) for v in frame] for u in frame], dtype=float
    )
    return abs(float(np.linalg.det(M))) ** (1.0 / max(len(frame), 1))
