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

from functools import partial

import numpy as np

from . import tolerances
from .errors import DegenerateContact
from .geometry import Cone, Geometry, InducedMetric
from .jets import Dual, along, expand, leafwise, stack, value, vector
from .manifolds import Sphere
from .vecops import (clamped_sqrt, cmult, lane_pow, lane_stack, pairings, per_coordinate,
                     stack_lanes, vdot, vsum)


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
    the closed-form expansion of d(eta_A), the structure's ``d_eta``; the
    jet evaluation ``SphereStructure.d_eta_jet`` is kept as its check.

    The metric lives on ``sphere``; ``cone`` holds the Christoffel
    symbols and Riemann tensor of its cone per point, shared by every
    geometry built on this metric (the sphere and its level sets).
    """

    euclidean = False

    def __init__(self, a, sphere):
        self.a = np.array(a, dtype=float)
        self._coords = np.repeat(self.a, 2)  # a_j on both coordinates of block j
        self.sphere = sphere
        self.cone = Cone(self.pairs)

    # -- weighted contact data, all jet-generic -------------------------

    def conformal_factor(self, q):
        """sum_j a_j (x_j^2 + y_j^2), summed in order over j."""
        sq = q * q
        mods = sq[0::2] + sq[1::2]
        return vsum(per_coordinate(self.a, mods) * mods)

    def eta(self, q, v):
        q = vector(q)
        return _eta0(q, vector(v)) / self.conformal_factor(q)

    def reeb(self, q):
        """a_j (i q)_j: i q scaled per coordinate."""
        return per_coordinate(self._coords, q) * cmult(q)

    def d_eta(self, q, u, v):
        """d(eta_A) = (1/f) d(eta_0) - (1/f^2) df ^ eta_0, expanded; v may
        stack vectors between its coordinates and lanes."""
        q, u, v = vector(q), vector(u), vector(v)
        at = self._point_terms(q)
        return _expanded(at, vdot(cmult(u), v), _vector_terms(at, u), _vector_terms(at, v))

    def at(self, q):
        """g_A at q as a function of (u, v), the point's terms formed once;
        its ``row(u)`` is v -> g(u, v) with u's terms formed once too."""
        at, xi = self._point_terms(q), self.reeb(q)

        def row(u):
            eu, uc = _contact_part(at, xi, u)
            tu, u_terms = cmult(uc), _vector_terms(at, uc)

            def g_u(v):
                ev, vc = _contact_part(at, xi, v)
                tv = cmult(vc)
                return eu * ev + 0.5 * _expanded(at, vdot(tu, tv), u_terms, _vector_terms(at, tv))

            return g_u

        g = lambda u, v: row(u)(v)
        g.row = row
        return g

    def g(self, q, u, v):
        """g_A(u, v), formed as ``pairs`` forms its entry for (u, v)."""
        return self.at(vector(q))(vector(u), vector(v))

    def gram(self, q, vectors):
        """g(q; u, v) for every pair of the vectors, one array (k, k) +
        lanes cut from one ``pairs`` evaluation on the stacked vectors."""
        vectors = [vector(v) for v in vectors]
        lanes = max(np.shape(value(v))[1:] for v in [q, *vectors])
        U = stack([expand(v, len(lanes) + 1) for v in vectors], (len(value(q)),) + lanes)
        return self.pairs(q, leafwise(lambda a: np.moveaxis(a, 0, 1), U), lanes)

    def pairs(self, q, U, lanes):
        """g(q; U_i, U_j) for every pair of the k vectors stacked in U, its
        coordinates on axis 0 and the vectors on axis 1, one jet with
        leaves (k, k) + lanes: eta_A, the contact part, its turn, and df
        and eta_0 of both are formed once for the stack, then row i
        against the columns j >= i in one broadcast, mirrored below the
        diagonal.  Each entry has the bits of ``g`` on (U_i, U_j), i <= j."""
        at = self._point_terms(q)
        eta, contact = _contact_part(at, self.reeb(q), U)
        turned = cmult(contact)
        (df_c, e0_c), (df_t, e0_t) = _vector_terms(at, contact), _vector_terms(at, turned)
        k = len(value(eta))
        rows = [eta[i] * eta[i:] + 0.5 * _expanded(
                at, vdot(turned[:, i], turned[:, i:]), (df_c[i], e0_c[i]), (df_t[i:], e0_t[i:]))
                for i in range(k)]
        return _mirrored(rows, (k, k) + lanes)

    def _point_terms(self, q):
        """(f, f^2, i q, a q): the terms of d(eta_A) that depend on the
        point only, with (a q)_j = a_j q_j on both coordinates of block j."""
        f = self.conformal_factor(q)
        return f, f * f, cmult(q), per_coordinate(self._coords, q) * q


def _contact_part(at, xi, u):
    """eta_A(u) and the contact part u - eta_A(u) xi, at the point whose
    terms ``at`` holds and whose Reeb field is xi; u may stack vectors
    between its coordinates and lanes."""
    e = vdot(at[2], u) / at[0]
    return e, u - expand(xi, value(u).ndim) * e


def _mirrored(rows, shape):
    """The symmetric jet of leaves ``shape`` whose row i holds rows[i]
    from the diagonal on, and whose column i holds it from there down."""
    if isinstance(rows[0], Dual):
        return Dual(rows[0].lvl, _mirrored([r.re for r in rows], shape),
                    _mirrored([r.im for r in rows], shape))
    out = np.empty(shape)
    for i, r in enumerate(rows):
        out[i, i:] = out[i:, i] = r
    return out


def _vector_terms(at, w):
    """(df(w), eta_0(w)) at the point whose terms ``at`` holds."""
    return 2.0 * vdot(at[3], w), vdot(at[2], w)


def _expanded(at, iu_v, u_terms, v_terms):
    """d(eta_A)(u, v) = 2 <i u, v> / f - (df(u) eta_0(v) - df(v) eta_0(u)) / f^2
    from <i u, v> and the ``_vector_terms`` of u and v."""
    f, ff = at[0], at[1]
    (df_u, eta0_u), (df_v, eta0_v) = u_terms, v_terms
    return 2.0 * iu_v / f - (df_u * eta0_v - df_v * eta0_u) / ff


class SphereStructure:
    """Common machinery: geometry context, phi = nabla(xi), residuals."""

    def __init__(self, n, metric):
        self.n = n
        self.ambient_dim = 2 * n
        # a metric other than the Euclidean one carries its own sphere
        self.sphere = Sphere(self.ambient_dim) if metric.euclidean else metric.sphere
        self.geometry = Geometry(self.sphere, metric)
        self.metric = self.geometry.metric

    # subclasses supply eta / reeb evaluators (jet-generic)

    def reeb_field(self, q):
        raise NotImplementedError

    def eta(self, p, v):
        raise NotImplementedError

    def reeb(self, p):
        return self.reeb_field(vector(p))

    def d_eta(self, p, u, v):
        """d(eta)(U, V) in closed form: 2 <i U, V> on the round structure,
        the metric's expansion on a weighted one.  V may stack vectors
        between its coordinates and lanes, so ``vecops.pairings`` on
        ``partial(d_eta, p)`` gives a whole grid, each entry with the bits
        of its own pair."""
        if self.metric.euclidean:
            return 2.0 * _eta0(vector(u), vector(v))
        return self.metric.d_eta(p, u, v)

    def d_eta_jet(self, p, u, v):
        """d(eta)(U, V) through the jet engine, extension convention: the
        check of the closed form, built from eta alone."""
        p, u, v = vector(p), vector(u), vector(v)
        proj = self.sphere.project

        def eta_on(w):
            # eta of the extended field of w, and the field itself
            def fn(rs):
                W_rs = proj(rs, w)
                return self.eta(rs, W_rs), W_rs

            return fn

        t1, dUV = along(eta_on(v), p, u)
        t2, dVU = along(eta_on(u), p, v)
        t3 = self.eta(p, dUV - dVU)
        return t1 - t2 - t3

    def contact_frame(self, p):
        """Euclidean-orthonormal basis of Ker(eta) inside T_p S: the
        complement of span(p, i p), since every eta here is a multiple
        of the round form.  At a lane point one SVD runs over the stack
        of every sample's rows (p, i p), and the basis comes back as lane
        vectors (m - 2, m, lanes), each sample's basis in its lanes."""
        p = value(vector(p))
        _, _, vt = np.linalg.svd(lane_stack([p, cmult(p)]))
        if vt.ndim == 2:
            return vt[2:]
        return np.ascontiguousarray(np.moveaxis(vt[:, 2:], 0, -1))

    def phi(self, p, X):
        """phi(X) = (nabla_X xi)(p) with the structure's own metric."""
        p = vector(p)
        geo = self.geometry
        return geo.covariant(p, geo.extend(X), self.reeb_field)

    def killing_residual(self, p, X, Y):
        """|g(nabla_X xi, Y) + g(nabla_Y xi, X)|."""
        p, X, Y = vector(p), vector(X), vector(Y)
        geo = self.geometry
        g = self.metric.at(p)
        a = g(geo.covariant(p, geo.extend(X), self.reeb_field), Y)
        b = g(geo.covariant(p, geo.extend(Y), self.reeb_field), X)
        return abs(value(a) + value(b))

    def ambient_curvature_4(self, p, x, y, z, v):
        """R(X,Y,Z,V) of the structure; closed form on the round metric
        (constant curvature one), the cone's Riemann tensor through the
        Gauss equation otherwise (``Geometry.curvature``)."""
        p, x, y, z, v = map(vector, (p, x, y, z, v))
        g = self.metric.at(p)
        if self.metric.euclidean:
            return value(g(y, z)) * value(g(x, v)) - value(g(x, z)) * value(g(y, v))
        R = self.geometry.curvature(p, x, y, z)
        return value(g(R, v))

    def sasakian_residual(self, p, X, Y):
        """|R(X, xi)Y - eta(Y) X + g(X, Y) xi| in the structure metric."""
        p, X, Y = vector(p), vector(X), vector(Y)
        xi = self.reeb_field(p)
        R = self.geometry.curvature(p, X, xi, Y)
        g = self.metric.at(p)
        expected = X * self.eta(p, Y) - xi * g(X, Y)
        diff = R - expected
        return clamped_sqrt(g(diff, diff))


class RoundSphereStructure(SphereStructure):
    """Standard structure: xi = i p, eta = <i q, .>, induced metric."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("need complex dimension n >= 2")
        super().__init__(n, InducedMetric())

    def reeb_field(self, q):
        return cmult(vector(q))

    def eta(self, p, v):
        return _eta0(vector(p), vector(v))


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
        return self.metric.reeb(vector(q))

    def eta(self, p, v):
        return self.metric.eta(p, v)

    def _probe_positivity(self):
        """All probe points share lanes: one contact frame, one d(eta)
        grid (``vecops.pairings``), one stacked eigvalsh; the first probe
        point whose smallest eigenvalue lies below the floor raises."""
        rng = np.random.default_rng(320032)
        floor = tolerances.WEIGHTED_POSITIVITY
        p = stack_lanes([p / np.linalg.norm(p)
                         for p in rng.standard_normal((self.PROBE_POINTS, self.ambient_dim))])
        frame = self.contact_frame(p)
        H = 0.5 * lane_stack(pairings(partial(self.d_eta, p), frame, [cmult(v) for v in frame]))
        H = 0.5 * (H + H.transpose(0, 2, 1))
        lows = np.linalg.eigvalsh(H)[:, 0]
        failing = np.flatnonzero(lows < floor)
        if failing.size:
            raise DegenerateContact(
                f"contact Gram eigenvalue {lows[failing[0]]:.3e} below {floor:.1e} "
                "at probe point"
            )


def contact_nondegeneracy(structure, p):
    """|pf|-style determinant of d(eta) on an orthonormal contact frame.

    d(eta) is the structure's closed form, its grid on the frame one
    ``vecops.pairings`` evaluation.  At a lane point each sample gets its
    own contact frame, from one stacked SVD, and the determinants of the
    (samples, m, m) stack come back as an array, one per sample.
    """
    p = vector(p)
    frame = structure.contact_frame(p)
    M = lane_stack(pairings(partial(structure.d_eta, p), frame, frame))
    return lane_pow(np.abs(np.linalg.det(M)), 1.0 / max(len(frame), 1))
