"""Connection and curvature engine for embedded manifolds.

All tangent vectors are extended to fields by one fixed convention:
``v`` at ``p`` becomes the field ``q -> project_q(v_hat)`` where
``v_hat`` holds the frozen ambient components of ``v``.  Every covariant
derivative, curvature slot, bracket and exterior derivative below uses
this convention, so independent evaluation paths are comparable.

Derivatives are taken along straight ambient lines ``q + s w``.  Only
first derivatives are extracted per nesting level and all velocities are
tangent at on-manifold base points, so the curve choice does not affect
the extracted coefficients (any curve with the same velocity gives the
same first derivative of an ambient formula).

The induced (Euclidean) metric needs nothing beyond those derivatives.
Every other metric is a metric g on the unit sphere, and its geometry
comes from the cone dr^2 + r^2 g over it (``Cone``): the sphere is the
umbilic link r = 1 of the cone, so its Levi-Civita connection is the
projected cone connection (Gauss formula) and its curvature is the
cone's plus a constant-curvature term (Gauss equation).
"""

import numpy as np

from . import tolerances
from .errors import SingularMetric
from .jets import Dual, along, jsqrt, value, vector
from .vecops import batches, lane_stack, lane_width, solve_linear, split_lanes, vdot


class InducedMetric:
    """Restriction of the ambient Euclidean pairing."""

    euclidean = True

    def g(self, q, u, v):
        return vdot(vector(u), vector(v))

    def at(self, q):
        return vdot


def _contract(t, vectors):
    """Ordered sums of the tensor t against float or lane vectors, innermost
    index first: ``_contract(t, [x, y])[k] = sum_j y_j sum_i x_i t[k, j, i]``,
    summed one tensor slice at a time, so that no more than a slice of
    products is held at once (a lane R^ holds m^4 floats a lane).  A lane
    tensor holds its lanes on a last axis; a float tensor broadcasts over
    the lanes of lane vectors."""
    lanes = t.ndim > len(vectors) + 1 or any(lane_width(v) for v in vectors)
    t = t if t.ndim > len(vectors) + 1 else t[..., None]
    for v in vectors:
        slices = np.moveaxis(t, -2, 0)
        t = slices[0] * v[0]
        for i in range(1, len(slices)):
            t = t + slices[i] * v[i]
    return t if lanes else t[:, 0]


class Cone:
    """Christoffel symbols and Riemann tensor of the cone over a metric g
    on the unit sphere S^{m-1}.

    In the coordinates of R^m the cone metric dr^2 + r^2 g is the matrix
    field

        M(x)(u, v) = (x^ . u)(x^ . v) + g(x^; P u, P v),

    with x^ = x/|x| and P = 1 - x^ x^T the projection onto T_{x^}S, one
    matrix-valued jet: ``pairs`` forms g on every pair of the stacked
    vectors P e_i, a row of the upper triangle to a broadcast.  One nested
    ``along``, whose direction entries are lanes over the m^2 ordered
    coordinate pairs (a, b) of every point it builds, gives d_b M and
    d_a d_b M as arrays.  The Christoffel symbols Gamma and the Riemann
    tensor R^ of each point follow by two LU solves against M; M^-1 is
    never formed, since cond(M) grows like the square of the sphere's
    weight ratio.  Both tensors are exact, formed with numpy, and cached
    together, read-only, per point, keyed by its bytes: every command
    that asks for Gamma at a point asks for R^ there too.  The points of a
    call that miss the cache are built together, each once, in passes of
    at most ``vecops.PASS_LANES`` lanes, m^2 to a point (``batches``); a
    call that misses keeps only its own points cached, since a point
    does not recur across chunks.  Each point's numpy algebra runs on its
    own slice of the lanes, so its tensors hold the bits of a pass over
    that point alone.  At a lane point the tensors are stacked, lanes
    last, and each contraction is an ordered sum of slices, so a lane
    holds the bits of its sample's float evaluation.  Jet points are
    refused.
    """

    def __init__(self, pairs):
        self.pairs = pairs  # pairs(q, U, lanes): g(q; U_i, U_j) of stacked vectors U
        self._points = {}

    def christoffel(self, p, x, y):
        """Gamma(X, Y)^k = Gamma^k_ij X^i Y^j at p."""
        return _contract(self._tensor(vector(p), 0), [vector(x), vector(y)])

    def riemann(self, p, x, y, z):
        """R^(X, Y)Z = R^l_ijk X^i Y^j Z^k at p, with R(X,Y)Z =
        nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z."""
        return _contract(self._tensor(vector(p), 1), [vector(x), vector(y), vector(z)])

    def _tensor(self, p, which):
        """Gamma (which = 0) or R^ (which = 1) at p as an array, lanes last."""
        if isinstance(p, Dual):
            raise TypeError("cone tensors are formed at float and lane points, not at jets")
        lanes = split_lanes(p)
        points = [p] if lanes is None else lanes
        keys = [np.asarray(q, dtype=float).tobytes() for q in points]
        # the points this call builds, once each, in first-appearance order
        missing = {key: q for key, q in zip(keys, points) if key not in self._points}
        if missing:
            self._points = {k: self._points[k] for k in keys if k in self._points}
        for _, part in batches(list(missing), len(p) ** 2):
            built = self._build_batch(np.asarray([missing[key] for key in part], dtype=float))
            self._points.update(zip(part, built))
        tensors = [self._points[key][which] for key in keys]
        if lanes is None:
            return tensors[0]
        return np.stack(tensors, axis=-1)

    def metric_field(self, x):
        """M(x), one jet with leaves (m, m) + the lane shape of x; jet-generic."""
        x = vector(x)
        r = jsqrt(vdot(x, x))
        xh = x / r
        m, *lanes = np.shape(value(x))
        eye = np.eye(m).reshape((m, m) + (1,) * len(lanes))
        # the vectors P e_i, entry [k, i] their coordinate k
        tangential = eye - xh[None] * xh[:, None]
        return xh[:, None] * xh[None] + self.pairs(xh, tangential, tuple(lanes))

    def _build_batch(self, points):
        """[(Gamma[k, j, i] = Gamma^k_ij, R^[l, k, j, i] = R^l_ijk)] at the
        S float points, the rows of ``points``, in the index order of
        ``_contract``.  One nested ``along`` runs over S * m^2 lanes:
        lane s * m^2 + a * m + b holds point s, differentiated along e_a,
        then e_b."""
        S, m = points.shape
        width = S * m * m
        pairs = np.tile(np.arange(m * m), S)
        outer = (pairs // m == np.arange(m)[:, None]).astype(float)
        inner = (pairs % m == np.arange(m)[:, None]).astype(float)
        first = []

        def d_inner(q):
            d = along(self.metric_field, q, inner)
            first.append(d)
            return d

        lanes = np.repeat(points.T, m * m, axis=1)
        # a leaf without lanes (a 0.0 derivative, say) stands for every lane
        ddM_lanes = np.broadcast_to(value(along(d_inner, lanes, outer)), (m, m, width))
        dM_lanes = np.broadcast_to(value(first[0]), (m, m, width))
        M_lanes = np.broadcast_to(self.metric_field(points.T.copy()), (m, m, S))
        out = []
        for s in range(S):
            # each point's arrays are copied out with the strides of a
            # one-point pass: einsum's summation order may follow them
            cut = slice(s * m * m, (s + 1) * m * m)
            dM = np.moveaxis(np.ascontiguousarray(dM_lanes[:, :, cut])[:, :, :m], 2, 0)
            ddM = np.moveaxis(np.ascontiguousarray(ddM_lanes[:, :, cut]).reshape(m, m, m, m),
                              (2, 3), (0, 1))
            tensors = _cone_tensors(np.ascontiguousarray(M_lanes[:, :, s]), dM, ddM)
            for t in tensors:  # the cache hands these out at a float point
                t.setflags(write=False)
            out.append(tensors)
        return out


def _cone_tensors(M, dM, ddM):
    """(Gamma, R^) from the cone metric M at one point and its first and
    second derivatives dM[c, i, j] = d_c M_ij, ddM[a, b, i, j] = d_a d_b M_ij."""
    m = len(M)
    # symbols of the first kind Gamma_lij = (d_i M_jl + d_j M_il - d_l M_ij) / 2
    first_kind = 0.5 * (dM.transpose(2, 0, 1) + dM.transpose(2, 1, 0) - dM)
    gamma = np.linalg.solve(M, first_kind.reshape(m, m * m)).reshape(m, m, m)
    d_first_kind = 0.5 * (ddM.transpose(0, 3, 1, 2) + ddM.transpose(0, 3, 2, 1) - ddM)
    # d_gamma[k, c, i, j] = d_c Gamma^k_ij solves
    # M_kl d_c Gamma^l_ij = d_c Gamma_kij - (d_c M)_kb Gamma^b_ij
    rhs = (d_first_kind - np.einsum("clb,bij->clij", dM, gamma)).transpose(1, 0, 2, 3)
    d_gamma = np.linalg.solve(M, rhs.reshape(m, m ** 3)).reshape(m, m, m, m)
    quad = np.einsum("lim,mjk->lijk", gamma, gamma)
    # R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    riem = d_gamma - d_gamma.transpose(0, 2, 1, 3) + quad - quad.transpose(0, 2, 1, 3)
    return (np.ascontiguousarray(gamma.transpose(0, 2, 1)),
            np.ascontiguousarray(riem.transpose(0, 3, 2, 1)))


def _cached(cache, base, build):
    """cache[base] keyed by the shape and bytes of the float or lane point
    base, built on a miss; the cache is emptied when it holds more than
    ``Geometry.CACHE_POINTS`` points."""
    key = np.shape(base), np.asarray(base, dtype=float).tobytes()
    hit = cache.get(key)
    if hit is None:
        if len(cache) > Geometry.CACHE_POINTS:
            cache.clear()
        hit = cache[key] = build()
    return hit


class Geometry:
    """Bundles a manifold and a metric evaluator.

    Instances are immutable and safe to share; the per-point caches of
    frames and metric condition numbers are the only mutable state and
    are keyed by the raw coordinate bytes.
    A metric that is not Euclidean lives on its unit sphere
    ``metric.sphere`` and carries the cone of that sphere as
    ``metric.cone``; the manifold is the sphere or a submanifold of it.
    """

    CACHE_POINTS = 8192

    def __init__(self, manifold, metric):
        self.manifold = manifold
        self.metric = metric
        self._frames = {}
        self._conditions = {}

    # ------------------------------------------------------------------
    # frames and metric health
    # ------------------------------------------------------------------

    def tangent_frame(self, p):
        """Euclidean-orthonormal tangent basis at the float point under
        the jet value of p; deterministic and cached.  At a lane point
        each sample gets its own basis, as lane vectors."""
        base = value(vector(p))
        return _cached(self._frames, base, lambda: self.manifold.tangent_basis(base))

    def check_metric(self, p):
        """Raise SingularMetric when the tangent Gram matrix at p (at
        any sample of a lane point) is numerically singular.  The Gram
        matrix comes from one ``metric.gram`` call, and its condition
        number (the worst sample's on lanes) is cached per point as
        ``tangent_frame`` caches frames."""
        if self.metric.euclidean:
            return 1.0

        def condition():
            gram = self.metric.gram(p, list(self.tangent_frame(p)))
            return float(np.max(np.linalg.cond(lane_stack(value(gram)))))

        cond = _cached(self._conditions, value(p), condition)
        if not np.isfinite(cond) or cond > tolerances.METRIC_CONDITION:
            raise SingularMetric(f"tangent Gram condition number {cond:.3e}")
        return cond

    # ------------------------------------------------------------------
    # fields and elementary derivatives
    # ------------------------------------------------------------------

    def extend(self, vec):
        """Extension convention: freeze the ambient components, project
        pointwise."""
        hat = value(vector(vec))
        man = self.manifold
        return lambda q: man.project(q, hat)

    def bracket(self, q, Xf, Yf):
        """[X, Y](q) = D_X Y - D_Y X for the extended fields."""
        q = vector(q)
        Xq, Yq = Xf(q), Yf(q)
        dxy = along(Yf, q, Xq)
        dyx = along(Xf, q, Yq)
        return dxy - dyx

    # ------------------------------------------------------------------
    # covariant derivative
    # ------------------------------------------------------------------

    def covariant(self, q, dir_field, field):
        """Levi-Civita derivative (nabla_X Y)(q) for fields X, Y.

        For the induced metric the Koszul formula collapses exactly to
        the tangential ambient derivative (every metric-derivative term
        expands by the product rule and cancels against the brackets),
        so that cheaper algebraically-equal form is used.  Any other
        metric takes the cone connection, nabla_X Y = P(D_X Y +
        Gamma(X, Y)): P is the Euclidean projection onto TS, which is
        orthogonal for the cone metric on the link r = 1, followed on a
        submanifold of the sphere by the g-orthogonal projection onto its
        tangent space.  q must be a float or lane point.
        """
        q = vector(q)
        if self.metric.euclidean:
            w = along(field, q, dir_field(q))
            return self.manifold.project(q, w)
        X = dir_field(q)
        gamma = self.metric.cone.christoffel(q, X, field(q))
        w = along(field, q, X)
        w = self.metric.sphere.project(q, w + gamma)
        if self.manifold is self.metric.sphere:
            return w
        return self._tangent_part(q, w)

    def _tangent_part(self, q, w):
        """g-orthogonal projection of w in TS onto the tangent space of
        the manifold, through the Gram system of its tangent frame."""
        frame = self.tangent_frame(q)
        gram = self.metric.gram(q, [*frame, w])
        coef = solve_linear([list(row[:-1]) for row in gram[:-1]], list(gram[:-1, -1]))
        out = np.zeros(np.shape(w))
        for c, t in zip(coef, frame):
            out = out + c * t
        return out

    # ------------------------------------------------------------------
    # curvature
    # ------------------------------------------------------------------

    def curvature(self, p, x, y, z):
        """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
        at the float or lane point p, inputs extended by the fixed
        convention.

        The induced metric evaluates that definition as it stands.  Any
        other metric is defined on its unit sphere, the umbilic link of
        its cone with second fundamental form -g(X, Y) d_r, so the Gauss
        equation gives R(X,Y)Z = R^(X,Y)Z + g(Y,Z) X - g(X,Z) Y from the
        cone's Riemann tensor R^.  That holds on the sphere only: any
        other manifold raises ValueError.
        """
        p = vector(p)
        self.check_metric(p)
        if not self.metric.euclidean:
            return self._sphere_curvature(p, x, y, z)
        Xf, Yf, Zf = self.extend(x), self.extend(y), self.extend(z)
        Wyz = lambda r: self.covariant(r, Yf, Zf)
        Wxz = lambda r: self.covariant(r, Xf, Zf)
        term_a = self.covariant(p, Xf, Wyz)
        term_b = self.covariant(p, Yf, Wxz)
        bxy = self.manifold.project(p, self.bracket(p, Xf, Yf))
        term_c = self.covariant(p, self.extend(bxy), Zf)
        return term_a - term_b - term_c

    def _sphere_curvature(self, p, x, y, z):
        sphere = self.metric.sphere
        if self.manifold is not sphere:
            raise ValueError(
                "curvature from the cone holds on the metric's own sphere, "
                "not on a submanifold of it")
        x, y, z = (sphere.project(p, value(vector(v))) for v in (x, y, z))
        g = self.metric.at(p)
        cone = self.metric.cone.riemann(p, x, y, z)
        gauss = x * g(y, z) - y * g(x, z)
        return sphere.project(p, cone + gauss)
