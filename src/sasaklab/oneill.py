"""Riemannian-submersion curvature machinery.

A SubmersionContext holds, at one sample of a level set N: the ambient
structure, the level-set manifold, vertical fields (jet-generic), and
the vertical and horizontal frames.  The frames are those of the
sample's reduction frame (``from_reduction``); ``stacked`` joins such
contexts into one whose point and frames are lanes.  Quotient tensors
are never written in quotient coordinates; they are evaluated on
horizontal representatives upstairs.

Sign conventions, fixed once: R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z -
nab_[X,Y] Z, slots R(X,Y,Z,V) = g(R(X,Y)Z, V), sectional K(X,Y) =
R(X,Y,Y,X) on orthonormal pairs.  In these slots the horizontal
curvature formula of a submersion reads

    R_P(X,Y,Z,V) = R_N(X,Y,Z,V) - 2 g(A(X,Y), A(Z,V))
                   + g(A(Y,Z), A(X,V)) - g(A(X,Z), A(Y,V))

which gives K_P = K_N + 3 |A(X,Y)|^2 on orthonormal pairs; the sign
is pinned by the Hopf gate test (S^3 -> S^2: upstairs 1, downstairs 4)
before anything else trusts it.
"""

import numpy as np

from .geometry import Geometry
from .jets import value
from .tensor_kernel import gram_schmidt, orthogonal_tail
from .vecops import solve_linear, stack_frames, stack_lanes, vscale, vsub, vvalue


class SubmersionContext:
    """Per-sample bundle for O'Neill computations."""

    def __init__(self, structure, manifold, vertical_fields, p,
                 horizontal_frame, vertical_frame):
        self.structure = structure
        self.manifold = manifold
        self.vertical_fields = list(vertical_fields)
        self.p = list(p)
        self.geometry = Geometry(manifold, structure.metric)
        self.ambient_geometry = structure.geometry
        self.vertical_frame = vertical_frame
        self.horizontal_frame = [list(v) for v in horizontal_frame]
        self._tangent_on = None
        self._normal_on = None

    @classmethod
    def from_reduction(cls, setup, rframe):
        fields = [
            (lambda q, r=tuple(row): setup.action.fundamental_field(r, q))
            for row in rframe.vertical_rows
        ]
        return cls(
            setup.structure,
            setup.manifold,
            fields,
            rframe.sample.coords(),
            horizontal_frame=rframe.horizontal,
            vertical_frame=[list(v) for v in rframe.vertical.vectors],
        )

    @classmethod
    def stacked(cls, contexts):
        """One context whose point and frames hold the given per-sample
        contexts as lanes, so each evaluation on it serves them all.

        The contexts must share structure, manifold and vertical fields
        and have frames of equal sizes.  Their float-level frames
        (including the tangent and normal frames of N) are computed per
        sample first.
        """
        first = contexts[0]
        frames = [c._tangent_frames() for c in contexts]
        out = cls(
            first.structure,
            first.manifold,
            first.vertical_fields,
            stack_lanes([c.p for c in contexts]),
            horizontal_frame=stack_frames([c.horizontal_frame for c in contexts]),
            vertical_frame=stack_frames([c.vertical_frame for c in contexts]),
        )
        out._tangent_on = stack_frames([t for t, _ in frames])
        out._normal_on = stack_frames([nu for _, nu in frames])
        return out

    def frame_sizes(self):
        """Sizes of every frame the context evaluates with.  Contexts that
        agree here and share their vertical fields can be stacked."""
        tangent_on, normal_on = self._tangent_frames()
        return (
            len(self.vertical_frame),
            len(self.horizontal_frame),
            len(tangent_on),
            len(normal_on),
            len(self.manifold.tangent_basis(self.p)),
        )

    # -- projections (jet-generic) --------------------------------------

    def vertical_project(self, q, w):
        if not self.vertical_fields:
            return [0.0 * c for c in w]
        vals = [f(q) for f in self.vertical_fields]
        g = self.structure.metric.g
        gram = [[g(q, a, b) for b in vals] for a in vals]
        rhs = [g(q, a, w) for a in vals]
        coef = solve_linear(gram, rhs)
        out = [0.0] * len(w)
        for c, v in zip(coef, vals):
            out = [o + c * b for o, b in zip(out, v)]
        return out

    def horizontal_project(self, q, w):
        t = self.manifold.project(q, w)
        return vsub(t, self.vertical_project(q, t))

    def horizontal_extend(self, vec):
        hat = vvalue(vec)
        return lambda q: self.horizontal_project(q, hat)

    # -- O'Neill A tensor ------------------------------------------------

    def a_tensor(self, x, y):
        """A(X,Y) = vertical part of nab^N_X Y~ for horizontal x, y."""
        Xh = self.horizontal_extend(x)
        Yh = self.horizontal_extend(y)
        w = self.geometry.covariant(self.p, Xh, Yh)
        return self.vertical_project(self.p, w)

    # -- second fundamental form of N in the ambient sphere --------------

    def _tangent_frames(self):
        if self._tangent_on is None:
            S = self.structure
            rows = [list(r) for r in self.manifold.tangent_basis(self.p)]
            self._tangent_on = [list(v) for v in
                                gram_schmidt(S.metric, self.p, rows).vectors]
            sph_rows = [list(r) for r in S.sphere.tangent_basis(self.p)]
            self._normal_on = orthogonal_tail(S.metric, self.p, self._tangent_on, sph_rows)
        return self._tangent_on, self._normal_on

    def second_fundamental(self, x, y):
        """h(X,Y): normal (to N, inside TS) part of nab^S_X Y~ where Y~
        is the projection-extended field tangent to N."""
        man = self.manifold
        yhat = vvalue(y)
        xhat = vvalue(x)
        Yf = lambda q: man.project(q, yhat)
        Xf = lambda q: man.project(q, xhat)
        w = self.ambient_geometry.covariant(self.p, Xf, Yf)
        tangent_on, _ = self._tangent_frames()
        g = self.structure.metric.g
        out = list(w)
        for u in tangent_on:
            c = g(self.p, u, out)
            out = [a - c * b for a, b in zip(out, u)]
        return out

    # -- curvature paths --------------------------------------------------

    def ambient_curvature_4(self, x, y, z, v):
        return self.structure.ambient_curvature_4(self.p, x, y, z, v)

    def gauss_curvature_n4(self, x, y, z, v, h_cache=None):
        """R^N(X,Y,Z,V) from the ambient curvature by the Gauss equation."""
        g = self.structure.metric.g
        h = self._h_cached(h_cache)
        rm = self.ambient_curvature_4(x, y, z, v)
        return (
            value(rm)
            + value(g(self.p, h(x, v), h(y, z)))
            - value(g(self.p, h(x, z), h(y, v)))
        )

    def _h_cached(self, cache):
        if cache is None:
            cache = {}

        def h(a, b):
            key = (id(a), id(b))
            if key not in cache:
                val = self.second_fundamental(a, b)
                cache[key] = val
                cache[(id(b), id(a))] = val
            return cache[key]

        return h

    def quotient_curvature_4(self, x, y, z, v, a_cache=None, h_cache=None):
        """Horizontal 4-tensor of the quotient via O'Neill's formula."""
        g = self.structure.metric.g
        A = self._a_cached(a_cache)
        rn = self.gauss_curvature_n4(x, y, z, v, h_cache=h_cache)
        gp = lambda u, w: value(g(self.p, u, w))
        return (
            rn
            - 2.0 * gp(A(x, y), A(z, v))
            + gp(A(y, z), A(x, v))
            - gp(A(x, z), A(y, v))
        )

    def _a_cached(self, cache):
        if cache is None:
            cache = {}

        def A(a, b):
            key = (id(a), id(b))
            if key not in cache:
                val = vvalue(self.a_tensor(a, b))
                cache[key] = val
                cache[(id(b), id(a))] = [-c for c in val]
            return cache[key]

        return A

    def quotient_curvature_vector(self, x, y, z):
        """R^P(X,Y)Z as a horizontal vector, assembled on the frame."""
        a_cache, h_cache = {}, {}
        out = [0.0] * len(self.p)
        for f in self.horizontal_frame:
            comp = self.quotient_curvature_4(x, y, z, f, a_cache, h_cache)
            out = [o + comp * c for o, c in zip(out, f)]
        return out

    def quotient_sasakian_residual(self, x, y):
        """|R^P(X, zeta)Y - (eta(Y) X - g(X,Y) zeta)| on representatives;
        an array of one value per sample on a stacked context."""
        S = self.structure
        zeta = vvalue(S.reeb(self.p))
        r = self.quotient_curvature_vector(x, zeta, y)
        g = S.metric.g
        expected = vsub(
            vscale(x, value(S.eta(self.p, y))),
            vscale(zeta, value(g(self.p, x, y))),
        )
        diff = vsub(r, expected)
        return np.sqrt(np.maximum(value(g(self.p, diff, diff)), 0.0))

    def phi_horizontal(self, x):
        """(phi_P X) on representatives: horizontal part of nab^N_X xi."""
        S = self.structure
        Xh = self.horizontal_extend(x)
        w = self.geometry.covariant(self.p, Xh, lambda q: S.reeb_field(q))
        return self.horizontal_project(self.p, vvalue(w))

    def phi_sectional_quotient(self, x):
        """K_P(X, phi_P X) via the O'Neill path, X horizontal unit."""
        g = self.structure.metric.g
        px = self.phi_horizontal(x)
        num = self.quotient_curvature_4(x, px, px, x)
        den = (
            value(g(self.p, x, x)) * value(g(self.p, px, px))
            - value(g(self.p, x, px)) ** 2
        )
        return num / den
