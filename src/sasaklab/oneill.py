"""Riemannian-submersion curvature machinery.

A SubmersionContext holds, at one sample of a level set N: the ambient
structure, the level-set manifold, vertical fields (jet-generic), and
the horizontal frame and N's g-orthonormal tangent frame, those of the
sample's reduction frame (``from_reduction``: its vertical, contact D
and Reeb blocks); vertical parts are projections onto the fields.  N's
normal frame in T_pS is formed once, from the gradients of N's
constraints other than the sphere's, and h projects onto it.  A context
built from a lane frame holds a batch of samples as lanes, N's frames
included, and every evaluation on it, the CR splitting of ``cr`` too,
serves the whole batch; it is never split into float contexts.
Quotient tensors are never written in quotient coordinates; they are
evaluated on horizontal representatives upstairs.

A and h run in pair passes.  ``a_tensors`` and ``second_fundamentals``
take a list of pairs (u, v) and evaluate them as extra lanes of one
covariant pass (``vecops.pair_lanes``), at most ``vecops.PASS_LANES``
lanes (pairs x samples) to a pass; no value depends on the pass.
``quotient_curvature_vector`` fills its A and h caches with one pass per
kind before its frame loop, and ``quotient_curvature_4`` passes over
the pairs its caches miss.  The caches are keyed by the vectors'
identities and hold A(b, a) as the exact negation of A(a, b) and h(b, a)
as h(a, b), so each pair is evaluated in the orientation of its first
request.  The Reeb vector zeta of ``quotient_sasakian_residual`` and its
pairs with the frame, which no direction changes, are kept for the
context's life: a later call evaluates only the pairs with its directions.

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
from .jets import value, vector
from .manifolds import SphereConstraint
from .tensor_kernel import gram_schmidt
from .vecops import clamped_sqrt, pair_lanes, pairings, plane_area, solve_linear, tile_lanes


class SubmersionContext:
    """Bundle for O'Neill computations at a sample, or at the lanes of a batch.

    ``tangent_frame`` is N's g-orthonormal tangent frame, taken as given;
    it ends in the Reeb field, so the vectors before it span TN's contact
    part (``cr.cr_decomposition`` reads them so)."""

    def __init__(self, structure, manifold, vertical_fields, p, horizontal_frame, tangent_frame):
        self.structure = structure
        self.manifold = manifold
        self.vertical_fields = list(vertical_fields)
        self.p = vector(p)
        self.g = structure.metric.at(self.p)  # the metric at p, its terms formed once
        self.geometry = Geometry(manifold, structure.metric)
        self.ambient_geometry = structure.geometry
        # a list of vector objects: the pair caches key on their identities
        self.horizontal_frame = [vector(v) for v in horizontal_frame]
        self.tangent_frame = tangent_frame  # N's, g-orthonormal, Reeb field last
        self.normal_frame = self._normal_frame()
        self._zeta = value(structure.reeb(self.p))
        self._zeta_pairs = ({}, {})  # A and h of zeta with the frame

    @classmethod
    def from_reduction(cls, setup, rframe):
        """The context of a reduction frame, of one sample or of lanes; N's
        tangent frame is the frame's own blocks: vertical, contact D, Reeb."""
        fields = [(lambda q, r=tuple(row): setup.action.fundamental_field(r, q))
                  for row in rframe.vertical_rows]
        return cls(setup.structure, setup.manifold, fields, rframe.p, rframe.horizontal,
                   np.concatenate([rframe.vertical.vectors, rframe.horizontal]))

    def _normal_frame(self):
        """N's g-orthonormal normal frame in T_pS: the gradients of its
        constraints other than the sphere's, projected to T_pS, less their
        parts along the tangent frame in two passes (twice is enough against
        an orthonormal frame), then one Gram-Schmidt, its drops per lane."""
        S, p = self.structure, value(self.p)
        W = np.array([S.sphere.project(p, c.grad(p)) for c in self.manifold.constraints
                      if not isinstance(c, SphereConstraint)])
        for _ in range(2 if len(W) else 0):
            coef = pairings(self.g, W, self.tangent_frame)
            for k, t in enumerate(self.tangent_frame):
                W = W - coef[:, k, None] * t
        return gram_schmidt(S.metric, self.p, list(W)).vectors

    # -- projections (jet-generic) --------------------------------------

    def vertical_project(self, q, w):
        if not self.vertical_fields:
            return 0.0 * w
        vals = [f(q) for f in self.vertical_fields]
        g = self.structure.metric.at(q)
        gram = [[g(a, b) for b in vals] for a in vals]
        rhs = [g(a, w) for a in vals]
        coef = solve_linear(gram, rhs)
        out = 0.0
        for c, v in zip(coef, vals):
            out = out + c * v
        return out

    def horizontal_project(self, q, w):
        t = self.manifold.project(q, w)
        return t - self.vertical_project(q, t)

    def horizontal_extend(self, vec):
        hat = value(vector(vec))
        return lambda q: self.horizontal_project(q, hat)

    # -- O'Neill A tensor ------------------------------------------------

    def a_tensor(self, x, y):
        """A(X,Y) = vertical part of nab^N_X Y~ for horizontal x, y."""
        return self.a_tensors([(x, y)])[0]

    def a_tensors(self, pairs):
        """A(X, Y) of every pair (x, y), the pairs run as lanes of one
        covariant pass (``vecops.pair_lanes``)."""
        def one_pass(q, reps, x, y):
            Xh = self.horizontal_extend(x)
            Yh = self.horizontal_extend(y)
            w = self.geometry.covariant(q, Xh, Yh)
            return self.vertical_project(q, w)

        return pair_lanes(one_pass, self.p, pairs)

    # -- second fundamental form of N in the ambient sphere --------------

    def second_fundamental(self, x, y):
        """h(X,Y): normal (to N, inside TS) part of nab^S_X Y~ where Y~
        is the projection-extended field tangent to N."""
        return self.second_fundamentals([(x, y)])[0]

    def second_fundamentals(self, pairs):
        """h(X, Y) of every pair (x, y), the g-projection of nab^S_X Y~ onto
        N's normal frame, the pairs run as lanes of one covariant pass
        (``vecops.pair_lanes``)."""
        man = self.manifold
        metric = self.structure.metric

        def one_pass(q, reps, x, y):
            xhat, yhat = value(x), value(y)
            Yf = lambda r: man.project(r, yhat)
            Xf = lambda r: man.project(r, xhat)
            out = self.ambient_geometry.covariant(q, Xf, Yf)
            g = metric.at(q)
            h = np.zeros(np.shape(out))
            for u in self.normal_frame:
                u = tile_lanes(u, reps)
                h = h + g(u, out) * u
            return h

        return pair_lanes(one_pass, self.p, pairs)

    # -- curvature paths --------------------------------------------------

    def ambient_curvature_4(self, x, y, z, v):
        return self.structure.ambient_curvature_4(self.p, x, y, z, v)

    def gauss_curvature_n4(self, x, y, z, v, h_cache=None):
        """R^N(X,Y,Z,V) from the ambient curvature by the Gauss equation."""
        h = self._h_cached(h_cache, _h_pairs(x, y, z, v))
        rm = self.ambient_curvature_4(x, y, z, v)
        return (
            value(rm)
            + value(self.g(h(x, v), h(y, z)))
            - value(self.g(h(x, z), h(y, v)))
        )

    def _h_cached(self, cache, pairs):
        """Lookup h(a, b) in ``cache``, keyed by the vectors' identities,
        after one pass over the pairs it misses; h(b, a) is h(a, b)."""
        cache = {} if cache is None else cache
        _fill(cache, pairs, self.second_fundamentals, lambda val: val)
        return lambda a, b: cache[(id(a), id(b))]

    def quotient_curvature_4(self, x, y, z, v, a_cache=None, h_cache=None):
        """Horizontal 4-tensor of the quotient via O'Neill's formula."""
        A = self._a_cached(a_cache, _a_pairs(x, y, z, v))
        rn = self.gauss_curvature_n4(x, y, z, v, h_cache=h_cache)
        gp = lambda u, w: value(self.g(u, w))
        return (
            rn
            - 2.0 * gp(A(x, y), A(z, v))
            + gp(A(y, z), A(x, v))
            - gp(A(x, z), A(y, v))
        )

    def _a_cached(self, cache, pairs):
        """Lookup A(a, b) in ``cache``, keyed by the vectors' identities,
        after one pass over the pairs it misses; A(b, a) is -A(a, b)."""
        cache = {} if cache is None else cache
        _fill(cache, pairs, lambda todo: [value(a) for a in self.a_tensors(todo)],
              lambda val: -val)
        return lambda a, b: cache[(id(a), id(b))]

    def quotient_curvature_vector(self, x, y, z, a_cache=None, h_cache=None):
        """R^P(X,Y)Z as a horizontal vector, assembled on the frame; the
        A and h pairs of every frame vector that the caches miss take one
        pass per kind."""
        a_cache = {} if a_cache is None else a_cache
        h_cache = {} if h_cache is None else h_cache
        x, y, z = vector(x), vector(y), vector(z)
        frame = self.horizontal_frame
        self._a_cached(a_cache, [ab for f in frame for ab in _a_pairs(x, y, z, f)])
        self._h_cached(h_cache, [ab for f in frame for ab in _h_pairs(x, y, z, f)])
        out = np.zeros(np.shape(self.p))
        for f in frame:
            out = out + self.quotient_curvature_4(x, y, z, f, a_cache, h_cache) * f
        return out

    def quotient_sasakian_residual(self, x, y):
        """|R^P(X, zeta)Y - (eta(Y) X - g(X,Y) zeta)| on representatives;
        an array of one value per sample on a lane context."""
        S = self.structure
        x, y = vector(x), vector(y)
        zeta = self._zeta
        # the pairs of zeta with the frame carry over from earlier calls;
        # only they are kept, as x and y die with the call
        caches = [dict(kept) for kept in self._zeta_pairs]
        r = self.quotient_curvature_vector(x, zeta, y, *caches)
        owned = {id(zeta), *map(id, self.horizontal_frame)}
        for kept, cache in zip(self._zeta_pairs, caches):
            kept.update((k, v) for k, v in cache.items() if owned.issuperset(k))
        g = self.g
        expected = x * value(S.eta(self.p, y)) - zeta * value(g(x, y))
        diff = r - expected
        return clamped_sqrt(g(diff, diff))

    def phi_horizontal(self, x):
        """(phi_P X) on representatives: horizontal part of nab^N_X xi."""
        S = self.structure
        Xh = self.horizontal_extend(x)
        w = self.geometry.covariant(self.p, Xh, lambda q: S.reeb_field(q))
        return self.horizontal_project(self.p, value(w))

    def phi_sectional_quotient(self, x):
        """K_P(X, phi_P X) via the O'Neill path, X horizontal unit."""
        x = vector(x)
        px = self.phi_horizontal(x)
        return self.quotient_curvature_4(x, px, px, x) / plane_area(self.g, x, px)


def _h_pairs(x, y, z, v):
    """The h pairs of ``gauss_curvature_n4``, in the order it reads them."""
    return [(x, v), (y, z), (x, z), (y, v)]


def _a_pairs(x, y, z, v):
    """The A pairs of ``quotient_curvature_4``, in the order it reads them."""
    return [(x, y), (z, v), (y, z), (x, v), (x, z), (y, v)]


def _fill(cache, pairs, evaluate, reverse):
    """Store in ``cache`` the pairs it misses, keyed by the vectors'
    identities, as a per-pair lookup would in the order of ``pairs``:
    each pair is evaluated once, in the orientation of its first request,
    by one ``evaluate`` call over all of them, and its reverse is stored
    as ``reverse`` of its value (on a pair (a, a), the reverse replaces it)."""
    todo, seen = [], set()
    for a, b in pairs:
        key = (id(a), id(b))
        if key not in cache and key not in seen:
            seen.update((key, (id(b), id(a))))
            todo.append((a, b))
    if not todo:
        return
    for (a, b), val in zip(todo, evaluate(todo)):
        cache[(id(a), id(b))] = val
        cache[(id(b), id(a))] = reverse(val)
