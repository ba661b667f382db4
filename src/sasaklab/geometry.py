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
"""

import numpy as np

from . import tolerances
from .errors import SingularMetric
from .jets import along, value
from .vecops import solve_linear, split_lanes, stack_frames, vdot, vsub, vvalue


class InducedMetric:
    """Restriction of the ambient Euclidean pairing."""

    euclidean = True

    def g(self, q, u, v):
        return vdot(u, v)


class Geometry:
    """Bundles a manifold and a metric evaluator.

    Instances are immutable and safe to share; the per-point frame cache
    is the only mutable state and is keyed by the raw coordinate bytes.
    """

    def __init__(self, manifold, metric):
        self.manifold = manifold
        self.metric = metric
        self._frames = {}

    # ------------------------------------------------------------------
    # frames and metric health
    # ------------------------------------------------------------------

    def tangent_frame(self, p):
        """Euclidean-orthonormal tangent basis at the float point under
        the jet value of p; deterministic and cached.  At a lane point
        each sample gets its own basis, stacked into lane vectors."""
        base = vvalue(p)
        key = np.asarray(base, dtype=float).tobytes()
        hit = self._frames.get(key)
        if hit is None:
            if len(self._frames) > 8192:
                self._frames.clear()
            points = split_lanes(base)
            if points is None:
                hit = self.manifold.tangent_basis(base)
            else:
                hit = stack_frames([self.manifold.tangent_basis(q) for q in points])
            self._frames[key] = hit
        return hit

    def check_metric(self, p):
        """Raise SingularMetric when the tangent Gram matrix at p (at
        any sample of a lane point) is numerically singular."""
        if self.metric.euclidean:
            return 1.0
        frame = self.tangent_frame(p)
        rows = [list(r) for r in frame]
        gram = np.asarray(
            [[value(self.metric.g(p, u, v)) for v in rows] for u in rows], dtype=float
        )
        if gram.ndim == 3:  # lanes last: the worst sample decides
            gram = np.moveaxis(gram, -1, 0)
        cond = float(np.max(np.linalg.cond(gram)))
        if not np.isfinite(cond) or cond > tolerances.METRIC_CONDITION:
            raise SingularMetric(f"tangent Gram condition number {cond:.3e}")
        return cond

    # ------------------------------------------------------------------
    # fields and elementary derivatives
    # ------------------------------------------------------------------

    def extend(self, vec):
        """Extension convention: freeze the ambient components, project
        pointwise."""
        hat = vvalue(vec)
        man = self.manifold
        return lambda q: man.project(q, hat)

    def bracket(self, q, Xf, Yf):
        """[X, Y](q) = D_X Y - D_Y X for the extended fields."""
        Xq, Yq = Xf(q), Yf(q)
        dxy = along(Yf, q, Xq)
        dyx = along(Xf, q, Yq)
        return vsub(dxy, dyx)

    # ------------------------------------------------------------------
    # covariant derivative
    # ------------------------------------------------------------------

    def covariant(self, q, dir_field, field):
        """Levi-Civita derivative (nabla_X Y)(q) for fields X, Y.

        For the induced metric the Koszul formula collapses exactly to
        the tangential ambient derivative (every metric-derivative term
        expands by the product rule and cancels against the brackets),
        so that cheaper algebraically-equal form is used; general
        metrics go through the explicit formula.
        """
        if self.metric.euclidean:
            w = along(field, q, dir_field(q))
            return self.manifold.project(q, w)
        return self.covariant_koszul(q, dir_field, field)

    def covariant_koszul(self, q, dir_field, field):
        """Term-by-term Koszul formula, any metric."""
        kap2, tests = self._koszul_rhs(q, dir_field, field)
        if self.metric.euclidean:
            # test fields are the projected coordinate vectors e_a, so
            # sum_a kappa_a e_a reassembles the ambient representative.
            return self.manifold.project(q, [k * 0.5 for k in kap2])
        gram = [[self.metric.g(q, u, v) for v in tests] for u in tests]
        coef = solve_linear(gram, [k * 0.5 for k in kap2])
        out = [0.0] * self.manifold.ambient_dim
        for c, t in zip(coef, tests):
            out = [a + c * b for a, b in zip(out, t)]
        return out

    def _koszul_rhs(self, q, Xf, Yf):
        """2 g(nabla_X Y, E_a) for each test field E_a, plus the E_a(q)."""
        man, met = self.manifold, self.metric
        Xq, Yf_q = Xf(q), Yf(q)
        if met.euclidean:
            hats = [list(r) for r in np.eye(man.ambient_dim)]
        else:
            hats = [list(r) for r in self.tangent_frame(q)]
        E_fields = [lambda r, h=h: man.project(r, h) for h in hats]
        Eq = [Ef(q) for Ef in E_fields]

        def against_tests(F):
            # g(F, E_a) for every test field, F itself and every E_a
            def fn(rs):
                F_rs = F(rs)
                E_rs = [Ef(rs) for Ef in E_fields]
                return [met.g(rs, F_rs, E) for E in E_rs], F_rs, E_rs

            return fn

        # shared curves along X and along the value of Y
        t1, dXY, dXE = along(against_tests(Yf), q, Xq)
        t2, dYX, dYE = along(against_tests(Xf), q, Yf_q)
        bXY = vsub(dXY, dYX)

        # curve along E_a: t3 and the E_a-derivatives of X and Y
        def g_xy(rs):
            X_rs, Y_rs = Xf(rs), Yf(rs)
            return met.g(rs, X_rs, Y_rs), X_rs, Y_rs

        kap2 = []
        for a, Ea in enumerate(Eq):
            t3, dEX, dEY = along(g_xy, q, Ea)
            bXE = vsub(dXE[a], dEX)
            bYE = vsub(dYE[a], dEY)
            kap2.append(
                t1[a] + t2[a] - t3
                + met.g(q, bXY, Ea)
                - met.g(q, bXE, Yf_q)
                - met.g(q, bYE, Xq)
            )
        return kap2, Eq

    # ------------------------------------------------------------------
    # curvature
    # ------------------------------------------------------------------

    def curvature(self, p, x, y, z):
        """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
        at the float point p, inputs extended by the fixed convention."""
        self.check_metric(p)
        Xf, Yf, Zf = self.extend(x), self.extend(y), self.extend(z)
        Wyz = lambda r: self.covariant(r, Yf, Zf)
        Wxz = lambda r: self.covariant(r, Xf, Zf)
        term_a = self.covariant(p, Xf, Wyz)
        term_b = self.covariant(p, Yf, Wxz)
        bxy = self.manifold.project(p, self.bracket(p, Xf, Yf))
        term_c = self.covariant(p, self.extend(bxy), Zf)
        return vsub(vsub(term_a, term_b), term_c)
