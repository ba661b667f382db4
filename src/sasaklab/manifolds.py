"""Embedded manifolds described by constraint functions.

Everything is extrinsic: a manifold is the common zero set of smooth
constraints on R^{2n}, tangent spaces are kernels of the constraint
differentials, and tangent projection works at jet-valued points so the
same formulas can be differentiated.
"""

import numpy as np

from . import tolerances
from .jets import leafwise, value, vector
from .vecops import agreed, lane_stack, per_coordinate, solve_linear, svd_rank, vdot


class Constraint:
    """A scalar constraint with an analytic gradient, jet-evaluable."""

    def value(self, q):
        raise NotImplementedError

    def grad(self, q):
        raise NotImplementedError


class SphereConstraint(Constraint):
    """|q|^2 - 1 = 0."""

    def value(self, q):
        return vdot(q, q) - 1.0

    def grad(self, q):
        return q * 2.0


class LinearConstraint(Constraint):
    """<a, q> = 0 for a fixed ambient covector a."""

    def __init__(self, a):
        self.a = np.array(a, dtype=float)

    def value(self, q):
        return vdot(self.a, q)

    def grad(self, q):
        return per_coordinate(self.a, q)


class ModuliConstraint(Constraint):
    """sum_j c_j |z_j|^2 = 0 for fixed real coefficients c."""

    def __init__(self, c):
        self.c = [float(x) for x in c]
        twice = np.repeat([2.0 * cj for cj in self.c], 2)
        self._twice, self._on = twice, twice != 0.0

    def value(self, q):
        sq = q * q
        mods = sq[0::2] + sq[1::2]  # x * x + y * y of each block
        if type(mods) is np.ndarray and mods.ndim == 1:
            mods = mods.tolist()  # a float point: Python floats round alike
        acc = 0.0
        for j, cj in enumerate(self.c):
            if cj != 0.0:
                acc = acc + cj * mods[j]
        return acc

    def grad(self, q):
        """2 c_j q on the blocks with c_j != 0, exact zeros elsewhere."""
        on = per_coordinate(self._on, q)
        return leafwise(lambda a: np.where(on, a, 0.0), per_coordinate(self._twice, q) * q)


class EmbeddedManifold:
    """Zero set of constraints, with jet-generic tangent projection."""

    def __init__(self, ambient_dim, constraints):
        self.ambient_dim = ambient_dim
        self.constraints = list(constraints)
        self.dim = ambient_dim - len(self.constraints)

    def constraint_values(self, q):
        return [c.value(q) for c in self.constraints]

    def constraint_grads(self, q):
        return [c.grad(q) for c in self.constraints]

    def project(self, q, v):
        """Euclidean-orthogonal projection of v onto ker of the constraint
        differentials at q.  Works on jet scalars."""
        q, v = vector(q), vector(v)
        grads = self.constraint_grads(q)
        if not grads:
            return v
        gram = [[vdot(gi, gj) for gj in grads] for gi in grads]
        rhs = [vdot(gi, v) for gi in grads]
        coef = solve_linear(gram, rhs)
        out = v
        for ci, gi in zip(coef, grads):
            out = out - ci * gi
        return out

    def tangent_basis(self, p):
        """Deterministic Euclidean-orthonormal basis of the tangent space
        at a float point, via SVD of the constraint Jacobian: an array of
        rows (r, m).  At a lane point one stacked SVD serves every sample,
        the rank is decided per sample and must agree (``vecops.agreed``),
        and the rows come back as lane vectors (r, m, lanes)."""
        grads = lane_stack(self.constraint_grads(vector(p)))
        if grads.size == 0:
            return np.eye(self.ambient_dim)
        _, s, vt = np.linalg.svd(grads)
        rank = agreed(svd_rank(s))
        if vt.ndim == 2:
            return vt[rank:]
        return np.ascontiguousarray(np.moveaxis(vt[:, rank:], 0, -1))

    def residual(self, p):
        return max(abs(value(v)) for v in self.constraint_values(p))

    def newton_refine(self, p):
        """Gauss-Newton pullback onto the constraint set at a float point.

        Returns (point, residual), the residual being ``residual(point)``:
        when the constraints fall under ``REFINE_TOL`` it is read off the
        values that stopped the iteration, and only after
        ``REFINE_MAX_ITER`` steps are they evaluated again.  The point is a
        float vector."""
        x = p if type(p) is np.ndarray else np.asarray(value(vector(p)), dtype=float)
        for _ in range(tolerances.REFINE_MAX_ITER):
            vals = self.constraint_values(x)
            if all(abs(v) < tolerances.REFINE_TOL for v in vals):
                return x, max(abs(v) for v in vals)
            jac = np.asarray(self.constraint_grads(x), dtype=float)
            step, *_ = np.linalg.lstsq(jac, np.asarray(vals, dtype=float), rcond=None)
            x = x - step
        return x, self.residual(x)


class Sphere(EmbeddedManifold):
    """Unit sphere S^{m-1} in R^m (m = 2n for the complex picture)."""

    def __init__(self, ambient_dim):
        super().__init__(ambient_dim, [SphereConstraint()])

    def project(self, q, v):
        # v - (<v,q>/<q,q>) q ; the <q,q> division keeps the formula
        # smooth off the sphere, where nested jet curves wander.
        q, v = vector(q), vector(v)
        f = vdot(v, q) / vdot(q, q)
        return v - q * f
