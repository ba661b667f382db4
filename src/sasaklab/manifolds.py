"""Embedded manifolds described by constraint functions.

Everything is extrinsic: a manifold is the common zero set of smooth
constraints on R^{2n}, tangent spaces are kernels of the constraint
differentials, and tangent projection works at jet-valued points so the
same formulas can be differentiated.
"""

import numpy as np

from . import tolerances
from .vecops import solve_linear, vdot, vscale, vsub, vvalue


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
        return vscale(q, 2.0)


class LinearConstraint(Constraint):
    """<a, q> = 0 for a fixed ambient covector a."""

    def __init__(self, a):
        self.a = [float(x) for x in a]

    def value(self, q):
        return vdot(self.a, q)

    def grad(self, q):
        return list(self.a)


class ModuliConstraint(Constraint):
    """sum_j c_j |z_j|^2 = 0 for fixed real coefficients c."""

    def __init__(self, c):
        self.c = [float(x) for x in c]

    def value(self, q):
        acc = 0.0
        for j, cj in enumerate(self.c):
            if cj != 0.0:
                x, y = q[2 * j], q[2 * j + 1]
                acc = acc + cj * (x * x + y * y)
        return acc

    def grad(self, q):
        g = [0.0] * len(q)
        for j, cj in enumerate(self.c):
            if cj != 0.0:
                g[2 * j] = 2.0 * cj * q[2 * j]
                g[2 * j + 1] = 2.0 * cj * q[2 * j + 1]
        return g


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
        grads = self.constraint_grads(q)
        k = len(grads)
        if k == 0:
            return list(v)
        gram = [[vdot(gi, gj) for gj in grads] for gi in grads]
        rhs = [vdot(gi, v) for gi in grads]
        coef = solve_linear(gram, rhs)
        out = list(v)
        for ci, gi in zip(coef, grads):
            out = [a - ci * b for a, b in zip(out, gi)]
        return out

    def tangent_basis(self, p):
        """Deterministic Euclidean-orthonormal basis of the tangent space
        at a float point, via SVD of the constraint Jacobian."""
        grads = np.asarray([vvalue(g) for g in self.constraint_grads(p)], dtype=float)
        if grads.size == 0:
            return np.eye(self.ambient_dim)
        _, s, vt = np.linalg.svd(grads)
        tol = tolerances.RANK_SINGULAR_VALUE * max(1.0, s[0] if len(s) else 1.0)
        rank = int(np.sum(s > tol))
        return vt[rank:]

    def residual(self, p):
        return max(abs(v) for v in vvalue(self.constraint_values(p)))

    def newton_refine(self, p):
        """Gauss-Newton pullback onto the constraint set (float level)."""
        x = np.asarray(vvalue(p), dtype=float)
        for _ in range(tolerances.REFINE_MAX_ITER):
            vals = np.asarray(vvalue(self.constraint_values(list(x))), dtype=float)
            if np.max(np.abs(vals)) < tolerances.REFINE_TOL:
                break
            jac = np.asarray([vvalue(g) for g in self.constraint_grads(list(x))], dtype=float)
            step, *_ = np.linalg.lstsq(jac, vals, rcond=None)
            x = x - step
        return [float(a) for a in x]


class Sphere(EmbeddedManifold):
    """Unit sphere S^{m-1} in R^m (m = 2n for the complex picture)."""

    def __init__(self, ambient_dim):
        super().__init__(ambient_dim, [SphereConstraint()])

    def project(self, q, v):
        # v - (<v,q>/<q,q>) q ; the <q,q> division keeps the formula
        # smooth off the sphere, where nested jet curves wander.
        f = vdot(v, q) / vdot(q, q)
        return vsub(v, vscale(q, f))
