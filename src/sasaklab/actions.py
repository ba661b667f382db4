"""Torus actions on spheres through weight matrices.

A d-torus acts by (t, z) -> (e^{i <w_1, t>} z_1, ..., e^{i <w_n, t>} z_n)
where column j of the d x n weight matrix W holds the weights of z_j.
Real weights are admitted (non-integer entries give an R^d-action rather
than a genuine torus; reports flag this but nothing downstream needs
compactness).
"""

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import ZeroMu
from .vecops import as_list, vdot


@dataclass(frozen=True)
class TorusAction:
    """Weight-matrix action of T^d on S^{2n-1}."""

    weights: tuple  # d rows of n reals

    @classmethod
    def of(cls, W):
        W = np.atleast_2d(np.asarray(W, dtype=float))
        return cls(tuple(tuple(float(x) for x in row) for row in W))

    @property
    def d(self):
        return len(self.weights)

    @property
    def n(self):
        return len(self.weights[0])

    @property
    def matrix(self):
        return np.asarray(self.weights, dtype=float)

    @property
    def integral(self):
        W = self.matrix
        return bool(np.all(np.abs(W - np.round(W)) < 1e-12))

    def fundamental_field(self, r, q):
        """Generator of the one-parameter subgroup exp(t r) at q.

        Component j rotates with angular speed sum_k r_k W_{kj}; the
        evaluator is jet-generic.
        """
        speeds = [sum(rk * wk[j] for rk, wk in zip(r, self.weights)) for j in range(self.n)]
        out = []
        for j, s in enumerate(speeds):
            out.append(-s * q[2 * j + 1])
            out.append(s * q[2 * j])
        return out

    def momentum(self, q):
        """Contact momentum J(q)_k = sum_j W_{kj} |z_j|^2 (jet-generic)."""
        mods = []
        for j in range(self.n):
            x, y = q[2 * j], q[2 * j + 1]
            mods.append(x * x + y * y)
        return [vdot(list(wk), mods) for wk in self.weights]

    def momentum_jacobian(self, q):
        """d x 2n float Jacobian of the momentum at a float point."""
        q = as_list(q)
        rows = []
        for wk in self.weights:
            row = []
            for j in range(self.n):
                row.append(2.0 * wk[j] * q[2 * j])
                row.append(2.0 * wk[j] * q[2 * j + 1])
            rows.append(row)
        return np.asarray(rows, dtype=float)


@dataclass(frozen=True)
class MomentumCovector:
    """A nonzero element of the dual torus algebra, with its ray data."""

    mu: tuple

    @classmethod
    def of(cls, mu):
        mu = tuple(float(x) for x in as_list(mu))
        if all(x == 0.0 for x in mu):
            raise ZeroMu("momentum covector must be nonzero")
        return cls(mu)

    @property
    def norm(self):
        return float(np.linalg.norm(self.mu))

    @property
    def unit(self):
        return tuple(x / self.norm for x in self.mu)


@dataclass(frozen=True)
class KernelAlgebra:
    """Orthonormal basis of ker(mu) in R^d, deterministic ordering."""

    mu: MomentumCovector
    basis: tuple  # k = d-1 rows

    @property
    def k(self):
        return len(self.basis)

    @property
    def matrix(self):
        d = len(self.mu.mu)
        return np.asarray(self.basis, dtype=float).reshape(len(self.basis), d)


def kernel_algebra(mu):
    """ker(mu) with a fixed pivoting rule: complete mu/|mu| to a basis by
    Gram-Schmidt over the standard basis vectors in index order."""
    if not isinstance(mu, MomentumCovector):
        mu = MomentumCovector.of(mu)
    d = len(mu.mu)
    rows = [np.asarray(mu.unit, dtype=float)]
    for i in range(d):
        cand = np.zeros(d)
        cand[i] = 1.0
        for r in rows:
            cand = cand - np.dot(cand, r) * r
        nrm = float(np.linalg.norm(cand))
        if nrm > 1e-12:
            rows.append(cand / nrm)
    basis = tuple(tuple(float(x) for x in r) for r in rows[1:])
    return KernelAlgebra(mu, basis)


def slice_condition(mu):
    """ker(mu) + g_mu = g.  For a torus g_mu = g, so the condition always
    holds; the rank is still computed and reported."""
    mu = mu if isinstance(mu, MomentumCovector) else MomentumCovector.of(mu)
    d = len(mu.mu)
    ker = kernel_algebra(mu).matrix
    stack = np.vstack([ker, np.eye(d)]) if ker.size else np.eye(d)
    rank = int(np.linalg.matrix_rank(stack, tol=tolerances.RANK_SINGULAR_VALUE))
    return rank == d, {"dim_sum": rank, "dim_g": d, "note": "abelian: g_mu = g"}


@dataclass(frozen=True)
class RayClass:
    """Outcome of classifying a momentum value against the ray R mu."""

    kind: str  # on_positive_ray | on_zero | on_negative_ray | outside
    s: float
    residual: float


def ray_membership(j_val, mu, tol=None):
    """Least-squares ray parameter s = <J, mu>/|mu|^2 and classification
    of J against the line R mu."""
    tol = tolerances.DEFAULTS["stratification"] if tol is None else tol
    mu = mu if isinstance(mu, MomentumCovector) else MomentumCovector.of(mu)
    j = np.asarray(as_list(j_val), dtype=float)
    m = np.asarray(mu.mu, dtype=float)
    s = float(np.dot(j, m) / np.dot(m, m))
    residual = float(np.linalg.norm(j - s * m))
    if residual >= tol:
        return RayClass("outside", s, residual)
    if abs(s) * mu.norm < tol:
        return RayClass("on_zero", 0.0, residual)
    if s > 0:
        return RayClass("on_positive_ray", s, residual)
    return RayClass("on_negative_ray", -s, residual)


def local_freeness(action, kernel, p):
    """Rank of the kernel-algebra fundamental fields at p (SVD threshold
    from the tolerance ledger); degenerate when below the algebra dim."""
    rows = [action.fundamental_field(b, as_list(p)) for b in kernel.basis]
    k = len(rows)
    if k == 0:
        return 0, False, []
    M = np.asarray(rows, dtype=float)
    svals = np.linalg.svd(M, compute_uv=False)
    tol = tolerances.RANK_SINGULAR_VALUE * max(1.0, float(svals[0]))
    rank = int(np.sum(svals > tol))
    return rank, rank < k, [float(s) for s in svals]
