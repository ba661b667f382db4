"""Torus actions on spheres through weight matrices.

A d-torus acts by (t, z) -> (e^{i <w_1, t>} z_1, ..., e^{i <w_n, t>} z_n)
where column j of the d x n weight matrix W holds the weights of z_j.
Real weights are admitted (non-integer entries give an R^d-action rather
than a genuine torus; reports flag this but nothing downstream needs
compactness).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances
from .errors import ZeroMu
from .jets import expand, value, vector
from .vecops import cmult, lane_stack, per_coordinate, svd_rank, vsum


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

    @cached_property
    def matrix(self):
        W = np.asarray(self.weights, dtype=float)
        W.flags.writeable = False
        return W

    @property
    def integral(self):
        W = self.matrix
        return bool(np.all(np.abs(W - np.round(W)) < 1e-12))

    def fundamental_field(self, r, q):
        """Generator of the one-parameter subgroup exp(t r) at q.

        Component j rotates with angular speed s_j = sum_k r_k W_{kj}: the
        field is s_j (i q)_j, a signed permutation of q scaled per
        coordinate; the evaluator is jet-generic.
        """
        q = vector(q)
        speeds = [sum(rk * wk[j] for rk, wk in zip(r, self.weights)) for j in range(self.n)]
        return per_coordinate(np.repeat(speeds, 2), q) * cmult(q)

    def momentum(self, q):
        """Contact momentum J(q)_k = sum_j W_{kj} |z_j|^2, the vector
        (d,) + lanes, each an ordered sum over j (jet-generic)."""
        q = vector(q)
        sq = q * q
        mods = sq[0::2] + sq[1::2]
        nd = np.ndim(value(sq))
        return vsum(np.reshape(self.matrix.T, (self.n, self.d) + (1,) * (nd - 1))
                    * expand(mods, nd + 1))

    def momentum_jacobian(self, q):
        """d x 2n float Jacobian of the momentum, (d, 2n) + lanes at lanes."""
        q = np.asarray(q, dtype=float)
        twice = 2.0 * np.repeat(self.matrix, 2, axis=1)
        return np.reshape(twice, twice.shape + (1,) * (q.ndim - 1)) * q


@dataclass(frozen=True)
class MomentumCovector:
    """A nonzero element of the dual torus algebra, with its ray data."""

    mu: tuple

    @classmethod
    def of(cls, mu):
        mu = tuple(float(x) for x in np.ravel(mu))
        if all(x == 0.0 for x in mu):
            raise ZeroMu("momentum covector must be nonzero")
        return cls(mu)

    def scaled(self):
        """(mu 2^-e, e) with 2^e the power of two of max|mu|.  The scaling
        is exact, and the squares of the scaled entries do not underflow
        where those of mu would be subnormal; where they are normal,
        every quantity below keeps the bits of the unscaled formula."""
        e = math.frexp(max(abs(x) for x in self.mu))[1]
        return np.asarray([math.ldexp(x, -e) for x in self.mu]), e

    @cached_property
    def ray_terms(self):
        """(m, e, m . m, mu) with (m, e) = ``scaled()`` and mu as an array,
        read-only and formed once: what ``ray_membership`` reads of mu."""
        m, e = self.scaled()
        line = np.asarray(self.mu, dtype=float)
        m.flags.writeable = line.flags.writeable = False
        return m, e, np.dot(m, m), line

    @cached_property
    def norm(self):
        m, e = self.scaled()
        return math.ldexp(float(np.linalg.norm(m)), e)

    @cached_property
    def unit(self):
        m, _ = self.scaled()
        nrm = float(np.linalg.norm(m))
        return tuple(float(x) / nrm for x in m)


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
    j = np.asarray(j_val, dtype=float)
    m, e, mm, line = mu.ray_terms
    s = math.ldexp(float(np.dot(j, m) / mm), -e)
    residual = float(np.linalg.norm(j - s * line))
    if residual >= tol:
        return RayClass("outside", s, residual)
    if abs(s) * mu.norm < tol:
        return RayClass("on_zero", 0.0, residual)
    if s > 0:
        return RayClass("on_positive_ray", s, residual)
    return RayClass("on_negative_ray", -s, residual)


def local_freeness(action, kernel, p):
    """Rank of the kernel-algebra fundamental fields at p (SVD threshold
    from the tolerance ledger); degenerate when below the algebra dim.
    At a lane point one stacked SVD serves every sample, and rank,
    degeneracy and singular values come back per sample (arrays)."""
    rows = [action.fundamental_field(b, p) for b in kernel.basis]
    k = len(rows)
    if k == 0:
        return 0, False, []
    svals = np.linalg.svd(lane_stack(rows), compute_uv=False)
    rank = svd_rank(svals)
    if svals.ndim == 2:
        return rank, rank < k, svals
    return int(rank), bool(rank < k), [float(s) for s in svals]
