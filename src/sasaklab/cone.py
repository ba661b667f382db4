"""Symplectic cone over the sphere: momenta, the restriction identity
and the three-stratum split of the kernel-group zero level.

The cone metric is r^2 g + dr^2 on M x R_+.  The symplectic momentum of
the lifted torus action is the degree-2 homogeneous extension
J_s(z, r) = r^2 J(z): it restricts to the contact momentum at r = 1 and
is the unique extension equivariant under cone dilations.  The pairing
oracle iota_{X_M} d(r^2 eta) = d<J_s, X> fixes the convention before
any stratification claim is tested.
"""

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .actions import MomentumCovector, kernel_algebra, ray_membership
from .errors import StratificationLeak
from .jets import value
from .reduction import sample_zero_level
from .tensor_kernel import AmbientPoint, orthogonal_tail
from .vecops import as_list, vdot, vvalue


@dataclass(frozen=True)
class ConePoint:
    """A point (base, r) of the cone M x R_+; the apex is excluded."""

    base: AmbientPoint
    r: float

    def __post_init__(self):
        if not self.r > 1e-12:
            raise ValueError(f"cone radius must be positive, got {self.r!r}")

    @classmethod
    def of(cls, base, r):
        base = base if isinstance(base, AmbientPoint) else AmbientPoint.of(base)
        return cls(base, float(r))


def cone_metric(cp, xu, yv):
    """r^2 g(X, Y) + rho sigma for tangent-with-radial pairs (X, rho)."""
    x, rho = xu
    y, sigma = yv
    return cp.r * cp.r * vdot(as_list(x), as_list(y)) + rho * sigma


def symplectic_momentum(action, cp):
    """J_s(z, r) = r^2 J(z)."""
    j = action.momentum(cp.base.as_list())
    return [cp.r * cp.r * float(value(c)) for c in j]


def symplectic_pairing_residual(action, cp, rvec, seed=0):
    """Oracle fixing the momentum convention on the cone.

    With the potential lambda = r^2 eta and the exterior-derivative
    convention d a(U,V) = U a(V) - V a(U) - a([U,V]), invariance of
    lambda under the lifted action gives iota_{X_M} d(lambda) =
    - d<J_s, X>.  The residual of that identity is returned for a
    random cone tangent vector; it vanishing for J_s = r^2 J is what
    certifies the homogeneous extension.
    """
    from .jets import along
    from .manifolds import Sphere
    from .structures import _eta0

    p = cp.base.as_list()
    r = cp.r
    sphere = Sphere(len(p))
    rng = np.random.default_rng(seed)
    w_base = rng.standard_normal(len(p))
    w_base -= np.dot(w_base, p) * np.asarray(p)
    w_base = list(w_base)
    w_r = float(rng.standard_normal())

    xm_field = lambda z: action.fundamental_field(rvec, z)
    w_field = lambda z: sphere.project(z, w_base)

    def lam_on(field):
        # lambda evaluated on the lift (field(z), 0); the radial slot of
        # both our fields carries no eta-component.
        def ev(zr):
            z, rr = zr[:-1], zr[-1]
            return rr * rr * _eta0(z, field(z))

        return ev

    def hamiltonian(zr):
        z, rr = zr[:-1], zr[-1]
        j = action.momentum(z)
        return rr * rr * vdot([float(x) for x in rvec], j)

    xm_p = vvalue(xm_field(p))

    # curve along the lifted X_M = (X_M, 0)
    t1, d_xm_w = along(lambda zr: (lam_on(w_field)(zr), w_field(zr[:-1])),
                       p + [r], xm_p + [0.0])

    # curve along the test vector (w_base projected, w_r)
    t2, d_w_xm, dH = along(
        lambda zr: (lam_on(xm_field)(zr), xm_field(zr[:-1]), hamiltonian(zr)),
        p + [r], w_base + [w_r])

    bracket = [a - b for a, b in zip(d_xm_w, d_w_xm)]
    lam_bracket = r * r * value(_eta0(p, bracket))
    dlam = value(t1) - value(t2) - lam_bracket
    return abs(dlam + value(dH))


def iota_transpose_residual(action, mu, cp):
    """Phi computed two ways: pairing J_s with the kernel basis versus
    the momentum of the restricted action; returns the max difference."""
    kern = kernel_algebra(mu)
    js = symplectic_momentum(action, cp)
    path_a = [float(np.dot(js, b)) for b in kern.matrix] if kern.k else []

    p = cp.base.as_list()
    path_b = []
    for b in kern.matrix:
        # momentum of the one-parameter subgroup through b: eta(b_M)
        from .structures import _eta0

        xm = action.fundamental_field(b, p)
        path_b.append(cp.r * cp.r * float(value(_eta0(p, xm))))
    if not path_a:
        return 0.0
    return max(abs(a - b) for a, b in zip(path_a, path_b))


def kernel_momentum(action, mu, p):
    """Phi(p) = iota^t(J(p)): the momentum of the kernel-group action."""
    kern = kernel_algebra(mu)
    j = np.asarray([float(value(c)) for c in action.momentum(as_list(p))])
    return [float(np.dot(j, b)) for b in kern.matrix] if kern.k else []


def sample_phi_zero(action, mu, count, seed):
    """Samples of the kernel-group zero level Phi^{-1}(0) = J^{-1}(R mu)."""
    kern = kernel_algebra(mu)
    if kern.k == 0:
        raise ValueError("kernel group is trivial: Phi has no components")
    return sample_zero_level(action, kern.matrix, count, seed)


@dataclass
class StratumCensus:
    counts: dict
    samples: list  # (point, label, s, residual)


def stratify(action, mu, points, tol=None):
    """Classify momentum-zero samples of the kernel group by the ray of
    J; a sample outside every stratum is a tolerance breach."""
    mu = mu if isinstance(mu, MomentumCovector) else MomentumCovector.of(mu)
    tol = tolerances.DEFAULTS["stratification"] if tol is None else tol
    label_of = {
        "on_positive_ray": "positive_stratum",
        "on_zero": "zero_stratum",
        "on_negative_ray": "negative_stratum",
    }
    counts = {"positive_stratum": 0, "zero_stratum": 0, "negative_stratum": 0}
    rows = []
    for pt in points:
        p = pt.as_list() if hasattr(pt, "as_list") else as_list(pt)
        j = [float(value(c)) for c in action.momentum(p)]
        cls = ray_membership(j, mu, tol=tol)
        if cls.kind == "outside":
            raise StratificationLeak(
                f"momentum-zero sample classified outside (residual {cls.residual:.3e})"
            )
        label = label_of[cls.kind]
        counts[label] += 1
        rows.append((p, label, cls.s, cls.residual))
    return StratumCensus(counts, rows)


def zero_stratum_degeneracy(structure, action, mu, p):
    """Kernel dimension of d(eta) on the horizontal contact directions of
    the J = 0 stratum; positive kernel means the projected form is not
    contact there."""
    mu = mu if isinstance(mu, MomentumCovector) else MomentumCovector.of(mu)
    kern = kernel_algebra(mu)
    p = as_list(p)
    S = structure

    G = np.vstack([2.0 * np.asarray(p, dtype=float), action.momentum_jacobian(p)])
    _, sv, vt = np.linalg.svd(G)
    rank = int(np.sum(sv > tolerances.DEFAULTS["rank_singular_value"] * max(1.0, sv[0])))
    tangent = [list(r) for r in vt[rank:]]

    vert = [vvalue(action.fundamental_field(b, p)) for b in kern.matrix]
    vert = [v for v in vert if float(np.linalg.norm(v)) > 1e-10]
    xi = vvalue(S.reeb(p))
    horiz = orthogonal_tail(S.metric, p, vert + [xi], tangent)

    m = len(horiz)
    D = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                D[i, j] = value(S.d_eta(p, horiz[i], horiz[j]))
    antisym = float(np.max(np.abs(D + D.T))) if m else 0.0
    if m:
        sv = np.linalg.svd(D, compute_uv=False)
        rk = int(np.sum(sv > tolerances.DEFAULTS["rank_singular_value"] * max(1.0, sv[0])))
    else:
        rk = 0
    return {
        "horizontal_dim": m,
        "rank": rk,
        "kernel_dim": m - rk,
        "antisymmetry": antisym,
    }
