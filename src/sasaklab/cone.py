"""Symplectic cone over the sphere: momenta, the restriction identity
and the three-stratum split of the kernel-group zero level.

The cone metric is r^2 g + dr^2 on M x R_+.  The symplectic momentum of
the lifted torus action is the degree-2 homogeneous extension
J_s(z, r) = r^2 J(z): it restricts to the contact momentum at r = 1 and
is the unique extension equivariant under cone dilations.  The pairing
oracle iota_{X_M} d(r^2 eta) = d<J_s, X> fixes the convention before
any stratification claim is tested.  A batch of cone points runs as lanes.
"""

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .actions import MomentumCovector, kernel_algebra, ray_membership
from .errors import StratificationLeak
from .jets import value
from .reduction import sample_zero_level
from .tensor_kernel import orthogonal_tail, unit_points
from .vecops import lane_max, split_lanes, stack_lanes, svd_rank, vdot


@dataclass(frozen=True)
class ConePoint:
    """A point (base, r) of the cone M x R_+, the apex excluded, base a
    unit vector; or a batch, base (count, m) and r (count,)."""

    base: np.ndarray
    r: object

    def __post_init__(self):
        if not np.all(np.asarray(self.r) > 1e-12):
            raise ValueError(f"cone radius must be positive, got {self.r!r}")

    @classmethod
    def of(cls, base, r):
        r = float(r) if np.ndim(r) == 0 else np.array(r, dtype=float)
        return cls(unit_points(np.array(base, dtype=float)), r)


def _coords(cp):
    """(coordinates, r) of a cone point, or of a batch as lanes: entry k
    of the coordinates, and r, hold every point's value."""
    (r,) = stack_lanes(np.reshape(cp.r, (-1, 1)))
    return stack_lanes(np.atleast_2d(cp.base)), r


def symplectic_momentum(action, cp):
    """J_s(z, r) = r^2 J(z).  cp is a cone point, or a batch that runs
    as lanes: each entry of J_s then holds every point's value."""
    p, r = _coords(cp)
    return r * r * value(action.momentum(p))


def symplectic_pairing_residual(action, cp, rvec, seed=0, tangent=None):
    """Oracle fixing the momentum convention on the cone.

    With the potential lambda = r^2 eta and the exterior-derivative
    convention d a(U,V) = U a(V) - V a(U) - a([U,V]), invariance of
    lambda under the lifted action gives iota_{X_M} d(lambda) =
    - d<J_s, X>.  The residual of that identity is returned for a
    random cone tangent vector; it vanishing for J_s = r^2 J is what
    certifies the homogeneous extension.  The test vector (w, w_r), w
    projected to T S, is ``tangent`` or else from ``default_rng(seed)``.
    """
    from .jets import along
    from .manifolds import Sphere
    from .structures import _eta0

    p, r = np.array(cp.base), cp.r
    sphere = Sphere(len(p))
    if tangent is None:
        tangent = np.random.default_rng(seed).standard_normal(len(p) + 1)
    w_base = tangent[:-1] - np.dot(tangent[:-1], p) * p
    w_r = float(tangent[-1])

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
        return rr * rr * vdot(np.asarray(rvec, dtype=float), j)

    xm_p = value(xm_field(p))
    pr = np.append(p, r)

    # curve along the lifted X_M = (X_M, 0)
    t1, d_xm_w = along(lambda zr: (lam_on(w_field)(zr), w_field(zr[:-1])),
                       pr, np.append(xm_p, 0.0))

    # curve along the test vector (w_base projected, w_r)
    t2, d_w_xm, dH = along(
        lambda zr: (lam_on(xm_field)(zr), xm_field(zr[:-1]), hamiltonian(zr)),
        pr, np.append(w_base, w_r))

    bracket = d_xm_w - d_w_xm
    lam_bracket = r * r * value(_eta0(p, bracket))
    dlam = value(t1) - value(t2) - lam_bracket
    return abs(dlam + value(dH))


def iota_transpose_residual(action, mu, cp):
    """Phi computed two ways: pairing J_s with the kernel basis versus
    the momentum of the restricted action; returns the max difference.

    For a batch of cone points, which run as lanes, an array comes back,
    one value per point.  J_s and eta(b_M) for each kernel row b run
    once over the lanes; only the d-length pairing of J_s with the
    kernel basis runs per point, on the point's float row, since
    ``np.dot`` does not round as an elementwise sum does.
    """
    from .structures import _eta0

    kern = kernel_algebra(mu)
    p, r = _coords(cp)
    js = symplectic_momentum(action, cp)
    # momentum of the one-parameter subgroup through b: eta(b_M)
    path_b = [r * r * value(_eta0(p, action.fundamental_field(b, p))) for b in kern.matrix]
    rows = split_lanes(js)
    rows = [js] if rows is None else rows
    worst = np.zeros(len(rows))
    if path_b:
        path_a = np.array([[np.dot(row, b) for row in rows] for b in kern.matrix])
        worst = lane_max([abs(a - b) for a, b in zip(path_a, path_b)])
    return float(worst[0]) if np.ndim(cp.base) == 1 else worst


def momentum_identities(action, mu, cps):
    """Three residuals per cone point of the batch cps, which runs as
    lanes, each as an array, one value per point:

    - iota_transpose: ``iota_transpose_residual``;
    - homogeneity: max_k |J_s(z, r)_k - r^2 J_s(z, 1)_k|;
    - restriction: max_k |J_s(z, 1)_k - J(z)_k|.
    """
    p, r = _coords(cps)
    js_r = symplectic_momentum(action, cps)
    js_1 = symplectic_momentum(action, ConePoint(cps.base, np.ones(len(cps.base))))
    homogeneity = lane_max(list(abs(js_r - r * r * js_1)))
    restriction = lane_max(list(abs(js_1 - value(action.momentum(p)))))
    return (iota_transpose_residual(action, mu, cps),
            *(np.broadcast_to(x, (len(cps.base),)) for x in (homogeneity, restriction)))


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
    """Classify momentum-zero samples of the kernel group, the rows of a
    (count, m) array (or a list of points), by the ray of J; a sample
    outside every stratum is a tolerance breach.  J runs once over all
    the points as lanes; each point's float row is then classified on its
    own, with mu's ray data formed once."""
    mu = mu if isinstance(mu, MomentumCovector) else MomentumCovector.of(mu)
    tol = tolerances.DEFAULTS["stratification"] if tol is None else tol
    label_of = {"on_positive_ray": "positive_stratum", "on_zero": "zero_stratum",
                "on_negative_ray": "negative_stratum"}
    counts = dict.fromkeys(label_of.values(), 0)
    ps = np.asarray(points, dtype=float)
    if not len(ps):
        return StratumCensus(counts, [])
    j = value(action.momentum(stack_lanes(ps)))
    rows = []
    for p, j_p in zip(ps.tolist(), [j] if len(ps) == 1 else split_lanes(j)):
        cls = ray_membership(j_p, mu, tol=tol)
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
    contact there.  d(eta) is the jet evaluation ``d_eta_jet``, built from
    eta alone and not from the closed form that ``reduce`` reads, so its
    antisymmetry row checks the jet and the rank does not rest on the
    closed form."""
    mu = mu if isinstance(mu, MomentumCovector) else MomentumCovector.of(mu)
    kern = kernel_algebra(mu)
    p = np.array(p, dtype=float)
    S = structure

    G = np.vstack([2.0 * p, action.momentum_jacobian(p)])
    _, sv, vt = np.linalg.svd(G)
    tangent = vt[svd_rank(sv):]

    vert = [value(action.fundamental_field(b, p)) for b in kern.matrix]
    vert = [v for v in vert if float(np.linalg.norm(v)) > tolerances.VERTICAL_FIELD_NORM]
    xi = value(S.reeb(p))
    horiz = orthogonal_tail(S.metric, p, vert + [xi], tangent)

    m = len(horiz)
    D = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                D[i, j] = value(S.d_eta_jet(p, horiz[i], horiz[j]))
    antisym = float(np.max(np.abs(D + D.T))) if m else 0.0
    rk = int(svd_rank(np.linalg.svd(D, compute_uv=False))) if m else 0
    return {
        "horizontal_dim": m,
        "rank": rk,
        "kernel_dim": m - rk,
        "antisymmetry": antisym,
    }
