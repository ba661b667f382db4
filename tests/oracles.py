"""Independent oracles used by the tests.

The numerical oracles avoid the jet engine: curvature comes from
central-difference Christoffel symbols in an orthographic chart, and
the weighted metric is evaluated through the closed-form expansion of
its exterior derivative.  Step sizes are fixed, not tuned.  Linear
programs over the moduli polytope are solved by enumerating its vertices,
and the hit-and-run chord is cut one inequality at a time.

The geometric oracles reach the same quantities as the package by a
second route on its own objects: the O'Neill tensor from a bracket, the
shape operator through the Weingarten identity, the Hopf fibration as a
submersion context with frames built from its Reeb circle, the group
action itself, and the kernel-group momentum.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from sasaklab.actions import kernel_algebra
from sasaklab.jets import jsqrt, value
from sasaklab.manifolds import Sphere
from sasaklab.oneill import SubmersionContext
from sasaklab.structures import RoundSphereStructure
from sasaklab.tensor_kernel import gram_schmidt, orthogonal_tail
from sasaklab.vecops import as_list, vscale, vvalue


def chart_basis(p):
    """Orthonormal basis of the tangent space at p (rows), via SVD."""
    p = np.asarray(p, dtype=float)
    _, _, vt = np.linalg.svd(p.reshape(1, -1))
    return vt[1:]


def orthographic_chart(p, E):
    """u in R^{m} -> sqrt(1 - |u|^2) p + E^T u on the sphere."""
    p = np.asarray(p, dtype=float)

    def chart(u):
        u = np.asarray(u, dtype=float)
        return np.sqrt(1.0 - u @ u) * p + E.T @ u

    def pushforward(u, i):
        u = np.asarray(u, dtype=float)
        r = np.sqrt(1.0 - u @ u)
        return -u[i] / r * p + E[i]

    return chart, pushforward


def metric_components(metric_g, p, E, u):
    chart, push = orthographic_chart(p, E)
    q = list(chart(u))
    m = len(E)
    vecs = [list(push(u, i)) for i in range(m)]
    return np.asarray([[float(metric_g(q, vecs[i], vecs[j])) for j in range(m)]
                       for i in range(m)])


def fd_christoffels(metric_g, p, E, u, step):
    """Gamma^k_ij at chart point u by central differences of g_ij."""
    m = len(E)
    g0 = metric_components(metric_g, p, E, u)
    ginv = np.linalg.inv(g0)
    dg = np.zeros((m, m, m))  # dg[l, i, j] = d g_ij / d u_l
    for l in range(m):
        du = np.zeros(m)
        du[l] = step
        gp = metric_components(metric_g, p, E, u + du)
        gm = metric_components(metric_g, p, E, u - du)
        dg[l] = (gp - gm) / (2.0 * step)
    gamma = np.zeros((m, m, m))  # gamma[k, i, j]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                acc = 0.0
                for l in range(m):
                    acc += ginv[k, l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                gamma[k, i, j] = 0.5 * acc
    return gamma


def fd_curvature(metric_g, p, x, y, z, step=1e-4):
    """R(X,Y)Z at p from finite-difference Christoffel symbols.

    R(d_i, d_j) d_k = (d_i Gamma^l_jk - d_j Gamma^l_ik
                       + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik) d_l
    evaluated at the chart origin, then pushed back to ambient vectors.
    """
    E = chart_basis(p)
    m = len(E)
    u0 = np.zeros(m)
    gamma0 = fd_christoffels(metric_g, p, E, u0, step)
    dgamma = np.zeros((m, m, m, m))  # dgamma[i, k, a, b] = d_i Gamma^k_ab
    for i in range(m):
        du = np.zeros(m)
        du[i] = step
        gp = fd_christoffels(metric_g, p, E, u0 + du, step)
        gm = fd_christoffels(metric_g, p, E, u0 - du, step)
        dgamma[i] = (gp - gm) / (2.0 * step)

    xc, yc, zc = (E @ np.asarray(v, dtype=float) for v in (x, y, z))
    out = np.zeros(m)
    for l in range(m):
        acc = 0.0
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    term = dgamma[i, l, j, k] - dgamma[j, l, i, k]
                    for mm in range(m):
                        term += (gamma0[l, i, mm] * gamma0[mm, j, k]
                                 - gamma0[l, j, mm] * gamma0[mm, i, k])
                    acc += xc[i] * yc[j] * zc[k] * term
        out[l] = acc
    return E.T @ out


def product_sphere_h_norm(p, x, block):
    """|h(X,X)| for X unit tangent to one round factor of
    S^3(r) x S^3(rho) inside S^7: equals rho/r for the first block and
    r/rho for the second."""
    p = np.asarray(p, dtype=float)
    r = np.linalg.norm(p[:4])
    rho = np.linalg.norm(p[4:])
    return rho / r if block == 0 else r / rho


def polyhedron_vertices(E, f, G, h, tol=1e-12):
    """Oracle: every vertex of {x : E x = f, G x <= h}, by brute force.

    Each choice of inequalities that, with the equalities, pins x down
    (full column rank) is solved by least squares; the point is a vertex
    when it satisfies the chosen rows and every inequality to ``tol``.
    """
    nv = E.shape[1]
    out = []
    for k in range(min(len(G), nv) + 1):
        for active in itertools.combinations(range(len(G)), k):
            M = np.vstack([E, G[list(active)]])
            r = np.concatenate([f, h[list(active)]])
            if np.linalg.matrix_rank(M) < nv:
                continue
            x = np.linalg.lstsq(M, r, rcond=None)[0]
            if np.max(np.abs(M @ x - r)) <= tol and np.all(G @ x <= h + tol):
                out.append(x)
    return out


def moduli_lp_oracle(n, rows, ray, floor):
    """Oracle for ``reduction.analyze_moduli`` by vertex enumeration on
    {t >= 0, sum t = 1, rows . t = 0, ray . t >= floor}.

    Returns ``(feasible, support, delta)``: the support is every t_j that
    is positive at some vertex, delta the largest smallest margin
    min(t_j on the support, ray . t) over the polytope.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, n)
    E = np.vstack([np.ones((1, n)), rows])
    f = np.concatenate([[1.0], np.zeros(len(rows))])
    G, h = -np.eye(n), np.zeros(n)
    if ray is not None:
        G, h = np.vstack([G, -np.asarray(ray, dtype=float)]), np.append(h, -floor)
    verts = polyhedron_vertices(E, f, G, h)
    if not verts:
        return False, [], None
    support = [j for j in range(n) if max(v[j] for v in verts) > 1e-9]
    # max delta over (t_support, delta): delta <= t_j, delta <= ray . t, delta >= 0
    ns = len(support)
    E2 = np.hstack([E[:, support], np.zeros((len(E), 1))])
    G2 = np.hstack([-np.eye(ns), np.ones((ns, 1))])
    G2 = np.vstack([G2, np.append(np.zeros(ns), -1.0)])
    if ray is not None:
        G2 = np.vstack([G2, np.append(-np.asarray(ray, dtype=float)[support], 1.0)])
    h2 = np.zeros(len(G2))
    delta = max(v[-1] for v in polyhedron_vertices(E2, f, G2, h2))
    return True, support, delta


def hit_and_run_loop(poly, rng, floor, steps=32):
    """Reference for ``reduction._hit_and_run``: the same walk with the
    chord through x cut by one inequality a . t <= b at a time."""
    ns = len(poly.support)
    x = poly.interior[poly.support].copy()
    if poly.null_basis.shape[0] == 0:
        return x
    ineqs = [(-np.eye(ns)[j], 0.0) for j in range(ns)]
    if poly.ray_coeff is not None:
        ineqs.append((-poly.ray_coeff[poly.support], -floor))
    for _ in range(steps):
        d = poly.null_basis.T @ rng.standard_normal(poly.null_basis.shape[0])
        nrm = np.linalg.norm(d)
        if nrm < 1e-14:
            continue
        d /= nrm
        lo, hi = -np.inf, np.inf
        for a, b in ineqs:
            ad = float(a @ d)
            if abs(ad) < 1e-14:
                continue
            lam = float(b - a @ x) / ad
            if ad > 0:
                hi = min(hi, lam)
            else:
                lo = max(lo, lam)
        if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
            continue
        x = x + (lo + (hi - lo) * rng.beta(2.0, 2.0)) * d
    return x


# ----------------------------------------------------------------------
# submersion contexts without a reduction frame
# ----------------------------------------------------------------------


def default_horizontal(ctx):
    """The contact block of TN orthogonal to the vertical frame and the
    Reeb field, followed by the Reeb field unless it is vertical."""
    S = ctx.structure
    reeb = vvalue(S.reeb(ctx.p))
    v_reeb = vvalue(ctx.vertical_project(ctx.p, reeb))
    reeb_is_vertical = (
        max(abs(a - b) for a, b in zip(reeb, v_reeb)) < 1e-8
        if ctx.vertical_fields
        else False
    )
    tangent = [list(r) for r in ctx.manifold.tangent_basis(ctx.p)]
    head = ctx.vertical_frame if reeb_is_vertical else ctx.vertical_frame + [reeb]
    d_block = orthogonal_tail(S.metric, ctx.p, head, tangent)
    return d_block if reeb_is_vertical else d_block + [reeb]


def submersion_context(structure, manifold, vertical_fields, p):
    """A SubmersionContext whose vertical frame is Gram-Schmidt on the
    field values at p and whose horizontal frame is ``default_horizontal``."""
    p = list(p)
    vecs = [vvalue(f(p)) for f in vertical_fields]
    vertical = [list(v) for v in
                gram_schmidt(structure.metric, p, vecs).vectors] if vecs else []
    ctx = SubmersionContext(structure, manifold, vertical_fields, p,
                            horizontal_frame=[], vertical_frame=vertical)
    ctx.horizontal_frame = default_horizontal(ctx)
    return ctx


def hopf_context(p=(1.0, 0.0, 0.0, 0.0)):
    """S^3 -> S^2 with the Reeb circle vertical: the sign gate for the
    O'Neill formula (upstairs curvature 1, downstairs 4)."""
    S = RoundSphereStructure(2)
    return submersion_context(S, Sphere(4), [S.reeb_field], p)


def a_tensor_bracket(ctx, x, y):
    """Independent oracle: A(X,Y) = (1/2) v([X~, Y~])."""
    Xh = ctx.horizontal_extend(x)
    Yh = ctx.horizontal_extend(y)
    b = ctx.geometry.bracket(ctx.p, Xh, Yh)
    return vscale(ctx.vertical_project(ctx.p, b), 0.5)


def weingarten_residual(ctx, row, y, z):
    """Residual of the shape-operator identity for the unit normal
    phi(X_M)/|X_M| attached to the vertical field number ``row``."""
    S = ctx.structure
    g = S.metric.g
    p = ctx.p
    act_field = ctx.vertical_fields[row]
    geo_s = ctx.ambient_geometry

    xm_p = vvalue(act_field(p))
    nrm = math.sqrt(value(g(p, xm_p, xm_p)))

    def nu_field(q):
        xm = act_field(q)
        w = geo_s.covariant(q, act_field, S.reeb_field)
        scale = 1.0 / jsqrt(g(q, xm, xm))
        return [scale * c for c in w]

    Yf = lambda q: ctx.manifold.project(q, vvalue(y))
    dn = geo_s.covariant(p, Yf, nu_field)
    tangent_on, _ = ctx._tangent_frames()
    a_nu_y = [0.0] * len(p)
    for u in tangent_on:
        c = value(g(p, u, dn))
        a_nu_y = [a + (-c) * b for a, b in zip(a_nu_y, u)]
    lhs = value(g(p, a_nu_y, z))

    grad = geo_s.covariant(p, Yf, act_field)
    phi_grad = geo_s.covariant(p, geo_s.extend(vvalue(grad)), S.reeb_field)
    rhs = (
        value(g(p, xm_p, y)) * value(S.eta(p, z))
        - value(g(p, phi_grad, z))
    ) / nrm
    return abs(lhs - rhs)


# ----------------------------------------------------------------------
# structure tensors, the group action and the kernel-group momentum
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StructureTensors:
    """Pointwise tensor data of a structure on an orthonormal frame."""

    point: tuple
    gram: np.ndarray
    eta_covector: np.ndarray
    reeb: tuple
    phi_matrix: np.ndarray  # phi in frame coordinates


def tensors_at(structure, p, vectors=None):
    """StructureTensors on a deterministic orthonormal tangent frame."""
    S = structure
    p = as_list(p)
    if vectors is None:
        vectors = [list(r) for r in S.sphere.tangent_basis(p)]
    frame = gram_schmidt(S.metric, p, vectors)
    rows = [list(v) for v in frame.vectors]
    gram = np.asarray(
        [[value(S.metric.g(p, u, v)) for v in rows] for u in rows], dtype=float
    )
    eta_cov = np.asarray([value(S.eta(p, u)) for u in rows], dtype=float)
    phi_cols = []
    for u in rows:
        pu = S.phi(p, u)
        phi_cols.append([value(S.metric.g(p, pu, w)) for w in rows])
    phi_mat = np.asarray(phi_cols, dtype=float).T
    return StructureTensors(tuple(p), gram, eta_cov, tuple(S.reeb(p)), phi_mat)


def act(action, t, q):
    """Apply the group element exp(i W^T t) coordinatewise."""
    q = as_list(q)
    out = list(q)
    for j in range(action.n):
        ang = sum(tk * wk[j] for tk, wk in zip(t, action.weights))
        c, s = np.cos(ang), np.sin(ang)
        x, y = q[2 * j], q[2 * j + 1]
        out[2 * j] = c * x - s * y
        out[2 * j + 1] = s * x + c * y
    return out


def kernel_momentum(action, mu, p):
    """Phi(p) = iota^t(J(p)): the momentum of the kernel-group action."""
    kern = kernel_algebra(mu)
    j = np.asarray([float(value(c)) for c in action.momentum(as_list(p))])
    return [float(np.dot(j, b)) for b in kern.matrix] if kern.k else []
