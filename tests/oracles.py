"""Independent oracles used by the tests.

The numerical oracles avoid the jet engine: curvature comes from
central-difference Christoffel symbols in an orthographic chart, and
the weighted metric is evaluated through the closed-form expansion of
its exterior derivative.  Step sizes are fixed, not tuned.  The Koszul
oracles reach the Levi-Civita connection and curvature of any metric
through the term-by-term Koszul formula with nested jets, a second path
to the package's cone tensors.  Linear
programs over the moduli polytope are solved by enumerating its vertices,
and the hit-and-run chord is cut one inequality at a time.

The geometric oracles reach the same quantities as the package by a
second route on its own objects: the O'Neill tensor from a bracket, the
shape operator through the Weingarten identity, the Hopf fibration as a
submersion context with frames built from its Reeb circle, the group
action itself, and the kernel-group momentum.  ``cr_residuals`` checks
a CR splitting against the phi-invariances that define it.

The pair passes have references that evaluate one pair at a time:
``QuotientPerPair`` assembles O'Neill's formula with one covariant
derivative per A and h pair, and ``reduced_d_eta_per_pair`` takes the
closed-form d(eta) pair by pair where ``reduced_tensors`` takes a grid.

The weighted metric's own evaluations have references that take the
plain route: ``weighted_metric_pair`` composes g_A from eta, xi and the
closed-form d(eta) one pair at a time, and ``positivity_probe_lows``
runs the positivity probe one float point at a time, at the points of
``probe_points``.

The weighted metric's Gram matrix and the cone tensors have the
entry-by-entry references they replaced: ``gram_per_entry`` forms each
entry of the upper triangle with its own dot product of jets,
``metric_field_per_entry`` builds the cone metric from it as nested
lists, and ``cone_tensors_per_entry`` reads M and its derivatives from
those lists at one point.  ``contract_nested`` contracts nested lists
with one ``vdot`` per row, and ``d_eta_grid_per_pair`` evaluates d(eta)
one pair at a time.

The Reeb flow and cone-check loops have the references they replaced:
``reeb_flow_ndarray`` integrates on an ndarray state with a
reprojection (``newton_refine_ndarray``) and a residual gate that
evaluate the constraints apart; ``rotation_flow_per_element`` and
``reduced_flow_comparison_complex`` (with ``factor_coordinate``) form
the closed forms one time at a time; ``cone_point_loop`` and
``stratify_per_point`` run cone-check's identities and census one
point at a time.

``splitmix_uniforms`` computes the sample streams in Python integers,
one uniform at a time, as a bitwise reference for ``vecops.uniforms``.

``lane`` reads one sample's entry of a lane result, for tests that
compare a batch with its samples one by one.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from sasaklab import tolerances
from sasaklab.actions import MomentumCovector, kernel_algebra
from sasaklab.errors import NoConvergence, StratificationLeak
from sasaklab.jets import Dual, along, enter_level, exit_level, expand, jsqrt, value, vector
from sasaklab.manifolds import Sphere
from sasaklab.oneill import SubmersionContext
from sasaklab.structures import RoundSphereStructure
from sasaklab.tensor_kernel import gram_schmidt, orthogonal_tail
from sasaklab.vecops import clamped_sqrt, cmult, normals, solve_linear, uniforms, vdot


def lane(x, i):
    """Sample i of a lane scalar; a float, shared by every lane, passes through."""
    return x[..., i] if isinstance(x, np.ndarray) and x.ndim else x


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


# ----------------------------------------------------------------------
# Koszul formula: the Levi-Civita connection of any metric, term by term
# ----------------------------------------------------------------------


def _koszul_rhs(geo, q, Xf, Yf):
    """2 g(nabla_X Y, E_a) for each test field E_a, plus the E_a(q)."""
    man, met = geo.manifold, geo.metric
    Xq, Yf_q = Xf(q), Yf(q)
    if met.euclidean:
        hats = list(np.eye(man.ambient_dim))
    else:
        hats = list(geo.tangent_frame(q))
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
    bXY = dXY - dYX

    # curve along E_a: t3 and the E_a-derivatives of X and Y
    def g_xy(rs):
        X_rs, Y_rs = Xf(rs), Yf(rs)
        return met.g(rs, X_rs, Y_rs), X_rs, Y_rs

    kap2 = []
    for a, Ea in enumerate(Eq):
        t3, dEX, dEY = along(g_xy, q, Ea)
        bXE = dXE[a] - dEX
        bYE = dYE[a] - dEY
        kap2.append(
            t1[a] + t2[a] - t3
            + met.g(q, bXY, Ea)
            - met.g(q, bXE, Yf_q)
            - met.g(q, bYE, Xq)
        )
    return kap2, Eq


def covariant_koszul(geo, q, dir_field, field):
    """(nabla_X Y)(q) on the manifold of ``geo`` by the Koszul formula;
    q may be a jet point."""
    kap2, tests = _koszul_rhs(geo, q, dir_field, field)
    if geo.metric.euclidean:
        # test fields are the projected coordinate vectors e_a, so
        # sum_a kappa_a e_a reassembles the ambient representative.
        return geo.manifold.project(q, vector([k * 0.5 for k in kap2]))
    gram = [[geo.metric.g(q, u, v) for v in tests] for u in tests]
    coef = solve_linear(gram, [k * 0.5 for k in kap2])
    out = 0.0
    for c, t in zip(coef, tests):
        out = out + c * t
    return out


def koszul_curvature(geo, p, x, y, z):
    """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    at p with every connection from ``covariant_koszul``."""
    nabla = lambda q, Af, Bf: covariant_koszul(geo, q, Af, Bf)
    Xf, Yf, Zf = geo.extend(x), geo.extend(y), geo.extend(z)
    term_a = nabla(p, Xf, lambda r: nabla(r, Yf, Zf))
    term_b = nabla(p, Yf, lambda r: nabla(r, Xf, Zf))
    bxy = geo.manifold.project(p, geo.bracket(p, Xf, Yf))
    term_c = nabla(p, geo.extend(bxy), Zf)
    return term_a - term_b - term_c


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


def hit_and_run_loop(poly, z, beta, floor):
    """Reference for one sample of ``reduction._walk``: the same walk from
    the same draws (step i moves along the normals ``z[i]`` by the
    Beta(2, 2) fraction ``beta[i]`` of its chord), one step and one
    inequality a . t <= b at a time.  Sums run in coordinate order, as
    the walk's do, so the two agree bitwise."""
    ns = len(poly.support)
    x = poly.interior[poly.support].copy()
    if poly.null_basis.shape[0] == 0:
        return x
    ineqs = [(-np.eye(ns)[j], 0.0) for j in range(ns)]
    if poly.ray_coeff is not None:
        ineqs.append((-poly.ray_coeff[poly.support], -floor))
    for zs, frac in zip(z, beta):
        d = sum(zj * nj for zj, nj in zip(zs, poly.null_basis))
        nrm = math.sqrt(sum(v * v for v in d))
        if nrm < 1e-14:
            continue
        d /= nrm
        lo, hi = -np.inf, np.inf
        for a, b in ineqs:
            ad = sum(ai * di for ai, di in zip(a, d))
            if abs(ad) < 1e-14:
                continue
            lam = (b - sum(ai * xi for ai, xi in zip(a, x))) / ad
            if ad > 0:
                hi = min(hi, lam)
            else:
                lo = max(lo, lam)
        if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
            continue
        x = x + (lo + (hi - lo) * frac) * d
    return x


# ----------------------------------------------------------------------
# submersion contexts without a reduction frame
# ----------------------------------------------------------------------


def default_horizontal(ctx, vertical):
    """The contact block of TN orthogonal to the vertical frame and the
    Reeb field, followed by the Reeb field unless it is vertical."""
    S = ctx.structure
    reeb = value(S.reeb(ctx.p))
    v_reeb = value(ctx.vertical_project(ctx.p, reeb))
    reeb_is_vertical = (
        np.max(np.abs(reeb - v_reeb)) < 1e-8
        if ctx.vertical_fields
        else False
    )
    tangent = ctx.manifold.tangent_basis(ctx.p)
    head = vertical if reeb_is_vertical else vertical + [reeb]
    d_block = list(orthogonal_tail(S.metric, ctx.p, head, tangent))
    return d_block if reeb_is_vertical else d_block + [reeb]


def tangent_frame(structure, manifold, p):
    """N's g-orthonormal tangent frame at p, float or lanes, by Gram-Schmidt
    on the manifold's Euclidean tangent basis: the frame of a context built
    without a reduction frame."""
    return gram_schmidt(structure.metric, p, list(manifold.tangent_basis(p))).vectors


def submersion_context(structure, manifold, vertical_fields, p):
    """A SubmersionContext whose vertical frame is Gram-Schmidt on the
    field values at p, whose horizontal frame is ``default_horizontal``
    and whose tangent frame is ``tangent_frame``."""
    p = vector(p)
    vecs = [value(f(p)) for f in vertical_fields]
    vertical = list(gram_schmidt(structure.metric, p, vecs).vectors) if vecs else []
    ctx = SubmersionContext(structure, manifold, vertical_fields, p, horizontal_frame=[],
                            tangent_frame=tangent_frame(structure, manifold, p))
    ctx.horizontal_frame = default_horizontal(ctx, vertical)
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
    return ctx.vertical_project(ctx.p, b) * 0.5


def cr_residuals(ctx, crd):
    """How far the CR splitting ``crd`` of ctx misses its defining
    invariances: phi D inside D, phi D_perp normal to N, phi nu inside nu."""
    S = ctx.structure
    p = ctx.p
    g = S.metric.g

    def span_defect(w, frame):
        out = w
        for u in frame:
            out = out - value(g(p, u, out)) * u
        return clamped_sqrt(g(p, out, out))

    phi_d_in_d = max(
        (span_defect(value(S.phi(p, e)), crd.d_frame) for e in crd.d_frame), default=0.0
    )
    phi_dperp_normal = 0.0
    for w in crd.dperp_frame:
        pw = value(S.phi(p, w))
        for t in ctx.tangent_frame:
            phi_dperp_normal = max(phi_dperp_normal, abs(value(g(p, pw, t))))
    phi_nu_in_nu = max(
        (span_defect(value(S.phi(p, n)), crd.nu_frame) for n in crd.nu_frame),
        default=0.0,
    )
    return {
        "phi_d_in_d": phi_d_in_d,
        "phi_dperp_normal": phi_dperp_normal,
        "phi_nu_invariant": phi_nu_in_nu,
    }


def weingarten_residual(ctx, row, y, z):
    """Residual of the shape-operator identity for the unit normal
    phi(X_M)/|X_M| attached to the vertical field number ``row``."""
    S = ctx.structure
    g = S.metric.g
    p = ctx.p
    act_field = ctx.vertical_fields[row]
    geo_s = ctx.ambient_geometry

    y, z = vector(y), vector(z)
    xm_p = value(act_field(p))
    nrm = math.sqrt(value(g(p, xm_p, xm_p)))

    def nu_field(q):
        xm = act_field(q)
        w = geo_s.covariant(q, act_field, S.reeb_field)
        return 1.0 / jsqrt(g(q, xm, xm)) * w

    Yf = lambda q: ctx.manifold.project(q, value(y))
    dn = geo_s.covariant(p, Yf, nu_field)
    a_nu_y = np.zeros(np.shape(p))
    for u in ctx.tangent_frame:
        a_nu_y = a_nu_y + (-value(g(p, u, dn))) * u
    lhs = value(g(p, a_nu_y, z))

    grad = geo_s.covariant(p, Yf, act_field)
    phi_grad = geo_s.covariant(p, geo_s.extend(value(grad)), S.reeb_field)
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
    p = vector(p)
    if vectors is None:
        vectors = S.sphere.tangent_basis(p)
    frame = gram_schmidt(S.metric, p, vectors)
    rows = frame.vectors
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
    q = list(q)
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
    j = np.asarray(value(action.momentum(p)), dtype=float)
    return [float(np.dot(j, b)) for b in kern.matrix] if kern.k else []


# ----------------------------------------------------------------------
# the weighted metric, one pair and one probe point at a time
# ----------------------------------------------------------------------


def weighted_metric_pair(metric, q, u, v):
    """g_A(u, v) = eta_A(u) eta_A(v) + (1/2) d(eta_A)(u_c, i v_c), composed
    from the metric's eta, reeb and closed-form d_eta; jet-generic."""
    q, u, v = vector(q), vector(u), vector(v)
    eu, ev = metric.eta(q, u), metric.eta(q, v)
    xi = metric.reeb(q)
    uc = u - xi * eu
    vc = v - xi * ev
    return eu * ev + 0.5 * metric.d_eta(q, uc, cmult(vc))


def probe_points(structure):
    """The weighted positivity probe's points, one float vector each."""
    z = normals(uniforms(320032, structure.PROBE_SALT, 0, structure.PROBE_POINTS,
                         structure.ambient_dim))
    return [q / np.linalg.norm(q) for q in z]


def positivity_probe_lows(structure):
    """The smallest eigenvalue of the contact Gram (1/2) d(eta)(u, i v) at
    each point of the weighted positivity probe, one float point at a
    time, in probe order, at the probe's points: the unit rows of
    normals from the stream (320032, ``PROBE_SALT``)."""
    lows = []
    for p in probe_points(structure):
        frame = structure.contact_frame(p)
        H = np.asarray(
            [[0.5 * value(structure.metric.d_eta(p, u, cmult(v))) for v in frame]
             for u in frame],
            dtype=float,
        )
        H = 0.5 * (H + H.T)
        lows.append(float(np.linalg.eigvalsh(H)[0]))
    return lows


# ----------------------------------------------------------------------
# the sample streams in Python integers
# ----------------------------------------------------------------------

WORD = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix_finaliser(z):
    """SplitMix64's finaliser of one 64-bit word, in Python integers."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & WORD
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & WORD
    return z ^ (z >> 31)


def splitmix_uniforms(seed, salt, start, count, *shape):
    """``vecops.uniforms`` one uniform at a time: the key folds the
    64-bit words of seed, lowest first, then salt, and uniform j is
    (finaliser(key + (j + 1) gamma) >> 11) / 2^53."""
    words = [seed & WORD]
    while seed >> 64:
        seed >>= 64
        words.append(seed & WORD)
    key = 0
    for w in words + [salt]:
        key = splitmix_finaliser(key ^ w)
    per = math.prod(shape)
    out = [(splitmix_finaliser((key + (j + 1) * GAMMA) & WORD) >> 11) / 2.0 ** 53
           for j in range(start * per, (start + count) * per)]
    return np.array(out, dtype=float).reshape(count, *shape)


# ----------------------------------------------------------------------
# the weighted Gram matrix, the cone tensors and d(eta), entry by entry
# ----------------------------------------------------------------------


def gram_per_entry(metric, q, vectors):
    """g(q; u, v) for every pair of the vectors as a symmetric nested
    list: the terms of d(eta_A) formed once per point and once per
    vector, then one dot product of jets per entry of the upper
    triangle, which stands on both sides; jet-generic."""
    q, vectors = vector(q), [vector(u) for u in vectors]
    f = metric.conformal_factor(q)
    ff = f * f
    iq = cmult(q)
    aq = []
    for j, aj in enumerate(metric.a):
        aq.append(aj * q[2 * j])
        aq.append(aj * q[2 * j + 1])
    aq = vector(aq)
    xi = metric.reeb(q)
    eta = [vdot(iq, u) / f for u in vectors]
    contact = [u - expand(xi, np.ndim(value(u))) * e for u, e in zip(vectors, eta)]
    turned = [cmult(c) for c in contact]
    rows = [(2.0 * vdot(aq, c), vdot(iq, c)) for c in contact]
    cols = [(2.0 * vdot(aq, t), vdot(iq, t)) for t in turned]
    m = len(vectors)
    out = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            (df_u, eta0_u), (df_v, eta0_v) = rows[i], cols[j]
            d_eta = 2.0 * vdot(turned[i], turned[j]) / f - (df_u * eta0_v - df_v * eta0_u) / ff
            out[i][j] = out[j][i] = eta[i] * eta[j] + 0.5 * d_eta
    return out


def metric_field_per_entry(metric, x):
    """The cone metric M(x) = (x^ . u)(x^ . v) + g(x^; P u, P v) as
    nested lists, through ``gram_per_entry``; jet-generic."""
    x = vector(x)
    r = jsqrt(vdot(x, x))
    xh = [c / r for c in x]
    m = len(xh)
    tangential = [[float(i == j) - xh[i] * xh[j] for j in range(m)] for i in range(m)]
    G = gram_per_entry(metric, xh, tangential)
    return [[xh[i] * xh[j] + G[i][j] for j in range(m)] for i in range(m)]


def cone_tensors_per_entry(metric, p):
    """(Gamma, R^) of the weighted cone at the float point p: one nested
    jet pass over the m^2 coordinate pairs of p, whose nested lists of M
    and its derivatives are read entry by entry into arrays, then the
    package's own LU algebra (``geometry._cone_tensors``)."""
    from sasaklab.geometry import _cone_tensors

    m = len(p)
    width = m * m
    pairs = np.arange(width)
    outer = [(pairs // m == i).astype(float) for i in range(m)]
    inner = [(pairs % m == i).astype(float) for i in range(m)]
    field = lambda q: metric_field_per_entry(metric, q)
    first = []

    def d_inner(q):
        d = along(field, q, inner)
        first.append(d)
        return d

    def lane_array(rows, width):
        # nested rows of lane entries as one array, lanes last; a float fills every lane
        return np.asarray([[np.broadcast_to(value(e), (width,)) for e in row] for row in rows])

    ddM = lane_array(along(d_inner, [np.full(width, c) for c in p], outer), width)
    dM = lane_array(first[0], width)
    M = lane_array(field([np.array([c]) for c in p]), 1)[:, :, 0]
    return _cone_tensors(np.ascontiguousarray(M), np.moveaxis(dM[:, :, :m], 2, 0),
                         np.moveaxis(ddM.reshape(m, m, m, m), (2, 3), (0, 1)))


def lane_lists(a):
    """Nested lists of the last-axis lanes of an array."""
    return list(a) if a.ndim == 2 else [lane_lists(b) for b in a]


def contract_nested(t, vectors):
    """Ordered sums of the nested tensor t against the vectors, innermost
    index first, one ``vdot`` per row."""
    if len(vectors) == 1:
        return [vdot(vector(row), vector(vectors[0])) for row in t]
    return [vdot(vector(contract_nested(s, vectors[:-1])), vector(vectors[-1])) for s in t]


def d_eta_grid_per_pair(d_eta, p, rows, cols):
    """[[d_eta(p, u, v) for v in cols] for u in rows], one evaluation per
    pair, stacked as (samples, rows, columns) at a lane point."""
    lanes = np.shape(p)[1:]
    grid = np.array([[np.broadcast_to(value(d_eta(p, u, v)), lanes) for v in cols]
                     for u in rows])
    return np.moveaxis(grid, -1, 0) if lanes else grid


# ----------------------------------------------------------------------
# O'Neill assembly and reduced d(eta), one pair at a time
# ----------------------------------------------------------------------


def second_fundamental_by_tangent_projection(ctx, x, y):
    """h(X, Y) as nab^S_X Y~ less its parts along N's tangent frame, one
    tangent vector at a time: the reference of the projection onto N's
    normal frame that ``SubmersionContext.second_fundamentals`` takes."""
    man = ctx.manifold
    yhat, xhat = value(vector(y)), value(vector(x))
    out = ctx.ambient_geometry.covariant(
        ctx.p, lambda q: man.project(q, xhat), lambda q: man.project(q, yhat))
    g = ctx.structure.metric.g
    for t in ctx.tangent_frame:
        out = out - g(ctx.p, t, out) * t
    return out


class QuotientPerPair:
    """O'Neill's formula on a SubmersionContext with one covariant pass
    per A and h pair, each evaluated when first requested, h projected
    onto N's normal frame; A(b, a) is cached as the negation of A(a, b)
    and h(b, a) as h(a, b)."""

    def __init__(self, ctx):
        self.ctx = ctx

    def a_tensor(self, x, y):
        ctx = self.ctx
        w = ctx.geometry.covariant(ctx.p, ctx.horizontal_extend(x), ctx.horizontal_extend(y))
        return ctx.vertical_project(ctx.p, w)

    def second_fundamental(self, x, y):
        ctx = self.ctx
        man = ctx.manifold
        yhat, xhat = value(vector(y)), value(vector(x))
        w = ctx.ambient_geometry.covariant(
            ctx.p, lambda q: man.project(q, xhat), lambda q: man.project(q, yhat))
        g = ctx.structure.metric.g
        out = np.zeros(np.shape(w))
        for u in ctx.normal_frame:
            out = out + g(ctx.p, u, w) * u
        return out

    def gauss_curvature_n4(self, x, y, z, v, h_cache=None):
        ctx = self.ctx
        g = ctx.structure.metric.g
        h = self._h_cached(h_cache)
        rm = ctx.ambient_curvature_4(x, y, z, v)
        return (
            value(rm)
            + value(g(ctx.p, h(x, v), h(y, z)))
            - value(g(ctx.p, h(x, z), h(y, v)))
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
        g = self.ctx.structure.metric.g
        A = self._a_cached(a_cache)
        rn = self.gauss_curvature_n4(x, y, z, v, h_cache=h_cache)
        gp = lambda u, w: value(g(self.ctx.p, u, w))
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
                val = value(self.a_tensor(a, b))
                cache[key] = val
                cache[(id(b), id(a))] = -val
            return cache[key]

        return A

    def quotient_curvature_vector(self, x, y, z):
        a_cache, h_cache = {}, {}
        out = np.zeros(np.shape(self.ctx.p))
        for f in self.ctx.horizontal_frame:
            out = out + self.quotient_curvature_4(x, y, z, f, a_cache, h_cache) * f
        return out


def reduced_d_eta_per_pair(setup, rframe):
    """({(i, j): d(eta)(d_i, d_j)} over every contact pair, diagonal
    included, worst |d(eta)(V, T)| over vertical fields V and tangent
    vectors T), one closed-form d(eta) evaluation per pair, on a float or
    lane frame."""
    S = setup.structure
    p = rframe.p
    dvecs = list(rframe.contact_d.vectors)
    m = len(dvecs)
    deta = {(i, j): value(S.d_eta(p, dvecs[i], dvecs[j])) for i in range(m) for j in range(m)}
    tangent = list(rframe.tangent)
    worst_basic = 0.0
    for vrow in rframe.vertical_rows:
        vfield_p = value(setup.action.fundamental_field(vrow, p))
        for t in tangent:
            worst_basic = np.maximum(worst_basic, abs(value(S.d_eta(p, vfield_p, t))))
    return deta, worst_basic


# ----------------------------------------------------------------------
# the Reeb flow on an ndarray state, and its closed forms time by time
# ----------------------------------------------------------------------


def newton_refine_ndarray(manifold, p):
    """Gauss-Newton pullback onto the manifold's constraint set on an
    ndarray state; returns the point only."""
    x = np.asarray(value(vector(p)), dtype=float)
    for _ in range(tolerances.REFINE_MAX_ITER):
        vals = np.asarray([value(v) for v in manifold.constraint_values(x)], dtype=float)
        if np.max(np.abs(vals)) < tolerances.REFINE_TOL:
            break
        jac = np.asarray([value(g) for g in manifold.constraint_grads(x)], dtype=float)
        step, *_ = np.linalg.lstsq(jac, vals, rcond=None)
        x = x - step
    return [float(a) for a in x]


def reeb_flow_ndarray(structure, manifold, z0, t_max, steps):
    """RK4 on an ndarray state: every stage converts the state to a list
    and the field back to an array, and the reprojection gate evaluates
    the constraints again after ``newton_refine_ndarray``."""
    h = float(t_max) / steps
    field = lambda q: np.asarray(value(structure.reeb_field(np.asarray(q))), dtype=float)
    x = np.asarray(z0, dtype=float).copy()
    times = np.linspace(0.0, float(t_max), steps + 1)
    out = np.empty((steps + 1, len(x)))
    out[0] = x
    for k in range(steps):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = np.asarray(newton_refine_ndarray(manifold, list(x)), dtype=float)
        if manifold.residual(x) > 1e-9:
            raise NoConvergence(f"reprojection failed at step {k}")
        out[k + 1] = x
    return times, out


def rotation_flow_per_element(z0, times, speeds):
    """z_j(t) = e^{i speeds[j] t} z_j(0), one time and one coordinate at a time."""
    z0 = np.asarray(z0, dtype=float)
    out = np.empty((len(times), len(z0)))
    for k, t in enumerate(times):
        for j, w in enumerate(speeds):
            c, s = math.cos(w * t), math.sin(w * t)
            x, y = z0[2 * j], z0[2 * j + 1]
            out[k, 2 * j] = c * x - s * y
            out[k, 2 * j + 1] = s * x + c * y
    return out


def factor_coordinate(point, lam):
    """z_0^{lam_1} z_1^{lam_0} of the first two complex coordinates."""
    z0 = complex(point[0], point[1])
    z1 = complex(point[2], point[3])
    r = (abs(z0) ** lam[1]) * (abs(z1) ** lam[0])
    ang = lam[1] * cmath.phase(z0) + lam[0] * cmath.phase(z1)
    return r * cmath.exp(1j * ang)


def reduced_flow_comparison_complex(times, trajectory, lam):
    """The reduced-flow comparison in Python complex arithmetic, one time
    at a time."""
    start = trajectory[0]
    f0 = factor_coordinate(start, lam)
    A, a = abs(f0), cmath.phase(f0)
    b = lam[0] + lam[1]
    sup_factor = 0.0
    for t, point in zip(times, trajectory):
        expected = A * cmath.exp(1j * (a + b * t))
        sup_factor = max(sup_factor, abs(expected - factor_coordinate(point, lam)))
    rot = rotation_flow_per_element(list(start[4:]), times, [1.0] * (len(start[4:]) // 2))
    sup_rot = float(np.max(np.abs(rot - trajectory[:, 4:]))) if trajectory.shape[1] > 4 else 0.0
    return {
        "sup_factor_error": sup_factor,
        "sup_rotation_error": sup_rot,
        "sup_error": max(sup_factor, sup_rot),
        "amplitude": A,
        "angular_speed": b,
    }


# ----------------------------------------------------------------------
# cone-check one point at a time
# ----------------------------------------------------------------------


def _iota_transpose_per_point(action, mu, p, r):
    kern = kernel_algebra(mu)
    p = np.asarray(p, dtype=float)
    js = [r * r * float(value(c)) for c in action.momentum(p)]
    path_a = [float(np.dot(js, b)) for b in kern.matrix] if kern.k else []
    path_b = []
    for b in kern.matrix:
        xm = action.fundamental_field(b, p)
        path_b.append(r * r * float(value(vdot(cmult(p), xm))))
    if not path_a:
        return 0.0
    return max(abs(a - b) for a, b in zip(path_a, path_b))


def cone_point_loop(action, mu, cps):
    """{name: [residual per point]} of cone-check's identities, one cone
    point at a time: iota_transpose, homogeneity and restriction."""
    out = {"iota_transpose": [], "homogeneity": [], "restriction": []}
    for cp in cps:
        p, r = cp.base.tolist(), cp.r
        js_r = [r * r * float(value(c)) for c in action.momentum(p)]
        js_1 = [1.0 * 1.0 * float(value(c)) for c in action.momentum(p)]
        out["iota_transpose"].append(_iota_transpose_per_point(action, mu, p, r))
        out["homogeneity"].append(max(abs(a - r * r * b) for a, b in zip(js_r, js_1)))
        out["restriction"].append(max(abs(a - float(value(b)))
                                      for a, b in zip(js_1, action.momentum(p))))
    return out


def stratify_per_point(action, mu, points, tol):
    """[(point, label, s, residual)] of the ray census, one point at a
    time, with the ray classified from mu directly; a point outside
    every stratum raises StratificationLeak."""
    mu = mu if isinstance(mu, MomentumCovector) else MomentumCovector.of(mu)
    label_of = {"on_positive_ray": "positive_stratum", "on_zero": "zero_stratum",
                "on_negative_ray": "negative_stratum"}
    rows = []
    for pt in points:
        p = list(pt)
        j = np.asarray([float(value(c)) for c in action.momentum(p)])
        m, e = mu.scaled()
        s = math.ldexp(float(np.dot(j, m) / np.dot(m, m)), -e)
        residual = float(np.linalg.norm(j - s * np.asarray(mu.mu, dtype=float)))
        if residual >= tol:
            raise StratificationLeak(
                f"momentum-zero sample classified outside (residual {residual:.3e})")
        if abs(s) * mu.norm < tol:
            kind, s = "on_zero", 0.0
        elif s > 0:
            kind = "on_positive_ray"
        else:
            kind, s = "on_negative_ray", -s
        rows.append((p, label_of[kind], s, residual))
    return rows


# ----------------------------------------------------------------------
# the list code: vectors as Python lists of floats, lanes or jets
# ----------------------------------------------------------------------
#
# Before vectors became one array each, every vector was a list of m
# scalars and each operation below looped over them.  These are those
# implementations, kept as they were, as bitwise references for the
# array versions: ``vdot``, ``cmult``, ``EmbeddedManifold.project``,
# ``Sphere.project``, ``gram_schmidt`` and the A and h pair passes of
# ``SubmersionContext``, on the round and on the weighted metric
# (``ListWeightedMetric``), with the list ``along`` and list lane helpers
# they ran on.


def list_vsub(u, v):
    return [a - b for a, b in zip(u, v)]


def list_vscale(u, c):
    return [a * c for a in u]


def list_vdot(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def list_cmult(v):
    """Multiplication by i on pairwise coordinates (x, y) -> (-y, x)."""
    out = []
    for j in range(0, len(v), 2):
        out.append(-v[j + 1])
        out.append(v[j])
    return out


def list_vvalue(u):
    return [value(a) for a in u]


def _list_imag(x, lvl):
    if isinstance(x, Dual) and x.lvl == lvl:
        return x.im
    return 0.0


def _list_coeff(x, lvl):
    if isinstance(x, (list, tuple)):
        out = [_list_coeff(c, lvl) if isinstance(c, (list, tuple)) else _list_imag(c, lvl)
               for c in x]
        return out if isinstance(x, list) else tuple(out)
    return _list_imag(x, lvl)


def list_along(fn, point, direction):
    """d/ds fn(point + s direction) at s = 0, fn taking a list of jets."""
    lvl = enter_level()
    try:
        return _list_coeff(fn([Dual(lvl, p, v) for p, v in zip(point, direction)]), lvl)
    finally:
        exit_level()


def list_constraint_grads(manifold, q):
    """The constraint gradients of ``manifold`` at the list point q."""
    from sasaklab.manifolds import LinearConstraint, ModuliConstraint, SphereConstraint

    grads = []
    for c in manifold.constraints:
        if isinstance(c, SphereConstraint):
            grads.append(list_vscale(q, 2.0))
        elif isinstance(c, LinearConstraint):
            grads.append([float(x) for x in c.a])
        elif isinstance(c, ModuliConstraint):
            g = [0.0] * len(q)
            for j, cj in enumerate(c.c):
                if cj != 0.0:
                    g[2 * j] = 2.0 * cj * q[2 * j]
                    g[2 * j + 1] = 2.0 * cj * q[2 * j + 1]
            grads.append(g)
        else:
            raise TypeError(f"no list gradient for {type(c).__name__}")
    return grads


def list_project(manifold, q, v):
    """EmbeddedManifold.project on lists."""
    grads = list_constraint_grads(manifold, q)
    k = len(grads)
    if k == 0:
        return list(v)
    gram = [[list_vdot(gi, gj) for gj in grads] for gi in grads]
    rhs = [list_vdot(gi, v) for gi in grads]
    coef = solve_linear(gram, rhs)
    out = list(v)
    for ci, gi in zip(coef, grads):
        out = [a - ci * b for a, b in zip(out, gi)]
    return out


def list_sphere_project(q, v):
    """Sphere.project on lists."""
    f = list_vdot(v, q) / list_vdot(q, q)
    return list_vsub(v, list_vscale(q, f))


def list_gram_schmidt(p, vectors, g=list_vdot):
    """gram_schmidt on lists under the pairing g at p (the round metric's
    by default): (kept vectors, inputs)."""
    from sasaklab.vecops import agreed

    kept, inputs = [], []
    for i, v in enumerate(vectors):
        w = list(v)
        for u in kept:
            w = list_vsub(w, list_vscale(u, g(u, w)))
        # second pass for numerical orthogonality
        for u in kept:
            w = list_vsub(w, list_vscale(u, g(u, w)))
        nrm = clamped_sqrt(g(w, w))
        if agreed(nrm < tolerances.GRAM_SCHMIDT_DROP):
            continue
        kept.append(list_vscale(w, 1.0 / nrm))
        inputs.append(i)
    return kept, inputs


class ListWeightedMetric:
    """The weighted metric g_A = eta_A eta_A + (1/2) d(eta_A)(., i .) on
    lists, with the terms of the point formed once (``at``)."""

    def __init__(self, a):
        self.a = [float(x) for x in a]

    def conformal_factor(self, q):
        acc = 0.0
        for j, aj in enumerate(self.a):
            x, y = q[2 * j], q[2 * j + 1]
            acc = acc + aj * (x * x + y * y)
        return acc

    def reeb(self, q):
        out = []
        for j, aj in enumerate(self.a):
            out.append(-aj * q[2 * j + 1])
            out.append(aj * q[2 * j])
        return out

    def at(self, q):
        """g_A at q as a function of (u, v)."""
        f = self.conformal_factor(q)
        aw_q = []
        for j, aj in enumerate(self.a):
            aw_q.append(aj * q[2 * j])
            aw_q.append(aj * q[2 * j + 1])
        at, xi = (f, f * f, list_cmult(q), aw_q), self.reeb(q)

        def contact_part(u):
            e = list_vdot(at[2], u) / at[0]
            return e, list_vsub(u, list_vscale(xi, e))

        def vector_terms(w):
            return 2.0 * list_vdot(at[3], w), list_vdot(at[2], w)

        def g(u, v):
            eu, uc = contact_part(u)
            ev, vc = contact_part(v)
            tu, tv = list_cmult(uc), list_cmult(vc)
            (df_u, eta0_u), (df_v, eta0_v) = vector_terms(uc), vector_terms(tv)
            d_eta = 2.0 * list_vdot(tu, tv) / at[0] - (df_u * eta0_v - df_v * eta0_u) / at[1]
            return eu * ev + 0.5 * d_eta

        return g


def _list_lane_width(u):
    widths = {len(a) for a in u if isinstance(a, np.ndarray)}
    return widths.pop() if widths else None


def _list_tile_lanes(u, reps):
    if reps == 1:
        return u
    return [np.concatenate([a] * reps) if isinstance(a, np.ndarray) else a for a in u]


def _list_join_lanes(vectors, width):
    if width is None:
        return [np.array([value(e) for e in entries], dtype=float) for entries in zip(*vectors)]

    def lanes(e):
        e = value(e)
        return e if isinstance(e, np.ndarray) else np.full(width, e, dtype=float)

    return [np.concatenate([lanes(e) for e in entries]) for entries in zip(*vectors)]


def _list_cut_lanes(x, reps, width):
    if isinstance(x, (list, tuple)):
        return [list(part) for part in zip(*(_list_cut_lanes(e, reps, width) for e in x))]
    x = value(x)
    if not isinstance(x, np.ndarray):
        return [x] * reps
    if width is None:
        return x.tolist()
    return [x[k * width:(k + 1) * width] for k in range(reps)]


def list_pair_lanes(fn, p, pairs, per_pass):
    """pair_lanes on lists, ``per_pass`` pairs to a pass."""
    width = _list_lane_width(p)
    out = []
    for k in range(0, len(pairs), per_pass):
        part = pairs[k:k + per_pass]
        reps = len(part)
        if reps == 1:
            out.append(fn(p, 1, *part[0]))
            continue
        us = _list_join_lanes([u for u, _ in part], width)
        vs = _list_join_lanes([v for _, v in part], width)
        out.extend(_list_cut_lanes(fn(_list_tile_lanes(p, reps), reps, us, vs), reps, width))
    return out


class ListPairPasses:
    """The A and h pair passes of the SubmersionContext built from
    (setup, rframe), on lists: covariant derivatives by the list
    ``along`` and projections, the vertical fields from the action rows.
    On the weighted metric the pairing is ``ListWeightedMetric``'s and
    the connection the cone's, with the Christoffel tensor, the tangent
    bases and N's normal frame read from the package (``Cone._tensor``,
    ``tangent_basis`` and ``ctx.normal_frame``, checked on their own
    elsewhere)."""

    def __init__(self, setup, rframe, ctx):
        self.manifold = setup.manifold
        self.sphere = setup.structure.sphere
        self.metric = setup.structure.metric
        self.g_at = ((lambda q: list_vdot) if self.metric.euclidean
                     else ListWeightedMetric(self.metric.a).at)
        self.weights = setup.action.weights
        self.rows = [tuple(r) for r in rframe.vertical_rows]
        self.p = _as_lists(ctx.p)
        self.normal_on = [_as_lists(u) for u in ctx.normal_frame]

    def covariant(self, q, dir_field, field, on_sphere):
        """nabla_X Y at q, on N or (on_sphere) on the sphere, as
        ``Geometry.covariant`` formed it on lists."""
        if self.metric.euclidean:
            w = list_along(field, q, dir_field(q))
            return list_sphere_project(q, w) if on_sphere else list_project(self.manifold, q, w)
        X, Y = dir_field(q), field(q)
        t = self.metric.cone._tensor(np.asarray(q, dtype=float), 0)
        lanes = t.ndim > 3 or any(_list_lane_width(v) for v in (X, Y))
        t = t if t.ndim > 3 else t[..., None]
        for v in (X, Y):
            t = list_vdot(np.moveaxis(t, -2, 0), v)
        gamma = list(t) if lanes else t[:, 0].tolist()
        w = list_sphere_project(q, [a + b for a, b in zip(list_along(field, q, X), gamma)])
        if on_sphere:
            return w
        frame = [_as_lists(r) for r in self.manifold.tangent_basis(np.asarray(q, dtype=float))]
        g, vectors = self.g_at(q), [*frame, w]
        gram = [[g(vectors[min(i, j)], vectors[max(i, j)]) for j in range(len(vectors))]
                for i in range(len(vectors))]
        coef = solve_linear([row[:-1] for row in gram[:-1]], [row[-1] for row in gram[:-1]])
        out = [0.0] * len(w)
        for c, r in zip(coef, frame):
            out = [a + c * b for a, b in zip(out, r)]
        return out

    def field(self, r, q):
        speeds = [sum(rk * wk[j] for rk, wk in zip(r, self.weights))
                  for j in range(len(self.weights[0]))]
        out = []
        for j, s in enumerate(speeds):
            out.append(-s * q[2 * j + 1])
            out.append(s * q[2 * j])
        return out

    def vertical_project(self, q, w):
        if not self.rows:
            return [0.0 * c for c in w]
        vals = [self.field(r, q) for r in self.rows]
        g = self.g_at(q)
        gram = [[g(a, b) for b in vals] for a in vals]
        rhs = [g(a, w) for a in vals]
        coef = solve_linear(gram, rhs)
        out = [0.0] * len(w)
        for c, v in zip(coef, vals):
            out = [o + c * b for o, b in zip(out, v)]
        return out

    def horizontal_project(self, q, w):
        t = list_project(self.manifold, q, w)
        return list_vsub(t, self.vertical_project(q, t))

    def a_tensors(self, pairs, per_pass):
        def one_pass(q, reps, x, y):
            xhat, yhat = list_vvalue(x), list_vvalue(y)
            Xh = lambda r: self.horizontal_project(r, xhat)
            Yh = lambda r: self.horizontal_project(r, yhat)
            return self.vertical_project(q, self.covariant(q, Xh, Yh, on_sphere=False))

        return list_pair_lanes(one_pass, self.p, [tuple(map(_as_lists, uv)) for uv in pairs],
                               per_pass)

    def second_fundamentals(self, pairs, per_pass):
        def one_pass(q, reps, x, y):
            xhat, yhat = list_vvalue(x), list_vvalue(y)
            Xf = lambda r: list_project(self.manifold, r, xhat)
            Yf = lambda r: list_project(self.manifold, r, yhat)
            out = self.covariant(q, Xf, Yf, on_sphere=True)
            g = self.g_at(q)
            h = [0.0] * len(out)
            for u in self.normal_on:
                u = _list_tile_lanes(u, reps)
                c = g(u, out)
                h = [a + c * b for a, b in zip(h, u)]
            return h

        return list_pair_lanes(one_pass, self.p, [tuple(map(_as_lists, uv)) for uv in pairs],
                               per_pass)


def _as_lists(u):
    """An array vector as the list vector of its coordinates: floats, or lanes."""
    u = np.asarray(u, dtype=float)
    return u.tolist() if u.ndim == 1 else [np.array(row) for row in u]
