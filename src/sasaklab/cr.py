"""Contact CR (semi-invariant) submanifold machinery.

For an isometric submanifold N of a Sasakian sphere the tangent bundle
splits as D + D_perp + <xi> with phi D = D and phi D_perp normal; the
normal bundle splits as phi D_perp + nu.  The splitting is computed by
singular values of the "how normal is phi(.)" map on the contact part
of TN.  On top of it sit the curvature identities tying the second
fundamental form, the O'Neill tensor and the phi-sectional curvatures
of N and of the submersion target.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousSplit
from .jets import value
from .tensor_kernel import gram_schmidt, orthogonal_tail
from .vecops import vsub, vvalue


@dataclass
class CRDecomposition:
    """Frames of the contact CR splitting at a point of N."""

    point: tuple
    d_frame: list
    dperp_frame: list
    xi: tuple
    phi_dperp_frame: list
    nu_frame: list
    dims: dict
    residuals: dict
    singular_values: list


def cr_decomposition(ctx):
    """Split TN and the normal bundle at ctx.p by phi-invariance."""
    S = ctx.structure
    p = ctx.p
    g = S.metric.g
    tangent_on, normal_on = ctx._tangent_frames()

    xi = vvalue(S.reeb(p))
    contact = orthogonal_tail(S.metric, p, [xi], tangent_on)

    phis = [vvalue(S.phi(p, c)) for c in contact]
    M = np.asarray(
        [[value(g(p, nu, ph)) for ph in phis] for nu in normal_on], dtype=float
    ) if normal_on else np.zeros((0, len(contact)))
    if M.size:
        _, sv, vt = np.linalg.svd(M, full_matrices=True)
    else:
        sv, vt = np.zeros(0), np.eye(len(contact))
    sv_full = np.zeros(len(contact))
    sv_full[: len(sv)] = sv

    lo_band, hi_band = 1e-6, 1.0 - 1e-6
    if np.any((sv_full > lo_band) & (sv_full < hi_band)):
        raise AmbiguousSplit(
            f"singular values {sv_full.tolist()} cluster inside ({lo_band}, {hi_band})"
        )
    dperp, d_block = [], []
    C = np.asarray(contact, dtype=float)
    for r in range(len(contact)):
        w = list(vt[r] @ C)
        (dperp if sv_full[r] >= hi_band else d_block).append(w)

    phi_dperp = [vvalue(S.phi(p, w)) for w in dperp]
    if phi_dperp:
        phi_dperp = [list(v) for v in gram_schmidt(S.metric, p, phi_dperp).vectors]
    nu_frame = orthogonal_tail(S.metric, p, phi_dperp, normal_on)

    residuals = _cr_residuals(ctx, d_block, dperp, phi_dperp, nu_frame, tangent_on)
    dims = {
        "D": len(d_block),
        "D_perp": len(dperp),
        "phi_D_perp": len(phi_dperp),
        "nu": len(nu_frame),
        "TN": len(tangent_on),
    }
    return CRDecomposition(tuple(p), d_block, dperp, tuple(xi), phi_dperp,
                           nu_frame, dims, residuals, [float(s) for s in sv_full])


def _cr_residuals(ctx, d_block, dperp, phi_dperp, nu_frame, tangent_on):
    S = ctx.structure
    p = ctx.p
    g = S.metric.g

    def span_defect(w, frame):
        out = list(w)
        for u in frame:
            c = value(g(p, u, out))
            out = [a - c * b for a, b in zip(out, u)]
        return math.sqrt(max(value(g(p, out, out)), 0.0))

    phi_d_in_d = max(
        (span_defect(vvalue(S.phi(p, e)), d_block) for e in d_block), default=0.0
    )
    phi_dperp_normal = 0.0
    for w in dperp:
        pw = vvalue(S.phi(p, w))
        for t in tangent_on:
            phi_dperp_normal = max(phi_dperp_normal, abs(value(g(p, pw, t))))
    phi_nu_in_nu = max(
        (span_defect(vvalue(S.phi(p, list(n))), nu_frame) for n in nu_frame),
        default=0.0,
    )
    return {
        "phi_d_in_d": phi_d_in_d,
        "phi_dperp_normal": phi_dperp_normal,
        "phi_nu_invariant": phi_nu_in_nu,
    }


def split_normal(ctx, crdec, w):
    """Components of a normal vector in phi(D_perp) and nu."""
    g = ctx.structure.metric.g
    p = ctx.p
    bar = [0.0] * len(w)
    for u in crdec.phi_dperp_frame:
        c = value(g(p, u, w))
        bar = [a + c * b for a, b in zip(bar, u)]
    tilde = [0.0] * len(w)
    for u in crdec.nu_frame:
        c = value(g(p, u, w))
        tilde = [a + c * b for a, b in zip(tilde, u)]
    return bar, tilde


def _norm2(ctx, w):
    return max(value(ctx.structure.metric.g(ctx.p, w, w)), 0.0)


def relation_residuals(ctx, crdec, x, y):
    """The A-h dictionary at (x, y): both tangency relations, the inner
    product identity and the two norm identities."""
    S = ctx.structure
    p = ctx.p
    g = S.metric.g
    phi_y = vvalue(S.phi(p, y))
    phi_x = vvalue(S.phi(p, x))

    h_xy = vvalue(ctx.second_fundamental(x, y))
    h_x_phiy = vvalue(ctx.second_fundamental(x, phi_y))
    h_phix_phiy = vvalue(ctx.second_fundamental(phi_x, phi_y))
    a_xy = vvalue(ctx.a_tensor(x, y))
    a_x_phiy = vvalue(ctx.a_tensor(x, phi_y))
    bar_xy, tilde_xy = split_normal(ctx, crdec, h_xy)

    # A(X, phi Y) = v phi h(X, Y)
    v_phi_h = vvalue(ctx.vertical_project(p, vvalue(S.phi(p, h_xy))))
    rel1a = math.sqrt(_norm2(ctx, vsub(a_x_phiy, v_phi_h)))

    # h(X, phi Y) = phi A(X, Y) + phi (nu component of h(X, Y))
    rhs = [a + b for a, b in zip(vvalue(S.phi(p, a_xy)), vvalue(S.phi(p, tilde_xy)))]
    rel1b = math.sqrt(_norm2(ctx, vsub(h_x_phiy, rhs)))

    # g(h(phi X, phi Y), h(X, Y)) = |bar h|^2 - |tilde h|^2
    norm1 = abs(
        value(g(p, h_phix_phiy, h_xy)) - (_norm2(ctx, bar_xy) - _norm2(ctx, tilde_xy))
    )

    # |h(X, phi Y)|^2 = |A(X, Y)|^2 + |tilde h(X, Y)|^2
    norm2a = abs(_norm2(ctx, h_x_phiy) - _norm2(ctx, a_xy) - _norm2(ctx, tilde_xy))
    # |A(X, phi Y)|^2 = |bar h(X, Y)|^2
    norm2b = abs(_norm2(ctx, a_x_phiy) - _norm2(ctx, bar_xy))

    return {
        "rel1_a": rel1a,
        "rel1_b": rel1b,
        "norm1": norm1,
        "norm2_a": norm2a,
        "norm2_b": norm2b,
    }


def oneill_plane_residual(ctx, x):
    """K_N - K_P + 3|A(X, phi X)|^2 on the plane {X, phi X}; zero when
    the horizontal curvature formula holds (Hopf-gated sign)."""
    S = ctx.structure
    p = ctx.p
    g = S.metric.g
    phi_x = vvalue(S.phi(p, x))
    den = value(g(p, x, x)) * value(g(p, phi_x, phi_x)) - value(g(p, x, phi_x)) ** 2
    k_n = ctx.gauss_curvature_n4(x, phi_x, phi_x, x) / den
    k_p = ctx.quotient_curvature_4(x, phi_x, phi_x, x) / den
    a_val = vvalue(ctx.a_tensor(x, phi_x))
    return abs(k_n - k_p + 3.0 * _norm2(ctx, a_val) / den)


def final_identity(ctx, x, crdec):
    """Term ledger of K_P(X) = K_M(X^h) + 4|bar h(X,X)|^2 - 2|tilde h(X,X)|^2
    on the splitting ``crdec`` of ``cr_decomposition(ctx)``.

    x must be unit, horizontal and orthogonal to the Reeb direction.
    """
    S = ctx.structure
    p = ctx.p
    g = S.metric.g

    k_p = ctx.phi_sectional_quotient(x)
    phi_x = vvalue(S.phi(p, x))
    den = value(g(p, x, x)) * value(g(p, phi_x, phi_x)) - value(g(p, x, phi_x)) ** 2
    k_m = S.ambient_curvature_4(p, x, phi_x, phi_x, x) / den

    h_xx = vvalue(ctx.second_fundamental(x, x))
    bar, tilde = split_normal(ctx, crdec, h_xx)
    bar2, tilde2 = _norm2(ctx, bar), _norm2(ctx, tilde)
    residual = abs(k_p - k_m - 4.0 * bar2 + 2.0 * tilde2)
    return {
        "k_quotient": k_p,
        "k_ambient": k_m,
        "h_bar_sq": bar2,
        "h_tilde_sq": tilde2,
        "residual": residual,
    }
