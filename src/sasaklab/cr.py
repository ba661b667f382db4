"""Contact CR (semi-invariant) submanifold machinery.

For an isometric submanifold N of a Sasakian sphere the tangent bundle
splits as D + D_perp + <xi> with phi D = D and phi D_perp normal; the
normal bundle splits as phi D_perp + nu.  The splitting is computed by
singular values of the "how normal is phi(.)" map on the contact part
of TN.  On top of it sit the curvature identities tying the second
fundamental form, the O'Neill tensor and the phi-sectional curvatures
of N and of the submersion target.

The splitting is decided per sample, at float points.  The identities
that follow it are jet-generic: on a ``SubmersionContext.stacked``
context with a ``CRDecomposition.stacked`` splitting, each returns one
lane per sample, as the per-sample evaluation would round it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousSplit
from .jets import jsqrt, value
from .tensor_kernel import gram_schmidt, orthogonal_tail
from .vecops import lane_pow, nonnegative, stack_frames, vsub, vvalue


@dataclass
class CRDecomposition:
    """Frames of the contact CR splitting at a point of N."""

    d_frame: list
    dperp_frame: list
    phi_dperp_frame: list
    nu_frame: list
    dims: dict

    @classmethod
    def stacked(cls, decs):
        """One splitting whose frames hold the given per-sample splittings
        as lanes; they must agree in ``dims``."""
        first = decs[0]
        if any(d.dims != first.dims for d in decs):
            raise ValueError("splittings of different dimensions cannot share lanes")

        def lanes(name):
            return stack_frames([getattr(d, name) for d in decs])

        return cls(
            lanes("d_frame"),
            lanes("dperp_frame"),
            lanes("phi_dperp_frame"),
            lanes("nu_frame"),
            first.dims,
        )


def cr_decomposition(ctx):
    """Split TN and the normal bundle at ctx.p by phi-invariance."""
    S = ctx.structure
    p = ctx.p
    tangent_on, normal_on = ctx._tangent_frames()

    xi = vvalue(S.reeb(p))
    contact = orthogonal_tail(S.metric, p, [xi], tangent_on)

    phis = [vvalue(S.phi(p, c)) for c in contact]
    g = S.metric.at(p)
    M = np.asarray(
        [[value(g(nu, ph)) for ph in phis] for nu in normal_on], dtype=float
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

    dims = {
        "D": len(d_block),
        "D_perp": len(dperp),
        "phi_D_perp": len(phi_dperp),
        "nu": len(nu_frame),
        "TN": len(tangent_on),
    }
    return CRDecomposition(d_block, dperp, phi_dperp, nu_frame, dims)


def split_normal(ctx, crdec, w):
    """Components of a normal vector in phi(D_perp) and nu."""
    g = ctx.structure.metric.at(ctx.p)
    bar = [0.0] * len(w)
    for u in crdec.phi_dperp_frame:
        c = value(g(u, w))
        bar = [a + c * b for a, b in zip(bar, u)]
    tilde = [0.0] * len(w)
    for u in crdec.nu_frame:
        c = value(g(u, w))
        tilde = [a + c * b for a, b in zip(tilde, u)]
    return bar, tilde


def _norm2(ctx, w):
    return nonnegative(ctx.structure.metric.g(ctx.p, w, w))


def relation_residuals(ctx, crdec, x, y):
    """The A-h dictionary at (x, y): both tangency relations, the inner
    product identity and the two norm identities."""
    S = ctx.structure
    p = ctx.p
    g = S.metric.at(p)
    phi_y = vvalue(S.phi(p, y))
    phi_x = vvalue(S.phi(p, x))

    h_xy, h_x_phiy, h_phix_phiy = (vvalue(h) for h in ctx.second_fundamentals(
        [(x, y), (x, phi_y), (phi_x, phi_y)]))
    a_xy, a_x_phiy = (vvalue(a) for a in ctx.a_tensors([(x, y), (x, phi_y)]))
    bar_xy, tilde_xy = split_normal(ctx, crdec, h_xy)

    # A(X, phi Y) = v phi h(X, Y)
    v_phi_h = vvalue(ctx.vertical_project(p, vvalue(S.phi(p, h_xy))))
    rel1a = jsqrt(_norm2(ctx, vsub(a_x_phiy, v_phi_h)))

    # h(X, phi Y) = phi A(X, Y) + phi (nu component of h(X, Y))
    rhs = [a + b for a, b in zip(vvalue(S.phi(p, a_xy)), vvalue(S.phi(p, tilde_xy)))]
    rel1b = jsqrt(_norm2(ctx, vsub(h_x_phiy, rhs)))

    # g(h(phi X, phi Y), h(X, Y)) = |bar h|^2 - |tilde h|^2
    norm1 = abs(
        value(g(h_phix_phiy, h_xy)) - (_norm2(ctx, bar_xy) - _norm2(ctx, tilde_xy))
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
    the horizontal curvature formula holds (Hopf-gated sign).

    This is no independent check of the curvature: K_P is assembled from
    the same K_N numerator, and the A cache of ``quotient_curvature_4``
    returns A(phi X, X) as exactly -A(X, phi X), so the residual cancels
    to rounding whatever R^N, h and A are.  It checks the assembly only."""
    S = ctx.structure
    p = ctx.p
    g = S.metric.at(p)
    phi_x = vvalue(S.phi(p, x))
    den = value(g(x, x)) * value(g(phi_x, phi_x)) - lane_pow(value(g(x, phi_x)), 2)
    h_cache = {}  # both curvatures take the same second fundamental forms
    k_n = ctx.gauss_curvature_n4(x, phi_x, phi_x, x, h_cache=h_cache) / den
    k_p = ctx.quotient_curvature_4(x, phi_x, phi_x, x, h_cache=h_cache) / den
    a_val = vvalue(ctx.a_tensor(x, phi_x))
    return abs(k_n - k_p + 3.0 * _norm2(ctx, a_val) / den)


def final_identity(ctx, x, crdec):
    """Term ledger of K_P(X) = K_M(X^h) + 4|bar h(X,X)|^2 - 2|tilde h(X,X)|^2
    on the splitting ``crdec`` of ``cr_decomposition(ctx)``.

    x must be unit, horizontal and orthogonal to the Reeb direction.
    """
    S = ctx.structure
    p = ctx.p
    g = S.metric.at(p)

    k_p = ctx.phi_sectional_quotient(x)
    phi_x = vvalue(S.phi(p, x))
    den = value(g(x, x)) * value(g(phi_x, phi_x)) - lane_pow(value(g(x, phi_x)), 2)
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
