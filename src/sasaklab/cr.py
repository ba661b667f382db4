"""Contact CR (semi-invariant) submanifold machinery.

For an isometric submanifold N of a Sasakian sphere the tangent bundle
splits as D + D_perp + <xi> with phi D = D and phi D_perp normal; the
normal bundle splits as phi D_perp + nu.  The splitting is computed by
singular values of the "how normal is phi(.)" map on the contact part
of TN, which is read off N's tangent frame (the frame ends in the Reeb
field, ``oneill.SubmersionContext``): D and D_perp are combinations of
it, phi(D_perp) the same combinations of its phi, and one Gram-Schmidt
on phi(D_perp) and N's normal frame gives phi(D_perp) and nu.  On top
of it sit the curvature identities tying the second fundamental form,
the O'Neill tensor and the phi-sectional curvatures of N and of the
submersion target.

The splitting, and the identities that follow it, take the lane
context of a batch of samples as they take a float one, and each lane
holds the bits of its sample's float evaluation.  The matrices of the
batch go through one stacked SVD; every lane is tested against the
ambiguity band, and the D_perp count, like each Gram-Schmidt drop, is
decided per lane: lanes that decide differently raise
``LanesDisagree``, and the caller splits the batch by the decision
(``vecops.agreeing_parts``).  The splitting follows Bejancu, *Geometry
of CR-Submanifolds* (1986).
"""

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import AmbiguousSplit
from .jets import jsqrt, value, vector
from .tensor_kernel import gram_schmidt
from .vecops import agreed, combine, lane_stack, lane_width, nonnegative, pairings, plane_area


@dataclass
class CRDecomposition:
    """Frames of the contact CR splitting at a point of N, or at the
    samples of a lane context, each one array (k, m) + lanes."""

    d_frame: np.ndarray
    dperp_frame: np.ndarray
    phi_dperp_frame: np.ndarray
    nu_frame: np.ndarray
    dims: dict


def cr_decomposition(ctx):
    """Split TN and the normal bundle at ctx.p by phi-invariance, on the
    context's frames of N.  ``tangent_frame`` is g-orthonormal and ends in
    the Reeb field, so TN's contact part is the frame before it; D and
    D_perp are combinations of that part (``vecops.combine``), and
    phi(D_perp), phi being a tensor, the same combinations of its phi.
    One Gram-Schmidt on phi(D_perp) followed by ``normal_frame`` gives the
    frames of phi(D_perp) and of nu.

    On a lane context every lane is split as its float context would
    split it: the band test runs on every lane first, and the D_perp
    count must agree across the lanes (``vecops.agreed``)."""
    S = ctx.structure
    p = ctx.p
    samples = lane_width(p) or 1

    contact = ctx.tangent_frame[:-1]
    c = len(contact)

    # sample by sample, the "how normal is phi" matrix: one stacked SVD
    phis = np.array([value(S.phi(p, v)) for v in contact])
    M = lane_stack(pairings(ctx.g, ctx.normal_frame, phis))
    sv_full = np.zeros((samples, c))
    if M.size:
        _, sv, vt = np.linalg.svd(M.reshape(samples, -1, c), full_matrices=True)
        sv_full[:, : sv.shape[1]] = sv
    else:
        vt = np.broadcast_to(np.eye(c), (samples, c, c))

    lo_band, hi_band = tolerances.CR_BAND, 1.0 - tolerances.CR_BAND
    ambiguous = np.any((sv_full > lo_band) & (sv_full < hi_band), axis=1)
    if ambiguous.any():
        raise AmbiguousSplit(f"singular values {sv_full[ambiguous.argmax()].tolist()} "
                             f"cluster inside ({lo_band}, {hi_band})")
    # the singular values fall: the rows of D_perp come first
    n_perp = agreed(np.count_nonzero(sv_full >= hi_band, axis=1))
    # row r of lane j weighs the contact vectors by vt[j, r]
    w = np.moveaxis(vt, 0, -1) if lane_width(p) else vt[0]
    rows = combine(w, contact)
    dperp, d_block = rows[:n_perp], rows[n_perp:]

    normal = gram_schmidt(S.metric, p, [*combine(w[:n_perp], phis), *ctx.normal_frame])
    n_phi = sum(i < n_perp for i in normal.inputs)
    phi_dperp, nu_frame = normal.vectors[:n_phi], normal.vectors[n_phi:]

    dims = {
        "D": len(d_block),
        "D_perp": len(dperp),
        "phi_D_perp": len(phi_dperp),
        "nu": len(nu_frame),
        "TN": len(ctx.tangent_frame),
    }
    return CRDecomposition(d_block, dperp, phi_dperp, nu_frame, dims)


def split_normal(ctx, crdec, w):
    """Components of a normal vector in phi(D_perp) and nu."""
    g = ctx.g
    bar = tilde = np.zeros(np.shape(w))
    for u in crdec.phi_dperp_frame:
        bar = bar + value(g(u, w)) * u
    for u in crdec.nu_frame:
        tilde = tilde + value(g(u, w)) * u
    return bar, tilde


def _norm2(ctx, w):
    return nonnegative(ctx.g(w, w))


def relation_residuals(ctx, crdec, x, y):
    """The A-h dictionary at (x, y): both tangency relations, the inner
    product identity and the two norm identities."""
    S = ctx.structure
    p = ctx.p
    g = ctx.g
    x, y = vector(x), vector(y)
    phi_y = value(S.phi(p, y))
    phi_x = value(S.phi(p, x))

    h_xy, h_x_phiy, h_phix_phiy = (value(h) for h in ctx.second_fundamentals(
        [(x, y), (x, phi_y), (phi_x, phi_y)]))
    a_xy, a_x_phiy = (value(a) for a in ctx.a_tensors([(x, y), (x, phi_y)]))
    bar_xy, tilde_xy = split_normal(ctx, crdec, h_xy)

    # A(X, phi Y) = v phi h(X, Y)
    v_phi_h = value(ctx.vertical_project(p, value(S.phi(p, h_xy))))
    rel1a = jsqrt(_norm2(ctx, a_x_phiy - v_phi_h))

    # h(X, phi Y) = phi A(X, Y) + phi (nu component of h(X, Y))
    rhs = value(S.phi(p, a_xy)) + value(S.phi(p, tilde_xy))
    rel1b = jsqrt(_norm2(ctx, h_x_phiy - rhs))

    # g(h(phi X, phi Y), h(X, Y)) = |bar h|^2 - |tilde h|^2
    norm1 = abs(value(g(h_phix_phiy, h_xy)) - (_norm2(ctx, bar_xy) - _norm2(ctx, tilde_xy)))

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
    x = vector(x)
    phi_x = value(S.phi(p, x))
    den = plane_area(ctx.g, x, phi_x)
    h_cache = {}  # both curvatures take the same second fundamental forms
    k_n = ctx.gauss_curvature_n4(x, phi_x, phi_x, x, h_cache=h_cache) / den
    k_p = ctx.quotient_curvature_4(x, phi_x, phi_x, x, h_cache=h_cache) / den
    a_val = value(ctx.a_tensor(x, phi_x))
    return abs(k_n - k_p + 3.0 * _norm2(ctx, a_val) / den)


def final_identity(ctx, x, crdec):
    """Term ledger of K_P(X) = K_M(X^h) + 4|bar h(X,X)|^2 - 2|tilde h(X,X)|^2
    on the splitting ``crdec`` of ``cr_decomposition(ctx)``.

    x must be unit, horizontal and orthogonal to the Reeb direction.
    """
    S = ctx.structure
    p = ctx.p
    g = ctx.g
    x = vector(x)

    k_p = ctx.phi_sectional_quotient(x)
    phi_x = value(S.phi(p, x))
    k_m = S.ambient_curvature_4(p, x, phi_x, phi_x, x) / plane_area(g, x, phi_x)

    h_xx = value(ctx.second_fundamental(x, x))
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
