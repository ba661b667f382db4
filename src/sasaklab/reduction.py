"""Ray and zero level sets of torus momentum maps, and their frames.

Sampling is moduli-first: J depends only on t_j = |z_j|^2, so the level
set is a polytope in t (a slice of the simplex) crossed with phases.
Coordinates that vanish identically on the polytope are turned into
linear constraints z_j = 0; this is what keeps level sets like
{z_0 = 0} regular even though the defining quadratic |z_0|^2 is
critical there.

The polytope is analysed by three small linear programs, solved by a
dense two-phase simplex with Bland's rule (`_simplex`): phase 1 of the
stated system, which returns a Farkas certificate when it is empty; one
Freund-Roundy-Todd LP that finds every identically-zero coordinate at
once; and a max-min-margin LP for the interior point.  Each has one row
per equality (the sum, the kernel rows, the ray), not one per coordinate.

Samples walk the polytope by hit-and-run, one vectorised draw a chunk
(``vecops.uniforms``, ``vecops.batches``); every sum over coordinates
runs in order, so sample i depends neither on the count nor on the
chunking.  A chunk is one (count, m) array of points and one of s.

The hypothesis checks and the reduction frames take a batch of samples
at once, as lanes: one stacked SVD per rank test and tangent basis, one
Gram-Schmidt per frame.  Decisions (a drop, a rank) are made per lane;
lanes that decide differently raise ``LanesDisagree``, and the caller
splits the batch by the decision (``vecops.agreeing_parts``).  A batch of
one sample runs on floats.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import tolerances
from .actions import (KernelAlgebra, MomentumCovector, kernel_algebra, local_freeness,
                      slice_condition)
from .errors import (
    DegenerateAction,
    EmptyFrame,
    EmptyLevelSet,
    FrameInconsistent,
    NoConvergence,
    WrongRay,
)
from .manifolds import (EmbeddedManifold, LinearConstraint, ModuliConstraint, Sphere,
                        SphereConstraint)
from .tensor_kernel import Frame, gram_schmidt, orthogonal_tail, unit_points
from .jets import value
from .vecops import (agreed, batches, combine, lane_stack, normals, pairings, rowdot,
                     split_frame, stack_lanes, svd_rank, uniforms, unit_rows, vdot)


@dataclass
class ModuliPolytope:
    """Feasibility data for {t >= 0, sum t = 1, rows . t = 0 (, c . t > 0)}."""

    n: int
    rows: np.ndarray          # zero-constraint rows on moduli
    ray_coeff: np.ndarray | None  # c with s(t) = c . t, None in zero mode
    support: list             # coordinates not identically zero
    fixed_zero: list          # coordinates identically zero on the polytope
    interior: np.ndarray      # an interior point, full length n
    null_basis: np.ndarray    # directions spanning the polytope's affine hull
    kept_rows: np.ndarray     # independent, support-restricted constraint rows


_S_FLOOR = 1e-8


def _simplex(A, b, cost, upper=None):
    """Minimise cost . x over {A x = b, 0 <= x <= upper}, upper = inf by default.

    Dense two-phase simplex: phase 1 starts from one artificial variable
    per row, phase 2 keeps the artificials fixed at zero.  Returns
    ``(x, None)`` at an optimum, or ``(None, y)`` when the system is
    empty, with A^T y >= 0 and b . y = -1 (a Farkas certificate; it
    ignores ``upper``).  The objective must be bounded on the set.
    Entries within the feasibility tolerance of zero are returned as 0.
    """
    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    A1 = np.hstack([A * sign[:, None], np.eye(m)])
    b1 = b * sign
    bound = np.full(n + m, np.inf)
    if upper is not None:
        bound[:n] = upper
    basis = list(range(n, n + m))
    at_upper = np.zeros(n + m, dtype=bool)
    x, w = _bland(A1, b1, np.concatenate([np.zeros(n), np.ones(m)]), bound, basis, at_upper)
    if x[n:].sum() > tolerances.LP_FEASIBILITY:
        return None, -sign * w / (b1 @ w)
    bound[n:] = 0.0
    x, _ = _bland(A1, b1, np.concatenate([cost, np.zeros(m)]), bound, basis, at_upper)
    x = x[:n]
    x[np.abs(x) <= tolerances.LP_FEASIBILITY] = 0.0   # degenerate basics
    return x, None


def _bland(A, b, cost, upper, basis, at_upper):
    """Bounded-variable simplex steps from the feasible basis ``basis``
    (updated in place, as is ``at_upper``) to an optimum; returns the
    point and the row duals.  Bland's rule: the lowest-index improving
    variable enters and ties for leaving go to the lowest index, so the
    method cannot cycle on degenerate vertices."""
    pivot, feas = tolerances.LP_PIVOT, tolerances.LP_FEASIBILITY
    m, N = A.shape
    movable = upper > 0
    for _ in range(50 * (N + 1)):
        x = np.where(at_upper, upper, 0.0)
        x[basis] = 0.0
        B = A[:, basis]
        x[basis] = np.linalg.solve(B, b - A @ x)
        w = np.linalg.solve(B.T, cost[basis])
        d = cost - A.T @ w
        enter = movable & np.where(at_upper, d > pivot, d < -pivot)
        enter[basis] = False
        if not enter.any():
            return x, w
        j = int(np.argmax(enter))
        # the basic values move by -col * theta as x_j moves by theta
        col = np.linalg.solve(B, A[:, j]) * (-1.0 if at_upper[j] else 1.0)
        xb, ub = x[basis], upper[basis]
        room = np.full(m, np.inf)
        down, up = col > pivot, col < -pivot
        to_lower = np.where(xb > feas, xb, 0.0)
        to_upper = np.where(ub - xb > feas, ub - xb, 0.0)
        room[down] = to_lower[down] / col[down]
        room[up] = to_upper[up] / -col[up]
        theta = room.min(initial=np.inf)
        if theta == np.inf and upper[j] == np.inf:
            raise NoConvergence("unbounded linear program")
        if upper[j] <= theta:
            at_upper[j] = not at_upper[j]
            continue
        r = min(np.flatnonzero(room == theta), key=lambda i: basis[i])
        at_upper[basis[r]] = bool(up[r])
        at_upper[j] = False
        basis[r] = j
    raise NoConvergence("simplex iteration limit reached")


def _with_surplus(A, b, row, rhs):
    """Append the inequality row . x >= rhs as row . x - surplus = rhs."""
    A = np.vstack([np.hstack([A, np.zeros((len(A), 1))]), np.append(row, -1.0)])
    return A, np.append(b, rhs)


def analyze_moduli(n, rows, ray_coeff=None):
    """Support detection and interior point of the moduli polytope."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float)) if len(rows) else np.zeros((0, n))
    ray = None if ray_coeff is None else np.asarray(ray_coeff, dtype=float)

    # phase 1 of the stated system, over x = (t, ray surplus)
    A = np.vstack([np.ones((1, n)), rows])
    b = np.zeros(len(A))
    b[0] = 1.0
    if ray is not None:
        A, b = _with_surplus(A, b, ray, _S_FLOOR)
    _, farkas = _simplex(A, b, np.zeros(A.shape[1]))
    if farkas is not None:
        raise EmptyLevelSet("moduli polytope infeasible",
                            certificate={"A": A, "b": b, "y": farkas})

    # Freund-Roundy-Todd: on the cone {t >= 0, rows . t = 0, c . t >= 0},
    # maximise sum y with t = y + u, u >= 0, 0 <= y <= 1; y_j reaches 1
    # exactly where t_j can be positive and stays 0 where t_j vanishes
    # identically.  As the polytope is not empty, dropping the floor of
    # c . t does not change which t_j can be positive.
    A = np.hstack([rows, rows])
    b = np.zeros(len(A))
    if ray is not None:
        A, b = _with_surplus(A, b, np.tile(ray, 2), 0.0)
    cost = np.zeros(A.shape[1])
    cost[:n] = -1.0
    upper = np.full(A.shape[1], np.inf)
    upper[:n] = 1.0
    y, _ = _simplex(A, b, cost, upper)
    support = [j for j in range(n) if y[j] > tolerances.LP_SUPPORT]
    fixed_zero = [j for j in range(n) if j not in support]

    ns = len(support)
    rows_s = rows[:, support] if rows.size else np.zeros((0, ns))
    kept = np.zeros((0, ns))
    for r in rows_s:
        cand = np.vstack([kept, r])
        if (np.linalg.norm(r) >= tolerances.MODULI_ROW_NORM
                and np.linalg.matrix_rank(cand, tol=tolerances.MODULI_RANK) > len(kept)):
            kept = cand

    # interior point: maximise the smallest margin delta over t = delta + s,
    # s >= 0 (and c . t >= delta), in variables (s, delta, ray surplus)
    A = np.vstack([np.append(np.ones(ns), ns),
                   np.hstack([kept, kept.sum(axis=1, keepdims=True)])])
    b = np.zeros(len(A))
    b[0] = 1.0
    if ray is not None:
        c_s = ray[support]
        A, b = _with_surplus(A, b, np.append(c_s, c_s.sum() - 1.0), 0.0)
    cost = np.zeros(A.shape[1])
    cost[ns] = -1.0
    x, farkas = _simplex(A, b, cost)
    if farkas is not None:
        raise EmptyLevelSet("no interior point in the moduli polytope",
                            certificate={"A": A, "b": b, "y": farkas})
    x_s = x[ns] + x[:ns]

    eqs = np.vstack([np.ones((1, ns)), kept])
    _, sv, vt = np.linalg.svd(eqs)
    null = vt[svd_rank(sv, tolerances.MODULI_RANK):]

    interior = np.zeros(n)
    interior[support] = x_s
    return ModuliPolytope(
        n=n,
        rows=rows,
        ray_coeff=ray,
        support=support,
        fixed_zero=fixed_zero,
        interior=interior,
        null_basis=null,
        kept_rows=kept,
    )


_STEPS = 32


def _draws(poly, seed, start, count):
    """The walk's draws of samples start, ..., start + count - 1: 32 x k
    normals, 32 Beta(2, 2) step fractions (the median of three uniforms),
    then n phases 2 pi u, from each sample's block of salt 0."""
    k = poly.null_basis.shape[0]
    u = uniforms(seed, 0, start, count, _STEPS * (k + 3) + poly.n)
    z = normals(u[:, :_STEPS * k]).reshape(count, _STEPS, k)
    beta = np.sort(u[:, _STEPS * k:_STEPS * (k + 3)].reshape(count, _STEPS, 3), axis=-1)[..., 1]
    return z, beta, 2.0 * math.pi * u[:, _STEPS * (k + 3):]


def _walk(poly, z, beta):
    """Hit-and-run inside t_j >= 0 (and c . t >= floor on a ray), one
    sample per row, all stepping at once along Gaussian directions of the
    affine hull; a vanishing direction or an empty chord stays put."""
    basis = poly.null_basis
    x = np.tile(poly.interior[poly.support], (len(z), 1))
    if not len(basis):
        return x
    ray = None if poly.ray_coeff is None else -poly.ray_coeff[poly.support]
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(_STEPS):
            d = combine(z[:, step], basis)   # sum_j z_j basis_j, in order
            nrm = np.sqrt(rowdot(d, d))
            d = d / nrm[:, None]
            # the chord x + lam d meets t_j = 0 at lam = x_j / -d_j
            lam = x / -d
            hi = np.where(d <= -1e-14, lam, np.inf).min(axis=1)
            lo = np.where(d >= 1e-14, lam, -np.inf).max(axis=1)
            if ray is not None:
                a = rowdot(d, ray)
                lam = (-_S_FLOOR - rowdot(x, ray)) / a
                hi = np.where(a >= 1e-14, np.minimum(hi, lam), hi)
                lo = np.where(a <= -1e-14, np.maximum(lo, lam), lo)
            move = (nrm >= 1e-14) & np.isfinite(lo) & np.isfinite(hi) & (hi > lo)
            x = np.where(move[:, None], x + (lo + (hi - lo) * beta[:, step])[:, None] * d, x)
    return x


def _level_set_samples(action, mu, poly, count, seed, start=0):
    """(coords, s) of samples start, ..., start + count - 1: points over
    the walk on ``poly`` with random phases, one (count, m) array; with a
    ray ``mu`` each is checked against it, in zero mode s = 0."""
    coords, s = np.empty((count, 2 * poly.n)), np.zeros(count)
    for k, indices in batches(range(start, start + count)):
        z, beta, theta = _draws(poly, seed, indices.start, len(indices))
        t = np.zeros((len(z), poly.n))
        t[:, poly.support] = np.maximum(_walk(poly, z, beta), 0.0)
        r = np.sqrt(t / sum(t.T)[:, None])
        chunk = unit_points(unit_rows(
            np.stack([r * np.cos(theta), r * np.sin(theta)], axis=2).reshape(len(z), -1)))
        coords[k:k + len(z)] = chunk
        if mu is not None:
            j_val = action.momentum(chunk.T)
            unit = np.asarray(mu.unit)
            si = vdot(j_val, unit)
            miss = j_val - si * unit[:, None]
            resid = np.sqrt(vdot(miss, miss))
            bad = (resid > tolerances.LEVEL_SET_RESIDUAL) | (si <= tolerances.NEWTON_MIN_S)
            if bad.any():
                i = int(np.argmax(bad))
                raise FrameInconsistent(
                    f"sampled point misses the ray: residual {resid[i]:.3e}, s {si[i]:.3e}")
            s[k:k + len(z)] = si
    return coords, s


def _polytope(action, rows, mu=None):
    """The moduli polytope where the momenta of the algebra rows vanish,
    on the ray of ``mu`` when one is given."""
    rows = rows @ action.matrix if len(rows) else np.zeros((0, action.n))
    ray = None if mu is None else action.matrix.T @ np.asarray(mu.unit)
    return analyze_moduli(action.n, rows, ray)


def sample_level_set(action, mu, count, seed):
    """(coords, s) of samples of J^{-1}(R_+ mu), deterministic in
    (action, mu, seed); sample i does not depend on count."""
    mu = mu if isinstance(mu, MomentumCovector) else MomentumCovector.of(mu)
    poly = _polytope(action, kernel_algebra(mu).matrix, mu)
    return _level_set_samples(action, mu, poly, count, seed)


def sample_zero_level(action, rows, count, seed):
    """Samples, one (count, m) array, of the joint zero level of the
    momenta of the given subalgebra rows (zero reduction, the cone suite)."""
    poly = _polytope(action, np.atleast_2d(np.asarray(rows, dtype=float)))
    return _level_set_samples(action, None, poly, count, seed)[0]


def newton_project(action, mu, q):
    """(z, s): Gauss-Newton projection onto {|z| = 1, J(z) = s mu_unit, s > 0}."""
    mu = mu if isinstance(mu, MomentumCovector) else MomentumCovector.of(mu)
    unit = np.asarray(mu.unit)
    z = np.array(q, dtype=float)
    s = float(np.asarray(action.momentum(z)) @ unit)
    for _ in range(tolerances.NEWTON_MAX_ITER):
        j_val = np.asarray(action.momentum(z))
        F = np.concatenate([[z @ z - 1.0], j_val - s * unit])
        if float(np.max(np.abs(F))) < tolerances.NEWTON_TOL:
            if s <= tolerances.NEWTON_MIN_S:
                raise WrongRay(f"converged with ray parameter s = {s:.3e}")
            return unit_points(z), s
        jac = np.zeros((1 + action.d, len(z) + 1))
        jac[0, :-1] = 2.0 * z
        jac[1:, :-1] = action.momentum_jacobian(z)
        jac[1:, -1] = -unit
        step, *_ = np.linalg.lstsq(jac, -F, rcond=None)
        z = z + step[:-1]
        s = s + float(step[-1])
    raise NoConvergence(f"no convergence after {tolerances.NEWTON_MAX_ITER} iterations")


def transversality_check(action, mu, p):
    """Rank test of [dJ(tangent frame) | mu_unit] at the point p.  At a
    lane point one stacked SVD tests every sample, and the verdicts and
    singular values come back per sample (arrays)."""
    mu = mu if isinstance(mu, MomentumCovector) else MomentumCovector.of(mu)
    p = np.asarray(p, dtype=float)
    frame = lane_stack(Sphere(len(p)).tangent_basis(p))
    dj = lane_stack(action.momentum_jacobian(p)) @ np.swapaxes(frame, -1, -2)
    unit = np.broadcast_to(np.reshape(mu.unit, (-1, 1)), dj.shape[:-1] + (1,))
    svals = np.linalg.svd(np.concatenate([dj, unit], axis=-1), compute_uv=False)
    return svals[..., -1] > tolerances.RANK_SINGULAR_VALUE, svals


# ----------------------------------------------------------------------
# reduction setups: ray mode and zero mode share everything downstream
# ----------------------------------------------------------------------


class ReductionSetup:
    """Level-set geometry plus the acting subalgebra of the quotient.

    mode "ray":  level set J^{-1}(R_+ mu), acting algebra ker(mu).
    mode "zero": joint zero level of the momenta of `rows`, acting
                 algebra spanned by those same rows.
    """

    def __init__(self, structure, action, mu=None, zero_rows=None):
        if (mu is None) == (zero_rows is None):
            raise ValueError("give exactly one of mu / zero_rows")
        self.structure = structure
        self.action = action
        if mu is not None:
            self.mode = "ray"
            self.mu = mu if isinstance(mu, MomentumCovector) else MomentumCovector.of(mu)
            self.kernel = kernel_algebra(self.mu)
            self.acting_rows = self.kernel.matrix
        else:
            self.mode = "zero"
            self.mu = None
            rows = np.atleast_2d(np.asarray(zero_rows, dtype=float))
            self.kernel = KernelAlgebra(None, tuple(tuple(float(x) for x in r) for r in rows))
            self.acting_rows = rows
        self.polytope = _polytope(action, self.acting_rows, self.mu)
        self.manifold = self._build_manifold()

    def _build_manifold(self):
        cons = [SphereConstraint()]
        for j in self.polytope.fixed_zero:
            for off in (0, 1):
                e = np.zeros(2 * self.action.n)
                e[2 * j + off] = 1.0
                cons.append(LinearConstraint(e))
        for r in self.polytope.kept_rows:
            full = np.zeros(self.action.n)
            full[self.polytope.support] = r
            cons.append(ModuliConstraint(full))
        return EmbeddedManifold(2 * self.action.n, cons)

    # -- sampling ------------------------------------------------------

    def samples(self, count, seed, start=0):
        """(coords, s) of samples start, ..., start + count - 1."""
        return _level_set_samples(self.action, self.mu, self.polytope, count, seed, start)

    # -- per-sample hypothesis data -------------------------------------

    @cached_property
    def slice_check(self):
        """(ok, info) of the slice condition; it depends only on mu."""
        if self.mode == "ray":
            return slice_condition(self.mu)
        return True, {"note": "zero reduction: ker 0 = g"}

    def hypothesis_report(self, samples):
        """Hypothesis data of the sample points, the rows of a (count, m)
        array: each entry an array over the samples, in order.  The rank
        tests run as one stacked SVD each; the slice condition, which
        depends on mu alone, is ``slice_check``."""
        p = stack_lanes(samples)
        trans_ok = transversality_check(self.action, self.mu, p)[0] if self.mode == "ray" else True
        rank, degenerate, _ = local_freeness(self.action, self.kernel, p)
        # a float run, or a trivial kernel, gives one value for every sample
        return {name: np.broadcast_to(v, (len(samples),)) for name, v in
                (("transversal", trans_ok), ("freeness_rank", rank),
                 ("freeness_degenerate", degenerate))}


def quotient_dimension(dim_m, d, k):
    """Level-set dimension dim_m - (d - 1), minus the orbit dimension k."""
    return dim_m - (d - 1) - k


def printed_remark_dimension(n, d, m, k):
    """The 2n - d - m - k + 1 bookkeeping value, reported for comparison
    (it overcounts by one on every toric example; see the run reports)."""
    return 2 * n - d - m - k + 1


@dataclass
class ReductionFrame:
    """Concrete orthogonal splitting at a level-set sample, or at a batch
    of samples as lanes that agree in every float-level decision."""

    p: np.ndarray                   # the sample's point, or lanes
    vertical: Frame
    reeb: np.ndarray
    contact_d: Frame
    normal: Frame
    vertical_rows: np.ndarray       # algebra rows whose fields stay independent
    tangent: object                 # Euclidean-orthonormal basis of the level set's T_p
    dims: dict
    checks: dict                    # a float, or an array over the lanes, per check

    @property
    def horizontal(self):
        """contactD followed by the Reeb direction, one array (k + 1, m) + lanes."""
        return np.concatenate([self.contact_d.vectors, self.reeb[None]])


def build_frame(setup, samples, strict=True):
    """Vertical / Reeb / contact-horizontal / normal splitting at the
    sample points, the rows of a (count, m) array (or a list of points).

    The frames of all of them are built at once on lanes, one sample on
    floats.  Every float-level decision (a Gram-Schmidt drop, hence the
    vertical rank and each frame size; the rows kept at a vertical rank
    loss; a tangent rank) is made per lane and must agree across the
    lanes, else ``LanesDisagree`` (split with ``vecops.agreeing_parts``).
    """
    p = stack_lanes(samples)
    S = setup.structure
    man = setup.manifold
    tol = tolerances.DEFAULTS["frame_orthogonality"]

    rows = setup.acting_rows
    vert_vecs = [value(setup.action.fundamental_field(r, p)) for r in rows]
    try:
        vertical = gram_schmidt(S.metric, p, vert_vecs)
    except EmptyFrame:
        vertical = gram_schmidt(S.metric, p, [])
    k_eff = len(vertical)
    if 0 < k_eff < len(rows) and strict:
        raise DegenerateAction(f"fundamental fields have rank {k_eff} < {len(rows)} at the sample")
    # rows whose fields survive, for vertical projection as fields
    if k_eff == len(rows):
        vrows = rows
    elif k_eff == 0:
        vrows = np.zeros((0, setup.action.d))
    else:
        picks = [_independent_rows(vecs, k_eff)
                 for vecs in split_frame(vert_vecs, len(samples))]
        vrows = np.asarray(rows)[list(agreed(picks))]

    reeb = value(S.reeb(p))
    basis = man.tangent_basis(p)
    contact_d = Frame(orthogonal_tail(S.metric, p, [*vertical.vectors, reeb], basis))

    normal = gram_schmidt(S.metric, p, [value(S.phi(p, v)) for v in vertical.vectors])

    dim_n = man.dim
    dims = {
        "level_set": dim_n,
        "vertical": k_eff,
        "contact_d": len(contact_d),
        "normal": len(normal),
        "quotient": len(contact_d) + 1,
    }

    checks = _frame_checks(setup, p, vertical, reeb, contact_d, normal, basis)
    frame = ReductionFrame(p, vertical, reeb, contact_d, normal,
                           np.asarray(vrows, dtype=float), basis, dims, checks)
    if strict:
        bad = {k: v for k, v in checks.items() if np.any(v > tol)}
        if len(contact_d) != dim_n - k_eff - 1:
            raise FrameInconsistent(
                f"contact block has dim {len(contact_d)}, expected {dim_n - k_eff - 1}")
        if bad:
            raise FrameInconsistent(f"frame invariants violated: {bad}")
    return frame


def _independent_rows(vecs, k_eff):
    """Positions of the first k_eff of one sample's float vectors that
    are independent, in order."""
    picked, idx = [], []
    for i, v in enumerate(vecs):
        cand = picked + [v]
        if np.linalg.matrix_rank(np.asarray(cand), tol=tolerances.VERTICAL_ROW_RANK) > len(picked):
            picked.append(v)
            idx.append(i)
        if len(picked) == k_eff:
            break
    return tuple(idx)


def _frame_checks(setup, p, vertical, reeb, contact_d, normal, tangent):
    """The frame invariants, each the worst over its pairs; on lanes an
    array of one worst value per sample.  g and eta act on stacks of
    vectors, every entry with the bits of its pair's own evaluation."""
    S = setup.structure
    g = S.metric.at(p)
    stack = np.concatenate([vertical.vectors, reeb[None], contact_d.vectors])
    checks = {"block_orthogonality": np.maximum(
        _worst(pairings(g, vertical.vectors, stack[len(vertical):]), 2),
        _worst(pairings(g, reeb[None], contact_d.vectors), 2))}
    others = np.concatenate([vertical.vectors, contact_d.vectors])
    checks["eta_on_vertical_and_d"] = _worst(value(S.eta(p, np.moveaxis(others, 0, 1))))
    checks["eta_on_reeb"] = abs(value(S.eta(p, reeb)) - 1.0)
    checks["normal_vs_tangent"] = _worst(pairings(g, normal.vectors, tangent), 2)
    rank = np.linalg.matrix_rank(lane_stack(stack), tol=tolerances.SPAN_RANK)
    checks["span_defect"] = np.subtract(len(stack), rank, dtype=float)
    return checks


def _worst(x, lead=1):
    """max |x| over the ``lead`` leading axes, 0.0 for none; NaN wins."""
    return np.max(np.abs(x), axis=tuple(range(lead)), initial=0.0)


@dataclass
class ReducedPointData:
    """Reduced tensors in the horizontal frame representation, at one
    sample; at the samples of a lane frame every field holds them all:
    eta (h, samples), the Gram (h, h, samples), d(eta) as the stack
    (samples, c, c), and the determinant and each check (samples,)."""

    reduced_eta: np.ndarray
    reduced_gram: np.ndarray
    d_eta_matrix: np.ndarray
    d_eta_det: float
    checks: dict


def reduced_tensors(setup, rframe):
    """eta, g and d(eta) on {contactD, reeb}: the reduced tensors under
    the Riemannian-submersion identification, at every sample of a float
    or lane frame at once.  eta takes one evaluation on the stacked frame;
    g, d(eta) on the contact pairs and d(eta) on (vertical field, tangent
    vector) one ``pairings`` grid each, d(eta) in closed form; every entry
    holds the bits of its own evaluation."""
    S = setup.structure
    p = rframe.p
    lanes = np.shape(p)[1:]
    H = rframe.horizontal
    eta = value(S.eta(p, np.moveaxis(H, 0, 1)))
    gram = pairings(S.metric.at(p), H, H)
    d_eta = partial(S.d_eta, p)
    dvecs = rframe.contact_d.vectors
    # an empty contact frame's (0, 0) grid still holds one matrix a lane
    deta = np.reshape(pairings(d_eta, dvecs, dvecs), (len(dvecs),) * 2 + lanes)
    vfields = [value(setup.action.fundamental_field(vrow, p)) for vrow in rframe.vertical_rows]
    h = len(eta)
    checks = {
        "reduced_eta_profile": _worst(eta - np.eye(h)[-1].reshape((h,) + (1,) * len(lanes))),
        "reduced_gram_identity": _worst(gram - np.eye(h).reshape((h, h) + (1,) * len(lanes)), 2),
        "basic_d_eta": _worst(pairings(d_eta, vfields, rframe.tangent), 2),
    }
    stack = np.ascontiguousarray(np.moveaxis(deta, (0, 1), (-2, -1)))
    det = np.abs(np.linalg.det(stack)) if len(dvecs) else np.zeros(lanes)
    return ReducedPointData(eta, gram, stack, det, checks)
