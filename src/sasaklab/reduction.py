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
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .actions import KernelAlgebra, MomentumCovector, kernel_algebra, local_freeness
from .errors import (
    DegenerateAction,
    EmptyFrame,
    EmptyLevelSet,
    FrameInconsistent,
    NoConvergence,
    WrongRay,
)
from .geometry import Geometry
from .manifolds import EmbeddedManifold, LinearConstraint, ModuliConstraint, SphereConstraint
from .tensor_kernel import AmbientPoint, Frame, gram_schmidt, orthogonal_tail
from .jets import value
from .vecops import as_list, lane, stack_frames, stack_lanes, vvalue


@dataclass(frozen=True)
class LevelSetSample:
    """A point of the level set with its ray parameter."""

    point: AmbientPoint
    s: float

    def coords(self):
        return self.point.as_list()


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
    kept = []
    rank = 0
    for r in rows_s:
        if np.linalg.norm(r) < 1e-12:
            continue
        cand = np.vstack(kept + [r]) if kept else r.reshape(1, -1)
        new_rank = int(np.linalg.matrix_rank(cand, tol=1e-11))
        if new_rank > rank:
            kept.append(r)
            rank = new_rank
    kept = np.vstack(kept) if kept else np.zeros((0, ns))

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
    r = int(np.sum(sv > 1e-11 * max(1.0, sv[0])))
    null = vt[r:]

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


def _hit_and_run(poly, rng, steps=32):
    """Interior-weighted walk on the support polytope (Beta(2,2) mix)
    inside t_j >= 0 and, on a ray, c . t >= floor."""
    x = poly.interior[poly.support].copy()
    if poly.null_basis.shape[0] == 0:
        return x
    ray = None if poly.ray_coeff is None else -poly.ray_coeff[poly.support]
    for _ in range(steps):
        d = poly.null_basis.T @ rng.standard_normal(poly.null_basis.shape[0])
        nrm = np.linalg.norm(d)
        if nrm < 1e-14:
            continue
        d /= nrm
        # the chord x + lam d meets t_j = 0 at lam = x_j / -d_j
        ahead, behind = d <= -1e-14, d >= 1e-14
        hi = np.min(x[ahead] / -d[ahead], initial=np.inf)
        lo = np.max(x[behind] / -d[behind], initial=-np.inf)
        if ray is not None:
            ad = float(ray @ d)
            if abs(ad) >= 1e-14:
                lam = float(-_S_FLOOR - ray @ x) / ad
                hi, lo = (min(hi, lam), lo) if ad > 0 else (hi, max(lo, lam))
        if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
            continue
        x = x + (lo + (hi - lo) * rng.beta(2.0, 2.0)) * d
    return x


def sample_moduli(poly, count, seed):
    """Deterministic batch of moduli vectors (full length n)."""
    out = []
    children = np.random.SeedSequence(seed).spawn(count)
    for i in range(count):
        rng = np.random.default_rng(children[i])
        x_s = _hit_and_run(poly, rng)
        t = np.zeros(poly.n)
        t[poly.support] = np.maximum(x_s, 0.0)
        t /= t.sum()
        out.append((t, rng))
    return out


def _assemble_point(t, rng):
    n = len(t)
    coords = np.zeros(2 * n)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    for j in range(n):
        r = math.sqrt(t[j])
        coords[2 * j] = r * math.cos(theta[j])
        coords[2 * j + 1] = r * math.sin(theta[j])
    coords /= np.linalg.norm(coords)
    return coords


def _level_set_samples(action, mu, poly, count, seed):
    """Points over ``sample_moduli(poly, ...)`` with random phases; with a
    ray ``mu`` each is checked against it, in zero mode s = 0."""
    samples = []
    for t, rng in sample_moduli(poly, count, seed):
        coords = _assemble_point(t, rng)
        s = 0.0
        if mu is not None:
            j_val = np.asarray(action.momentum(list(coords)))
            s = float(j_val @ np.asarray(mu.unit))
            resid = float(np.linalg.norm(j_val - s * np.asarray(mu.unit)))
            if resid > tolerances.LEVEL_SET_RESIDUAL or s <= tolerances.NEWTON_MIN_S:
                raise FrameInconsistent(
                    f"sampled point misses the ray: residual {resid:.3e}, s {s:.3e}"
                )
        samples.append(LevelSetSample(AmbientPoint.of(coords), s))
    return samples


def sample_level_set(action, mu, count, seed):
    """Samples of J^{-1}(R_+ mu), deterministic in (action, mu, count, seed)."""
    mu = mu if isinstance(mu, MomentumCovector) else MomentumCovector.of(mu)
    kern = kernel_algebra(mu)
    rows = kern.matrix @ action.matrix if kern.k else np.zeros((0, action.n))
    ray_coeff = action.matrix.T @ np.asarray(mu.unit)
    poly = analyze_moduli(action.n, rows, ray_coeff)
    return _level_set_samples(action, mu, poly, count, seed)


def sample_zero_level(action, rows, count, seed):
    """Samples of the joint zero level of the momenta of the given
    subalgebra rows (used by zero reduction and the cone suite)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    poly = analyze_moduli(action.n, rows @ action.matrix, None)
    return [s.point for s in _level_set_samples(action, None, poly, count, seed)]


def newton_project(action, mu, q):
    """Gauss-Newton projection onto {|z| = 1, J(z) = s mu_unit, s > 0}."""
    mu = mu if isinstance(mu, MomentumCovector) else MomentumCovector.of(mu)
    unit = np.asarray(mu.unit)
    z = np.asarray(as_list(q), dtype=float)
    s = float(np.asarray(action.momentum(list(z))) @ unit)
    for _ in range(tolerances.NEWTON_MAX_ITER):
        j_val = np.asarray(action.momentum(list(z)))
        F = np.concatenate([[z @ z - 1.0], j_val - s * unit])
        if float(np.max(np.abs(F))) < tolerances.NEWTON_TOL:
            if s <= tolerances.NEWTON_MIN_S:
                raise WrongRay(f"converged with ray parameter s = {s:.3e}")
            return LevelSetSample(AmbientPoint.of(z), s)
        jac = np.zeros((1 + action.d, len(z) + 1))
        jac[0, :-1] = 2.0 * z
        jac[1:, :-1] = action.momentum_jacobian(list(z))
        jac[1:, -1] = -unit
        step, *_ = np.linalg.lstsq(jac, -F, rcond=None)
        z = z + step[:-1]
        s = s + float(step[-1])
    raise NoConvergence(f"no convergence after {tolerances.NEWTON_MAX_ITER} iterations")


def transversality_check(action, mu, sample):
    """Rank test of [dJ(tangent frame) | mu_unit] at the sample."""
    mu = mu if isinstance(mu, MomentumCovector) else MomentumCovector.of(mu)
    p = sample.coords() if isinstance(sample, LevelSetSample) else as_list(sample)
    from .manifolds import Sphere

    frame = Sphere(len(p)).tangent_basis(p)
    dj = action.momentum_jacobian(p) @ frame.T
    M = np.hstack([dj, np.asarray(mu.unit).reshape(-1, 1)])
    svals = np.linalg.svd(M, compute_uv=False)
    ok = bool(svals[-1] > tolerances.RANK_SINGULAR_VALUE)
    return ok, [float(s) for s in svals]


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
        mom_rows = (
            self.acting_rows @ action.matrix
            if len(self.acting_rows)
            else np.zeros((0, action.n))
        )
        ray_coeff = (
            action.matrix.T @ np.asarray(self.mu.unit) if self.mode == "ray" else None
        )
        self.polytope = analyze_moduli(action.n, mom_rows, ray_coeff)
        self.manifold = self._build_manifold(mom_rows)
        self.geometry = Geometry(self.manifold, structure.metric)

    def _build_manifold(self, mom_rows):
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

    def samples(self, count, seed):
        return _level_set_samples(self.action, self.mu, self.polytope, count, seed)

    # -- per-sample hypothesis data -------------------------------------

    def hypothesis_report(self, sample):
        ok_slice, slice_info = _slice(self)
        trans_ok, svals = (
            transversality_check(self.action, self.mu, sample)
            if self.mode == "ray"
            else (True, [])
        )
        rank, degenerate, fsvals = local_freeness(self.action, self.kernel, sample.coords())
        return {
            "slice_condition": ok_slice,
            "slice_info": slice_info,
            "transversal": trans_ok,
            "transversality_svals": svals,
            "freeness_rank": rank,
            "freeness_expected": self.kernel.k,
            "freeness_degenerate": degenerate,
            "freeness_svals": fsvals,
        }


def _slice(setup):
    from .actions import slice_condition

    if setup.mode == "ray":
        return slice_condition(setup.mu)
    return True, {"note": "zero reduction: ker 0 = g"}


def quotient_dimension(dim_m, d, k):
    """Level-set dimension dim_m - (d - 1), minus the orbit dimension k."""
    return dim_m - (d - 1) - k


def printed_remark_dimension(n, d, m, k):
    """The 2n - d - m - k + 1 bookkeeping value, reported for comparison
    (it overcounts by one on every toric example; see the run reports)."""
    return 2 * n - d - m - k + 1


@dataclass
class ReductionFrame:
    """Concrete orthogonal splitting at a level-set sample."""

    sample: LevelSetSample
    vertical: Frame
    reeb: tuple
    contact_d: Frame
    normal: Frame
    vertical_rows: np.ndarray       # algebra rows whose fields stay independent
    dims: dict
    checks: dict

    @property
    def horizontal(self):
        """contactD followed by the Reeb direction."""
        return [list(v) for v in self.contact_d.vectors] + [list(self.reeb)]


def build_frame(setup, sample, strict=True):
    """Vertical / Reeb / contact-horizontal / normal splitting at a sample."""
    p = sample.coords()
    S = setup.structure
    g = S.metric.g
    man = setup.manifold
    tol = tolerances.DEFAULTS["frame_orthogonality"]

    rows = setup.acting_rows
    vert_vecs = [vvalue(setup.action.fundamental_field(r, p)) for r in rows]
    try:
        vertical = gram_schmidt(S.metric, p, vert_vecs)
    except EmptyFrame:
        vertical = Frame(tuple(p), ())
    k_eff = len(vertical)
    if 0 < k_eff < len(rows) and strict:
        raise DegenerateAction(
            f"fundamental fields have rank {k_eff} < {len(rows)} at the sample"
        )
    # rows whose fields survive, for vertical projection as fields
    if k_eff == len(rows):
        vrows = rows
    elif k_eff == 0:
        vrows = np.zeros((0, setup.action.d))
    else:
        vrows = _independent_rows(rows, vert_vecs, k_eff)

    reeb = vvalue(S.reeb(p))
    tangent = [list(r) for r in man.tangent_basis(p)]
    contact_vecs = orthogonal_tail(
        S.metric, p, [list(v) for v in vertical.vectors] + [reeb], tangent)
    contact_d = Frame(tuple(p), tuple(tuple(v) for v in contact_vecs))

    normal_inputs = [vvalue(S.phi(p, list(v))) for v in vertical.vectors]
    if normal_inputs:
        normal = gram_schmidt(S.metric, p, normal_inputs)
    else:
        normal = Frame(tuple(p), ())

    dim_n = man.dim
    dims = {
        "level_set": dim_n,
        "vertical": k_eff,
        "contact_d": len(contact_d),
        "normal": len(normal),
        "quotient": len(contact_d) + 1,
    }

    checks = _frame_checks(setup, p, vertical, reeb, contact_d, normal, tangent)
    frame = ReductionFrame(sample, vertical, tuple(reeb), contact_d, normal,
                           np.asarray(vrows, dtype=float), dims, checks)
    if strict:
        bad = {k: v for k, v in checks.items() if v > tol}
        if len(contact_d) != dim_n - k_eff - 1:
            raise FrameInconsistent(
                f"contact block has dim {len(contact_d)}, expected {dim_n - k_eff - 1}"
            )
        if bad:
            raise FrameInconsistent(f"frame invariants violated: {bad}")
    return frame


def _independent_rows(rows, vecs, k_eff):
    picked, idx = [], []
    for i, v in enumerate(vecs):
        cand = picked + [v]
        if np.linalg.matrix_rank(np.asarray(cand), tol=1e-10) > len(picked):
            picked.append(v)
            idx.append(i)
        if len(picked) == k_eff:
            break
    return np.asarray(rows)[idx]


def _frame_checks(setup, p, vertical, reeb, contact_d, normal, tangent):
    S = setup.structure
    g = S.metric.g
    checks = {}
    blocks = {
        "vertical": [list(v) for v in vertical.vectors],
        "reeb": [list(reeb)],
        "contact_d": [list(v) for v in contact_d.vectors],
    }
    worst = 0.0
    names = list(blocks)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            for u in blocks[a]:
                for v in blocks[b]:
                    worst = max(worst, abs(value(g(p, u, v))))
    checks["block_orthogonality"] = worst

    worst = 0.0
    for u in blocks["vertical"] + blocks["contact_d"]:
        worst = max(worst, abs(value(S.eta(p, u))))
    checks["eta_on_vertical_and_d"] = worst
    checks["eta_on_reeb"] = abs(value(S.eta(p, reeb)) - 1.0)

    worst = 0.0
    for nu in normal.vectors:
        for t in tangent:
            worst = max(worst, abs(value(g(p, list(nu), t))))
    checks["normal_vs_tangent"] = worst

    stack = blocks["vertical"] + blocks["reeb"] + blocks["contact_d"]
    if stack:
        rank = int(np.linalg.matrix_rank(np.asarray(stack), tol=1e-8))
        checks["span_defect"] = float(len(stack) - rank)
    else:
        checks["span_defect"] = 0.0
    return checks


@dataclass
class ReducedPointData:
    """Reduced tensors in the horizontal frame representation."""

    frame: ReductionFrame
    reduced_eta: np.ndarray
    reduced_gram: np.ndarray
    d_eta_matrix: np.ndarray
    d_eta_det: float
    checks: dict


def reduced_tensors(setup, rframe):
    """eta, g and d(eta) on {contactD, reeb}: the reduced tensors under
    the Riemannian-submersion identification."""
    return reduced_tensors_batch(setup, [rframe])[0]


def reduced_tensors_batch(setup, rframes):
    """``reduced_tensors`` of several samples, with every d(eta) jet
    evaluated once over the samples stacked as lanes.

    The frames must agree in their float-level decisions: the same
    vertical rows, and contact blocks and tangent bases of equal size.
    """
    S = setup.structure
    points = [list(f.sample.coords()) for f in rframes]
    p = stack_lanes(points)
    dvecs = stack_frames([f.contact_d.vectors for f in rframes])
    m = len(dvecs)
    deta_lanes = {
        (i, j): value(S.d_eta(p, dvecs[i], dvecs[j]))
        for i in range(m) for j in range(m) if i != j
    }

    tangent = stack_frames([setup.manifold.tangent_basis(q) for q in points])
    worst_basic = 0.0
    for vrow in rframes[0].vertical_rows:
        vfield_p = vvalue(setup.action.fundamental_field(vrow, p))
        for t in tangent:
            worst_basic = np.maximum(worst_basic, abs(value(S.d_eta(p, vfield_p, t))))

    out = []
    for k, (rframe, q) in enumerate(zip(rframes, points)):
        horiz = rframe.horizontal
        eta_vals = np.asarray([value(S.eta(q, v)) for v in horiz])
        gram = np.asarray(
            [[value(S.metric.g(q, u, v)) for v in horiz] for u in horiz], dtype=float
        )
        deta = np.zeros((m, m))
        for (i, j), val in deta_lanes.items():
            deta[i, j] = lane(val, k)
        antisym = float(np.max(np.abs(deta + deta.T))) if m else 0.0
        det = abs(float(np.linalg.det(deta))) if m else 0.0
        checks = {
            "reduced_eta_profile": float(
                np.max(np.abs(eta_vals - np.eye(len(horiz))[-1]))
            ),
            "reduced_gram_identity": float(np.max(np.abs(gram - np.eye(len(horiz))))),
            "d_eta_antisymmetry": antisym,
            "basic_d_eta": float(lane(worst_basic, k)),
        }
        out.append(ReducedPointData(rframe, eta_vals, gram, deta, det, checks))
    return out
