"""Command-line interface.

    sasaklab <command> [--config FILE] [--preset NAME] [--mu v1,v2]
             [--samples N] [--seed S] [--out DIR] ...

Commands: verify-structure, check-hypotheses, reduce, curvature-scan,
reeb-flow, cone-check.  Each run writes report.json and samples.csv to
the output directory and exits 0 only when every hypothesis holds and
every residual is within its declared tolerance (2 validation, 3
infeasible level set, 4 hypothesis failure, 5 residual breach, 6
numerical non-convergence).  A run flag the command does not read
(``FLAG_READERS``) is a validation error.  ``main`` freezes the heap
it is entered with (``gc.freeze``), once per process, so interpreter
shutdown does not walk the objects of numpy and sasaklab again.

Every command that batches takes its samples in chunks of at most
``vecops.LANE_BATCH_WIDTH``, in index order (``vecops.batches``).  In
reduce and curvature-scan a chunk's reduction frames, the submersion
context of N around them, and curvature-scan's CR splitting are built
once on lanes, one lane per sample; where samples disagree in a
float-level decision (a Gram-Schmidt drop, a rank, a D_perp count) the
chunk splits into parts that agree (``vecops.agreeing_parts``).  Within
a part, the O'Neill A and h pairs of one direction run as further lanes
of one pass per kind (``vecops.pair_lanes``), and each reduced d(eta)
grid is one closed-form evaluation on the stacked frame
(``vecops.pairings``).  Only the directions are drawn per sample.
verify-structure, check-hypotheses and cone-check run a chunk as one
lane batch.  A batch of one runs on floats, and no row depends on the
batch it ran in.  Results stay arrays, one entry per sample: each part
writes its chunk's columns (``_Columns``), and the ledger, the census
and the CSV rows read whole columns.
"""

import argparse
import gc
import math
import os
import sys

import numpy as np

from . import tolerances
from .actions import MomentumCovector, TorusAction, kernel_algebra
from .cone import (
    ConePoint,
    momentum_identities,
    sample_phi_zero,
    stratify,
    symplectic_pairing_residual,
    zero_stratum_degeneracy,
)
from .config import build_config, parse_numbers, read_config
from .cr import (
    cr_decomposition,
    final_identity,
    oneill_plane_residual,
    relation_residuals,
)
from .errors import (
    ConfigError,
    EmptyLevelSet,
    NoConvergence,
    SasaklabError,
    SingularMetric,
    StratificationLeak,
    ValidationError,
    WrongRay,
)
from .flows import reduced_flow_comparison, reeb_flow, rotation_flow
from .gallery import PRESET_NAMES, preset_config
from .oneill import SubmersionContext
from .reduction import (
    ReductionSetup,
    build_frame,
    printed_remark_dimension,
    quotient_dimension,
    reduced_tensors,
    sample_level_set,
    sample_zero_level,
)
from .reports import (
    EXIT_HYPOTHESIS,
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_RESIDUAL,
    EXIT_VALIDATION,
    ResidualLedger,
    build_report,
    write_outputs,
)
from .structures import RoundSphereStructure, WeightedSphereStructure, contact_nondegeneracy
from .vecops import agreeing_parts, batches, clamped_sqrt, split_frame, stack_lanes
from .jets import value

COMMANDS = (
    "verify-structure",
    "check-hypotheses",
    "reduce",
    "curvature-scan",
    "reeb-flow",
    "cone-check",
)

# run flags and the commands that read them; any other command rejects them
FLAG_READERS = {
    "mu": tuple(c for c in COMMANDS if c != "verify-structure"),
    "samples": tuple(c for c in COMMANDS if c != "reeb-flow"),
    "directions": ("reduce", "curvature-scan"),
    "flow_steps": ("reeb-flow",),
}


def _parser():
    p = argparse.ArgumentParser(prog="sasaklab", description=__doc__.split("\n")[0])
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="path to a JSON run configuration")
    p.add_argument("--preset", choices=PRESET_NAMES, help="built-in gallery preset")
    p.add_argument("--mu", help="comma-separated momentum covector, e.g. 1,1")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int, help="ambient complex dimension (ex1gen)")
    p.add_argument("--lam", help="comma-separated circle weights (ex4)")
    p.add_argument("--flow-steps", dest="flow_steps", type=int)
    p.add_argument("--directions", type=int, help="tangent directions per sample")
    p.add_argument("--out", default="sasaklab-out", help="output directory")
    return p


def _resolve_config(args):
    raw = {}
    lam = parse_numbers("lam", args.lam) if args.lam is not None else None
    misused = []
    if args.n is not None and args.preset not in (None, "ex1gen"):
        misused.append(f"n: --n applies to --preset ex1gen only, not {args.preset}")
    if lam is not None and args.preset != "ex4":
        misused.append("lam: --lam applies to --preset ex4 only")
    if misused:
        raise ValidationError(misused)
    unread = [f"{name}: {args.command} does not read --{name.replace('_', '-')}"
              for name, readers in FLAG_READERS.items()
              if getattr(args, name) is not None and args.command not in readers]
    if args.preset:
        raw.update(preset_config(args.preset, n=args.n, lam=lam))
    if args.config:
        raw.update(read_config(args.config))
    if not args.preset and not args.config:
        raise ValidationError(["give --preset and/or --config"])
    for name in ("samples", "seed", "flow_steps", "directions"):
        v = getattr(args, name)
        if v is not None:
            raw[name] = v
    if args.mu is not None:
        raw["mu"] = parse_numbers("mu", args.mu)
    if args.n is not None and not args.preset:
        raw["n"] = args.n
    try:
        cfg = build_config(raw, command=args.command, preset=args.preset)
    except ValidationError as exc:
        raise ValidationError(exc.violations + unread) from None
    if unread:
        raise ValidationError(unread)
    return cfg


def _structure(cfg):
    if cfg.is_round:
        return RoundSphereStructure(cfg.n)
    return WeightedSphereStructure(cfg.n, cfg.sphere_weights)


def _unit_tangent(rng, p):
    v = rng.standard_normal(len(p))
    p = np.asarray(p)
    v = v - (v @ p) * p
    return list(v / np.linalg.norm(v))


def _direction_lanes(cfg, salt, start, idx, frame):
    """[(x, y)]: ``cfg.directions`` pairs of unit directions, one lane per
    position i of idx in the chunk that begins at sample ``start``.
    Sample start + i draws from its own stream: one draw of 2 * directions
    rows of k normals, each row normalised and mapped on its own by the
    sample's (k, m) frame (``vecops.split_frame``).  No pairs for an
    empty frame, where the run counts a hypothesis failure."""
    if not len(frame):
        return []
    drawn = []
    for i, vs in zip(idx, split_frame(frame, len(idx))):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, salt, start + i])))
        frame_t = np.ascontiguousarray(vs).T
        # np.linalg.norm of a float vector is sqrt(c . c)
        drawn.append([frame_t @ (c / math.sqrt(c.dot(c)))
                      for c in rng.standard_normal((2 * cfg.directions, len(vs)))])
    lanes = [stack_lanes(vs) for vs in zip(*drawn)]
    return list(zip(lanes[0::2], lanes[1::2]))


class _Columns(dict):
    """A chunk's results by name, one array each of the given shape,
    samples first, in index order; NaN where no part of the chunk writes."""

    def __init__(self, *shape):
        super().__init__()
        self.shape = shape

    def __missing__(self, name):
        col = self[name] = np.full(self.shape, math.nan)
        return col

    def scatter(self, where, values):
        """Write a part's values at its positions; a float fills them all."""
        for name, v in values.items():
            self[name][where] = v


def _header(cfg, *tail):
    return ["index", *[f"c{k}" for k in range(2 * cfg.n)], *tail]


def _rows(start, samples, *columns):
    """The CSV rows of level-set samples numbered from ``start``: index,
    coordinates, s, then the sample's entry of each column."""
    return [[i, *samp.coords(), samp.s, *vals]
            for i, (samp, *vals) in enumerate(zip(samples, *(c.tolist() for c in columns)), start)]


def _empty_frame_notes(count):
    return [f"{count} sample(s) have an empty contact frame D: no directions "
            "drawn, so no direction residual is evaluated for them"] if count else []


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def run_verify_structure(cfg):
    S = _structure(cfg)
    round_ = cfg.is_round
    led = ResidualLedger()
    t_ident = cfg.tol["round_identity" if round_ else "weighted_identity"]
    t_kill = cfg.tol["round_identity" if round_ else "weighted_killing"]
    t_sas = cfg.tol["round_curvature" if round_ else "weighted_sasakian"]

    def draw(i):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101, i]))
        p = rng.standard_normal(2 * cfg.n)
        p = list(p / np.linalg.norm(p))
        return p, _unit_tangent(rng, p), _unit_tangent(rng, p)

    def certify(batch):
        p, x, y = (stack_lanes(vs) for vs in zip(*batch))
        xi = value(S.reeb(p))
        g = S.metric.at(p)
        eta_x, eta_y = value(S.eta(p, x)), value(S.eta(p, y))

        phi_xi = value(S.phi(p, xi))
        phx = value(S.phi(p, x))
        phphx = value(S.phi(p, phx))
        res_sq = phphx + x - eta_x * xi
        phy = value(S.phi(p, y))
        return (
            clamped_sqrt(g(phi_xi, phi_xi)),
            clamped_sqrt(g(res_sq, res_sq)),
            abs(value(g(phx, phy)) - value(g(x, y)) + eta_x * eta_y),
            abs(value(S.eta(p, xi)) - 1.0),
            abs(value(S.d_eta_jet(p, xi, x))),
            S.killing_residual(p, x, y),
            S.sasakian_residual(p, x, y),
            contact_nondegeneracy(S, p),
        )

    gates = (("phi_reeb", t_ident), ("phi_squared_identity", t_ident),
             ("phi_isometry_identity", t_ident), ("eta_of_reeb", cfg.tol["eta_on_frame"]),
             ("d_eta_on_reeb", cfg.tol["eta_on_frame"]), ("killing", t_kill),
             ("sasakian_curvature", t_sas))
    rows = []
    min_det = math.inf
    for _, batch in batches(range(cfg.samples)):  # every sample has the same frame sizes
        draws = [draw(i) for i in batch]
        cols = [np.broadcast_to(v, (len(batch),)) for v in certify(draws)]
        for (name, tol), col in zip(gates, cols):
            led.add(name, tol, col)
        min_det = min([min_det, *cols[-1].tolist()])
        rows += [[i, *p, 0.0, *vals]
                 for i, (p, _, _), *vals in zip(batch, draws, *(c.tolist() for c in cols))]

    nondeg_ok = min_det > cfg.tol["contact_nondegeneracy"]
    status = EXIT_OK if led.all_ok() and nondeg_ok else EXIT_RESIDUAL
    report = build_report(
        "verify-structure", cfg, ledger=led,
        census={"min_contact_determinant": min_det,
                "contact_nondegenerate": nondeg_ok},
        exit_status=status,
    )
    header = _header(cfg, "s", *(name for name, _ in gates), "contact_determinant")
    return report, header, rows, status


def _setup(cfg):
    S = _structure(cfg)
    A = TorusAction.of(cfg.action_weights)
    mu = MomentumCovector.of(cfg.mu)
    return ReductionSetup(S, A, mu=mu)


def _action_notes(cfg):
    A = TorusAction.of(cfg.action_weights)
    if not A.integral:
        return ["action weights are not integers: the group is an R^d "
                "action rather than a compact torus; properness is not "
                "certified"]
    return []


def run_check_hypotheses(cfg):
    setup = _setup(cfg)
    samples = setup.samples(cfg.samples, cfg.seed)
    tally = None
    rows = []
    for start, chunk in batches(samples):
        hyp = setup.hypothesis_report(chunk)
        tally = _hypothesis_tally(hyp, tally)
        rows += _rows(start, chunk, hyp["transversal"].astype(int), hyp["freeness_rank"],
                      hyp["freeness_degenerate"].astype(int))
    slice_ok, slice_info = setup.slice_check
    hyp = {
        "slice_condition": slice_ok,
        "slice_info": slice_info,
        **tally,
        "kernel_dim": setup.kernel.k,
    }
    status = EXIT_OK if slice_ok and _hypotheses_hold(tally) else EXIT_HYPOTHESIS
    header = _header(cfg, "s", "transversal", "freeness_rank", "freeness_degenerate")
    report = build_report("check-hypotheses", cfg, hypotheses=hyp,
                          notes=_action_notes(cfg), exit_status=status)
    return report, header, rows, status


def _hypothesis_tally(hyp, tally=None):
    """The transversality and freeness counts of a chunk's hypothesis
    report, added to those of ``tally`` when given."""
    tally = tally or {"transversality": {"pass": 0, "fail": 0},
                      "freeness": {"free": 0, "degenerate": 0}}
    for key, hits, yes, no in (("transversality", hyp["transversal"], "pass", "fail"),
                               ("freeness", hyp["freeness_degenerate"], "degenerate", "free")):
        count = int(np.count_nonzero(hits))
        tally[key][yes] += count
        tally[key][no] += len(hits) - count
    return tally


def _hypotheses_hold(tally):
    return not tally["transversality"]["fail"] and not tally["freeness"]["degenerate"]


def _frame_parts(setup, chunk, decide=SubmersionContext._tangent_frames):
    """[(positions in the chunk, (lane frame, lane context, decide(context)))]:
    the chunk's reduction frames and submersion contexts, built once on
    lanes and split where the samples disagree in a float-level decision;
    ``decide`` makes the context's own decisions per lane as well, N's
    frames or, in curvature-scan, the CR splitting."""
    def build(idx):
        frame = build_frame(setup, [chunk[i] for i in idx], strict=False)
        ctx = SubmersionContext.from_reduction(setup, frame)
        return frame, ctx, decide(ctx)

    return agreeing_parts(build, list(range(len(chunk))))


def run_reduce(cfg):
    setup = _setup(cfg)
    samples = setup.samples(cfg.samples, cfg.seed)
    led = ResidualLedger()
    t_frame = cfg.tol["frame_orthogonality"]
    tally = None
    n_empty = 0
    det_min = math.inf
    rows = []
    for start, chunk in batches(samples):
        hyp = setup.hypothesis_report(chunk)
        tally = _hypothesis_tally(hyp, tally)
        checks, cols = _Columns(len(chunk)), _Columns(len(chunk))
        empty = np.zeros(len(chunk), dtype=bool)
        for idx, (frame, ctx, _) in _frame_parts(setup, chunk):
            # one part of a chunk: reduced tensors and the quotient residual
            # over its directions, as lanes
            red = reduced_tensors(setup, frame)
            dirs = _direction_lanes(cfg, 202, start, idx, frame.contact_d.vectors)
            worst_q = 0.0 if dirs else math.nan
            for x, y in dirs:
                worst_q = np.maximum(worst_q, ctx.quotient_sasakian_residual(x, y))
            empty[idx] = not dirs
            checks.scatter(idx, frame.checks)
            cols.scatter(idx, {**red.checks, "d_eta_det": red.d_eta_det, "quotient_sasakian": worst_q})
            if idx[-1] == len(chunk) - 1:
                dims0 = frame.dims  # the run reports the last sample's
        for name, col in checks.items():
            led.add(f"frame_{name}", t_frame, col)
        led.add("reduced_eta_profile", cfg.tol["eta_on_frame"], cols["reduced_eta_profile"])
        led.add("reduced_gram_identity", cfg.tol["eta_on_frame"], cols["reduced_gram_identity"])
        led.add("basic_d_eta", cfg.tol["basic_d_eta"], cols["basic_d_eta"])
        led.add("quotient_sasakian", cfg.tol["quotient_sasakian"], cols["quotient_sasakian"][~empty])
        n_empty += int(np.count_nonzero(empty))
        det_min = min([det_min, *cols["d_eta_det"].tolist()])
        rows += _rows(start, chunk, hyp["transversal"].astype(int),
                      hyp["freeness_degenerate"].astype(int), cols["d_eta_det"],
                      cols["quotient_sasakian"])

    k = setup.kernel.k
    dims = {
        "level_set_realized": dims0["level_set"],
        "vertical_realized": dims0["vertical"],
        "contact_d": dims0["contact_d"],
        "quotient_realized": dims0["quotient"],
        "quotient_formula": quotient_dimension(2 * cfg.n - 1, cfg.d, k),
        "printed_remark_value": printed_remark_dimension(cfg.n, cfg.d, 0, k),
        "printed_remark_matches": printed_remark_dimension(cfg.n, cfg.d, 0, k)
        == dims0["quotient"],
    }
    hyp_ok = _hypotheses_hold(tally) and not n_empty
    det_ok = det_min > cfg.tol["reduced_deta_det"]
    hyp = {
        **tally,
        "reduced_d_eta_min_det": det_min,
        "reduced_d_eta_nondegenerate": det_ok,
    }
    if not hyp_ok:
        status = EXIT_HYPOTHESIS
    elif not led.all_ok() or not det_ok:
        status = EXIT_RESIDUAL
    else:
        status = EXIT_OK
    header = _header(cfg, "s", "transversal", "freeness_degenerate", "d_eta_det",
                     "quotient_sasakian")
    report = build_report("reduce", cfg, hypotheses=hyp, dimensions=dims, ledger=led,
                          notes=_action_notes(cfg) + _empty_frame_notes(n_empty),
                          exit_status=status)
    return report, header, rows, status


def run_curvature_scan(cfg):
    setup = _setup(cfg)
    samples = setup.samples(cfg.samples, cfg.seed)
    led = ResidualLedger()
    gates = {"final_identity": ("residual", cfg.tol["final_identity"]),
             "h_tilde_on_toric": ("h_tilde_sq", tolerances.H_TILDE_ON_TORIC),
             "oneill_plane": ("oneill_plane", cfg.tol["oneill_two_path"])}
    tally = None
    nu_dims = set()
    n_empty = 0
    k_min, k_max = math.inf, -math.inf
    rows = []
    for start, chunk in batches(samples):
        tally = _hypothesis_tally(setup.hypothesis_report(chunk), tally)
        # (sample, direction) entries; a sample without directions keeps NaN
        fin, rels = _Columns(len(chunk), cfg.directions), _Columns(len(chunk), cfg.directions)
        empty = np.zeros(len(chunk), dtype=bool)
        for idx, (_, ctx, crd) in _frame_parts(setup, chunk, cr_decomposition):
            # one part of a chunk: its identities over the directions, as lanes
            nu_dims.add(crd.dims["nu"])
            dirs = _direction_lanes(cfg, 303, start, idx, crd.d_frame)
            empty[idx] = not dirs
            for k, (x, y) in enumerate(dirs):
                fin.scatter((idx, k), final_identity(ctx, x, crd))
                rels.scatter((idx, k), relation_residuals(ctx, crd, x, y))
                fin.scatter((idx, k), {"oneill_plane": oneill_plane_residual(ctx, x)})
        n_empty += int(np.count_nonzero(empty))
        for name, (col, tol) in gates.items():
            led.add(name, tol, fin[col][~empty])
        for name, col in rels.items():
            led.add(name, cfg.tol["cr_identities"], col[~empty])
        ks = fin["k_quotient"][~empty].ravel().tolist()  # sample by sample
        k_min, k_max = min([k_min, *ks]), max([k_max, *ks])
        rows += _rows(start, chunk, *(fin[name][:, 0] for name in
                                      ("k_quotient", "h_bar_sq", "h_tilde_sq", "residual")))

    if n_empty or not _hypotheses_hold(tally):
        status = EXIT_HYPOTHESIS
    else:
        status = EXIT_OK if led.all_ok() else EXIT_RESIDUAL
    census = {
        "phi_sectional_min": k_min,
        "phi_sectional_max": k_max,
        "nu_dims_seen": sorted(nu_dims),
    }
    header = _header(cfg, "s", "k_quotient", "h_bar_sq", "h_tilde_sq", "final_identity_residual")
    report = build_report("curvature-scan", cfg, hypotheses=tally, ledger=led, census=census,
                          notes=_action_notes(cfg) + _empty_frame_notes(n_empty),
                          exit_status=status)
    return report, header, rows, status


def _is_two_circle_action(cfg):
    W = np.asarray(cfg.action_weights, dtype=float)
    if W.shape[0] != 2 or cfg.n < 2:
        return False
    support0 = np.nonzero(W[0])[0]
    support1 = np.nonzero(W[1])[0]
    return (
        len(support0) == 1 and len(support1) == 1
        and support0[0] == 0 and support1[0] == 1
    )


def run_reeb_flow(cfg):
    S = _structure(cfg)
    led = ResidualLedger()
    t_max = 2.0 * math.pi
    if cfg.mu is not None:
        setup = _setup(cfg)
        samp = setup.samples(1, cfg.seed)[0]
        z0 = np.asarray(samp.coords())
        manifold = setup.manifold
    else:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 404]))
        z0 = rng.standard_normal(2 * cfg.n)
        z0 /= np.linalg.norm(z0)
        manifold = S.sphere
    times, traj = reeb_flow(S, manifold, z0, t_max, cfg.flow_steps)

    # closed-form oracle: each complex coordinate rotates with the
    # weighted speed of the Reeb field
    oracle = rotation_flow(z0, times, cfg.sphere_weights)
    sup_err = float(np.max(np.abs(traj - oracle)))
    led.add("flow_vs_rotation_oracle", cfg.tol["reeb_flow_sup"], sup_err)

    extra = {"flow": {"t_max": t_max, "steps": cfg.flow_steps,
                      "sup_error_ambient": sup_err}}
    if _is_two_circle_action(cfg) and cfg.is_round:
        lam = (cfg.action_weights[0][0], cfg.action_weights[1][1])
        cmp = reduced_flow_comparison(times, traj, lam)
        led.add("flow_vs_reduced_closed_form", cfg.tol["reeb_flow_sup"],
                cmp["sup_error"])
        extra["flow"]["reduced_comparison"] = {
            k: v for k, v in cmp.items() if isinstance(v, float)
        }
    status = EXIT_OK if led.all_ok() else EXIT_RESIDUAL
    stride = max(1, cfg.flow_steps // 64)
    rows = [[k, *traj[k], times[k]] for k in range(0, len(times), stride)]
    header = _header(cfg, "t")
    report = build_report("reeb-flow", cfg, ledger=led, extra=extra,
                          notes=_action_notes(cfg), exit_status=status)
    return report, header, rows, status


def run_cone_check(cfg):
    """The cone suite: momentum identities at random cone points, then
    the ray census of the strata.

    The cone points are drawn one at a time, in the stream order of a
    per-point loop, and run in lane batches of at most
    ``vecops.LANE_BATCH_WIDTH`` (``vecops.batches``): J_s at r and at 1,
    J, and eta(b_M) for each kernel row b run once per batch
    (``cone.momentum_identities``), and each identity reaches the ledger
    as one array a batch; the pairing of J_s with the kernel basis runs
    per point on its float row, and the pairing oracle per point on the
    first 8.  The census runs J once over all the strata
    samples (``cone.stratify``) and classifies each sample's row on its
    own.  The level-set samplers and the zero-stratum rank check are
    not on lanes.
    """
    S = _structure(cfg)
    A = TorusAction.of(cfg.action_weights)
    mu = MomentumCovector.of(cfg.mu)
    led = ResidualLedger()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 505]))

    def draw(i):
        # the stream order of a per-point loop: point, radius, and for the
        # first 8 points the pairing oracle's algebra element
        p = rng.standard_normal(2 * cfg.n)
        cp = ConePoint.of(p / np.linalg.norm(p), float(rng.uniform(0.5, 2.0)))
        return cp, (tuple(rng.standard_normal(A.d)) if i < 8 else None)

    for _, batch in batches(range(cfg.samples)):
        draws = [draw(i) for i in batch]
        iota, homog, restr = momentum_identities(A, mu, [cp for cp, _ in draws])
        led.add("iota_transpose", cfg.tol["iota_transpose"], iota)
        led.add("homogeneity", cfg.tol["iota_transpose"], homog)
        led.add("restriction", tolerances.RESTRICTION, restr)
        for i, (cp, rvec) in zip(batch, draws):
            if rvec is not None:
                led.add("pairing_oracle", tolerances.PAIRING_ORACLE,
                        symplectic_pairing_residual(A, cp, rvec, seed=cfg.seed + i))

    census = {"positive_stratum": 0, "zero_stratum": 0, "negative_stratum": 0}
    rows = []
    notes = []
    strata_sources = []
    try:
        pos = sample_level_set(A, mu, max(cfg.samples // 4, 1), cfg.seed + 1)
        strata_sources.extend(pt.point for pt in pos)
    except EmptyLevelSet:
        notes.append("positive ray infeasible")
    try:
        neg_mu = MomentumCovector.of([-x for x in mu.mu])
        neg = sample_level_set(A, neg_mu, max(cfg.samples // 4, 1), cfg.seed + 2)
        strata_sources.extend(pt.point for pt in neg)
    except EmptyLevelSet:
        notes.append("negative ray infeasible")
    try:
        zero = sample_zero_level(A, np.eye(A.d), max(cfg.samples // 4, 1), cfg.seed + 3)
        strata_sources.extend(zero)
    except EmptyLevelSet:
        notes.append("full zero level infeasible")
    if kernel_algebra(mu).k == 0:
        notes.append("mixed zero level skipped: the kernel group of mu is trivial")
    else:
        strata_sources.extend(sample_phi_zero(A, mu, cfg.samples, cfg.seed + 4))

    try:
        cens = stratify(A, mu, strata_sources, tol=cfg.tol["stratification"])
        census.update(cens.counts)
        for idx, (p, label, s, resid) in enumerate(cens.samples):
            rows.append([idx, *p, s, label, resid])
        leak = False
    except StratificationLeak as exc:
        notes.append(str(exc))
        leak = True

    zero_pts = [row for row in rows if row[-2] == "zero_stratum"]
    if zero_pts:
        deg = zero_stratum_degeneracy(S, A, mu, zero_pts[0][1:2 * cfg.n + 1])
        census["zero_stratum_kernel_dim"] = deg["kernel_dim"]
        led.add("zero_stratum_antisymmetry", tolerances.ZERO_STRATUM_ANTISYMMETRY,
                deg["antisymmetry"])

    status = EXIT_RESIDUAL if (leak or not led.all_ok()) else EXIT_OK
    header = _header(cfg, "s", "stratum", "ray_residual")
    report = build_report("cone-check", cfg, ledger=led, census=census,
                          notes=_action_notes(cfg) + notes, exit_status=status)
    return report, header, rows, status


RUNNERS = {
    "verify-structure": run_verify_structure,
    "check-hypotheses": run_check_hypotheses,
    "reduce": run_reduce,
    "curvature-scan": run_curvature_scan,
    "reeb-flow": run_reeb_flow,
    "cone-check": run_cone_check,
}


def main(argv=None):
    # the process keeps everything imported until it exits: freezing it
    # spares interpreter shutdown its full GC passes over numpy and
    # sasaklab; once per process, so in-process callers freeze no more
    if not gc.get_freeze_count():
        gc.freeze()
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        report, header, rows, status = RUNNERS[args.command](cfg)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return EXIT_VALIDATION
    except EmptyLevelSet as exc:
        msg = f"infeasible level set: {exc}"
        if exc.certificate is not None:
            y = [float(v) for v in exc.certificate["y"]]
            msg += f" (Farkas certificate y with A^T y >= 0, b . y = -1: {y})"
        print(msg, file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NoConvergence, SingularMetric, WrongRay) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SasaklabError as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    write_outputs(args.out, report, header, rows)
    try:
        for entry in report["residuals"]:
            flag = "ok " if entry["within_tolerance"] else "FAIL"
            print(f"[{flag}] {entry['name']}: max {entry['max']:.3e} "
                  f"(tol {entry['tolerance']:.1e}, n={entry['count']})")
        for key, val in report.get("hypotheses", {}).items():
            print(f"hypothesis {key}: {val}")
        # flushed here, so that a closed stdout raises here and not at exit
        print(f"exit status {status}; outputs in {args.out}", flush=True)
    except BrokenPipeError:
        # the outputs are written: the run keeps its status, and what is
        # left of stdout goes to devnull so the exit's flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
