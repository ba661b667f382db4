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
a part, the O'Neill A and h pairs of one direction, and the reduced
d(eta) pairs, run as further lanes of one pass per kind
(``vecops.pair_lanes``).  Only the directions are drawn per sample.
verify-structure and cone-check run a chunk as one lane batch.  A batch
of one runs on floats, and no row depends on the batch it ran in.
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
from .vecops import agreeing_parts, batches, clamped_sqrt, lane, split_frame, stack_lanes
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


def _draw_directions(cfg, salt, index, frame):
    """``cfg.directions`` pairs of unit directions in the span of the
    (k, m) frame, from sample ``index``'s own stream: one draw of
    2 * directions rows of k normals, each row normalised and mapped by
    the frame on its own; none for an empty frame, where the run counts
    a hypothesis failure."""
    if not len(frame):
        return []
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, salt, index])))
    frame_t = np.ascontiguousarray(frame).T
    # np.linalg.norm of a float vector is sqrt(c . c)
    out = [frame_t @ (c / math.sqrt(c.dot(c)))
           for c in rng.standard_normal((2 * cfg.directions, len(frame)))]
    return list(zip(out[0::2], out[1::2]))


def _empty_frame_notes(count):
    if not count:
        return []
    return [f"{count} sample(s) have an empty contact frame D: no directions "
            "drawn, so no direction residual is evaluated for them"]


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
            abs(value(S.d_eta(p, xi, x))),
            S.killing_residual(p, x, y),
            S.sasakian_residual(p, x, y),
            contact_nondegeneracy(S, p),
        )

    rows = []
    min_det = math.inf
    for _, batch in batches(range(cfg.samples)):  # every sample has the same frame sizes
        draws = [draw(i) for i in batch]
        lanes = certify(draws)
        for j, (i, (p, _, _)) in enumerate(zip(batch, draws)):
            a, b, c, d, e, f, g_, det = (float(lane(v, j)) for v in lanes)
            led.add("phi_reeb", t_ident, a)
            led.add("phi_squared_identity", t_ident, b)
            led.add("phi_isometry_identity", t_ident, c)
            led.add("eta_of_reeb", cfg.tol["eta_on_frame"], d)
            led.add("d_eta_on_reeb", cfg.tol["eta_on_frame"], e)
            led.add("killing", t_kill, f)
            led.add("sasakian_curvature", t_sas, g_)
            min_det = min(min_det, det)
            rows.append([i, *p, 0.0, a, b, c, d, e, f, g_, det])

    nondeg_ok = min_det > cfg.tol["contact_nondegeneracy"]
    status = EXIT_OK if led.all_ok() and nondeg_ok else EXIT_RESIDUAL
    report = build_report(
        "verify-structure", cfg, ledger=led,
        census={"min_contact_determinant": min_det,
                "contact_nondegenerate": nondeg_ok},
        exit_status=status,
    )
    header = ["index", *[f"c{k}" for k in range(2 * cfg.n)], "s",
              "phi_reeb", "phi_squared_identity", "phi_isometry_identity",
              "eta_of_reeb", "d_eta_on_reeb", "killing", "sasakian_curvature",
              "contact_determinant"]
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
    reports = [r for _, chunk in batches(samples) for r in setup.hypothesis_report(chunk)]
    tally = _hypothesis_tally(reports)
    slice_ok, slice_info = setup.slice_check
    hyp = {
        "slice_condition": slice_ok,
        "slice_info": slice_info,
        **tally,
        "kernel_dim": setup.kernel.k,
    }
    status = EXIT_OK if slice_ok and _hypotheses_hold(tally) else EXIT_HYPOTHESIS
    rows = [
        [i, *s.coords(), s.s, int(r["transversal"]),
         r["freeness_rank"], int(r["freeness_degenerate"])]
        for i, (s, r) in enumerate(zip(samples, reports))
    ]
    header = ["index", *[f"c{k}" for k in range(2 * cfg.n)], "s",
              "transversal", "freeness_rank", "freeness_degenerate"]
    report = build_report("check-hypotheses", cfg, hypotheses=hyp,
                          notes=_action_notes(cfg), exit_status=status)
    return report, header, rows, status


def _hypothesis_tally(reports, tally=None):
    """The transversality and freeness counts of hypothesis reports,
    added to those of ``tally`` when given."""
    tally = tally or {"transversality": {"pass": 0, "fail": 0},
                      "freeness": {"free": 0, "degenerate": 0}}
    for r in reports:
        tally["transversality"]["pass" if r["transversal"] else "fail"] += 1
        tally["freeness"]["degenerate" if r["freeness_degenerate"] else "free"] += 1
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

    def certify(start, idx, frame, ctx):
        # one part of a chunk: reduced tensors and the quotient residual
        # over its directions, as lanes; directions drawn per sample
        red = reduced_tensors(setup, frame)
        contact = split_frame(frame.contact_d.vectors, len(idx))
        dirs = [_draw_directions(cfg, 202, start + i, vs) for i, vs in zip(idx, contact)]
        worst_q = 0.0
        for k in range(len(dirs[0])):  # a part shares its frame sizes
            x = stack_lanes([d[k][0] for d in dirs])
            y = stack_lanes([d[k][1] for d in dirs])
            worst_q = np.maximum(worst_q, ctx.quotient_sasakian_residual(x, y))
        for j, d in enumerate(dirs):
            checks = {name: float(lane(v, j)) for name, v in frame.checks.items()}
            reduced = {name: float(lane(v, j)) for name, v in red.checks.items()}
            yield (checks, frame.dims, reduced, float(lane(red.d_eta_det, j)),
                   lane(worst_q, j) if d else None)

    tally = None
    n_empty = 0
    det_min = math.inf
    dims0 = None
    rows = []
    for start, chunk in batches(samples):
        hyps = setup.hypothesis_report(chunk)
        tally = _hypothesis_tally(hyps, tally)
        certified = [None] * len(chunk)
        for idx, (frame, ctx, _) in _frame_parts(setup, chunk):
            for i, res in zip(idx, certify(start, idx, frame, ctx)):
                certified[i] = res
        for i, (samp, hyp) in enumerate(zip(chunk, hyps), start):
            checks, dims0, reduced, det, worst_q = certified[i - start]
            for name, val in checks.items():
                led.add(f"frame_{name}", t_frame, val)
            led.add("reduced_eta_profile", cfg.tol["eta_on_frame"],
                    reduced["reduced_eta_profile"])
            led.add("reduced_gram_identity", cfg.tol["eta_on_frame"],
                    reduced["reduced_gram_identity"])
            led.add("basic_d_eta", cfg.tol["basic_d_eta"], reduced["basic_d_eta"])
            if worst_q is not None:
                led.add("quotient_sasakian", cfg.tol["quotient_sasakian"], worst_q)
            else:
                n_empty += 1
                worst_q = math.nan
            det_min = min(det_min, det)
            rows.append([i, *samp.coords(), samp.s, int(hyp["transversal"]),
                         int(hyp["freeness_degenerate"]), det, worst_q])

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
    header = ["index", *[f"c{k2}" for k2 in range(2 * cfg.n)], "s",
              "transversal", "freeness_degenerate", "d_eta_det", "quotient_sasakian"]
    report = build_report("reduce", cfg, hypotheses=hyp, dimensions=dims, ledger=led,
                          notes=_action_notes(cfg) + _empty_frame_notes(n_empty),
                          exit_status=status)
    return report, header, rows, status


def run_curvature_scan(cfg):
    setup = _setup(cfg)
    samples = setup.samples(cfg.samples, cfg.seed)
    led = ResidualLedger()

    def certify(start, idx, ctx, crd):
        # one part of a chunk: its identities over the directions, as
        # lanes; directions drawn per sample
        d_frames = split_frame(crd.d_frame, len(idx))
        dirs = [_draw_directions(cfg, 303, start + i, vs) for i, vs in zip(idx, d_frames)]
        out = [[] for _ in idx]
        for k in range(len(dirs[0])):  # a part shares its splitting
            x = stack_lanes([d[k][0] for d in dirs])
            y = stack_lanes([d[k][1] for d in dirs])
            fin = final_identity(ctx, x, crd)
            rels = relation_residuals(ctx, crd, x, y)
            onil = oneill_plane_residual(ctx, x)
            for j, per_dir in enumerate(out):
                per_dir.append(({n: float(lane(v, j)) for n, v in fin.items()},
                                {n: float(lane(v, j)) for n, v in rels.items()},
                                float(lane(onil, j))))
        return out

    tally = None
    nu_dims = set()
    certified = [None] * len(samples)
    for start, chunk in batches(samples):
        tally = _hypothesis_tally(setup.hypothesis_report(chunk), tally)
        for idx, (_, ctx, crd) in _frame_parts(setup, chunk, cr_decomposition):
            nu_dims.add(crd.dims["nu"])
            for i, res in zip(idx, certify(start, idx, ctx, crd)):
                certified[start + i] = res

    k_min, k_max = math.inf, -math.inf
    rows = []
    n_empty = 0
    for i, (samp, per_dir) in enumerate(zip(samples, certified)):
        if not per_dir:
            n_empty += 1
            rows.append([i, *samp.coords(), samp.s, *[math.nan] * 4])
            continue
        for fin, rels, onil in per_dir:
            led.add("final_identity", cfg.tol["final_identity"], fin["residual"])
            led.add("h_tilde_on_toric", tolerances.H_TILDE_ON_TORIC, fin["h_tilde_sq"])
            for name, val in rels.items():
                led.add(name, cfg.tol["cr_identities"], val)
            led.add("oneill_plane", cfg.tol["oneill_two_path"], onil)
            k_min = min(k_min, fin["k_quotient"])
            k_max = max(k_max, fin["k_quotient"])
        fin0 = per_dir[0][0]
        rows.append([i, *samp.coords(), samp.s, fin0["k_quotient"],
                     fin0["h_bar_sq"], fin0["h_tilde_sq"], fin0["residual"]])

    if n_empty or not _hypotheses_hold(tally):
        status = EXIT_HYPOTHESIS
    else:
        status = EXIT_OK if led.all_ok() else EXIT_RESIDUAL
    census = {
        "phi_sectional_min": k_min,
        "phi_sectional_max": k_max,
        "nu_dims_seen": sorted(nu_dims),
    }
    header = ["index", *[f"c{k2}" for k2 in range(2 * cfg.n)], "s",
              "k_quotient", "h_bar_sq", "h_tilde_sq", "final_identity_residual"]
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
    header = ["index", *[f"c{k2}" for k2 in range(2 * cfg.n)], "t"]
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
    (``cone.momentum_identities``); the pairing of J_s with the kernel
    basis runs per point on its float row, and the pairing oracle per
    point on the first 8.  The census runs J once over all the strata
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
        ident = momentum_identities(A, mu, [cp for cp, _ in draws])
        for i, (cp, rvec), iota, homog, restr in zip(batch, draws, *ident):
            led.add("iota_transpose", cfg.tol["iota_transpose"], iota)
            led.add("homogeneity", cfg.tol["iota_transpose"], homog)
            led.add("restriction", tolerances.RESTRICTION, restr)
            if rvec is not None:
                led.add("pairing_oracle", tolerances.PAIRING_ORACLE,
                        symplectic_pairing_residual(A, cp, rvec, seed=cfg.seed + i))

    census = {"positive_stratum": 0, "zero_stratum": 0, "negative_stratum": 0}
    rows = []
    notes = []
    strata_sources = []
    from .reduction import sample_level_set, sample_zero_level

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
    header = ["index", *[f"c{k2}" for k2 in range(2 * cfg.n)], "s",
              "stratum", "ray_residual"]
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
