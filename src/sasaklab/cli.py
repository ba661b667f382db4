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
``vecops.LANE_BATCH_WIDTH``, in index order (``vecops.batches``): its
points, one (count, m) array, and its directions are each one draw from
a stream of (seed, salt) at the chunk's offset (``vecops.uniforms``).  In
reduce and curvature-scan a chunk's reduction frames, the submersion
context of N around them, and curvature-scan's CR splitting are built
once on lanes, one lane per sample; where samples disagree in a
float-level decision (a Gram-Schmidt drop, a rank, a D_perp count) the
chunk splits into parts that agree (``vecops.agreeing_parts``).  Within
a part, the O'Neill A and h pairs of one direction run as further lanes
of one pass per kind (``vecops.pair_lanes``), and each reduced d(eta)
grid is one closed-form evaluation on the stacked frame
(``vecops.pairings``).
verify-structure, check-hypotheses and cone-check run a chunk as one
lane batch.  A batch of one runs on floats, and no row depends on the
batch it ran in.  Results stay arrays, one entry per sample: each part
writes its chunk's columns (``_Columns``), and the ledger, the census
and the CSV rows read whole columns, one ``writerows`` a chunk.
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
    samples_writer,
    write_outputs,
)
from .structures import RoundSphereStructure, WeightedSphereStructure, contact_nondegeneracy
from .vecops import (agreeing_parts, batches, clamped_sqrt, normals, rowdot, stack_lanes,
                     uniforms, unit_rows, vdot)
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


def _direction_normals(cfg, salt, start, count):
    """(count, 2 * directions, m) normals of the stream of (seed, salt);
    a sample's block does not depend on the size of its frame."""
    return normals(uniforms(cfg.seed, salt, start, count, 2 * cfg.directions, 2 * cfg.n))


def _direction_lanes(z, frame):
    """[(x, y)]: pairs of unit directions, one lane a sample of a part,
    from its normals z: row r's first k, normalised, weigh the vectors of
    the frame (k, m) + lanes in one ordered sum.  No pairs for an empty
    frame, where the run counts a hypothesis failure."""
    k = len(frame)
    if not k:
        return []
    c = np.moveaxis(z[..., :k], -1, 0)  # (k, samples, rows)
    c = c / np.sqrt(vdot(c, c))
    # weights (k, rows, 1) + lanes; a float frame is one sample's
    w = np.moveaxis(c if np.ndim(frame) == 3 else c[:, 0], -1, 1)[:, :, None]
    dirs = w[0] * frame[0]
    for j in range(1, k):
        dirs = dirs + w[j] * frame[j]
    return list(zip(dirs[0::2], dirs[1::2]))


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


def _rows(start, coords, s, *columns):
    """The CSV rows of a chunk of samples numbered from ``start``, from
    whole columns: index, the coordinates, s, then each column's entry."""
    return zip(range(start, start + len(coords)), *coords.T.tolist(), s.tolist(),
               *(c.tolist() for c in columns))


def _chunks(setup, cfg):
    """(start, coords, s) of each chunk of the run's samples, in order."""
    for start, idx in batches(range(cfg.samples)):
        yield (start, *setup.samples(len(idx), cfg.seed, start))


def _empty_frame_notes(count):
    return [f"{count} sample(s) have an empty contact frame D: no directions "
            "drawn, so no direction residual is evaluated for them"] if count else []


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _structure_points(cfg, start, count):
    """verify-structure's unit points p and unit tangents x, y at them,
    (count, m) each, of samples start, ..., start + count - 1."""
    z = normals(uniforms(cfg.seed, 101, start, count, 3, 2 * cfg.n))
    p = unit_rows(z[:, 0])
    return p, *(unit_rows(v - rowdot(v, p)[:, None] * p) for v in (z[:, 1], z[:, 2]))


def run_verify_structure(cfg, rows):
    S = _structure(cfg)
    round_ = cfg.is_round
    led = ResidualLedger()
    t_ident = cfg.tol["round_identity" if round_ else "weighted_identity"]
    t_kill = cfg.tol["round_identity" if round_ else "weighted_killing"]
    t_sas = cfg.tol["round_curvature" if round_ else "weighted_sasakian"]

    def certify(p, x, y):
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
    rows.writerow(_header(cfg, "s", *(name for name, _ in gates), "contact_determinant"))
    min_det = math.inf
    for start, batch in batches(range(cfg.samples)):  # every sample has the same frame sizes
        points = _structure_points(cfg, start, len(batch))
        cols = [np.broadcast_to(v, (len(batch),)) for v in certify(*map(stack_lanes, points))]
        for (name, tol), col in zip(gates, cols):
            led.add(name, tol, col)
        min_det = min([min_det, *cols[-1].tolist()])
        rows.writerows(_rows(start, points[0], np.zeros(len(batch)), *cols))

    nondeg_ok = min_det > cfg.tol["contact_nondegeneracy"]
    status = EXIT_OK if led.all_ok() and nondeg_ok else EXIT_RESIDUAL
    report = build_report(
        "verify-structure", cfg, ledger=led,
        census={"min_contact_determinant": min_det,
                "contact_nondegenerate": nondeg_ok},
        exit_status=status,
    )
    return report, status


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


def run_check_hypotheses(cfg, rows):
    setup = _setup(cfg)
    rows.writerow(_header(cfg, "s", "transversal", "freeness_rank", "freeness_degenerate"))
    tally = None
    for start, coords, s in _chunks(setup, cfg):
        hyp = setup.hypothesis_report(coords)
        tally = _hypothesis_tally(hyp, tally)
        rows.writerows(_rows(start, coords, s, hyp["transversal"].astype(int),
                             hyp["freeness_rank"], hyp["freeness_degenerate"].astype(int)))
    slice_ok, slice_info = setup.slice_check
    hyp = {
        "slice_condition": slice_ok,
        "slice_info": slice_info,
        **tally,
        "kernel_dim": setup.kernel.k,
    }
    status = EXIT_OK if slice_ok and _hypotheses_hold(tally) else EXIT_HYPOTHESIS
    report = build_report("check-hypotheses", cfg, hypotheses=hyp,
                          notes=_action_notes(cfg), exit_status=status)
    return report, status


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


def _frame_parts(setup, coords, decide=SubmersionContext._tangent_frames):
    """[(positions in the chunk, (lane frame, lane context, decide(context)))]:
    the reduction frames and submersion contexts of the chunk's points
    ``coords``, built once on lanes and split where the samples disagree
    in a float-level decision; ``decide`` makes the context's own
    decisions per lane as well, N's frames or, in curvature-scan, the CR
    splitting."""
    def build(idx):
        frame = build_frame(setup, coords[idx], strict=False)
        ctx = SubmersionContext.from_reduction(setup, frame)
        return frame, ctx, decide(ctx)

    return agreeing_parts(build, list(range(len(coords))))


def run_reduce(cfg, rows):
    setup = _setup(cfg)
    rows.writerow(_header(cfg, "s", "transversal", "freeness_degenerate", "d_eta_det",
                          "quotient_sasakian"))
    led = ResidualLedger()
    t_frame = cfg.tol["frame_orthogonality"]
    tally = None
    n_empty = 0
    det_min = math.inf
    for start, coords, s in _chunks(setup, cfg):
        hyp = setup.hypothesis_report(coords)
        tally = _hypothesis_tally(hyp, tally)
        checks, cols = _Columns(len(coords)), _Columns(len(coords))
        empty = np.zeros(len(coords), dtype=bool)
        z = _direction_normals(cfg, 202, start, len(coords))
        for idx, (frame, ctx, _) in _frame_parts(setup, coords):
            # one part of a chunk: reduced tensors and the quotient residual
            # over its directions, as lanes
            red = reduced_tensors(setup, frame)
            dirs = _direction_lanes(z[idx], frame.contact_d.vectors)
            worst_q = 0.0 if dirs else math.nan
            for x, y in dirs:
                worst_q = np.maximum(worst_q, ctx.quotient_sasakian_residual(x, y))
            empty[idx] = not dirs
            checks.scatter(idx, frame.checks)
            cols.scatter(idx, {**red.checks, "d_eta_det": red.d_eta_det, "quotient_sasakian": worst_q})
            if idx[-1] == len(coords) - 1:
                dims0 = frame.dims  # the run reports the last sample's
        for name, col in checks.items():
            led.add(f"frame_{name}", t_frame, col)
        led.add("reduced_eta_profile", cfg.tol["eta_on_frame"], cols["reduced_eta_profile"])
        led.add("reduced_gram_identity", cfg.tol["eta_on_frame"], cols["reduced_gram_identity"])
        led.add("basic_d_eta", cfg.tol["basic_d_eta"], cols["basic_d_eta"])
        led.add("quotient_sasakian", cfg.tol["quotient_sasakian"], cols["quotient_sasakian"][~empty])
        n_empty += int(np.count_nonzero(empty))
        det_min = min([det_min, *cols["d_eta_det"].tolist()])
        rows.writerows(_rows(start, coords, s, hyp["transversal"].astype(int),
                             hyp["freeness_degenerate"].astype(int), cols["d_eta_det"],
                             cols["quotient_sasakian"]))

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
    report = build_report("reduce", cfg, hypotheses=hyp, dimensions=dims, ledger=led,
                          notes=_action_notes(cfg) + _empty_frame_notes(n_empty),
                          exit_status=status)
    return report, status


def run_curvature_scan(cfg, rows):
    setup = _setup(cfg)
    rows.writerow(_header(cfg, "s", "k_quotient", "h_bar_sq", "h_tilde_sq",
                          "final_identity_residual"))
    led = ResidualLedger()
    gates = {"final_identity": ("residual", cfg.tol["final_identity"]),
             "h_tilde_on_toric": ("h_tilde_sq", tolerances.H_TILDE_ON_TORIC),
             "oneill_plane": ("oneill_plane", cfg.tol["oneill_two_path"])}
    tally = None
    nu_dims = set()
    n_empty = 0
    k_min, k_max = math.inf, -math.inf
    for start, coords, s in _chunks(setup, cfg):
        tally = _hypothesis_tally(setup.hypothesis_report(coords), tally)
        # (sample, direction) entries; a sample without directions keeps NaN
        fin, rels = _Columns(len(coords), cfg.directions), _Columns(len(coords), cfg.directions)
        empty = np.zeros(len(coords), dtype=bool)
        z = _direction_normals(cfg, 303, start, len(coords))
        for idx, (_, ctx, crd) in _frame_parts(setup, coords, cr_decomposition):
            # one part of a chunk: its identities over the directions, as lanes
            nu_dims.add(crd.dims["nu"])
            dirs = _direction_lanes(z[idx], crd.d_frame)
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
        rows.writerows(_rows(start, coords, s, *(fin[name][:, 0] for name in
                                                 ("k_quotient", "h_bar_sq", "h_tilde_sq",
                                                  "residual"))))

    if n_empty or not _hypotheses_hold(tally):
        status = EXIT_HYPOTHESIS
    else:
        status = EXIT_OK if led.all_ok() else EXIT_RESIDUAL
    census = {
        "phi_sectional_min": k_min,
        "phi_sectional_max": k_max,
        "nu_dims_seen": sorted(nu_dims),
    }
    report = build_report("curvature-scan", cfg, hypotheses=tally, ledger=led, census=census,
                          notes=_action_notes(cfg) + _empty_frame_notes(n_empty),
                          exit_status=status)
    return report, status


def _is_two_circle_action(cfg):
    """Two rows, the first turning z_0 alone and the second z_1 alone."""
    return [np.flatnonzero(row).tolist() for row in cfg.action_weights] == [[0], [1]]


def run_reeb_flow(cfg, rows):
    S = _structure(cfg)
    led = ResidualLedger()
    t_max = 2.0 * math.pi
    if cfg.mu is not None:
        setup = _setup(cfg)
        z0 = setup.samples(1, cfg.seed)[0][0]
        manifold = setup.manifold
    else:
        z0 = unit_rows(normals(uniforms(cfg.seed, 404, 0, 1, 2 * cfg.n)))[0]
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
    rows.writerow(_header(cfg, "t"))
    rows.writerows(zip(range(0, len(times), stride), *traj[::stride].T.tolist(),
                       times[::stride].tolist()))
    report = build_report("reeb-flow", cfg, ledger=led, extra=extra,
                          notes=_action_notes(cfg), exit_status=status)
    return report, status


def _cone_points(cfg, start, count):
    """cone-check's points start, ..., start + count - 1 as one batch:
    a base from 2n normals and a radius 0.5 + 1.5 u."""
    m = 2 * cfg.n
    u = uniforms(cfg.seed, 505, start, count, m + 1)
    return ConePoint.of(unit_rows(normals(u[:, :m])), 0.5 + 1.5 * u[:, m])


def run_cone_check(cfg, rows):
    """The cone suite: momentum identities at random cone points, then
    the ray census of the strata.

    The cone points come a chunk at a time, one batch (``vecops.batches``):
    J_s at r and at 1, J, and eta(b_M) for each kernel row b run once per
    batch (``cone.momentum_identities``), the pairing of J_s with the
    kernel basis per point on its float row.  The pairing oracle runs per
    point on the first 8, with draws of its own.  The census runs J once
    over all the strata samples (``cone.stratify``) and classifies each
    sample's row on its own.  The zero-stratum rank check is not on lanes.
    """
    S = _structure(cfg)
    A = TorusAction.of(cfg.action_weights)
    mu = MomentumCovector.of(cfg.mu)
    led = ResidualLedger()

    for start, batch in batches(range(cfg.samples)):
        iota, homog, restr = momentum_identities(A, mu, _cone_points(cfg, start, len(batch)))
        led.add("iota_transpose", cfg.tol["iota_transpose"], iota)
        led.add("homogeneity", cfg.tol["iota_transpose"], homog)
        led.add("restriction", tolerances.RESTRICTION, restr)
    oracles = min(cfg.samples, 8)
    cps = _cone_points(cfg, 0, oracles)
    width = A.d + 2 * cfg.n + 1  # the algebra element, then the test vector
    w = normals(uniforms(cfg.seed, 506, 0, oracles, width + width % 2))
    for i in range(oracles):
        led.add("pairing_oracle", tolerances.PAIRING_ORACLE, symplectic_pairing_residual(
            A, ConePoint(cps.base[i], float(cps.r[i])), w[i, :A.d], tangent=w[i, A.d:width]))

    census = {"positive_stratum": 0, "zero_stratum": 0, "negative_stratum": 0}
    notes = []
    strata = [np.zeros((0, 2 * cfg.n))]
    quarter, neg_mu = max(cfg.samples // 4, 1), MomentumCovector.of([-x for x in mu.mu])
    for name, draw in (
            ("positive ray", lambda: sample_level_set(A, mu, quarter, cfg.seed + 1)[0]),
            ("negative ray", lambda: sample_level_set(A, neg_mu, quarter, cfg.seed + 2)[0]),
            ("full zero level", lambda: sample_zero_level(A, np.eye(A.d), quarter, cfg.seed + 3))):
        try:
            strata.append(draw())
        except EmptyLevelSet:
            notes.append(f"{name} infeasible")
    if kernel_algebra(mu).k == 0:
        notes.append("mixed zero level skipped: the kernel group of mu is trivial")
    else:
        strata.append(sample_phi_zero(A, mu, cfg.samples, cfg.seed + 4))

    census_rows = []
    try:
        cens = stratify(A, mu, np.concatenate(strata), tol=cfg.tol["stratification"])
        census.update(cens.counts)
        census_rows = [[idx, *p, s, label, resid]
                       for idx, (p, label, s, resid) in enumerate(cens.samples)]
        leak = False
    except StratificationLeak as exc:
        notes.append(str(exc))
        leak = True
    rows.writerow(_header(cfg, "s", "stratum", "ray_residual"))
    rows.writerows(census_rows)

    zero_pts = [row for row in census_rows if row[-2] == "zero_stratum"]
    if zero_pts:
        deg = zero_stratum_degeneracy(S, A, mu, zero_pts[0][1:2 * cfg.n + 1])
        census["zero_stratum_kernel_dim"] = deg["kernel_dim"]
        led.add("zero_stratum_antisymmetry", tolerances.ZERO_STRATUM_ANTISYMMETRY,
                deg["antisymmetry"])

    status = EXIT_RESIDUAL if (leak or not led.all_ok()) else EXIT_OK
    report = build_report("cone-check", cfg, ledger=led, census=census,
                          notes=_action_notes(cfg) + notes, exit_status=status)
    return report, status


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
        with samples_writer(args.out) as rows:
            report, status = RUNNERS[args.command](cfg, rows)
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

    write_outputs(args.out, report)
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
