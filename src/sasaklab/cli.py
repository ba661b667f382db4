"""Command-line interface.

    sasaklab <command> [--config FILE] [--preset NAME] [--mu v1,v2]
             [--samples N] [--seed S] [--out DIR] ...

Commands: verify-structure, check-hypotheses, reduce, curvature-scan,
reeb-flow, cone-check.  Each run writes report.json and samples.csv to
the output directory and exits 0 only when every hypothesis holds and
every residual is within its declared tolerance (2 validation, 3
infeasible level set, 4 hypothesis failure, 5 residual breach, 6
numerical non-convergence).
"""

import argparse
import math
import sys

import numpy as np

from . import tolerances
from .actions import MomentumCovector, TorusAction, kernel_algebra
from .cone import (
    ConePoint,
    iota_transpose_residual,
    sample_phi_zero,
    stratify,
    symplectic_momentum,
    symplectic_pairing_residual,
    zero_stratum_degeneracy,
)
from .config import build_config, parse_numbers, read_config
from .cr import cr_decomposition, final_identity, oneill_plane_residual, relation_residuals
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
    reduced_tensors_batch,
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
from .vecops import lane, stack_lanes, vvalue
from .jets import value

COMMANDS = (
    "verify-structure",
    "check-hypotheses",
    "reduce",
    "curvature-scan",
    "reeb-flow",
    "cone-check",
)


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
    return build_config(raw, command=args.command, preset=args.preset)


def _structure(cfg):
    if cfg.is_round:
        return RoundSphereStructure(cfg.n)
    return WeightedSphereStructure(cfg.n, cfg.sphere_weights)


def _unit_tangent(rng, p):
    v = rng.standard_normal(len(p))
    p = np.asarray(p)
    v = v - (v @ p) * p
    return list(v / np.linalg.norm(v))


def _frame_direction(rng, frame_vectors):
    c = rng.standard_normal(len(frame_vectors))
    c /= np.linalg.norm(c)
    return list(np.asarray(frame_vectors).T @ c)


def _draw_directions(rng, frame_vectors, count):
    """``count`` pairs of unit directions in the span of the frame; none
    for an empty frame, where the run counts a hypothesis failure."""
    if not frame_vectors:
        return []
    return [(_frame_direction(rng, frame_vectors), _frame_direction(rng, frame_vectors))
            for _ in range(count)]


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

    def one(i):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101, i]))
        p = rng.standard_normal(2 * cfg.n)
        p = list(p / np.linalg.norm(p))
        x = _unit_tangent(rng, p)
        y = _unit_tangent(rng, p)
        xi = vvalue(S.reeb(p))
        g = S.metric.g

        phi_xi = vvalue(S.phi(p, xi))
        r_phi_xi = math.sqrt(max(value(g(p, phi_xi, phi_xi)), 0.0))
        phx = vvalue(S.phi(p, x))
        phphx = vvalue(S.phi(p, phx))
        res_sq = [a + b - value(S.eta(p, x)) * c for a, b, c in zip(phphx, x, xi)]
        r_phi_sq = math.sqrt(max(value(g(p, res_sq, res_sq)), 0.0))
        phy = vvalue(S.phi(p, y))
        r_isom = abs(
            value(g(p, phx, phy))
            - value(g(p, x, y))
            + value(S.eta(p, x)) * value(S.eta(p, y))
        )
        r_eta_xi = abs(value(S.eta(p, xi)) - 1.0)
        r_deta = abs(value(S.d_eta(p, xi, x)))
        r_kill = S.killing_residual(p, x, y)
        r_sas = S.sasakian_residual(p, x, y)
        det = contact_nondegeneracy(S, p)
        return (p, r_phi_xi, r_phi_sq, r_isom, r_eta_xi, r_deta, r_kill, r_sas, det)

    rows = []
    results = [one(i) for i in range(cfg.samples)]
    min_det = math.inf
    for i, (p, a, b, c, d, e, f, g_, det) in enumerate(results):
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
    reports = [setup.hypothesis_report(s) for s in samples]
    n_trans = sum(1 for r in reports if r["transversal"])
    n_free = sum(1 for r in reports if not r["freeness_degenerate"])
    slice_ok = reports[0]["slice_condition"]
    hyp = {
        "slice_condition": slice_ok,
        "slice_info": reports[0]["slice_info"],
        "transversality": {"pass": n_trans, "fail": len(samples) - n_trans},
        "freeness": {"free": n_free, "degenerate": len(samples) - n_free},
        "kernel_dim": setup.kernel.k,
    }
    ok = slice_ok and n_trans == len(samples) and n_free == len(samples)
    status = EXIT_OK if ok else EXIT_HYPOTHESIS
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


def _lane_batches(keys):
    """Sample indices grouped by equal key, in order of first appearance."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def run_reduce(cfg):
    setup = _setup(cfg)
    samples = setup.samples(cfg.samples, cfg.seed)
    led = ResidualLedger()
    t_frame = cfg.tol["frame_orthogonality"]

    def prepare(arg):
        # float-level work of one sample: hypotheses, frames, directions
        i, samp = arg
        hyp = setup.hypothesis_report(samp)
        frame = build_frame(setup, samp, strict=False)
        ctx = SubmersionContext.from_reduction(setup, frame)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 202, i]))
        dirs = _draw_directions(rng, [list(v) for v in frame.contact_d.vectors],
                                cfg.directions)
        key = (frame.vertical_rows.tobytes(), ctx.frame_sizes())
        return hyp, frame, ctx, dirs, key

    hyps, frames, ctxs, dirs, keys = zip(*[prepare(arg) for arg in enumerate(samples)])

    def certify(batch):
        # jet stage of samples sharing their float-level decisions, as lanes
        reds = reduced_tensors_batch(setup, [frames[i] for i in batch])
        ctx = SubmersionContext.stacked([ctxs[i] for i in batch])
        worst_q = 0.0
        for k in range(len(dirs[batch[0]])):  # a batch shares its frame sizes
            x = stack_lanes([dirs[i][k][0] for i in batch])
            y = stack_lanes([dirs[i][k][1] for i in batch])
            worst_q = np.maximum(worst_q, ctx.quotient_sasakian_residual(x, y))
        return [(red, lane(worst_q, j)) for j, red in enumerate(reds)]

    certified = [None] * len(samples)
    for batch in _lane_batches(keys):
        for i, res in zip(batch, certify(batch)):
            certified[i] = res
    n_trans = n_free = n_empty = 0
    det_min = math.inf
    dims0 = None
    rows = []
    for i, samp in enumerate(samples):
        hyp, frame, (red, worst_q) = hyps[i], frames[i], certified[i]
        n_trans += int(hyp["transversal"])
        n_free += int(not hyp["freeness_degenerate"])
        for name, val in frame.checks.items():
            led.add(f"frame_{name}", t_frame, val)
        led.add("reduced_eta_profile", cfg.tol["eta_on_frame"], red.checks["reduced_eta_profile"])
        led.add("reduced_gram_identity", cfg.tol["eta_on_frame"], red.checks["reduced_gram_identity"])
        led.add("basic_d_eta", cfg.tol["basic_d_eta"], red.checks["basic_d_eta"])
        if dirs[i]:
            led.add("quotient_sasakian", cfg.tol["quotient_sasakian"], worst_q)
        else:
            n_empty += 1
            worst_q = math.nan
        det_min = min(det_min, red.d_eta_det)
        dims0 = frame.dims
        rows.append([i, *samp.coords(), samp.s, int(hyp["transversal"]),
                     int(hyp["freeness_degenerate"]), red.d_eta_det, worst_q])

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
    hyp_ok = n_trans == len(samples) and n_free == len(samples) and not n_empty
    det_ok = det_min > cfg.tol["reduced_deta_det"]
    hyp = {
        "transversality": {"pass": n_trans, "fail": len(samples) - n_trans},
        "freeness": {"free": n_free, "degenerate": len(samples) - n_free},
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

    def one(arg):
        i, samp = arg
        frame = build_frame(setup, samp, strict=False)
        ctx = SubmersionContext.from_reduction(setup, frame)
        crd = cr_decomposition(ctx)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 303, i]))
        out = []
        for x, y in _draw_directions(rng, crd.d_frame, cfg.directions):
            fin = final_identity(ctx, x, crd)
            rels = relation_residuals(ctx, crd, x, y)
            onil = oneill_plane_residual(ctx, x)
            out.append((fin, rels, onil))
        return i, samp, crd, out

    results = [one(arg) for arg in enumerate(samples)]
    k_min, k_max = math.inf, -math.inf
    rows = []
    nu_dims = set()
    n_empty = 0
    for i, samp, crd, per_dir in results:
        nu_dims.add(crd.dims["nu"])
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

    if n_empty:
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
    report = build_report("curvature-scan", cfg, ledger=led, census=census,
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
    S = _structure(cfg)
    A = TorusAction.of(cfg.action_weights)
    mu = MomentumCovector.of(cfg.mu)
    led = ResidualLedger()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 505]))

    for i in range(cfg.samples):
        p = rng.standard_normal(2 * cfg.n)
        p = list(p / np.linalg.norm(p))
        r = float(rng.uniform(0.5, 2.0))
        cp = ConePoint.of(p, r)
        led.add("iota_transpose", cfg.tol["iota_transpose"],
                iota_transpose_residual(A, mu, cp))
        js_r = symplectic_momentum(A, cp)
        js_1 = symplectic_momentum(A, ConePoint.of(p, 1.0))
        led.add("homogeneity", cfg.tol["iota_transpose"],
                max(abs(a - r * r * b) for a, b in zip(js_r, js_1)))
        led.add("restriction", tolerances.RESTRICTION,
                max(abs(a - float(value(b))) for a, b in
                    zip(js_1, A.momentum(p))))
        if i < 8:
            led.add("pairing_oracle", tolerances.PAIRING_ORACLE,
                    symplectic_pairing_residual(A, cp, tuple(rng.standard_normal(A.d)),
                                                seed=cfg.seed + i))

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
    for entry in report["residuals"]:
        flag = "ok " if entry["within_tolerance"] else "FAIL"
        print(f"[{flag}] {entry['name']}: max {entry['max']:.3e} "
              f"(tol {entry['tolerance']:.1e}, n={entry['count']})")
    for key, val in report.get("hypotheses", {}).items():
        print(f"hypothesis {key}: {val}")
    print(f"exit status {status}; outputs in {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
