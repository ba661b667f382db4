"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance below is fixed here, not tuned at runtime.
"""

import json
import math

import numpy as np

from oracles import fd_curvature, hopf_context
from sasaklab.actions import TorusAction
from sasaklab.cli import main as cli_main
from sasaklab.cone import ConePoint, iota_transpose_residual, sample_phi_zero, stratify
from sasaklab.cr import cr_decomposition, final_identity, relation_residuals
from sasaklab.flows import reduced_flow_comparison, reeb_flow
from sasaklab.oneill import SubmersionContext
from sasaklab.reduction import ReductionSetup, build_frame, reduced_tensors
from sasaklab.structures import (
    RoundSphereStructure,
    WeightedSphereStructure,
)
from sasaklab.jets import value
from sasaklab.vecops import vvalue

PAIRS = TorusAction.of([[1, 1, 0, 0], [0, 0, 1, 1]])
FLIPPED = TorusAction.of([[-1, 1, 0, 0], [0, 0, 1, 1]])
SPLIT = TorusAction.of([[1, 0, 0, 0], [0, 1, 1, 1]])
S7 = RoundSphereStructure(4)


def _verdict(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def _rand_point(rng, m):
    p = rng.standard_normal(m)
    return list(p / np.linalg.norm(p))


def _rand_tangent(rng, p):
    v = rng.standard_normal(len(p))
    v -= (v @ np.asarray(p)) * np.asarray(p)
    return list(v / np.linalg.norm(v))


def _mix(rng, vectors):
    c = rng.standard_normal(len(vectors))
    c /= np.linalg.norm(c)
    return list(np.asarray(vectors).T @ c)


def test_criterion_01_round_sphere_axioms():
    rng = np.random.default_rng(101)
    worst_curv, worst_ident = 0.0, 0.0
    for _ in range(100):
        p = _rand_point(rng, 8)
        x, y = _rand_tangent(rng, p), _rand_tangent(rng, p)
        worst_curv = max(worst_curv, S7.sasakian_residual(p, x, y))
        xi = vvalue(S7.reeb(p))
        phx, phy = vvalue(S7.phi(p, x)), vvalue(S7.phi(p, y))
        phxi = vvalue(S7.phi(p, xi))
        worst_ident = max(worst_ident, float(np.linalg.norm(phxi)))
        phphx = vvalue(S7.phi(p, phx))
        r = [a + b - value(S7.eta(p, x)) * c for a, b, c in zip(phphx, x, xi)]
        worst_ident = max(worst_ident, float(np.linalg.norm(r)))
        r2 = abs(value(S7.metric.g(p, phx, phy)) - value(S7.metric.g(p, x, y))
                 + value(S7.eta(p, x)) * value(S7.eta(p, y)))
        worst_ident = max(worst_ident, r2)
    ok = worst_curv < 1e-7 and worst_ident < 1e-8
    _verdict(1, ok, f"curvature axiom max {worst_curv:.2e} (tol 1e-7), "
                    f"structure identities max {worst_ident:.2e} (tol 1e-8)")


def test_criterion_02_weighted_structures():
    rng = np.random.default_rng(102)
    a = [1.0, 2.0, 3.0]
    W = WeightedSphereStructure(3, a)
    worst_kill, worst_sas, worst_deta = 0.0, 0.0, 0.0
    for _ in range(100):
        p = _rand_point(rng, 6)
        x, y = _rand_tangent(rng, p), _rand_tangent(rng, p)
        worst_kill = max(worst_kill, W.killing_residual(p, x, y))
        worst_sas = max(worst_sas, W.sasakian_residual(p, x, y))
        # jet d(eta) oracle against the closed form the metric uses
        worst_deta = max(worst_deta, abs(value(W.d_eta(p, x, y)) - value(W.metric.d_eta(p, x, y))))
    worst_fd = 0.0
    for _ in range(5):
        p = _rand_point(rng, 6)
        x, y = _rand_tangent(rng, p), _rand_tangent(rng, p)
        xi = vvalue(W.reeb(p))
        jet = np.asarray(vvalue(W.geometry.curvature(p, x, xi, y)))
        fd = fd_curvature(W.metric.g, p, x, xi, y, step=1e-4)
        worst_fd = max(worst_fd, float(np.max(np.abs(jet - fd))))
    ok = worst_kill < 1e-5 and worst_sas < 1e-4 and worst_fd < 1e-3 and worst_deta < 1e-12
    _verdict(2, ok, f"killing max {worst_kill:.2e} (tol 1e-5), sasakian max "
                    f"{worst_sas:.2e} (tol 1e-4), fd agreement {worst_fd:.2e} (tol 1e-3), "
                    f"jet d_eta agreement {worst_deta:.2e} (tol 1e-12)")


def test_criterion_03_pairs_diagonal_reduction():
    rng = np.random.default_rng(103)
    setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
    samples = setup.samples(100, seed=103)
    worst_mod, worst_q, min_det = 0.0, 0.0, math.inf
    dims = None
    for samp in samples:
        c = np.asarray(samp.coords())
        t = c[0::2] ** 2 + c[1::2] ** 2
        worst_mod = max(worst_mod, abs(t[0] + t[1] - 0.5))
        frame = build_frame(setup, samp)
        dims = frame.dims
        red = reduced_tensors(setup, frame)
        min_det = min(min_det, red.d_eta_det)
        ctx = SubmersionContext.from_reduction(setup, frame)
        d = [list(v) for v in frame.contact_d.vectors]
        worst_q = max(worst_q, ctx.quotient_sasakian_residual(_mix(rng, d), _mix(rng, d)))
    ok = (worst_mod < 1e-10 and dims["quotient"] == 5
          and min_det > 1e-6 and worst_q < 1e-5)
    _verdict(3, ok, f"moduli defect {worst_mod:.2e} (tol 1e-10), quotient dim "
                    f"{dims['quotient']} (want 5), min |det d_eta| {min_det:.2e} "
                    f"(floor 1e-6), quotient sasakian max {worst_q:.2e} (tol 1e-5)")


def test_criterion_04_curvature_two_path():
    rng = np.random.default_rng(104)
    worst = 0.0
    for action, mu in ((PAIRS, [1.0, 1.0]), (SPLIT, [0.0, 1.0])):
        setup = ReductionSetup(S7, action, mu=mu)
        for samp in setup.samples(50, seed=104):
            frame = build_frame(setup, samp)
            ctx = SubmersionContext.from_reduction(setup, frame)
            zeta = list(frame.reeb)
            d = [list(v) for v in frame.contact_d.vectors]
            x, y = _mix(rng, d), _mix(rng, d)
            lhs = np.asarray(ctx.quotient_curvature_vector(x, zeta, y))
            rhs = np.zeros(8)
            h_cache = {}
            for f in ctx.horizontal_frame:
                rhs += ctx.gauss_curvature_n4(x, zeta, y, f, h_cache=h_cache) * np.asarray(f)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    _verdict(4, worst < 1e-6, f"O'Neill vs level-set curvature in the Reeb slot: "
                              f"max {worst:.2e} (tol 1e-6, 50 samples x 2 configs)")


def test_criterion_05_identity_ledger():
    rng = np.random.default_rng(105)
    setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
    worst_rel, worst_fin, worst_tilde = 0.0, 0.0, 0.0
    for samp in setup.samples(25, seed=105):
        frame = build_frame(setup, samp)
        ctx = SubmersionContext.from_reduction(setup, frame)
        crd = cr_decomposition(ctx)
        for _ in range(2):
            x, y = _mix(rng, crd.d_frame), _mix(rng, crd.d_frame)
            rels = relation_residuals(ctx, crd, x, y)
            worst_rel = max(worst_rel, max(rels.values()))
            fin = final_identity(ctx, x, crd)
            worst_fin = max(worst_fin, fin["residual"])
            worst_tilde = max(worst_tilde, fin["h_tilde_sq"])
    ok = worst_rel < 1e-6 and worst_fin < 1e-5 and worst_tilde < 1e-8
    _verdict(5, ok, f"relation residuals max {worst_rel:.2e} (tol 1e-6), final "
                    f"identity max {worst_fin:.2e} (tol 1e-5), nu-component "
                    f"{worst_tilde:.2e} (tol 1e-8)")


def test_criterion_06_positivity_of_zero_level_quotient():
    rng = np.random.default_rng(106)
    setup = ReductionSetup(S7, FLIPPED, zero_rows=[[1.0, 0.0]])
    k_min = math.inf
    count = 0
    for samp in setup.samples(20, seed=106):
        frame = build_frame(setup, samp)
        ctx = SubmersionContext.from_reduction(setup, frame)
        d = [list(v) for v in frame.contact_d.vectors]
        for _ in range(10):
            k_min = min(k_min, ctx.phi_sectional_quotient(_mix(rng, d)))
            count += 1
    ok = count == 200 and k_min >= 1.0 - 1e-6
    _verdict(6, ok, f"phi-sectional minimum over {count} directions: {k_min:.6f} "
                    f"(floor 1 - 1e-6)")


def test_criterion_07_weighted_circle_flow():
    setup = ReductionSetup(S7, TorusAction.of([[1, 0, 0, 0], [0, 1, 0, 0]]),
                           mu=[1.0, 1.0])
    samp = setup.samples(1, seed=107)[0]
    times, traj = reeb_flow(S7, setup.manifold, np.asarray(samp.coords()),
                            2.0 * math.pi, 512)
    cmp = reduced_flow_comparison(times, traj, (1.0, 1.0))
    ok = cmp["sup_error"] < 1e-6
    _verdict(7, ok, f"integrated flow vs closed form: sup {cmp['sup_error']:.2e} "
                    f"(tol 1e-6, 512 steps)")


def test_criterion_08_cone_suite():
    rng = np.random.default_rng(108)
    worst_iota = 0.0
    for _ in range(1000):
        p = _rand_point(rng, 8)
        cp = ConePoint.of(p, float(rng.uniform(0.5, 2.0)))
        worst_iota = max(worst_iota, iota_transpose_residual(FLIPPED, [1.0, 0.0], cp))
    pts = sample_phi_zero(FLIPPED, [1.0, 0.0], 1000, seed=108)
    census = stratify(FLIPPED, [1.0, 0.0], pts)  # raises on any leak
    explicit = stratify(FLIPPED, [1.0, 0.0], [
        [0, 0, 1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0, 0, 0, 0, 0],
    ])
    total = {k: census.counts[k] + explicit.counts[k] for k in census.counts}
    ok = worst_iota < 1e-12 and sum(census.counts.values()) == 1000 and all(
        total[k] > 0 for k in total
    )
    _verdict(8, ok, f"iota-transpose max {worst_iota:.2e} (tol 1e-12, 1000 cone "
                    f"samples); strata census {total} with zero leaks")


def test_criterion_09_degenerate_case_honesty(tmp_path):
    status = cli_main([
        "check-hypotheses", "--preset", "ex1", "--mu", "1,0",
        "--samples", "100", "--seed", "109", "--out", str(tmp_path),
    ])
    report = json.loads((tmp_path / "report.json").read_text())
    degenerate = report["hypotheses"]["freeness"]["degenerate"]
    ok = status == 4 and degenerate == 100
    _verdict(9, ok, f"first-axis ray: {degenerate}/100 samples freeness-degenerate, "
                    f"exit status {status} (want 4)")


def test_criterion_10_hopf_sign_gate():
    ctx = hopf_context()
    x, y = ctx.horizontal_frame
    k_down = ctx.quotient_curvature_4(x, y, y, x)
    k_up = ctx.gauss_curvature_n4(x, y, y, x)
    ok = abs(k_down - 4.0) < 1e-7 and abs(k_up - 1.0) < 1e-9
    _verdict(10, ok, f"circle fibration gate: upstairs {k_up:.9f}, downstairs "
                     f"{k_down:.9f} (want 1 and 4, tol 1e-7)")


def test_criterion_11_deterministic_reports(tmp_path):
    outs = [tmp_path / name for name in ("a", "b", "c")]
    for out in outs:
        status = cli_main([
            "reduce", "--preset", "ex1", "--mu", "1,1", "--samples", "5",
            "--seed", "111", "--out", str(out),
        ])
        assert status == 0
    blobs = [(o / "report.json").read_bytes() for o in outs]
    csvs = [(o / "samples.csv").read_bytes() for o in outs]
    ok = blobs[0] == blobs[1] == blobs[2] and csvs[0] == csvs[1] == csvs[2]
    _verdict(11, ok, "repeated runs produce byte-identical report.json and samples.csv")
