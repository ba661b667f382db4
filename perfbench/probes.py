"""Kernel probes of the traced run, one process, always traced.

    python3 perfbench/probes.py <seed> <trace file>

Times four kernels (nested dual arithmetic, round curvature, weighted
Sasakian residual, quotient Sasakian residual) as medians of repeated
calls, then calls each remaining traced layer function once, so that
every layer has spans in every workload's traced run.  Inputs come from
the seed.  Spans, counters and timings go to the trace file.
"""

import json
import statistics
import sys
import time

import numpy as np

import tracer


def _median_call(fn, batches, per_batch):
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            fn()
        times.append((time.perf_counter() - t0) / per_batch)
    return statistics.median(times)


def _unit(rng, dim):
    p = rng.standard_normal(dim)
    return list(p / np.linalg.norm(p))


def _tangent(rng, p):
    v = rng.standard_normal(len(p))
    return list(v - np.dot(v, p) * np.asarray(p))


def run(seed):
    from sasaklab import cone, cr, flows
    from sasaklab.actions import MomentumCovector, TorusAction
    from sasaklab.jets import d_scalar, jsqrt
    from sasaklab.oneill import SubmersionContext
    from sasaklab.reduction import ReductionSetup, build_frame, reduced_tensors
    from sasaklab.structures import RoundSphereStructure, WeightedSphereStructure

    rng = np.random.default_rng(np.random.SeedSequence([seed, 606]))
    out = {}

    point = list(rng.standard_normal(8))
    direction = list(rng.standard_normal(8))

    def rational(v):
        num = v[0] * v[1] + v[2] * v[3] + 1.0
        den = jsqrt(v[4] * v[4] + v[5] * v[5] + 2.0)
        return num / den + v[6] * v[7]

    def nested():
        d_scalar(lambda q: d_scalar(rational, q, direction), point, direction)

    out["jets.nested_dual_us"] = _median_call(nested, 5, 100) * 1e6

    S7 = RoundSphereStructure(4)
    p = _unit(rng, 8)
    x, y, z = (_tangent(rng, p) for _ in range(3))
    out["structures.round_curvature_ms"] = _median_call(
        lambda: S7.geometry.curvature(p, x, y, z), 5, 4) * 1e3

    W = WeightedSphereStructure(3, [1.0, 2.0, 3.0])
    q = _unit(rng, 6)
    u, v = _tangent(rng, q), _tangent(rng, q)
    out["structures.weighted_sasakian_ms"] = _median_call(
        lambda: W.sasakian_residual(q, u, v), 3, 1) * 1e3

    A = TorusAction.of([[1, 1, 0, 0], [0, 0, 1, 1]])
    setup = ReductionSetup(S7, A, mu=[1.0, 1.0])
    samp = setup.samples(1, seed=seed)[0]
    frame = build_frame(setup, samp)
    ctx = SubmersionContext.from_reduction(setup, frame)
    d = [list(w) for w in frame.contact_d.vectors]
    out["oneill.quotient_sasakian_ms"] = _median_call(
        lambda: ctx.quotient_sasakian_residual(d[0], d[1]), 5, 2) * 1e3

    # one call into each layer the timed kernels above do not reach
    setup.hypothesis_report(samp)
    reduced_tensors(setup, frame)
    W.killing_residual(q, u, v)
    crd = cr.cr_decomposition(ctx)
    cr.final_identity(ctx, d[0], crd)
    A2 = TorusAction.of([[-1, 1, 0, 0], [0, 0, 1, 1]])
    mu2 = MomentumCovector.of([1.0, 0.0])
    cone.stratify(A2, mu2, cone.sample_phi_zero(A2, mu2, 4, seed))
    cone.symplectic_pairing_residual(A2, cone.ConePoint.of(p, 1.5),
                                     tuple(rng.standard_normal(2)), seed=seed)
    flows.reeb_flow(S7, S7.sphere, np.asarray(p), 2.0 * np.pi, 64)
    return out


def main(argv):
    seed, trace_path = int(argv[0]), argv[1]
    import sasaklab.cli  # noqa: F401  (loads every module the tracer wraps)

    rec = tracer.Recorder()
    tracer.install(rec)
    timings = rec.span("probes", run)(seed)
    doc = rec.as_dict()
    doc["timings"] = timings
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
