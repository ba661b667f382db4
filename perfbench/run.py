#!/usr/bin/env python3
"""sasaklab benchmark: end-to-end CLI runs, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --compare OLD.json NEW.json

Run from the root of a source checkout; the package is imported from
``src/``.  A pass runs the workload's CLI invocations once, each as a
fresh process.  ``--trace 0`` repeats passes for ``--seconds`` and
reports the end-to-end metrics as medians over passes.  ``--trace 1``
runs untraced passes, one traced pass and the kernel probes, and
reports the per-layer metrics.  Every invocation's output is checked;
the last line of stdout is one JSON object, and the exit status is 1
when any check failed.  Results, and the trace with ``--trace 1``, are
written under ``perfbench/out/``.  See README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# a process still running this long after its run began is killed, so
# that a hung CLI cannot keep the benchmark from ending
RUN_TIMEOUT_S = 170


def metric_units(section):
    """{name: unit} of the "end_to_end" or "per_layer" list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


# ----------------------------------------------------------------------
# one CLI process
# ----------------------------------------------------------------------


def child_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


def spawn(cmd, workdir, env, timeout):
    """Run cmd to completion; returns (exit code, wall s, maxrss KB, launch time)."""
    with open(os.path.join(workdir, "stdout"), "wb") as out, \
            open(os.path.join(workdir, "stderr"), "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
    return os.waitstatus_to_exitcode(status), ended - launched, usage.ru_maxrss, launched


def check_invocation(inv, code, workdir):
    """The output-correctness gate for one finished invocation.

    Returns (problems, report.json bytes or None, samples certified)."""
    problems = []
    text = b""
    for name in ("stdout", "stderr"):
        with open(os.path.join(workdir, name), "rb") as fh:
            text += fh.read()
    if code != inv.expect_exit:
        problems.append(f"exit {code}, expected {inv.expect_exit}")
    if b"Traceback (most recent call last)" in text:
        problems.append("printed a traceback")
    report_path = os.path.join(workdir, "out", "report.json")
    report_bytes = None
    samples = 0
    if os.path.exists(report_path):
        with open(report_path, "rb") as fh:
            report_bytes = fh.read()
    if inv.expect_exit in (2, 3) and report_bytes is not None:
        problems.append("a rejected run wrote report.json")
    if code == 0 and inv.expect_exit == 0:
        if report_bytes is None:
            problems.append("no report.json")
        else:
            report = json.loads(report_bytes)
            if report.get("exit_status") != 0:
                problems.append(f"report exit_status {report.get('exit_status')}")
            for r in report.get("residuals", []):
                if not (r["max"] <= r["tolerance"] and r["within_tolerance"]):
                    problems.append(f"residual {r['name']} {r['max']!r} > {r['tolerance']!r}")
            with open(os.path.join(workdir, "out", "samples.csv"), "rb") as fh:
                rows = fh.read().count(b"\n") - 1
            if rows != inv.rows:
                problems.append(f"samples.csv has {rows} rows, expected {inv.rows}")
            if inv.certifies:
                samples = report["config"]["samples"]
    return problems, report_bytes, (samples if not problems else 0)


class Session:
    """One benchmark run: its directory, its deadline, the failures found
    and the report.json digest of each invocation in the first pass."""

    def __init__(self, rundir, deadline):
        self.rundir = rundir
        self.deadline = deadline
        self.failures = []
        self.digests = {}

    def spawn(self, cmd, workdir, env):
        return spawn(cmd, workdir, env, max(self.deadline - time.monotonic(), 0.0))

    def invocation(self, inv, workdir, trace_path=None):
        os.makedirs(workdir)
        ready_path = os.path.join(workdir, "ready")
        extra = {"PERFBENCH_READY": ready_path}
        if trace_path:
            extra["PERFBENCH_TRACE"] = trace_path
        cmd = [sys.executable, os.path.join(HERE, "launch.py"), *inv.args,
               "--out", os.path.join(workdir, "out")]
        code, wall, rss_kb, launched = self.spawn(cmd, workdir, child_env(**extra))
        try:
            with open(ready_path, encoding="utf-8") as fh:
                ready = json.load(fh)
            setup = ready["monotonic"] - launched
            backend = ready["jet_backend"]
        except (OSError, ValueError, KeyError):
            setup, backend = wall, None
        return {"code": code, "wall": wall, "setup": setup, "rss_kb": rss_kb,
                "backend": backend}

    def run_pass(self, invocations, name, traced=False):
        """One execution of the workload's invocation list."""
        procs, traces = [], []
        samples = failed = 0
        for k, inv in enumerate(invocations):
            workdir = os.path.join(self.rundir, name, f"i{k}")
            trace_path = os.path.join(workdir, "trace.json") if traced else None
            proc = self.invocation(inv, workdir, trace_path)
            problems, report, certified = check_invocation(inv, proc["code"], workdir)
            if report is not None:
                digest = hashlib.sha256(report).hexdigest()
                if self.digests.setdefault(k, digest) != digest:
                    problems.append("report.json differs from an earlier pass with the same seed")
            self.failures.extend(f"{' '.join(inv.args)}: {p}" for p in problems)
            failed += bool(problems)
            samples += certified
            procs.append(proc)
            if traced and os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    traces.append(json.load(fh))
        wall = sum(p["wall"] for p in procs)
        setup = sum(p["setup"] for p in procs)
        return {
            "wall_s": wall,
            "setup_s": setup,
            "samples_per_s": samples / (wall - setup),
            "peak_rss_mb": max(p["rss_kb"] for p in procs) / 1024.0,
            "samples": samples,
            "failed": failed,
            "processes": procs,
            "traces": traces,
        }

    def warm_up(self):
        """One untimed CLI start, so the first pass pays no bytecode compilation."""
        self.invocation(workloads.Invocation(("--help",)), os.path.join(self.rundir, "warmup"))

    def probes(self, seed):
        workdir = os.path.join(self.rundir, "probes")
        os.makedirs(workdir)
        trace_path = os.path.join(workdir, "trace.json")
        cmd = [sys.executable, os.path.join(HERE, "probes.py"), str(seed), trace_path]
        code, _, _, _ = self.spawn(cmd, workdir, child_env())
        if code != 0 or not os.path.exists(trace_path):
            self.failures.append(f"kernel probes exited {code}")
            return None
        with open(trace_path, encoding="utf-8") as fh:
            return json.load(fh)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def layer_metrics(units, pass_traces, probe_trace, overhead_ratio):
    """Per-layer metrics of one traced pass plus the kernel probes.

    "<prefix>.calls" and "<prefix>.self_s" come from the tracer's spans
    and counters; the other names are computed here or timed by the
    probes."""
    counts, selfs = {}, {}
    max_depth = offered = kept = 0
    for doc in [*pass_traces, probe_trace]:
        for name, n in doc["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, (calls, self_s) in tracer.self_times(doc["spans"]).items():
            c0, s0 = selfs.get(name, (0, 0.0))
            selfs[name] = (c0 + calls, s0 + self_s)
        max_depth = max(max_depth, doc["max_depth"])
        offered += doc["gram_schmidt"]["offered"]
        kept += doc["gram_schmidt"]["kept"]
    values = dict(probe_trace["timings"])
    values["jets.max_depth"] = max_depth
    values["tensor_kernel.gram_schmidt.kept_ratio"] = kept / offered if offered else 0.0
    values["cli.import_s"] = sum(doc["import_s"] for doc in pass_traces)
    values["trace.overhead_ratio"] = overhead_ratio
    for name in units:
        prefix, _, field = name.rpartition(".")
        if name in values:
            continue
        if prefix not in tracer.PREFIXES and name not in tracer.COUNTERS:
            raise KeyError(f"per-layer metric {name!r} has no source")
        if field == "self_s":
            values[name] = selfs.get(prefix, (0, 0.0))[1]
        elif field == "calls":
            values[name] = counts.get(prefix, selfs.get(prefix, (0, 0))[0])
        else:
            values[name] = counts.get(name, 0)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def e2e_metrics(units, passes):
    return {name: {"value": statistics.median(p[name] for p in passes), "unit": unit}
            for name, unit in units.items()}


# ----------------------------------------------------------------------
# environment and comparison
# ----------------------------------------------------------------------


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed, backend):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jet_backend": backend,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def compare(old_path, new_path):
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    if old["environment"]["jet_backend"] != new["environment"]["jet_backend"]:
        print(f"refusing to compare: jet_backend {old['environment']['jet_backend']!r} "
              f"vs {new['environment']['jet_backend']!r}", file=sys.stderr)
        return 2
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        print("refusing to compare different workloads or trace modes", file=sys.stderr)
        return 2
    print(f"{'metric':44} {'old':>14} {'new':>14} {'new/old':>8}")
    for name, m in old["metrics"].items():
        if name not in new["metrics"]:
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        ratio = f"{b / a:8.3f}" if a else "       -"
        print(f"{name:44} {a:14.6g} {b:14.6g} {ratio}  {m['unit']}")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def measure(workload, seed, seconds, trace, tiny=False):
    """Run one measurement, write its result.json and return it."""
    rundir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    session = Session(rundir, time.monotonic() + RUN_TIMEOUT_S)
    invocations = workloads.WORKLOADS[workload](seed, rundir, tiny=tiny)
    session.warm_up()

    passes, traced_pass, probe_trace = [], None, None
    start = time.monotonic()
    while True:
        k = len(passes) + (traced_pass is not None)
        passes.append(session.run_pass(invocations, f"p{k}"))
        if trace and traced_pass is None:
            traced_pass = session.run_pass(invocations, f"p{k + 1}", traced=True)
            probe_trace = session.probes(seed)
        # stop when one more pass would more likely end after `seconds`
        # than before it
        elapsed = time.monotonic() - start
        per_pass = elapsed / (len(passes) + (traced_pass is not None))
        if len(passes) >= 2 and elapsed + per_pass / 2 > seconds:
            break

    all_passes = passes + ([traced_pass] if traced_pass else [])
    procs = [p for ps in all_passes for p in ps["processes"]]
    backends = {p["backend"] for p in procs}
    if len(backends) != 1 or None in backends:
        session.failures.append(
            f"jet backend not reported consistently: {sorted(map(str, backends))}")

    if trace:
        ratio = traced_pass["wall_s"] / statistics.median(p["wall_s"] for p in passes)
        if probe_trace is None or len(traced_pass["traces"]) != len(invocations):
            session.failures.append("traced run incomplete")
            metrics = {}
        else:
            metrics = layer_metrics(metric_units("per_layer"), traced_pass["traces"],
                                    probe_trace, ratio)
        with open(os.path.join(rundir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"pass": traced_pass["traces"], "probes": probe_trace}, fh)
    else:
        metrics = e2e_metrics(metric_units("end_to_end"), passes)

    failed = sum(ps["failed"] for ps in all_passes) + (trace and probe_trace is None)
    result = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed, sorted(map(str, backends))[0]),
        "passes": [{k: v for k, v in p.items() if k not in ("processes", "traces")}
                   for p in passes],
        "failures": session.failures,
        "correct": not session.failures,
        "attempted": len(procs) + (1 if trace else 0),
        # a run-level failure (backend, incomplete trace) fails the run too
        "failed": max(failed, 1) if session.failures else failed,
        "metrics": metrics,
    }
    with open(os.path.join(rundir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two result.json files and exit")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.exists(os.path.join(SRC, "sasaklab", "cli.py")):
        print(f"no sasaklab source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, args.trace)

    for f in result["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(result['passes'])} untraced passes, "
          f"environment {json.dumps(result['environment'])}")
    print(f"fail_ratio {result['failed'] / result['attempted']:.4f} ratio "
          f"({result['failed']} of {result['attempted']} invocations)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
