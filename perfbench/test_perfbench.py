"""Fast tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer
from workloads import WORKLOADS, Invocation


def test_every_workload_is_declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert sorted(names) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_emits_every_metric(workload):
    result = run.measure(workload, seed=3, seconds=0, trace=1, tiny=True)
    assert result["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(run.metric_units("per_layer"))
    e2e = run.e2e_metrics(run.metric_units("end_to_end"), result["passes"])
    assert all(m["value"] > 0 for m in e2e.values())
    # every traced layer has spans on every workload (pass + probes)
    for name, m in result["metrics"].items():
        if name.endswith(".self_s") or name.endswith("_us") or name.endswith("_ms"):
            assert m["value"] > 0, name


def test_wrong_expected_exit_code_counts_as_failure(tmp_path):
    config = str(tmp_path / "invalid.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"n": 4, "action_weights": [[1, 1, 0, 0]], "mu": [1], "samples": 0}, fh)
    right = Invocation(("reduce", "--config", config), expect_exit=2)
    wrong = Invocation(("reduce", "--config", config), expect_exit=0, rows=1)
    session = run.Session(str(tmp_path), deadline=time.monotonic() + 60)
    p = session.run_pass([right, wrong], "p0")
    assert p["failed"] == 1
    assert len(session.failures) == 1 and "exit 2, expected 0" in session.failures[0]


def test_counts_repeat_across_traced_passes(tmp_path):
    invs = WORKLOADS["round-reduce"](5, str(tmp_path), tiny=True)
    session = run.Session(str(tmp_path), deadline=time.monotonic() + 60)
    counts = []
    for k in range(2):
        p = session.run_pass(invs, f"p{k}", traced=True)
        counts.append(p["traces"][0]["counts"])
    assert session.failures == []
    assert counts[0] == counts[1]
    assert counts[0]["jets.levels_opened"] > 0


def test_self_time_subtracts_child_spans():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["b", 5.0, 6.0, 0], ["c", 2.0, 3.0, 1]]
    out = tracer.self_times(spans)
    assert out["a"] == (1, 6.0)
    assert out["b"] == (2, 3.0)
    assert out["c"] == (1, 1.0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "round-reduce",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_refuses_different_jet_backends(tmp_path, capsys):
    doc = {"workload": "cli-mix", "trace": 0, "environment": {"jet_backend": "python"},
           "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(doc))
    doc["environment"]["jet_backend"] = "compiled"
    new.write_text(json.dumps(doc))
    assert run.compare(str(old), str(new)) == 2
    assert "jet_backend" in capsys.readouterr().err

