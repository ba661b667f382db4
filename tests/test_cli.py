import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sasaklab import cli, tolerances, vecops
from sasaklab.cli import (
    COMMANDS,
    FLAG_READERS,
    RUNNERS,
    _parser,
    _resolve_config,
    main,
)
from sasaklab.config import (
    MAX_DIRECTIONS,
    MAX_FLOW_STEPS,
    MAX_SAMPLES,
    build_config,
    read_config,
)
from sasaklab.errors import NoConvergence, ParseError, ValidationError
from sasaklab.gallery import preset_config
from sasaklab.structures import RoundSphereStructure


class TestConfig:
    def test_preset_pairs_action(self):
        cfg = preset_config("ex1")
        assert cfg["n"] == 4
        assert cfg["action_weights"] == [[1, 1, 0, 0], [0, 0, 1, 1]]

    def test_preset_weighted_circles(self):
        cfg = preset_config("ex4", lam=(1.0, 1.0))
        assert cfg["action_weights"] == [[1.0, 0, 0, 0], [0, 1.0, 0, 0]]

    def test_preset_generalized(self):
        cfg = preset_config("ex1gen", n=6)
        assert len(cfg["action_weights"][0]) == 6

    def test_missing_mu_for_reduce(self):
        raw = preset_config("ex1")
        raw.pop("mu")
        with pytest.raises(ValidationError) as exc:
            build_config(raw, command="reduce")
        assert any("mu" in v for v in exc.value.violations)

    def test_all_violations_reported(self):
        raw = {"n": 1, "samples": 0, "action_weights": [[1.0]], "bogus": 3}
        with pytest.raises(ValidationError) as exc:
            build_config(raw)
        text = " ".join(exc.value.violations)
        assert "n:" in text and "samples:" in text and "bogus" in text
        assert len(exc.value.violations) >= 3

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(preset_config("ex1")))
        cfg = build_config(read_config(path))
        assert cfg.n == 4 and cfg.mu == [1.0, 1.0]

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_config(path)

    def test_tolerance_override(self):
        raw = preset_config("ex1")
        raw["tolerances"] = {"quotient_sasakian": 1e-3}
        cfg = build_config(raw)
        assert cfg.tol["quotient_sasakian"] == 1e-3

    def test_unknown_tolerance_rejected(self):
        raw = preset_config("ex1")
        raw["tolerances"] = {"nope": 1.0}
        with pytest.raises(ValidationError):
            build_config(raw)

    def test_flags_n_and_lam_with_a_config_file(self, tmp_path):
        # --n sets n of a config file; --lam is the ex4 preset's parameter only
        path = tmp_path / "run.json"
        path.write_text(_ex1_json())
        args = _parser().parse_args(["reeb-flow", "--config", str(path), "--lam", "5,9"])
        with pytest.raises(ValidationError, match="--lam applies to --preset ex4 only"):
            _resolve_config(args)
        args = _parser().parse_args(["verify-structure", "--config", str(path), "--n", "3"])
        with pytest.raises(ValidationError, match="every row must have n = 3"):
            _resolve_config(args)

    @pytest.mark.parametrize("name, maximum", [
        ("samples", MAX_SAMPLES), ("flow_steps", MAX_FLOW_STEPS),
        ("directions", MAX_DIRECTIONS)])
    def test_counts_are_bounded(self, name, maximum):
        raw = preset_config("ex1")
        assert getattr(build_config({**raw, name: maximum}), name) == maximum
        with pytest.raises(ValidationError, match=f"{name}: must be <= {maximum}"):
            build_config({**raw, name: maximum + 1})
        flag = "--" + name.replace("_", "-")
        args = _parser().parse_args(["reeb-flow", "--preset", "ex4", f"{flag}={10**15}"])
        with pytest.raises(ValidationError, match=f"{name}: must be <= {maximum}"):
            _resolve_config(args)

    def test_preset_echo_comes_from_the_flag(self):
        args = _parser().parse_args(["reduce", "--preset", "ex3"])
        assert _resolve_config(args).preset == "ex3"
        assert build_config(preset_config("ex3")).preset is None


# former tolerance names that runs never read from a config
FIXED_TOLERANCES = (
    "gram_schmidt_drop", "rank_singular_value", "metric_condition", "tangency",
    "on_sphere", "level_set_residual", "ray_membership", "newton_tol",
    "newton_max_iter", "newton_min_s", "weighted_positivity",
    "oneill_bracket_oracle", "hopf_gate",
)


def _ex1_json(**fields):
    # json.dumps writes nan and inf as the NaN and Infinity literals json.load accepts
    return json.dumps({**preset_config("ex1"), "samples": 2, **fields})


def run_cli(args, out):
    return main(args + ["--out", str(out)])


class TestCommands:
    def test_reduce_pairs_diagonal(self, tmp_path):
        status = run_cli(
            ["reduce", "--preset", "ex1", "--mu", "1,1", "--samples", "4", "--seed", "1"],
            tmp_path,
        )
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["dimensions"]["quotient_realized"] == 5
        assert report["dimensions"]["level_set_realized"] == 6
        assert not report["dimensions"]["printed_remark_matches"]
        assert all(r["within_tolerance"] for r in report["residuals"])
        assert report["config"]["preset"] == "ex1"
        assert sorted(report["config"]["tolerances"]) == sorted(tolerances.DEFAULTS)

    def test_reduce_at_a_large_sphere_weight_is_sasakian(self, tmp_path):
        # cond(M) of the cone metric is about 1e6 here: the cone tensors must
        # not lose it twice over
        path = tmp_path / "w1000.json"
        path.write_text(json.dumps({
            "n": 4, "action_weights": [[1, 1, 0, 0], [0, 0, 1, 1]], "mu": [1, 1],
            "sphere_weights": [1, 1, 1, 1000]}))
        status = run_cli(["reduce", "--config", str(path), "--samples", "4", "--seed", "0",
                          "--directions", "1"], tmp_path / "out")
        assert status == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all(r["within_tolerance"] for r in report["residuals"])

    def test_reduce_writes_csv_with_documented_columns(self, tmp_path):
        run_cli(
            ["reduce", "--preset", "ex1", "--mu", "1,1", "--samples", "2", "--seed", "1"],
            tmp_path,
        )
        header = (tmp_path / "samples.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "index"
        assert header[1:9] == [f"c{k}" for k in range(8)]
        assert header[9] == "s"

    def test_hypothesis_failure_exit_code(self, tmp_path):
        status = run_cli(
            ["check-hypotheses", "--preset", "ex1", "--mu", "1,0",
             "--samples", "5", "--seed", "1"],
            tmp_path,
        )
        assert status == 4
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["hypotheses"]["freeness"]["degenerate"] == 5
        assert report["hypotheses"]["freeness"]["free"] == 0

    def test_infeasible_exit_code(self, tmp_path):
        status = run_cli(
            ["reduce", "--preset", "ex1", "--mu", "1,-1", "--samples", "2"],
            tmp_path,
        )
        assert status == 3

    def test_validation_exit_code(self, tmp_path):
        status = run_cli(["reduce", "--preset", "ex1", "--samples", "-3"], tmp_path)
        assert status == 2

    @pytest.mark.parametrize("content, flags", [
        (None, []),
        ("{not json", []),
        ("[1, 2]", []),
        (b"\xff\xfe{}", []),
        (_ex1_json(tolerances={"quotient_sasakian": "abc"}), []),
        (_ex1_json(tolerances={"quotient_sasakian": -1e-3}), []),
        (_ex1_json(mu=[math.nan, 1]), []),
        (_ex1_json(mu=[math.inf, 1]), []),
        (_ex1_json(), ["--mu", "a,b"]),
        (_ex1_json(), ["--mu", "nan,1"]),
        (_ex1_json(), ["--mu="]),
        (_ex1_json(), ["--preset", "ex4", "--lam", "x,1"]),
        (_ex1_json(), ["--preset", "ex1", "--n", "7"]),
        (_ex1_json(), ["--preset", "ex4", "--n", "7"]),
        (_ex1_json(), ["--preset", "ex1", "--lam", "5,9"]),
        (_ex1_json(), ["--preset", "ex1gen", "--lam", "5,9"]),
        (_ex1_json(), ["--preset", "ex1gen", "--n", "2000"]),
        (_ex1_json(), ["--preset", "ex1gen", "--n=-99999999999999999999"]),
        (_ex1_json(mu=[10**400, 1]), []),
        (_ex1_json(), ["--mu", "1e-170,1e-170"]),
        (_ex1_json(), ["--mu", "1e200,1e200"]),
        ('{"seed": ' + "1" * 5000 + "}", []),
        (_ex1_json(workers=2), []),
        (_ex1_json(lam=[5, 9]), []),
        (_ex1_json(), ["--lam", "5,9"]),
        (_ex1_json(preset="ex2"), []),
        (_ex1_json(preset="ex2"), ["--preset", "ex3"]),
        (_ex1_json(), ["--flow-steps", str(10**15)]),
        ('{"n": 4, "action_weights": ["1100", "0011"], "mu": "11", "sphere_weights": "1111"}',
         []),
        (_ex1_json(action_weights=[[True, True, False, False], [False, False, True, True]]), []),
        (_ex1_json(mu=[True, True]), []),
        (_ex1_json(mu=[1, "1"]), []),
        (_ex1_json(sphere_weights=[True] * 4), []),
        *[(_ex1_json(tolerances={name: 0.5}), []) for name in FIXED_TOLERANCES],
    ], ids=["missing", "invalid-json", "array", "not-utf8", "tolerance-text",
            "tolerance-negative", "mu-nan", "mu-infinity", "mu-flag-text", "mu-flag-nan",
            "mu-flag-empty", "lam-flag-text", "n-flag-ex1", "n-flag-ex4", "lam-flag-ex1",
            "lam-flag-ex1gen", "n-flag-too-large", "n-flag-too-small", "mu-beyond-float",
            "mu-norm-underflow", "mu-norm-overflow",
            "integer-too-long", "workers-field", "lam-field", "lam-flag-no-preset",
            "preset-field", "preset-field-and-flag", "flow-steps-too-large",
            "numbers-as-digit-strings", "action-weights-bools", "mu-bools", "mu-digit-string",
            "sphere-weights-bools", *[f"tolerance-{name}" for name in FIXED_TOLERANCES]])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, content, flags):
        """A config file or flag the run cannot use: exit 2, no report."""
        path = tmp_path / "run.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        out = tmp_path / "out"
        status = run_cli(["reduce", "--config", str(path), *flags], out)
        err = capsys.readouterr().err
        assert status == 2
        assert "config error:" in err and "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("raw, lines", [
        ({"n": 4, "action_weights": [[True, True, False, False], [False, False, True, True]],
          "mu": [1, 1]},
         ["config error: action_weights: expected a matrix, got "
          "[[True, True, False, False], [False, False, True, True]]"]),
        ({"n": "4", "sphere_weights": [1] * 6,
          "action_weights": [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1]], "mu": [1, 1]},
         ["config error: n: expected integer, got '4'"]),
    ], ids=["action-weights-bools", "n-text"])
    def test_a_rejected_field_gives_no_follow_on_errors(self, tmp_path, capsys, raw, lines):
        # no check reads a field that was already rejected: not d from a
        # fallback weight row, nor the lengths of n from its default
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw))
        assert run_cli(["reduce", "--config", str(path)], tmp_path / "out") == 2
        assert capsys.readouterr().err.splitlines() == lines

    @pytest.mark.parametrize("args", [
        ["verify-structure", "--preset", "ex1", "--mu", "5,7"],
        ["verify-structure", "--preset", "ex1", "--directions", "3"],
        ["check-hypotheses", "--preset", "ex1", "--directions", "1"],
        ["cone-check", "--preset", "ex2", "--directions", "1"],
        ["reeb-flow", "--preset", "ex4", "--directions", "1"],
        ["reduce", "--preset", "ex1", "--flow-steps", "99"],
        ["curvature-scan", "--preset", "ex1", "--flow-steps", "256"],
        ["verify-structure", "--preset", "ex1", "--flow-steps", "256"],
        ["reeb-flow", "--preset", "ex4", "--samples", "9"],
    ], ids=lambda a: f"{a[0]}{a[3]}")
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run_cli(args, out) == 2
        err = capsys.readouterr().err
        flag = args[3]
        assert f"config error: {flag[2:].replace('-', '_')}: {args[0]} does not read {flag}" in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    def test_unread_flags_are_reported_with_other_violations(self):
        args = _parser().parse_args(["reeb-flow", "--preset", "ex4", "--samples", "0",
                                     "--directions", "2"])
        with pytest.raises(ValidationError) as exc:
            _resolve_config(args)
        assert exc.value.violations[1:] == [
            "samples: reeb-flow does not read --samples",
            "directions: reeb-flow does not read --directions"]
        assert exc.value.violations[0].startswith("samples: ")

    def test_workers_flag_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(["reduce", "--preset", "ex1", "--workers", "2"], out)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage:") and "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("args", [
        ["verify-structure", "--preset", "ex1", "--samples", "2"],
        ["check-hypotheses", "--preset", "ex1", "--samples", "2"],
        ["reduce", "--preset", "ex1", "--samples", "2"],
        ["curvature-scan", "--preset", "ex1", "--samples", "1", "--directions", "1"],
        ["reeb-flow", "--preset", "ex4", "--flow-steps", "256"],
        ["cone-check", "--preset", "ex2", "--samples", "8"],
    ], ids=lambda a: a[0])
    def test_samples_csv_holds_plain_numbers(self, tmp_path, args):
        assert run_cli([*args, "--seed", "1"], tmp_path) == 0
        text = (tmp_path / "samples.csv").read_text()
        assert len(text.splitlines()) > 1 and "np." not in text

    def test_nan_residual_exits_5(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(RoundSphereStructure, "sasakian_residual",
                            lambda self, p, x, y: math.nan)
        status = run_cli(["verify-structure", "--preset", "ex1", "--samples", "2"], tmp_path)
        assert status == 5
        assert "[FAIL] sasakian_curvature: max nan" in capsys.readouterr().out

        def reject(name):
            raise ValueError(f"report.json holds the non-standard constant {name}")

        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        worst = {r["name"]: r for r in report["residuals"]}["sasakian_curvature"]
        assert worst["max"] == "NaN"
        assert not worst["within_tolerance"]

    def test_verify_structure_round(self, tmp_path):
        status = run_cli(
            ["verify-structure", "--preset", "ex1", "--samples", "5", "--seed", "2"],
            tmp_path,
        )
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["census"]["contact_nondegenerate"]

    def test_reeb_flow_two_circles(self, tmp_path):
        status = run_cli(
            ["reeb-flow", "--preset", "ex4", "--lam", "1,1",
             "--seed", "3", "--flow-steps", "256"],
            tmp_path,
        )
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "reduced_comparison" in report["flow"]

    def test_cone_check_flipped(self, tmp_path):
        status = run_cli(
            ["cone-check", "--preset", "ex2", "--mu", "1,0", "--samples", "16",
             "--seed", "4"],
            tmp_path,
        )
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        census = report["census"]
        assert census["positive_stratum"] > 0
        assert census["negative_stratum"] > 0
        assert census["zero_stratum"] > 0

    def test_curvature_scan(self, tmp_path):
        status = run_cli(
            ["curvature-scan", "--preset", "ex1", "--mu", "1,1", "--samples", "2",
             "--seed", "5", "--directions", "2"],
            tmp_path,
        )
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["census"]["nu_dims_seen"] == [0]
        assert report["hypotheses"] == {"transversality": {"pass": 2, "fail": 0},
                                        "freeness": {"free": 2, "degenerate": 0}}

    @pytest.mark.parametrize("args", [["--preset", "ex2"], ["--preset", "ex1", "--mu", "1,0"]],
                             ids=["ex2", "ex1-mu-1-0"])
    def test_curvature_scan_checks_the_reduction_hypotheses(self, tmp_path, args):
        # the identities hold on these level sets, but the action is not
        # free there: no quotient to certify, exit 4 as reduce
        argv = [*args, "--samples", "3", "--seed", "3", "--directions", "1"]
        assert run_cli(["curvature-scan", *argv], tmp_path / "scan") == 4
        assert run_cli(["reduce", *argv], tmp_path / "reduce") == 4
        scan, reduce = (json.loads((tmp_path / name / "report.json").read_text())
                        for name in ("scan", "reduce"))
        assert scan["hypotheses"]["freeness"]["degenerate"] == 3
        for key in ("transversality", "freeness"):
            assert scan["hypotheses"][key] == reduce["hypotheses"][key]
        assert all(r["within_tolerance"] for r in scan["residuals"])


class _RecordingTolerances(dict):
    """A tolerance map that records the names a run reads."""

    def __init__(self, tol, read):
        super().__init__(tol)
        self.read = read

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


def test_every_settable_tolerance_is_read():
    """Each gate a config may override is one some run judges against."""
    read = set()
    for argv in (
        ["verify-structure", "--preset", "ex1", "--samples", "1"],
        ["verify-structure", "--preset", "weighted", "--samples", "1"],
        ["check-hypotheses", "--preset", "ex1", "--samples", "1"],
        ["reduce", "--preset", "ex1", "--samples", "1", "--directions", "1"],
        ["curvature-scan", "--preset", "ex1", "--samples", "1", "--directions", "1"],
        ["cone-check", "--preset", "ex2", "--samples", "4"],
        ["reeb-flow", "--preset", "ex4", "--flow-steps", "256"],
    ):
        cfg = _resolve_config(_parser().parse_args(argv))
        cfg.tol = _RecordingTolerances(cfg.tol, read)
        _, status = RUNNERS[argv[0]](cfg, csv.writer(io.StringIO()))
        assert status == 0, argv
    assert read == set(tolerances.DEFAULTS)


@st.composite
def whole_run_configs(draw):
    """Round-sphere configs over small weight matrices, with mu scaled
    so that its norm may underflow or overflow."""
    n = draw(st.sampled_from([2, 3]))
    d = draw(st.sampled_from([1, 2, 3]))
    row = st.lists(st.sampled_from([-2, -1, 0, 0.5, 1, 2]), min_size=n, max_size=n)
    scale = draw(st.sampled_from([1.0, 1e-170, 1e200]))
    mu = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    return {"n": n, "action_weights": draw(st.lists(row, min_size=d, max_size=d)),
            "mu": [k * scale for k in mu]}


# every sample of these two has an empty contact frame D
EMPTY_D = {"n": 2, "action_weights": [[1, 0], [0, 1]], "mu": [1, 1]}
EX1GEN_3 = {"n": 3, "action_weights": [[1, 1, 0], [0, 0, 1]], "mu": [0, 1]}
EX1 = {"n": 4, "action_weights": [[1, 1, 0, 0], [0, 0, 1, 1]]}
# d = 1: the kernel group of mu is trivial
ONE_ROW = {"n": 3, "action_weights": [[1, 0, 1]], "mu": [2]}


@settings(max_examples=40, deadline=None)
@example(command="reduce", config=EMPTY_D, samples=2)
@example(command="curvature-scan", config=EX1GEN_3, samples=2)
@example(command="reduce", config={**EX1, "mu": [1e-170, 1e-170]}, samples=2)
@example(command="reduce", config={**EX1, "mu": [1e200, 1e200]}, samples=2)
@example(command="cone-check", config=ONE_ROW, samples=2)
@given(command=st.sampled_from(COMMANDS), config=whole_run_configs(),
       samples=st.integers(1, 2))
def test_whole_runs_end_in_a_documented_exit(command, config, samples):
    """Every command on every drawn config returns 0 or 2-6 without an
    exception; exit 2 writes no report."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out = os.path.join(tmp, "out")
        flags = {"samples": str(samples), "directions": "1", "flow_steps": "64"}
        argv = [command, "--config", path, "--out", out]
        for name, val in flags.items():
            if command in FLAG_READERS[name]:
                argv += ["--" + name.replace("_", "-"), val]
        status = main(argv)
        assert status in {0, 2, 3, 4, 5, 6}
        if status == 2:
            assert not os.path.exists(os.path.join(out, "report.json"))


class TestFuzzedFamilies:
    """The input families the whole-run fuzz found, with their exits."""

    @pytest.mark.parametrize("command, config", [
        ("reduce", EMPTY_D), ("curvature-scan", EMPTY_D),
        ("reduce", EX1GEN_3), ("curvature-scan", EX1GEN_3)],
        ids=["reduce-n2", "curvature-scan-n2", "reduce-ex1gen-n3", "curvature-scan-ex1gen-n3"])
    def test_empty_contact_frame_is_a_hypothesis_failure(self, tmp_path, command, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert run_cli([command, "--config", str(path), "--samples", "2"], tmp_path) == 4
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["notes"][-1].startswith("2 sample(s) have an empty contact frame D")
        # no direction, so no direction residual: reduce keeps its frame and
        # reduced-tensor entries, curvature-scan has none
        names = [r["name"] for r in report["residuals"]]
        assert names == ([] if command == "curvature-scan" else [
            "basic_d_eta", "frame_block_orthogonality", "frame_eta_on_reeb",
            "frame_eta_on_vertical_and_d", "frame_normal_vs_tangent", "frame_span_defect",
            "reduced_eta_profile", "reduced_gram_identity"])

    def test_cone_check_on_one_row_skips_the_mixed_zero_level(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(ONE_ROW))
        assert run_cli(["cone-check", "--config", str(path), "--samples", "4"], tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "mixed zero level skipped: the kernel group of mu is trivial" in report["notes"]
        assert all(r["within_tolerance"] for r in report["residuals"])


class TestTinyMu:
    """A mu whose squared entries are subnormal reduces like its ray."""

    @staticmethod
    def verdicts(tmp_path, name, mu):
        out = tmp_path / name
        status = run_cli(["reduce", "--preset", "ex1", "--mu", mu, "--samples", "3",
                          "--seed", "5"], out)
        report = json.loads((out / "report.json").read_text())
        return status, {r["name"]: r["within_tolerance"] for r in report["residuals"]}

    @pytest.mark.parametrize("tiny,ordinary", [("1e-160,1e-160", "1,1"),
                                               ("1e-160,3e-160", "1,3")])
    def test_same_exit_and_verdicts_as_the_ordinary_mu(self, tmp_path, tiny, ordinary):
        got = self.verdicts(tmp_path, "tiny", tiny)
        want = self.verdicts(tmp_path, "ordinary", ordinary)
        assert got == want
        assert want[0] == 0


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli(
                ["reduce", "--preset", "ex1", "--mu", "1,1", "--samples", "3",
                 "--seed", "11"],
                out,
            )
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()


class TestLaneBatches:
    """reduce, verify-structure and curvature-scan run samples that share
    their frame decisions as one lane batch; a sample's row must not
    depend on the batch it ran in."""

    @staticmethod
    def rows(tmp_path, name, args, command="reduce"):
        out = tmp_path / name
        assert run_cli([command, *args], out) == 0
        return (out / "samples.csv").read_text().splitlines()[1:]

    def test_rows_do_not_depend_on_batch_width(self, tmp_path):
        args = ["--preset", "ex1", "--seed", "13"]
        eight = self.rows(tmp_path, "eight", [*args, "--samples", "8"])
        three = self.rows(tmp_path, "three", [*args, "--samples", "3"])
        one = self.rows(tmp_path, "one", [*args, "--samples", "1"])
        assert len(eight) == 8
        assert three == eight[:3]
        assert one == eight[:1]

    @pytest.mark.parametrize("command, args", [
        ("reduce", ["--preset", "ex1"]),
        ("reduce", ["--preset", "ex1gen", "--n", "3"]),
        ("verify-structure", ["--preset", "ex1"]),
        ("verify-structure", ["--preset", "weighted"]),
        ("reduce", ["--preset", "weighted", "--directions", "1"]),
        ("curvature-scan", ["--preset", "ex1", "--directions", "1"]),
        ("check-hypotheses", ["--preset", "ex1"]),
        ("cone-check", ["--preset", "ex2"]),
    ], ids=["reduce-ex1", "reduce-ex1gen-n3", "verify-structure-ex1",
            "verify-structure-weighted", "reduce-weighted", "curvature-scan-ex1",
            "check-hypotheses-ex1", "cone-check-ex2"])
    def test_bytes_do_not_depend_on_the_batch_width_bound(self, tmp_path, monkeypatch,
                                                          command, args):
        args = [command, *args, "--samples", "5", "--seed", "13"]
        assert run_cli(args, tmp_path / "whole") == 0
        with monkeypatch.context() as patch:
            patch.setattr(vecops, "LANE_BATCH_WIDTH", 2)
            assert [list(c) for _, c in vecops.batches(range(5))] == [[0, 1], [2, 3], [4]]
            assert run_cli(args, tmp_path / "chunked") == 0
        # samples that disagree in a float-level decision run as parts of
        # their chunk, each part's results written at its samples'
        # positions; parts by index parity stand in for a disagreement
        with monkeypatch.context() as patch:
            patch.setattr(cli, "agreeing_parts", lambda fn, indices: [
                (part, fn(part)) for part in (indices[1::2], indices[0::2]) if part])
            assert run_cli(args, tmp_path / "split") == 0
        # one lane batch of 5 samples, its weighted cone tensors (m = 6)
        # built 2 points at a time
        monkeypatch.setattr(vecops, "PASS_LANES", 72)
        assert run_cli(args, tmp_path / "cone-chunked") == 0
        for name in ("report.json", "samples.csv"):
            whole = (tmp_path / "whole" / name).read_bytes()
            for run in ("chunked", "split", "cone-chunked"):
                assert (tmp_path / run / name).read_bytes() == whole, run

    def test_weighted_lanes_match_float_path(self, tmp_path):
        # lanes through the cone tensors and the metric condition gate
        args = ["--preset", "weighted", "--directions", "1", "--seed", "2"]
        three = self.rows(tmp_path, "three", [*args, "--samples", "3"])
        one = self.rows(tmp_path, "one", [*args, "--samples", "1"])
        assert len(three) == 3
        assert one == three[:1]
        report = json.loads((tmp_path / "three" / "report.json").read_text())
        assert all(r["within_tolerance"] for r in report["residuals"])

    @pytest.mark.parametrize("command, args", [
        ("verify-structure", ["--preset", "ex1"]),
        ("verify-structure", ["--preset", "weighted"]),
        ("curvature-scan", ["--preset", "ex1"]),
        ("curvature-scan", ["--preset", "weighted", "--directions", "1"]),
        ("check-hypotheses", ["--preset", "ex1"]),
    ], ids=["verify-structure-ex1", "verify-structure-weighted",
            "curvature-scan-ex1", "curvature-scan-weighted", "check-hypotheses-ex1"])
    def test_other_lane_commands_do_not_depend_on_batch_width(self, tmp_path, command, args):
        args = [*args, "--seed", "13"]
        eight = self.rows(tmp_path, "eight", [*args, "--samples", "8"], command)
        three = self.rows(tmp_path, "three", [*args, "--samples", "3"], command)
        one = self.rows(tmp_path, "one", [*args, "--samples", "1"], command)
        assert len(eight) == 8
        assert three == eight[:3]
        assert one == eight[:1]


def test_a_run_that_fails_after_a_chunk_leaves_no_samples_csv(tmp_path, monkeypatch):
    # samples.csv is written chunk by chunk; a run that raises in its
    # second chunk leaves no rows behind, and no output directory it made
    monkeypatch.setattr(vecops, "LANE_BATCH_WIDTH", 2)
    real, calls = cli.reduced_tensors, []

    def failing(setup, frame):
        calls.append(frame)
        if len(calls) > 1:
            raise NoConvergence("stopped in the second chunk")
        return real(setup, frame)

    monkeypatch.setattr(cli, "reduced_tensors", failing)
    args = ["reduce", "--preset", "ex1", "--samples", "4", "--seed", "1"]
    out = tmp_path / "out"
    assert run_cli(args, out) == 6
    assert len(calls) == 2 and not out.exists()
    # a directory that was there keeps what it held
    out.mkdir()
    (out / "samples.csv").write_text("earlier run\n")
    calls.clear()
    assert run_cli(args, out) == 6
    assert [p.name for p in out.iterdir()] == ["samples.csv"]
    assert (out / "samples.csv").read_text() == "earlier run\n"


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
def test_an_out_that_is_no_directory_exits_2_before_the_run(tmp_path, monkeypatch, capsys, below):
    # one config error line, no run and no traceback, and the path as it was
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    monkeypatch.setitem(RUNNERS, "verify-structure",
                        lambda cfg, rows: pytest.fail("the run started"))
    args = ["verify-structure", "--preset", "ex1", "--samples", "2"]
    assert run_cli(args, taken / "sub" if below else taken) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert taken.read_text() == "a file\n"


def test_console_entry_point(tmp_path):
    args = ["check-hypotheses", "--preset", "ex1", "--mu", "1,1", "--samples", "2",
            "--seed", "0"]
    sub, here = tmp_path / "sub", tmp_path / "here"
    proc = subprocess.run(
        [sys.executable, "-m", "sasaklab.cli", *args, "--out", str(sub)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    # the exit with a frozen heap still flushes stdout
    assert proc.stdout.splitlines()[-1] == f"exit status 0; outputs in {sub}"
    assert main([*args, "--out", str(here)]) == 0
    assert (sub / "report.json").read_bytes() == (here / "report.json").read_bytes()


def test_main_freezes_the_heap_once_per_process(tmp_path):
    argv = ["check-hypotheses", "--preset", "ex1", "--samples", "2", "--seed", "0",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0
    assert main(argv) == 0
    assert gc.get_freeze_count() <= frozen


@pytest.mark.parametrize("stdout", ["closed pipe", "closed pipe, unbuffered", "no fd 1"])
@pytest.mark.parametrize("args, status", [
    (["verify-structure", "--preset", "ex1", "--samples", "4"], 0),
    (["check-hypotheses", "--preset", "ex1", "--mu", "1,0", "--samples", "2"], 4),
])
def test_closed_stdout_keeps_the_exit_status(tmp_path, args, status, stdout):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if stdout.endswith("unbuffered"):
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sasaklab.cli", *args, "--seed", "3", "--out", str(tmp_path)],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env,
            preexec_fn=(lambda: os.close(1)) if stdout == "no fd 1" else None,
        )
    finally:
        os.close(w)
    assert proc.returncode == status
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert (tmp_path / "report.json").is_file() and (tmp_path / "samples.csv").is_file()


def test_cli_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sasaklab.cli; assert 'scipy' not in sys.modules"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# each sampling command, and a weighted structure's positivity probe
SAMPLING_RUNS = [
    ["reduce", "--preset", "ex1", "--samples", "3"],
    ["reduce", "--preset", "weighted", "--samples", "1", "--directions", "2"],
    ["verify-structure", "--preset", "ex1", "--samples", "3"],
    ["verify-structure", "--preset", "weighted", "--samples", "2"],
    ["check-hypotheses", "--preset", "ex1", "--samples", "3"],
    ["curvature-scan", "--preset", "ex1", "--samples", "2", "--directions", "1"],
    ["cone-check", "--preset", "ex2", "--samples", "4"],
    ["reeb-flow", "--preset", "ex4", "--flow-steps", "256"],
]


def test_sampling_commands_do_not_load_numpy_random(tmp_path):
    # every stream is drawn by vecops.uniforms; one process runs each command
    # in turn and checks sys.modules after each
    script = (
        "import json, sys\n"
        "from sasaklab.cli import main\n"
        "for k, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    assert main([*argv, '--seed', '3', '--out', f'{sys.argv[2]}/{k}']) == 0, argv\n"
        "    assert 'numpy.random' not in sys.modules, argv\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(SAMPLING_RUNS), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
