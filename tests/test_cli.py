import json
import math
import subprocess
import sys

import pytest

from sasaklab.cli import _lane_batches, _parser, _resolve_config, main
from sasaklab.config import build_config, load_config
from sasaklab.errors import ParseError, ValidationError
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
        cfg = load_config(path)
        assert cfg.n == 4 and cfg.mu == [1.0, 1.0]

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_config(path)

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

    def test_flags_set_n_and_lam_of_a_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(_ex1_json())
        args = _parser().parse_args(["reeb-flow", "--config", str(path), "--lam", "5,9"])
        assert _resolve_config(args).lam == [5.0, 9.0]
        args = _parser().parse_args(["verify-structure", "--config", str(path), "--n", "3"])
        with pytest.raises(ValidationError, match="every row must have n = 3"):
            _resolve_config(args)


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
        ('{"seed": ' + "1" * 5000 + "}", []),
        (_ex1_json(workers=2), []),
    ], ids=["missing", "invalid-json", "array", "not-utf8", "tolerance-text",
            "tolerance-negative", "mu-nan", "mu-infinity", "mu-flag-text", "mu-flag-nan",
            "mu-flag-empty", "lam-flag-text", "n-flag-ex1", "n-flag-ex4", "lam-flag-ex1",
            "lam-flag-ex1gen", "n-flag-too-large", "n-flag-too-small", "mu-beyond-float",
            "integer-too-long", "workers-field"])
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
            ["reeb-flow", "--preset", "ex4", "--lam", "1,1", "--samples", "1",
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
    """reduce runs samples that share their frame decisions as one lane
    batch; a sample's row must not depend on the batch it ran in."""

    @staticmethod
    def rows(tmp_path, name, args):
        out = tmp_path / name
        assert run_cli(["reduce", *args], out) == 0
        return (out / "samples.csv").read_text().splitlines()[1:]

    def test_rows_do_not_depend_on_batch_width(self, tmp_path):
        args = ["--preset", "ex1", "--seed", "13"]
        eight = self.rows(tmp_path, "eight", [*args, "--samples", "8"])
        three = self.rows(tmp_path, "three", [*args, "--samples", "3"])
        one = self.rows(tmp_path, "one", [*args, "--samples", "1"])
        assert len(eight) == 8
        assert three == eight[:3]
        assert one == eight[:1]

    def test_samples_group_by_key_in_first_appearance_order(self):
        assert _lane_batches(["a", "b", "a", "c", "b"]) == [[0, 2], [1, 4], [3]]

    def test_weighted_lanes_match_float_path(self, tmp_path):
        # lanes through the Koszul connection and the metric condition gate
        args = ["--preset", "weighted", "--directions", "1", "--seed", "2"]
        three = self.rows(tmp_path, "three", [*args, "--samples", "3"])
        one = self.rows(tmp_path, "one", [*args, "--samples", "1"])
        assert len(three) == 3
        assert one == three[:1]
        report = json.loads((tmp_path / "three" / "report.json").read_text())
        assert all(r["within_tolerance"] for r in report["residuals"])


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sasaklab.cli", "check-hypotheses", "--preset", "ex1",
         "--mu", "1,1", "--samples", "2", "--seed", "0", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "exit status 0" in proc.stdout


def test_cli_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sasaklab.cli; assert 'scipy' not in sys.modules"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
