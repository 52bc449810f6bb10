import json
from pathlib import Path

import pytest

from stablesde.cli import build_parser, main
from stablesde.integrals import power_law_test
from stablesde.intervals import ShellSpec, build_example_set, wiener_sum

DATA = Path(__file__).parent / "data"


class TestHelp:
    def test_golden_help(self):
        golden = (DATA / "cli_help.txt").read_text()
        assert build_parser().format_help() == golden

    def test_help_lists_every_global_flag(self):
        text = build_parser().format_help()
        for flag in ("--seed", "--threads", "--out"):
            assert flag in text


#: a valid experiment config, which the malformed ones alter
CONFIG = {
    "alpha": 0.5, "f_or_sigma": "const:1", "z": 0.0, "replicates": 2,
    "horizon": 1.0, "step": 0.5, "estimator": "freeze_prob",
}


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["test", "--alpha", "0.5", "--beta", "0.5"]) == 0

    def test_validation_error_json(self, capsys):
        code = main(["test", "--alpha", "0.5"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_alpha(self, capsys):
        assert main(["test", "--alpha", "1.5", "--beta", "0.5"]) == 1

    @pytest.mark.parametrize("command", [
        ["simulate", "--alpha", "0.5"],
        ["solve", "--alpha", "0.5", "--sigma", "const:1"],
    ])
    @pytest.mark.parametrize("bad", [
        ["--horizon", "inf", "--step", "0.1"],
        ["--horizon", "nan", "--step", "0.1"],
        ["--horizon", "1", "--step", "inf"],
        ["--horizon", "1", "--step", "0.1", "--z", "nan"],
    ])
    def test_non_finite_input_is_validation(self, capsys, command, bad):
        assert main(command + bad) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    @pytest.mark.parametrize("argv", [
        ["wiener", "--alpha", "0.5", "--set", "example2.2", "--lam", "nan"],
        ["solve", "--alpha", "0.5", "--sigma", "const:1", "--horizon", "1",
         "--step", "0.1", "--big-m", "nan"],
        ["simulate", "--alpha", "0.5", "--horizon", "1", "--step", "0.1",
         "--killing", "nan"],
        ["test", "--alpha", "0.5", "--f", "const:1", "--domain", "[[NaN,1]]"],
    ])
    def test_non_finite_option_is_validation(self, capsys, argv):
        """Options outside the time grid are checked as well: NaN would
        otherwise give a wrong answer with exit 0."""
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    @pytest.mark.parametrize("doc, detail", [
        ({**CONFIG, "thresholds": {"R": "30"}}, "thresholds.R must be a number"),
        ({k: v for k, v in CONFIG.items() if k != "alpha"}, "lacks alpha"),
        ({**CONFIG, "replicates": 2.7}, "replicates must be a whole number"),
        ({**CONFIG, "killing": {"rate": 1.0}}, "killing.q must be a number"),
        ({**CONFIG, "z": [0.0, "1"]}, "z must be a number"),
        ([CONFIG], "must be a JSON object"),
    ])
    def test_malformed_config_is_validation(self, tmp_path, capsys, doc, detail):
        """A config the estimators cannot read exits 1 with a readable
        reason, not with a Python error message and exit 2, and a fraction
        of a replicate is not rounded away."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["experiment", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert detail in err["detail"]

    def test_missing_config_file_is_validation(self, capsys):
        # unreadable input surfaces as a runtime failure
        code = main(["experiment", "--config", "/nonexistent.json"])
        assert code == 2


class TestSubcommands:
    def test_test_matches_library(self, capsys):
        assert main(["test", "--alpha", "0.5", "--beta", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        lib = json.loads(power_law_test(0.5, 0.5).to_json())
        assert doc == lib
        assert doc["finiteness"] == "finite" and doc["value"] == 8.0

    def test_classify_power(self, capsys):
        assert main(["classify", "--alpha", "0.5", "--sigma", "power:|x|^1.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["unique_all"] is True
        assert doc["O"]["points"] == [0.0]

    def test_wiener_example(self, capsys):
        args = ["wiener", "--alpha", "0.5", "--set", "example2.2", "--nmax", "200"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        lib = wiener_sum(0.5, ShellSpec(0.0, 2.0, 1, 200), build_example_set(200))
        assert doc["verdict"] == "convergent"
        assert doc["ratio_estimate"] == lib.ratio_estimate

    def test_simulate_csv(self, tmp_path):
        out = tmp_path / "path.csv"
        args = [
            "--seed", "5", "--out", str(out),
            "simulate", "--alpha", "0.5", "--horizon", "1", "--step", "0.1",
        ]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x"
        assert len(lines) >= 11

    def test_solve_csv_deterministic(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            args = [
                "--seed", "9", "--out", str(out),
                "solve", "--alpha", "0.5", "--sigma", "const:1",
                "--horizon", "1", "--step", "0.1",
            ]
            assert main(args) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[1] == "s,phi,z_value"

    def test_experiment_from_config(self, tmp_path, capsys):
        cfg = {
            "alpha": 0.5,
            "f_or_sigma": "power:|x|^1.5",
            "z": [0.0],
            "replicates": 20,
            "horizon": 1.0,
            "step": 0.05,
            "estimator": "freeze_prob",
            "seed": 4,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("estimator,alpha,z,")
        fields = lines[1].split(",")
        assert fields[0] == "freeze_prob"
        assert float(fields[3]) == 1.0  # beta = 1.5 freezes instantly

    def test_sigma_from_json_file(self, tmp_path, capsys):
        from stablesde.funcspec import FunctionSpec

        spec_path = tmp_path / "sigma.json"
        spec_path.write_text(FunctionSpec.power(0.5).to_json())
        args = ["classify", "--alpha", "0.5", "--sigma", f"@{spec_path}"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nontrivial_global_all"] is True
