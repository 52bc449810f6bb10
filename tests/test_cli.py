import hashlib
import json
import math
import os
import shlex
import warnings
from pathlib import Path

import pytest

from stablesde import cli, stable
from stablesde.cli import build_parser, main
from stablesde.funcspec import FunctionSpec, Piece, PowerForm, TableForm, parse_inline
from stablesde.functionals import Thresholds
from stablesde.integrals import power_law_test
from stablesde.intervals import ShellSpec, build_example_set, wiener_sum
from stablesde.sde import solve_time_change
from stablesde.stable import StableParams, sample_path, stream_rng

DATA = Path(__file__).parent / "data"
INF = math.inf


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
        ["wiener", "--alpha", "0.5", "--set", "5"],
        ["test", "--alpha", "0.5", "--f", "const:1", "--domain", "5"],
        ["wiener", "--alpha", "0.5", "--set", "[[2,1]]"],
        ["test", "--alpha", "0.5", "--f", "const:1", "--domain", "[[1,1]]"],
        ["wiener", "--alpha", "0.5", "--set", "[[0,1]]", "--center", "inf"],
        ["wiener", "--alpha", "0.5", "--set", "[[0,1]]", "--nmax", "1100"],
        ["wiener", "--alpha", "0.5", "--set", "example2.2", "--nmax", "1100"],
        ["wiener", "--alpha", "0.5", "--set", "[[0,1]]", "--lam", "1e308", "--nmax", "3"],
        ["wiener", "--alpha", "0.5", "--set", "[[0,1]]", "--nmin", "-3000", "--nmax", "0"],
        ["test", "--alpha", "0.5", "--beta", "inf"],
        ["classify", "--alpha", "0.5", "--sigma", "power:|x|^0.5", "--at", "nan"],
        ["classify", "--alpha", "0.5", "--sigma", "power:|x|^0.5", "--at", "inf"],
        ["classify", "--alpha", "0.5", "--sigma", "power:|x|^0.5", "--at", "0", "--at=-inf"],
    ])
    def test_non_finite_option_is_validation(self, capsys, argv):
        """Options outside the time grid are checked as well: NaN would
        otherwise give a wrong answer with exit 0, and a set that is not a
        list of pairs would crash with exit 2."""
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    @pytest.mark.parametrize("doc, detail", [
        ({**CONFIG, "thresholds": {"R": "30"}}, "thresholds.R must be a number"),
        ({k: v for k, v in CONFIG.items() if k != "alpha"}, "lacks alpha"),
        ({**CONFIG, "replicates": 2.7}, "replicates must be a whole number"),
        ({**CONFIG, "killing": {"rate": 1.0}}, "killing.q must be a number"),
        ({**CONFIG, "z": [0.0, "1"]}, "z must be a number"),
        ([CONFIG], "must be a JSON object"),
        ({**CONFIG, "f_or_sigma": {"pieces": [{"interval": [0, 1]}]}}, "lacks the key 'form'"),
        ({**CONFIG, "killing": {}}, "killing.q must be a number"),
        ({**CONFIG, "killing": {"q": 5.0}}, "freeze_prob clocks drivers that are never killed"),
        ({**CONFIG, "z": []}, "at least one starting point"),
        ({**CONFIG, "target": 5}, "list of [a, b] pairs"),
        ({**CONFIG, "target": [[2.0, 1.0]]}, "pairs with a < b"),
        ({**CONFIG, "target": [[1.0, 2.0]]}, "freeze_prob reads no target"),
        ({**CONFIG, "f_or_sigma": [1]}, "malformed FunctionSpec JSON"),
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

    @pytest.mark.parametrize("estimator", ["freeze_prob", "explosion_prob"])
    def test_sigma_that_cannot_be_inverted_writes_nothing(self, tmp_path, capsys, estimator):
        """A clocked estimator inverts sigma when its config is read, so a
        table with a zero is refused with exit 1 before the CSV header is
        written: the --out file is empty."""
        sigma = FunctionSpec((
            Piece(-INF, 0.0, PowerForm(1.0)),
            Piece(0.0, 1.0, TableForm((0.0, 1.0), (0.0, 1.0))),
            Piece(1.0, INF, PowerForm(1.0)),
        ))
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps(
            {**CONFIG, "estimator": estimator, "f_or_sigma": json.loads(sigma.to_json())}
        ))
        assert main(["--out", str(out), "experiment", "--config", str(path)]) == 1
        assert out.read_text() == ""
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and "cannot be inverted" in err["detail"]

    @pytest.mark.parametrize("piece, detail", [
        ({"interval": [0, 1]}, "lacks the key 'form'"),
        ({"form": {"power": {"c": 1.0}}}, "lacks the key 'interval'"),
        ("[1, 2]", "malformed FunctionSpec JSON"),
        ('{"pieces": 5}', "malformed FunctionSpec JSON"),
        ({"interval": [0, 1], "form": "power"}, "malformed FunctionSpec JSON"),
        ({"interval": [0, 1], "form": {"power": {"c": None}}}, "malformed FunctionSpec JSON"),
        ({"interval": [0, 1], "form": {"power": {"c": 1.0, "e": "x"}}}, "to float: 'x'"),
        ({"interval": [0, 1], "form": {"table": {"x": [0, 1], "y": ["a", "b"]}}}, "to float"),
        ({"interval": [0, 1], "form": {"power": {"c": "nan"}}}, "must be nonnegative"),
        ({"interval": [0, 1], "form": {"power": {"c": 1.0, "p": "nan"}}}, "must be finite"),
        ('{"pieces": [], "poles": [{"at": "nan"}]}', "must not sit at NaN"),
        ('{"pieces": [], "zeros": [{"at": NaN}]}', "must not sit at NaN"),
        ('{"pieces": [], "poles": [{"at": 0, "delta": NaN}]}', "NaN delta"),
        ({"interval": [0, 1], "form": {"power": {"c": True}}}, "True where a number belongs"),
        ({"interval": "05", "form": {"power": {"c": 1.0}}}, "'05' where a list of numbers"),
        ({"interval": [0, 2], "form": {"table": {"x": "02", "y": [1, 1]}}}, "where a list of"),
        ('{"pieces": [{"interval": [-Infinity, Infinity], "form": {"power": {"c": 1, "e": 0.5}}}],'
         ' "zeros": [{"at": 0, "isolated_monotone": "false"}]}', "where true or false belongs"),
        ('{"pieces": [{"interval": [-Infinity, Infinity], "form": {"power": {"c": 1}}}],'
         ' "zeros": [{"interval": [2, 1]}]}', "pair [a, b] with a < b"),
        ('{"pieces": [{"interval": [-Infinity, Infinity], "form": {"power": {"c": 1}}}],'
         ' "zeros": [{"interval": [1, 2, 3]}]}', "pair [a, b] with a < b"),
        ('{"pieces": [{"interval": [-Infinity, Infinity], "form": {"power": {"c": 1}}}],'
         ' "poles": [{"at": true}]}', "True where a number belongs"),
        ({"interval": [0, 1, 2], "form": {"power": {"c": 1.0}}}, "pair [a, b] with a < b"),
        ({"interval": [1], "form": {"power": {"c": 1.0}}}, "pair [a, b] with a < b"),
        ('{"pieces": [{"interval": [-Infinity, Infinity], "form": {"power": {"c": 1}}}],'
         ' "zeros": [{"at": 3.0, "isolated_monotone": true}]}', "names no zero of the pieces"),
        ('{"pieces": [{"interval": [-Infinity, Infinity], "form": {"power": {"c": 1, "e": 0.5}}}],'
         ' "poles": [{"at": 0.0}]}', "names no pole of the pieces"),
        ('{"pieces": [{"interval": [-Infinity, Infinity], "form": {"power": {"c": 1}}}],'
         ' "zeros": [{"interval": [1, 2]}]}', "do not vanish on all of the zero mark"),
        ('{"pieces": [{"interval": [-Infinity, 0], "form": {"power": {"c": 1}}},'
         ' {"interval": [0, 1], "form": {"power": {"c": 1, "e": 1.5}}},'
         ' {"interval": [1, Infinity], "form": {"power": {"c": 1}}}],'
         ' "zeros": [{"at": 0.0, "isolated_monotone": true, "delta": 2.0}]}',
         "not up to the marked delta"),
        # np.interp reads its nodes as sorted: [1, 0] gave wrong values
        ({"interval": [0, 1], "form": {"table": {"x": [1, 0], "y": [1, 2]}}},
         "strictly increasing"),
        ({"interval": [0, 1], "form": {"table": {"x": ["nan", 1], "y": [1, 2]}}},
         "strictly increasing"),
    ])
    def test_malformed_sigma_file_is_validation(self, tmp_path, capsys, piece, detail):
        """A piece is written as the only one of the file; a string is the
        whole file.  Every number is read as a float, and NaN is refused
        wherever it would change the answer."""
        path = tmp_path / "sigma.json"
        path.write_text(piece if isinstance(piece, str) else json.dumps({"pieces": [piece]}))
        assert main(["classify", "--alpha", "0.5", "--sigma", f"@{path}"]) == 1
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

    def test_test_on_a_huge_domain_matches_closed_form(self, capsys):
        """Cells 1e300 wide beside the pole at 0 are cut geometrically away
        from it, so no QUADPACK node rounds onto it (that was a crash, then
        an inconclusive verdict).  The exact value is
        2 arsinh(sqrt(2e300)) + pi + 2 arcosh(sqrt(2e300))."""
        args = ["test", "--alpha", "0.5", "--f", "power:|x|^-0.5", "--z", "0.5",
                "--domain", "[[-1e300,1e300]]"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        root = math.sqrt(2e300)
        exact = 2.0 * math.asinh(root) + math.pi + 2.0 * math.acosh(root)
        assert doc["finiteness"] == "finite"
        assert doc["value"] == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("f", ["power:|x|^2", "power:|x-3|^2"])
    def test_test_beyond_the_float_range_is_inconclusive(self, capsys, f):
        """A kernel integral whose value leaves the float range, in closed
        form or by quadrature, is inconclusive with value +inf: no crash and
        no NaN."""
        args = ["test", "--alpha", "0.5", "--f", f, "--domain", "[[0, 1e300]]"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "NaN" not in out
        doc = json.loads(out)
        assert doc["finiteness"] == "inconclusive"
        assert doc["value"] == math.inf

    def test_test_closed_form_tail_reports_the_tail_criterion(self, capsys):
        """A constant diverges at +inf by the tail criterion, the name the
        quadrature pieces already gave a divergent tail."""
        args = ["test", "--alpha", "0.5", "--f", "const:1", "--domain", "[[1, Infinity]]"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["finiteness"], doc["method"]) == ("infinite", "tail criterion")

    def test_wiener_set_from_a_file_matches_inline(self, tmp_path, capsys):
        text = "[[1, 2], [4, 8]]"
        path = tmp_path / "set.json"
        path.write_text(text)
        outs = []
        for target in (text, f"@{path}"):
            assert main(["wiener", "--alpha", "0.5", "--set", target, "--nmax", "20"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and json.loads(outs[0])

    def test_classify_power(self, capsys):
        assert main(["classify", "--alpha", "0.5", "--sigma", "power:|x|^1.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["unique_all"] is True
        assert doc["O"]["points"] == [0.0]

    def test_classify_reads_the_pieces(self, tmp_path, capsys):
        """|x|^1.5 from a file without marks classifies as `power:|x|^1.5`
        does: O = N = {0}."""
        path = tmp_path / "sigma.json"
        path.write_text(FunctionSpec((Piece(-INF, INF, PowerForm(1.0, 1.5, 0.0)),)).to_json())
        docs = []
        for sigma in (f"@{path}", "power:|x|^1.5"):
            assert main(["classify", "--alpha", "0.5", "--sigma", sigma, "--at", "0"]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0] == docs[1]
        assert docs[0]["O"]["points"] == [0.0] and docs[0]["local_at"] == {"0.0": False}

    def test_classify_zero_piece_without_mark(self, tmp_path, capsys):
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps({"pieces": [
            {"interval": [-INF, 1.0], "form": {"power": {"c": 1.0}}},
            {"interval": [1.0, 2.0], "form": {"power": {"c": 0.0}}},
            {"interval": [2.0, INF], "form": {"power": {"c": 1.0}}},
        ]}))
        assert main(["classify", "--alpha", "0.5", "--sigma", f"@{path}"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["O"] == doc["N"] == {"points": [], "intervals": [[1.0, 2.0]]}
        assert doc["nontrivial_global_all"] is False

    def test_stray_zero_mark_is_validation(self, tmp_path, capsys):
        """sigma = 1 does not vanish at 3, whatever a mark says."""
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps({
            "pieces": [{"interval": [-INF, INF], "form": {"power": {"c": 1.0}}}],
            "zeros": [{"at": 3.0, "isolated_monotone": True}],
        }))
        assert main(["classify", "--alpha", "0.5", "--sigma", f"@{path}"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    def test_pole_test_without_mark(self, tmp_path, capsys):
        """|x|^-0.25 at alpha = 0.5: 2 / 0.25 = 8, from the pieces alone."""
        path = tmp_path / "f.json"
        path.write_text(FunctionSpec((Piece(-INF, INF, PowerForm(1.0, -0.25, 0.0)),)).to_json())
        assert main(["test", "--alpha", "0.5", "--f", f"@{path}", "--epsilon", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["finiteness"] == "finite" and doc["value"] == 8.0

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

    @pytest.mark.parametrize("pieces, gaps", [
        ([], "[-inf, inf)"),
        ([{"interval": [0.0, 1.0], "form": {"power": {"c": 1.0}}}], "[-inf, 0.0) and [1.0, inf)"),
    ])
    def test_classify_refuses_a_sigma_that_leaves_the_line_uncovered(
        self, tmp_path, capsys, pieces, gaps
    ):
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps({"pieces": pieces}))
        assert main(["classify", "--alpha", "0.5", "--sigma", f"@{path}"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and f"leave {gaps} uncovered" in err["detail"]

    def test_partial_f_on_a_domain_inside_it(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(
            {"pieces": [{"interval": [0.0, 1.0], "form": {"power": {"c": 1.0}}}]}
        ))
        domain = ["--z", "0.5", "--domain", "[[0.25, 0.75]]"]
        assert main(["test", "--alpha", "0.5", "--f", f"@{path}", *domain]) == 0
        assert json.loads(capsys.readouterr().out)["finiteness"] == "finite"

    def test_partial_f_refused_on_a_domain_beyond_it(self, tmp_path, capsys):
        """The part of the domain no piece covers has no value; it is not
        read as f = 0."""
        path = tmp_path / "f.json"
        path.write_text(json.dumps(
            {"pieces": [{"interval": [0.0, 1.0], "form": {"power": {"c": 1.0}}}]}
        ))
        domain = ["--z", "0.5", "--domain", "[[0, Infinity]]"]
        assert main(["test", "--alpha", "0.5", "--f", f"@{path}", *domain]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and "leave [1.0, inf) uncovered" in err["detail"]

    @pytest.mark.parametrize("command", [
        ["simulate"], ["solve", "--sigma", "power:|x|^1.5"],
    ])
    def test_tiny_alpha_paths_hold_no_nan(self, tmp_path, command):
        """At alpha = 0.005 some increments leave the float range: the CSV
        holds infinities, never NaN, and no RuntimeWarning is raised."""
        out = tmp_path / "out.csv"
        args = ["--seed", "3", "--out", str(out), *command[:1], "--alpha", "0.005",
                "--horizon", "1000", "--step", "1", "--z", "1", *command[1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(args) == 0
        assert "nan" not in out.read_text()

    @pytest.mark.parametrize("command", [
        ["simulate", "--horizon", "1000", "--step", "100"],
        ["simulate", "--horizon", "1", "--step", "0.01"],
        ["solve", "--sigma", "power:|x|^0.5", "--horizon", "1000", "--step", "100"],
        ["simulate", "--horizon", "1000", "--step", "2"],
        ["simulate", "--horizon", "1000", "--step", "5"],
    ])
    def test_tiny_alpha_scale_out_of_float_range(self, tmp_path, command):
        """At alpha = 0.005 a cell of length 100 has scale 100^200 and one of
        length 0.01 has scale 0.01^200, neither a float: the increments and
        the refinement threshold come out of logarithms, so the path is
        written without NaN and without a RuntimeWarning."""
        out = tmp_path / "out.csv"
        args = ["--out", str(out), command[0], "--alpha", "0.005", *command[1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(args) == 0
        assert "nan" not in out.read_text()

    @pytest.mark.parametrize("alpha, estimator", [
        (0.01, "freeze_prob"), (0.005, "explosion_prob"),
    ])
    def test_experiment_at_tiny_alpha(self, tmp_path, capsys, alpha, estimator):
        """Paths that reach +inf are evaluated there, by the last piece's limit."""
        cfg = {
            "alpha": alpha, "f_or_sigma": "power:|x|^1.5", "z": [1.0], "replicates": 2000,
            "horizon": 10.0, "step": 1.0, "estimator": estimator,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["experiment", "--config", str(path)]) == 0
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        assert fields[0] == estimator and 0.0 <= float(fields[3]) <= 1.0

    def test_sigma_from_json_file(self, tmp_path, capsys):
        spec_path = tmp_path / "sigma.json"
        spec_path.write_text(FunctionSpec.power(0.5).to_json())
        args = ["classify", "--alpha", "0.5", "--sigma", f"@{spec_path}"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nontrivial_global_all"] is True


#: the paths benchmark's 1e5-cell path, whose CSVs are formatted in slices
BIG_PATH = ["--alpha", "0.5", "--horizon", "1000", "--step", "0.01"]


def set_cpus(monkeypatch, k: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


class TestLargePathCsv:
    def test_same_bytes_for_any_slice_count(self, monkeypatch, tmp_path):
        """simulate and solve write a per-row reference of the library's
        path and solution, byte for byte, for 1 to 4 usable CPUs."""
        path = sample_path(StableParams(0.5), 0.0, 1000.0, 0.01, stream_rng(5, 0))
        sol = solve_time_change(0.5, parse_inline("power:|x|^0.5"), 0.0, 1000.0, 0.01,
                                stream_rng(5, 0), Thresholds(m=1e9))
        assert sol.status == "horizon_reached"
        sim_rows = zip(path.times.tolist(), path.values.tolist())
        sim_ref = "t,x\n" + "".join(f"{t!r},{x!r}\n" for t, x in sim_rows)
        sol_rows = zip(sol.s_grid.tolist(), sol.time_change.tolist(), sol.values.tolist())
        sol_ref = "# status=horizon_reached\ns,phi,z_value\n" + "".join(
            f"{s!r},{p!r},{z!r}\n" for s, p, z in sol_rows
        )
        out = tmp_path / "out.csv"
        for k in (1, 2, 3, 4):
            set_cpus(monkeypatch, k)
            assert main(["--seed", "5", "--out", str(out), "simulate", *BIG_PATH]) == 0
            assert out.read_text() == sim_ref, k
            args = ["--seed", "5", "--out", str(out), "solve", "--sigma", "power:|x|^0.5"]
            assert main(args + BIG_PATH) == 0
            assert out.read_text() == sol_ref, k
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_child_exits_2(self, monkeypatch, tmp_path, capsys):
        parent, write_rows = os.getpid(), stable._write_rows

        def rows_in_parent_only(out, table):
            if os.getpid() != parent:
                raise MemoryError("slice")
            write_rows(out, table)

        monkeypatch.setattr(stable, "_write_rows", rows_in_parent_only)
        set_cpus(monkeypatch, 2)
        out = tmp_path / "out.csv"
        assert main(["--seed", "5", "--out", str(out), "simulate", *BIG_PATH]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "runtime"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestSharedParser:
    def test_main_reuses_one_parser(self):
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()
        assert build_parser() is not cli._parser()

    def test_no_state_leaks_between_calls(self, capsys):
        classify = ["classify", "--alpha", "0.5", "--sigma", "power:|x|^0.5"]
        assert main(classify + ["--at", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["local_at"] != {}
        assert main(classify) == 0
        assert json.loads(capsys.readouterr().out)["local_at"] == {}
        assert main(["test", "--alpha", "0.5", "--beta", "nope"]) == 1
        assert main(["test", "--alpha", "0.5", "--beta", "0.5"]) == 0


#: analytic CLI calls whose bytes must not depend on how the parser is built
#: or how `IntervalSet.intersection` finds overlaps; "@spec" is the file of
#: (|x|^0.5)^-0.5
ANALYTIC_CASES = {
    **{
        f"wiener_{alpha}": ["wiener", "--alpha", alpha, "--set", "example2.2", "--nmax", "200"]
        for alpha in ("0.3", "0.5", "0.7", "0.9")
    },
    "classify": ["classify", "--alpha", "0.5", "--sigma", "power:|x|^0.5"],
    "test_offset": ["test", "--alpha", "0.5", "--f", "@spec", "--z", "0.5",
                    "--domain", "[[-1.0, 1.0]]"],
}

#: sha256 of each output, recorded with a parser built per call and the
#: nested-loop intersection; test_offset re-recorded when off-pole kernel
#: integrals took their singular factors as quad's endpoint weights (value
#: 5.032601136800225, within 2 ulp of the closed form)
ANALYTIC_GOLDEN = {
    "wiener_0.3": "6d17cf8f06f69db06146c56280036cc9e620286c31711fdd30542aee31050596",
    "wiener_0.5": "092708cf470ef8cf122ab437cb4687e22d802d9ce6f829fc3615634659ddf2b0",
    "wiener_0.7": "0f3082807d94cae8c6ffa68246805ed4ea82fa2240891adbbd501d0481ba3a1f",
    "wiener_0.9": "e73f8fbd097eaa9b441cc4b3b5cf2a8a9c2f8bd81586cf48977524c1b61feee7",
    "classify": "8f17123cb0b51a5e24d2e2784622564909ccb0712d2371cd6da4d156ea460c70",
    "test_offset": "bf99db994c491482306cc37e6c91e2836f814faf44c401fbe40442dc263b0ebd",
}


@pytest.mark.parametrize("name", sorted(ANALYTIC_CASES))
def test_analytic_bytes_unchanged(name, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(FunctionSpec.power(0.5).inverse_power(0.5).to_json())
    argv = [f"@{spec}" if arg == "@spec" else arg for arg in ANALYTIC_CASES[name]]
    out = tmp_path / "out.json"
    assert main(["--out", str(out)] + argv) == 0
    assert hashlib.sha256(out.read_text().encode()).hexdigest() == ANALYTIC_GOLDEN[name]


def test_out_file_holds_exactly_the_last_output(tmp_path):
    # --out overwrites in place and then cuts the file, so a longer earlier
    # content must not survive, and a failing call leaves what it wrote
    out = tmp_path / "out.json"
    argv = ["test", "--alpha", "0.5", "--beta", "0.3"]
    out.write_text("x" * 10_000)
    assert main(["--out", str(out)] + argv) == 0
    first = out.read_text()
    assert json.loads(first)["finiteness"] == "finite"
    assert main(["--out", str(out)] + argv) == 0
    assert out.read_text() == first
    assert main(["--out", str(out), "test", "--alpha", "0.5"]) == 1
    assert out.read_text() == ""
    assert main(["--out", "/dev/null"] + argv) == 0


def readme_cli_lines() -> list[list[str]]:
    """The arguments of every `stablesde` line of the README's CLI block."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("stablesde ")]


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=lambda argv: " ".join(argv))
def test_readme_cli_line_runs(argv, tmp_path, monkeypatch, capsys):
    """Each README example exits 0 through `cli.main`, run in a fresh
    directory, where `experiment` finds a small cfg.json."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({
        "alpha": 0.5, "f_or_sigma": "power:|x|^1.5", "z": [0.0, 1.0], "replicates": 20,
        "horizon": 1.0, "step": 0.05, "estimator": "explosion_prob",
    }))
    assert main(argv) == 0


def test_readme_cli_block_shows_every_subcommand():
    words = {word for argv in readme_cli_lines() for word in argv}
    assert {"simulate", "solve", "classify", "test", "wiener", "experiment"} <= words
