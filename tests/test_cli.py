"""Unit tests for the command-line interface."""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze"])
        assert args.command == "analyze"
        assert args.members == 1000
        assert args.fanout == 4.0
        assert args.alive_ratio == 0.9

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig3"])
        assert args.experiment == "fig3"
        args = build_parser().parse_args(["experiment", "sec4_percolation_validation"])
        assert args.experiment == "sec4_percolation_validation"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_run_scale_presets(self):
        args = build_parser().parse_args(["run", "protocol_comparison", "--scale", "small"])
        assert args.experiment == "protocol_comparison"
        assert args.scale == pytest.approx(0.1)
        assert build_parser().parse_args(["run", "fig4"]).scale == pytest.approx(1.0)
        args = build_parser().parse_args(["run", "fig4", "--scale", "0.25"])
        assert args.scale == pytest.approx(0.25)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig4", "--scale", "tiny"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig4", "--scale", "1.5"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "not_an_experiment"])


class TestArgumentValidation:
    """Out-of-range values are usage errors: exit 2 and one line naming the flag."""

    @pytest.mark.parametrize(
        ("argv", "flag"),
        [
            (["simulate", "-n", "0"], "--members/-n"),
            (["simulate", "-q", "1.5"], "--alive-ratio/-q"),
            (["simulate", "--repetitions", "0"], "--repetitions"),
            (["simulate", "--seed", "-1"], "--seed"),
            (["analyze", "-f", "nan"], "--fanout/-f"),
            (["analyze", "-f", "inf"], "--fanout/-f"),
            (["analyze", "-n", "1"], "--members/-n"),
            (["analyze", "--success-target", "1"], "--success-target"),
            (["design", "--max-failed", "2"], "--max-failed"),
            (["design", "--reliability", "1"], "--reliability"),
            (["build-surface", "{out}", "-n", "0"], "--members/-n"),
            (["build-surface", "{out}", "--confidence", "2"], "--confidence"),
            # A probability whose Wilson quantile is infinite: 0.5 + c/2 rounds to 1.
            (["build-surface", "{out}", "--confidence", "0.9999999999999999"], "--confidence"),
            (["build-surface", "{out}", "-q", "0.5,0"], "--alive-ratios/-q"),
            (["build-surface", "{out}", "--losses", "1"], "--losses"),
            (["build-surface", "{out}", "--repetitions", "1"], "--repetitions"),
        ],
    )
    def test_out_of_range_is_a_usage_error(self, argv, flag, tmp_path, capsys):
        argv = [arg.format(out=tmp_path / "surface") for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        [line] = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert f"argument {flag}: " in line
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "-n", "100", "-f", "1e18", "--family", "geometric"],
            ["analyze", "-n", "100", "-f", "500", "--family", "fixed"],
            ["simulate", "-n", "100", "-f", "99.5", "--repetitions", "2"],
        ],
    )
    def test_fanout_above_group_is_a_usage_error(self, argv, capsys):
        # No member can address more than n - 1 peers.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        [line] = [line for line in err.splitlines() if "error:" in line]
        assert "argument --fanout/-f: " in line
        assert f"mean fanout {float(argv[4]):g} " in line and "--members/-n 100 " in line
        assert "Traceback" not in err

    def test_fanout_of_n_minus_one_is_accepted(self, capsys):
        assert main(["analyze", "-n", "100", "-f", "99", "--family", "geometric"]) == 0
        assert "reliability R(q, P)" in capsys.readouterr().out

    def test_closed_ends_are_accepted(self):
        parse = build_parser().parse_args
        assert parse(["analyze", "-q", "0", "--success-target", "0"]).alive_ratio == 0.0
        assert parse(["simulate", "-q", "1", "--seed", "0"]).alive_ratio == 1.0
        assert parse(["design", "--max-failed", "0"]).max_failed == 0.0
        argv = ["build-surface", "out", "-n", "2", "-q", "1", "--losses", "0", "--rounds", "0"]
        args = parse([*argv, "--processes", "0"])
        assert (args.members, args.alive_ratios, args.losses) == ((2,), (1.0,), (0.0,))
        assert (args.rounds, args.processes) == ((0,), 0)


class TestAnalyze:
    def test_prints_reliability(self, capsys):
        assert main(["analyze", "-n", "500", "-f", "4.0", "-q", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "reliability R(q, P)" in out
        assert "0.96" in out or "0.97" in out

    def test_subcritical_configuration(self, capsys):
        assert main(["analyze", "-f", "1.0", "-q", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "unreachable" in out

    @pytest.mark.parametrize(
        "argv",
        [["-f", "0.001", "--family", "uniform"], ["-f", "0.4", "--family", "geometric"]],
        ids=["uniform", "geometric"],
    )
    def test_subcritical_other_family_is_unreachable(self, argv, capsys):
        assert main(["analyze", "-n", "1000", *argv]) == 0
        out = capsys.readouterr().out
        assert "supercritical            : False" in out
        assert "reliability R(q, P)      : 0.0000" in out
        assert "unreachable" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["-n", "2000000", "-f", "999999", "--family", "geometric"],
            ["-n", "100000000", "-f", "99999998", "--family", "geometric"],
            ["-n", "100000000", "-f", "99999998", "--family", "fixed"],
            ["-n", "100000000", "-f", "99999998", "--family", "uniform"],
        ],
        ids=["geometric-1e6", "geometric-1e8", "fixed-1e8", "uniform-1e8"],
    )
    def test_large_mean_answers_in_seconds(self, argv, capsys):
        """The generating functions do not build arrays that grow with the mean."""
        start = time.process_time()
        assert main(["analyze", *argv]) == 0
        assert time.process_time() - start < 5.0
        assert "supercritical            : True" in capsys.readouterr().out

    def test_other_families(self, capsys):
        for family in ("fixed", "geometric", "uniform"):
            assert main(["analyze", "--family", family, "-f", "4.0", "-q", "0.9"]) == 0
        assert "reliability" in capsys.readouterr().out


class TestSimulate:
    def test_runs_and_reports(self, capsys):
        code = main(
            [
                "simulate",
                "-n",
                "300",
                "-f",
                "4.0",
                "-q",
                "0.9",
                "--repetitions",
                "4",
                "--seed",
                "1",
                "--conditional",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated reliability" in out
        assert "take-off rate" in out


class TestDesign:
    def test_reports_fanout_and_repeats(self, capsys):
        assert main(["design", "--reliability", "0.99", "--max-failed", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "required mean fanout" in out
        assert "required executions" in out


class TestExperiment:
    def test_analytical_figures_run(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert main(["experiment", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "qualitative shape: OK" in out

    def test_scaled_simulation_figure(self, capsys):
        assert main(["experiment", "fig6", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out or "fig6" in out


class TestRun:
    def test_protocol_comparison_small_runs_all_protocols(self, capsys):
        assert main(["run", "protocol_comparison", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        for protocol in ("flooding", "pbcast", "lpbcast", "rdg", "fixed-fanout", "random-fanout"):
            assert protocol in out

    def test_run_matches_experiment_subcommand(self, capsys):
        assert main(["run", "fig6", "--scale", "0.1"]) == 0
        run_out = capsys.readouterr().out
        assert main(["experiment", "fig6", "--scale", "0.1"]) == 0
        experiment_out = capsys.readouterr().out
        assert run_out == experiment_out


class TestServingCommands:
    """``query`` and ``serve`` take the build path and refuse bad input on one line."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("surface") / "surface"
        assert main([
            "build-surface", str(path), "-n", "64", "-q", "0.8,1.0", "--losses", "0.0",
            "--fanouts", "2,6", "--repetitions", "8", "--seed", "3",
        ]) == 0
        return path

    @staticmethod
    def error_lines(capsys) -> list:
        return [line for line in capsys.readouterr().err.splitlines() if "error:" in line]

    def test_query_loads_the_build_path(self, artifact, capsys):
        capsys.readouterr()
        assert main(["query", str(artifact), "-q", "0.9", "-f", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_serve_loads_the_build_path(self, artifact, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"op": "info"}\n'))
        capsys.readouterr()
        assert main(["serve", str(artifact)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_serve_answers_a_line_that_is_not_utf8(self, artifact, capsys, monkeypatch):
        # A pipe reaches the loop through a strict UTF-8 text wrapper like this one.
        stdin = io.TextIOWrapper(io.BytesIO(b'\xff\n{"op": "info"}\n'), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        capsys.readouterr()
        assert main(["serve", str(artifact)]) == 0
        bad, good = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert not bad["ok"] and bad["error"].startswith("invalid JSON:")
        assert good["ok"]

    def test_zero_cache_size_is_a_usage_error(self, artifact, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", str(artifact), "--cache-size", "0"])
        assert exit_info.value.code == 2
        [line] = self.error_lines(capsys)
        assert "--cache-size" in line

    @pytest.mark.parametrize("command", ["query", "serve"])
    def test_refused_artifact_is_one_error_line(self, artifact, tmp_path, capsys, command,
                                                monkeypatch):
        broken = tmp_path / "broken"
        for suffix in (".npz", ".manifest.json"):
            broken.with_suffix(suffix).write_bytes(artifact.with_suffix(suffix).read_bytes())
        broken.with_suffix(".manifest.json").write_text("[]")
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        capsys.readouterr()
        assert main([command, str(broken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "not a JSON object" in err
