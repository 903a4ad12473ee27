"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["table1"]).command == "table1"
        args = parser.parse_args(["table2", "--scale", "0.2", "--repeats", "2"])
        assert args.scale == 0.2
        args = parser.parse_args(
            ["run", "--solver", "Rand", "--variant", "default", "--hours", "0.5"]
        )
        assert args.solver == "Rand"

    def test_bad_solver_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--solver", "Grid-9000"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["--samples", "40", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Power" in out

    def test_run_and_save(self, tmp_path, capsys):
        out_file = tmp_path / "run.json"
        code = main(
            [
                "--samples", "40",
                "run",
                "--pair", "mnist-tx1",
                "--solver", "Rand",
                "--variant", "hyperpower",
                "--evaluations", "3",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best feasible error" in out
        payload = json.loads(out_file.read_text())
        assert payload["format"] == "repro-runs/1"
        assert payload["runs"][0]["method"] == "Rand"

    @pytest.mark.parametrize("hours", ["nan", "inf", "0", "-1"])
    def test_run_rejects_bad_hours(self, hours):
        with pytest.raises(SystemExit, match="--hours"):
            main(
                [
                    "--samples", "40",
                    "run",
                    "--pair", "mnist-tx1",
                    "--solver", "Rand",
                    "--hours", hours,
                ]
            )

    @pytest.mark.parametrize(
        "flags",
        [
            ["--warm-cache"],
            ["--no-cache"],
            ["--workers", "3"],
            ["--max-attempts", "5"],
            ["--timeout", "600"],
            ["--backoff-base", "30"],
            ["--backoff-factor", "3"],
        ],
    )
    def test_run_rejects_pool_flags_without_backend(self, flags):
        # Without a pool these flags used to be silently ignored.
        with pytest.raises(SystemExit, match="need --backend: " + flags[0]):
            main(
                [
                    "--samples", "40",
                    "run",
                    "--pair", "mnist-tx1",
                    "--solver", "Rand",
                    "--evaluations", "2",
                    *flags,
                ]
            )

    def test_warm_cache_pre_run_draws_the_same_faults(self, capsys):
        # The pre-run that fills the cache gets the reported run's fault
        # rates and retry policy: a failed trial is never cached, so the
        # warm run re-draws it and reports the cold run's failure.  With
        # one evaluation no cache hit precedes a fresh trial, so the warm
        # run's fresh trials keep the cold run's trial seeds.
        run = [
            "--samples", "40",
            "run",
            "--pair", "mnist-gtx1070",
            "--solver", "Rand",
            "--backend", "serial",
            "--fault-crash", "0.5",
            "--max-attempts", "1",
            "--evaluations", "1",
        ]
        assert main(run) == 0
        cold = capsys.readouterr().out
        assert main([*run, "--warm-cache"]) == 0
        warm = capsys.readouterr().out

        def faults(out):
            return [line for line in out.splitlines() if line.startswith("faults:")]

        assert faults(cold) and faults(cold)[0].startswith("faults: 1 failed")
        assert faults(warm) == faults(cold)
        assert "(1 trials replayed)" in warm

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "conv" in out

    def test_table2_small(self, capsys):
        code = main(
            ["--samples", "40", "table2", "--scale", "0.05", "--repeats", "1"]
        )
        assert code == 0
        assert "Table 2" in capsys.readouterr().out
