"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main

PAIRS = ("cifar10-gtx1070", "cifar10-tx1", "mnist-gtx1070", "mnist-tx1")
_TABLE = [("--scale", float, 1.0, None), ("--repeats", int, 3, None)]

#: Every option of every command, as ``(flag, type, default, choices)``:
#: the 55 ``add_argument`` calls of ``build_parser``.
SURFACE = {
    "": [("--seed", int, 0, None), ("--samples", int, 100, None)],
    "table1": [],
    **{name: _TABLE for name in (
        "table2", "table3", "table4", "table5", "tables", "headlines"
    )},
    "fig1": [],
    "fig3": [],
    "fig4": [("--pair", None, "cifar10-gtx1070", PAIRS), ("--repeats", int, 5, None)],
    "run": [
        ("--pair", None, "mnist-gtx1070", PAIRS),
        ("--solver", None, "HW-IECI", ("Rand", "Rand-Walk", "HW-CWEI", "HW-IECI")),
        ("--variant", None, "hyperpower", ("default", "hyperpower")),
        ("--evaluations", int, None, None),
        ("--hours", float, None, None),
        ("--run-seed", int, 0, None),
        ("--gp-refit-every", int, 1, None),
        ("--gp-restarts", int, 2, None),
        ("--gp-warm-start", None, False, None),
        ("--surrogate", None, "exact", ("exact", "rff", "nystrom", "auto")),
        ("--surrogate-features", int, 256, None),
        ("--surrogate-switch-at", int, 1000, None),
        ("--backend", None, None, ("serial",)),
        ("--workers", int, 1, None),
        ("--scheduler", None, "sync", ("sync", "async")),
        ("--rungs", int, 0, None),
        ("--eta", int, 3, None),
        ("--min-epochs", int, 1, None),
        ("--brackets", int, 1, None),
        ("--scatter-init", int, 0, None),
        ("--no-cache", None, False, None),
        ("--warm-cache", None, False, None),
        ("--fault-crash", float, 0.0, None),
        ("--fault-hang", float, 0.0, None),
        ("--fault-nan", float, 0.0, None),
        ("--fault-oom", float, 0.0, None),
        ("--fault-nvml", float, 0.0, None),
        ("--fault-seed", int, None, None),
        ("--max-attempts", int, 3, None),
        ("--timeout", float, None, None),
        ("--backoff-base", float, 60.0, None),
        ("--backoff-factor", float, 2.0, None),
        ("--journal", None, None, None),
        ("--resume", None, None, None),
        ("--trace-out", None, None, None),
        ("--metrics-out", None, None, None),
        ("--out", None, None, None),
    ],
    "serve": [
        ("--root", None, None, None),
        ("--host", None, "127.0.0.1", None),
        ("--port", int, 8642, None),
        ("--no-fsync", None, False, None),
        ("--snapshot-every", int, None, None),
        ("--max-inflight", int, None, None),
        ("--retry-after", float, 0.5, None),
        ("--drain-timeout", float, 30.0, None),
        ("--chaos-seed", int, 0, None),
        ("--chaos-rate", float, 0.0, None),
        ("--trace-out", None, None, None),
        ("--metrics-out", None, None, None),
    ],
}


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

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_removed_backends_rejected(self, backend, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "--backend", backend])
        assert exc.value.code == 2
        assert "invalid choice: '" + backend in capsys.readouterr().err

    def test_option_surface_is_pinned(self):
        parser = build_parser()
        (sub,) = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        parsers = {"": parser, **sub.choices}
        assert sorted(parsers) == sorted(SURFACE)
        required = []
        for name, command in parsers.items():
            options = [
                a for a in command._actions
                if a.option_strings and not isinstance(a, argparse._HelpAction)
            ]
            assert [
                (
                    a.option_strings[0],
                    a.type,
                    a.default,
                    None if a.choices is None else tuple(a.choices),
                )
                for a in options
            ] == SURFACE[name], name
            assert all(len(a.option_strings) == 1 for a in options)
            required += [a.option_strings[0] for a in options if a.required]
        assert required == ["--root"]
        # The six fixed-runtime commands share one loop's two calls.
        assert sum(map(len, SURFACE.values())) - 5 * len(_TABLE) == 55


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

    @pytest.mark.parametrize(
        "flags",
        [
            pytest.param(["--hours", "nan"], id="nan"),
            pytest.param(["--hours", "inf"], id="inf"),
            pytest.param(["--hours", "0"], id="0"),
            pytest.param(["--hours", "-1"], id="-1"),
            pytest.param(["--evaluations", "0"], id="evaluations"),
            pytest.param(["--backend", "serial", "--max-attempts", "0"],
                         id="max-attempts"),
            pytest.param(["--backend", "serial", "--fault-crash", "2"],
                         id="fault-crash"),
            pytest.param(["--backend", "serial", "--timeout", "-5"],
                         id="timeout"),
            pytest.param(["--backend", "serial", "--backoff-factor", "0.5"],
                         id="backoff-factor"),
            pytest.param(["--backend", "serial", "--scheduler", "async",
                          "--rungs", "2", "--brackets", "5"], id="brackets"),
            pytest.param(["--backend", "serial", "--scheduler", "async",
                          "--rungs", "3", "--min-epochs", "100"],
                         id="min-epochs"),
        ],
    )
    def test_run_rejects_bad_hours(self, monkeypatch, flags):
        # Every bad value exits naming its flag before the profiling
        # campaign runs.
        def paper_setup(*args, **kwargs):
            raise AssertionError("paper_setup ran before the flags were checked")

        monkeypatch.setattr("repro.cli.paper_setup", paper_setup)
        with pytest.raises(SystemExit, match=flags[-2]):
            main(
                [
                    "--samples", "40",
                    "run",
                    "--pair", "mnist-tx1",
                    "--solver", "Rand",
                    *flags,
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
