"""Command-line interface: regenerate any of the paper's artifacts.

Usage (after ``pip install -e .``)::

    python -m repro.cli table1
    python -m repro.cli table2 --scale 0.5 --repeats 3
    python -m repro.cli fig4 --pair cifar10-gtx1070
    python -m repro.cli run --solver HW-IECI --variant hyperpower \
        --pair mnist-gtx1070 --evaluations 10 --out run.json

``table2``..``table5`` and ``fig6`` share one fixed-runtime study per
invocation; requesting several of them at once (``tables``) amortises it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .experiments.fixed_evals import figure4_series, run_fixed_evals
from .experiments.fixed_runtime import (
    format_table2,
    format_table3,
    format_table4,
    format_table5,
    run_fixed_runtime,
)
from .experiments.headlines import compute_headlines, format_headlines
from .experiments.model_accuracy import format_table1, run_model_accuracy
from .experiments.motivating import run_figure1, run_figure3
from .core.faults import FaultRates, RetryPolicy
from .core.parallel import TrialCache
from .core.spec import RunSpec
from .experiments.setup import PAPER_PAIRS, paper_setup
from .trainsim.dataset import get_dataset
from .io import save_runs

_RUNTIME_TABLES = {
    "table2": format_table2,
    "table3": format_table3,
    "table4": format_table4,
    "table5": format_table5,
}


def _cmd_table1(args) -> None:
    study = run_model_accuracy(n_samples=args.samples, seed=args.seed)
    print(format_table1(study))


def _cmd_runtime_tables(args, which: list[str]) -> None:
    study = run_fixed_runtime(
        n_repeats=args.repeats,
        time_scale=args.scale,
        profiling_samples=args.samples,
        seed=args.seed,
    )
    for name in which:
        print()
        print(_RUNTIME_TABLES[name](study))


def _cmd_fig1(args) -> None:
    data = run_figure1(n_samples=args.samples, seed=args.seed)
    spread = data.iso_error_power_spread()
    print(
        f"Figure 1: {len(data.errors)} variants, power "
        f"{data.power_w.min():.1f}-{data.power_w.max():.1f} W, "
        f"max iso-error spread {spread:.1f} W"
    )
    for error, power in sorted(zip(data.errors, data.power_w)):
        print(f"  {error * 100:6.2f}%  {power:7.2f} W")


def _cmd_fig3(args) -> None:
    data = run_figure3(seed=args.seed)
    print(
        "Figure 3 (left): power-vs-epoch max relative range "
        f"{data.power_epoch_sensitivity:.3f}"
    )
    print("Figure 3 (right): per-epoch error curves")
    for label, curves in (
        ("converging", data.converging_curves),
        ("diverging", data.diverging_curves),
    ):
        for curve in curves:
            cells = " ".join(f"{v:5.3f}" for v in curve)
            print(f"  {label[:4]} {cells}")


def _cmd_fig4(args) -> None:
    study = run_fixed_evals(
        pair_key=args.pair,
        n_repeats=args.repeats,
        seed=args.seed,
        profiling_samples=args.samples,
    )
    series = figure4_series(study)
    for solver, panels in series.items():
        best = panels["best_error_curve"][-1]
        violations = panels["violation_curve"][-1]
        print(
            f"{solver:10s} final best error {best * 100:6.2f}%  "
            f"violations {violations:5.1f}"
        )


#: Flags not named ``--`` plus the field whose check refused a value.  A
#: refused value's message starts with its field (``RunSpec``,
#: ``RetryPolicy``) or fault kind (``FaultRates``).
_FLAGS = {
    "max_evaluations": "--evaluations", "max_time_s": "--hours",
    "timeout_s": "--timeout", "backoff_base_s": "--backoff-base",
    "crash": "--fault-crash", "hang": "--fault-hang", "nan-loss": "--fault-nan",
    "oom": "--fault-oom", "nvml": "--fault-nvml", "fault": "--fault-*",
    "faults": "--fault-*",
}


def _run_options(args) -> dict:
    """The run the flags describe, as ``ExperimentSetup.run`` keywords.

    They are checked as a :class:`RunSpec` here, before the profiling
    campaign; a refused value exits naming its flag.
    """
    pool_flags = [
        flag
        for flag, given in (
            ("--workers", args.workers != 1),
            ("--no-cache", args.no_cache),
            ("--warm-cache", args.warm_cache),
            ("--max-attempts", args.max_attempts != 3),
            ("--timeout", args.timeout is not None),
            ("--backoff-base", args.backoff_base != 60.0),
            ("--backoff-factor", args.backoff_factor != 2.0),
        )
        if given
    ]
    if args.backend is None and pool_flags:
        # The sequential loop has no pool: these would be silently ignored.
        raise SystemExit("pool-only flags need --backend: " + " ".join(pool_flags))
    if args.warm_cache and args.no_cache:
        raise SystemExit("--warm-cache requires the cache (drop --no-cache)")
    # Every flag named like its field, then the ones that are not.
    options = {
        f.name: getattr(args, f.name) for f in fields(RunSpec) if hasattr(args, f.name)
    }
    if args.evaluations is not None:
        options["max_evaluations"] = args.evaluations
    if args.hours is not None:
        options["max_time_s"] = args.hours * 3600.0
    if args.evaluations is None and args.hours is None:
        options["max_time_s"] = PAPER_PAIRS[args.pair].time_budget_s
    try:
        faults = FaultRates(
            crash=args.fault_crash, hang=args.fault_hang, nan_loss=args.fault_nan,
            oom=args.fault_oom, nvml=args.fault_nvml,
        )
        options.update(
            use_cache=not args.no_cache,
            faults=faults if faults.any_active else None,
            retry=RetryPolicy(
                max_attempts=args.max_attempts, timeout_s=args.timeout,
                backoff_base_s=args.backoff_base, backoff_factor=args.backoff_factor,
            ),
        )
        # The rung ladder depends on the pair's epoch schedule.
        RunSpec(**options).fidelity(
            get_dataset(PAPER_PAIRS[args.pair].dataset).default_epochs
        )
    except ValueError as exc:
        field = str(exc).split()[0]
        flag = _FLAGS.get(field, "--" + field.replace("_", "-"))
        raise SystemExit(f"{flag}: {exc}") from None
    return options


def _cmd_run(args) -> None:
    options = _run_options(args)
    setup, _ = paper_setup(
        args.pair, seed=args.seed, profiling_samples=args.samples
    )
    cache = None
    if args.warm_cache:
        # Warm-cache replay: run once to populate a shared cache, then
        # report the identically-seeded re-run, whose trainings all
        # replay at lookup cost (runs are deterministic).  The pre-run
        # gets the reported run's faults and retry policy, so the cache
        # holds what that run would train; it gets no journal, resume
        # or telemetry.
        cache = TrialCache()
        setup.run(**options, cache=cache)
    telemetry = None
    if args.trace_out or args.metrics_out:
        # Created only now so a --warm-cache pre-run stays untraced.
        from .telemetry import Telemetry

        telemetry = Telemetry()
    result = setup.run(
        **options,
        cache=cache,
        journal=args.journal or None,
        resume_from=args.resume or None,
        telemetry=telemetry,
    )
    print(
        f"{args.solver}/{args.variant} on {args.pair}: "
        f"{result.n_samples} samples, {result.n_trained} trained, "
        f"{result.n_violations} violations, best feasible error "
        f"{result.best_feasible_error * 100:.2f}%"
    )
    if result.cache_lookups > 0:
        print(
            f"cache: {result.cache_hits} hits, {result.cache_misses} misses, "
            f"hit rate {result.cache_hit_rate * 100:.2f}% "
            f"({result.n_cached} trials replayed)"
        )
    if result.n_attempts > result.n_trained or result.n_failed > 0:
        print(
            f"faults: {result.n_failed} failed trials, "
            f"{result.n_degraded} degraded measurements, "
            f"{result.n_faults} faulted attempts absorbed, "
            f"{result.retry_time_s:.0f}s of retries/backoff charged"
        )
    if telemetry is not None:
        from .telemetry import write_metrics, write_trace

        meta = {
            "pair": args.pair,
            "solver": args.solver,
            "variant": args.variant,
            "seed": args.seed,
            "run_seed": args.run_seed,
        }
        if args.trace_out:
            path = write_trace(args.trace_out, telemetry.tracer, meta=meta)
            print(
                f"saved trace to {path} ({telemetry.tracer.n_spans} spans, "
                f"{telemetry.tracer.dropped} dropped)"
            )
        if args.metrics_out:
            path = write_metrics(
                args.metrics_out, telemetry.metrics.snapshot(), meta=meta
            )
            print(f"saved metrics to {path}")
    if args.out:
        path = save_runs([result], args.out)
        print(f"saved run to {path}")


def _cmd_serve(args) -> None:
    from .service import StudyServer, StudyStore

    telemetry = None
    if args.trace_out or args.metrics_out:
        from .telemetry import Telemetry

        telemetry = Telemetry()
    chaos = None
    if args.chaos_rate > 0:
        from .core.faults import StorageChaos, StorageFaultRates

        chaos = StorageChaos(
            rates=StorageFaultRates(
                fsync=args.chaos_rate,
                enospc=args.chaos_rate,
                torn=args.chaos_rate,
                delay=args.chaos_rate,
            ),
            seed=args.chaos_seed,
        )
    store = StudyStore(
        args.root,
        fsync=not args.no_fsync,
        metrics=None if telemetry is None else telemetry.metrics,
        tracer=None if telemetry is None else telemetry.tracer,
        chaos=chaos,
        snapshot_every=args.snapshot_every,
    )
    server = StudyServer(
        (args.host, args.port),
        store,
        telemetry=telemetry,
        max_inflight=args.max_inflight,
        retry_after_s=args.retry_after,
    )
    host, port = server.server_address[:2]
    # Parsed by clients launching the server as a subprocess; flush so
    # they see it before the first request.
    print(f"serving study store {args.root} at http://{host}:{port}/", flush=True)

    def _term(signum, frame):  # SIGTERM: graceful drain, then exit
        raise KeyboardInterrupt

    import signal

    previous = signal.signal(signal.SIGTERM, _term)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        # Drain before shutdown: stop admitting (new requests shed with
        # a typed Overloaded error), let in-flight requests finish, and
        # durably flush every journal — no accepted request is lost.
        quiesced = server.drain(timeout_s=args.drain_timeout)
        server.shutdown()
        server.server_close()
        store.close()
        print(
            "drained cleanly" if quiesced
            else "drain timed out with requests in flight",
            flush=True,
        )
        if telemetry is not None:
            from .telemetry import write_metrics, write_trace

            meta = {"root": str(args.root)}
            if args.trace_out:
                write_trace(args.trace_out, telemetry.tracer, meta=meta)
            if args.metrics_out:
                write_metrics(
                    args.metrics_out, telemetry.metrics.snapshot(), meta=meta
                )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="HyperPower reproduction harness"
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--samples", type=int, default=100, help="profiling-campaign size"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1: model RMSPE")

    for name in ("table2", "table3", "table4", "table5", "tables", "headlines"):
        p = sub.add_parser(name, help=f"{name}: fixed-runtime protocol")
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--repeats", type=int, default=3)

    p = sub.add_parser("fig1", help="Figure 1: error-power scatter")
    p = sub.add_parser("fig3", help="Figure 3: the two insights")
    p = sub.add_parser("fig4", help="Figure 4: fixed evaluations")
    p.add_argument("--pair", default="cifar10-gtx1070", choices=sorted(PAPER_PAIRS))
    p.add_argument("--repeats", type=int, default=5)

    p = sub.add_parser("run", help="run one method variant")
    p.add_argument("--pair", default="mnist-gtx1070", choices=sorted(PAPER_PAIRS))
    p.add_argument("--solver", default="HW-IECI",
                   choices=["Rand", "Rand-Walk", "HW-CWEI", "HW-IECI"])
    p.add_argument("--variant", default="hyperpower",
                   choices=["default", "hyperpower"])
    p.add_argument("--evaluations", type=int, default=None)
    p.add_argument("--hours", type=float, default=None)
    p.add_argument("--run-seed", type=int, default=0)
    p.add_argument("--gp-refit-every", type=int, default=1,
                   help="re-optimize BO surrogate hyper-parameters every N "
                        "trained observations, rank-1-appending in between "
                        "(default 1: refit every round, the paper's loop)")
    p.add_argument("--gp-restarts", type=int, default=2,
                   help="random restarts per surrogate hyper-refit")
    p.add_argument("--gp-warm-start", action="store_true",
                   help="warm-start surrogate refits from the previous fit "
                        "(decays restarts to 1 after burn-in)")
    p.add_argument("--surrogate", default="exact",
                   choices=["exact", "rff", "nystrom", "auto"],
                   help="surrogate tier for the BO solvers: 'exact' "
                        "(default, the paper's GP), 'rff' (random Fourier "
                        "features), 'nystrom' (inducing points), or 'auto' "
                        "(exact below --surrogate-switch-at observations, "
                        "sparse above) — sparse tiers keep proposal cost "
                        "flat on long studies")
    p.add_argument("--surrogate-features", type=int, default=256,
                   help="feature/inducing-point count of the sparse "
                        "surrogate tiers")
    p.add_argument("--surrogate-switch-at", type=int, default=1000,
                   help="observation count at which --surrogate auto "
                        "switches from the exact to the sparse tier")
    p.add_argument("--backend", default=None, choices=["serial"],
                   help="evaluate accepted proposals through the in-process "
                        "EvaluationPool (default: paper's sequential loop)")
    p.add_argument("--workers", type=int, default=1,
                   help="simulated concurrent trainings per round "
                        "(with --backend)")
    p.add_argument("--scheduler", default="sync", choices=["sync", "async"],
                   help="'sync' (default): round-barrier loop, byte-identical "
                        "to prior releases; 'async': event-driven scheduler "
                        "refilling workers the moment a trial completes "
                        "(requires --backend)")
    p.add_argument("--rungs", type=int, default=0,
                   help="multi-fidelity rung count; 0 (default) trains "
                        "every trial to the full schedule, N>0 runs "
                        "successive halving over N geometric epoch rungs "
                        "(requires --scheduler async and --backend)")
    p.add_argument("--eta", type=int, default=3,
                   help="rung promotion ratio: each rung promotes the "
                        "top 1/eta of its cell (default 3)")
    p.add_argument("--min-epochs", type=int, default=1,
                   help="epoch budget of the cheapest rung (default 1)")
    p.add_argument("--brackets", type=int, default=1,
                   help="Hyperband brackets assigned round-robin; "
                        "1 (default) is plain successive halving")
    p.add_argument("--scatter-init", type=int, default=0,
                   help="widen the BO solvers' random initial design (and "
                        "the rung-0 cell under --rungs) to this many "
                        "trials; 0 keeps the method default")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the config-hash trial cache (with --backend)")
    p.add_argument("--warm-cache", action="store_true",
                   help="run twice against one shared cache and report the "
                        "second (cache-replayed) run")
    p.add_argument("--fault-crash", type=float, default=0.0,
                   help="per-attempt worker-crash probability (with --backend)")
    p.add_argument("--fault-hang", type=float, default=0.0,
                   help="per-attempt hang probability (reaped at the timeout)")
    p.add_argument("--fault-nan", type=float, default=0.0,
                   help="per-attempt NaN/inf-loss probability")
    p.add_argument("--fault-oom", type=float, default=0.0,
                   help="per-attempt out-of-memory probability")
    p.add_argument("--fault-nvml", type=float, default=0.0,
                   help="per-attempt transient measurement-failure probability "
                        "(trial degrades to model-predicted power/memory)")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="fault-injection stream seed (default: derived from "
                        "the setup and run seeds)")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="evaluation attempts per trial before FAILED")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-trial simulated timeout, seconds")
    p.add_argument("--backoff-base", type=float, default=60.0,
                   help="simulated backoff before the first retry, seconds")
    p.add_argument("--backoff-factor", type=float, default=2.0,
                   help="exponential backoff growth factor")
    p.add_argument("--journal", default=None,
                   help="write a crash-safe JSONL journal of the run")
    p.add_argument("--resume", default=None,
                   help="resume an interrupted run from its journal "
                        "(continues bit-identically; appends to the same "
                        "journal unless --journal names another file)")
    p.add_argument("--trace-out", default=None,
                   help="write a JSONL span trace of the run (tracing never "
                        "changes the run's results)")
    p.add_argument("--metrics-out", default=None,
                   help="write the run's metrics snapshot as JSON")
    p.add_argument("--out", default=None, help="save the run as JSON")

    p = sub.add_parser("serve", help="serve a multi-study ask/tell service")
    p.add_argument("--root", required=True,
                   help="directory holding the per-study journals")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="TCP port (0 lets the OS pick; the chosen port is "
                        "printed on startup)")
    p.add_argument("--no-fsync", action="store_true",
                   help="skip the per-event fsync (faster, but a host crash "
                        "may lose the tail of a study journal)")
    p.add_argument("--snapshot-every", type=int, default=None,
                   help="compact each study journal into a crash-safe "
                        "snapshot every N events (default: never), keeping "
                        "recovery O(events since the last snapshot)")
    p.add_argument("--max-inflight", type=int, default=None,
                   help="bound on concurrently executing requests; excess "
                        "requests are shed with a typed Overloaded error "
                        "carrying retry_after_s (default: unbounded)")
    p.add_argument("--retry-after", type=float, default=0.5,
                   help="retry_after_s hint attached to shed requests")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds SIGTERM waits for in-flight requests "
                        "before closing the journals")
    p.add_argument("--chaos-seed", type=int, default=0,
                   help="seed of the deterministic storage-fault stream "
                        "(only meaningful with --chaos-rate)")
    p.add_argument("--chaos-rate", type=float, default=0.0,
                   help="per-append probability of each injected storage "
                        "fault kind (fsync/enospc/torn/delay), for chaos "
                        "drills; 0 (default) injects nothing")
    p.add_argument("--trace-out", default=None,
                   help="write a JSONL span trace of served requests on exit")
    p.add_argument("--metrics-out", default=None,
                   help="write the service metrics snapshot as JSON on exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "table1":
        _cmd_table1(args)
    elif args.command in _RUNTIME_TABLES:
        _cmd_runtime_tables(args, [args.command])
    elif args.command == "tables":
        _cmd_runtime_tables(args, list(_RUNTIME_TABLES))
    elif args.command == "headlines":
        study = run_fixed_runtime(
            n_repeats=args.repeats,
            time_scale=args.scale,
            profiling_samples=args.samples,
            seed=args.seed,
        )
        print(format_headlines(compute_headlines(study)))
    elif args.command == "fig1":
        _cmd_fig1(args)
    elif args.command == "fig3":
        _cmd_fig3(args)
    elif args.command == "fig4":
        _cmd_fig4(args)
    elif args.command == "run":
        _cmd_run(args)
    elif args.command == "serve":
        _cmd_serve(args)
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"unknown command {args.command!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
