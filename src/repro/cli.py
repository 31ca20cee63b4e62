"""Command-line interface: ``repro-demux``.

Each subcommand is declared once, in :func:`build_parser`: its name,
help and options, with ``set_defaults(handler=...)`` binding the
function that runs it.  An option that sets a library parameter is
declared with ``default=SUPPRESS`` and a ``dest`` naming that
parameter, so an option the user did not give is not passed on
(:func:`_given`) and the library's own default applies.

All output goes to stdout unless ``--out`` is given.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from argparse import SUPPRESS
from typing import List, Optional

from .core.registry import available_algorithms, make_algorithm
from .obs.profile import DEFAULT_SAMPLE_EVERY
from .obs.spans import DEFAULT_SPAN_SAMPLE_EVERY

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-demux",
        description=(
            "Reproduction of McKenney & Dove, 'Efficient Demultiplexing of"
            " Incoming TCP Packets' (SIGCOMM 1992)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    spec_help = f"spec, e.g. {', '.join(available_algorithms())}"

    tables = sub.add_parser(
        "tables", help="regenerate the paper's in-text results"
    )
    tables.set_defaults(handler=_cmd_tables)

    figures = sub.add_parser("figures", help="render Figures 4, 13, 14")
    figures.set_defaults(handler=_cmd_figures)
    # 41 points, as report.md renders them; the library's default is 51.
    figures.add_argument("--points", type=int, default=41)
    figures.add_argument(
        "--figure", choices=("4", "13", "14"), help="just one figure"
    )

    validate = sub.add_parser(
        "validate", help="simulation vs. analytic model"
    )
    validate.set_defaults(handler=_cmd_validate)
    validate.add_argument("--users", type=int, dest="n_users", default=SUPPRESS)
    validate.add_argument("--seed", type=int, default=SUPPRESS)
    validate.add_argument("--duration", type=float, default=SUPPRESS)
    validate.add_argument(
        "--algorithms",
        nargs="+",
        default=SUPPRESS,
        help="subset to run",
    )

    simulate = sub.add_parser(
        "simulate", help="one TPC/A run against one algorithm"
    )
    simulate.set_defaults(handler=_cmd_simulate)
    simulate.add_argument(
        "--algorithm",
        default="sequent:h=19",
        help=spec_help,
    )
    # 500, not TPCAConfig's 2,000: the population validate and run-all use.
    simulate.add_argument("--users", type=int, dest="n_users", default=500)
    simulate.add_argument("--response-time", type=float, default=SUPPRESS)
    simulate.add_argument(
        "--rtt", type=float, dest="round_trip", default=SUPPRESS
    )
    simulate.add_argument("--duration", type=float, default=SUPPRESS)
    simulate.add_argument("--seed", type=int, default=SUPPRESS)
    simulate.add_argument(
        "--think-model",
        choices=("exponential", "truncated", "deterministic"),
        default=SUPPRESS,
    )
    simulate.add_argument(
        "--full-stack",
        action="store_true",
        help="run real TCP stacks over the simulated network",
    )
    simulate.add_argument(
        "--faults",
        metavar="SPEC",
        help=(
            "fault-injection spec, e.g."
            " 'ge=0.05:0.45,reorder=0.02:0.005,dup=0.02'"
            " (network terms imply --full-stack); infrastructure terms"
            " 'crash=K:W', 'stall=K:W:D', 'snapcorrupt=P' compose in"
            " and need a sharded --algorithm"
        ),
    )
    simulate.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help=(
            "supervise the (sharded) structure and checkpoint every"
            " shard each N operations (enables warm recovery)"
        ),
    )
    simulate.add_argument(
        "--detect-after",
        type=int,
        default=0,
        metavar="K",
        help=(
            "packets steered at a dead shard that are dropped before"
            " the crash is detected (default 0: immediate)"
        ),
    )
    simulate.add_argument(
        "--slo",
        metavar="SPEC",
        help=(
            "watchdog budget overrides, e.g. 'p99=80,drop=0.1'"
            " (keys: p99, drop, imbalance, retained)"
        ),
    )
    _add_table_bound(simulate)
    simulate.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "reap connections idle this long; enables the lifecycle"
            " reaper (implies --full-stack)"
        ),
    )
    simulate.add_argument(
        "--time-wait",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "reaper-managed TIME-WAIT quarantine instead of the fixed"
            " 2*MSL event (implies --full-stack)"
        ),
    )
    simulate.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a JSONL event trace (lookups, inserts, sim dispatch)",
    )
    simulate.add_argument(
        "--metrics-out",
        metavar="PATH",
        help=(
            "write run metrics: JSON registry snapshot, or Prometheus"
            " text format if PATH ends in .prom"
        ),
    )
    simulate.add_argument(
        "--profile",
        type=int,
        nargs="?",
        const=DEFAULT_SAMPLE_EVERY,
        metavar="N",
        help=(
            "sampled perf_counter timing of the lookup hot path, one"
            " lookup in N (default %(const)s)"
        ),
    )
    simulate.add_argument(
        "--spans-out",
        metavar="PATH",
        help="write sampled per-packet spans as JSONL (enables spans)",
    )
    simulate.add_argument(
        "--span-sample-every",
        type=int,
        default=None,
        metavar="N",
        help=(
            f"record one packet span in N (default"
            f" {DEFAULT_SPAN_SAMPLE_EVERY}; implies spans)"
        ),
    )
    simulate.add_argument(
        "--sketch",
        action="store_true",
        help=(
            "stream traffic sketches (quantiles, heavy hitters,"
            " train-ness, population) and publish traffic_* gauges"
        ),
    )
    simulate.add_argument(
        "--sketch-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="virtual seconds between sketch publishes (default %(default)g)",
    )
    _add_serve_metrics(simulate)
    simulate.add_argument(
        "--serve-hold",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the telemetry server up this long after the run",
    )

    obs_report = sub.add_parser(
        "obs-report",
        help="ASCII dashboard from a metrics snapshot (+ optional spans)",
    )
    obs_report.set_defaults(handler=_cmd_obs_report)
    obs_report.add_argument(
        "--metrics",
        required=True,
        metavar="PATH",
        help="metrics.json from simulate --metrics-out (or /snapshot.json)",
    )
    obs_report.add_argument(
        "--spans",
        metavar="PATH",
        help="span JSONL from simulate --spans-out",
    )
    obs_report.add_argument(
        "--out",
        metavar="PATH",
        help="write the dashboard here instead of stdout",
    )

    compare = sub.add_parser(
        "compare", help="algorithm matrix over one workload"
    )
    compare.set_defaults(handler=_cmd_compare)
    compare.add_argument(
        "--workload",
        choices=("tpca", "trains", "polling", "mixed", "churn"),
        default="tpca",
    )
    compare.add_argument(
        "--algorithms",
        nargs="+",
        default=["bsd", "mtf", "sendrecv", "sequent:h=19"],
        help="algorithm specs (e.g. sequent:h=51 multicache:k=16)",
    )
    compare.add_argument("--users", type=int, default=300)
    compare.add_argument("--seed", type=int, default=1)

    matrix = sub.add_parser(
        "fault-matrix",
        help="robustness campaign: algorithms x fault mixes x seeds",
    )
    matrix.set_defaults(handler=_cmd_fault_matrix)
    matrix.add_argument("--algorithms", nargs="+", default=SUPPRESS)
    matrix.add_argument(
        "--mixes",
        nargs="+",
        default=SUPPRESS,
        help=(
            "standard mix names (clean iid5 ge10 chaos) or custom"
            " name=SPEC entries"
        ),
    )
    matrix.add_argument("--seeds", nargs="+", type=int, default=SUPPRESS)
    matrix.add_argument("--users", type=int, dest="n_users", default=SUPPRESS)
    matrix.add_argument("--duration", type=float, default=SUPPRESS)
    _add_table_bound(matrix)
    matrix.add_argument(
        "--out",
        metavar="DIR",
        help="write fault_matrix.txt and fault_matrix.json into DIR",
    )

    smp = sub.add_parser(
        "smp-sweep",
        help="sharded demux sweep: shard count x steering x batch size",
    )
    smp.set_defaults(handler=_cmd_smp_sweep)
    smp.add_argument(
        "--algorithms",
        nargs="+",
        default=SUPPRESS,
        help="inner algorithm specs",
    )
    smp.add_argument(
        "--users", type=int, dest="n_connections", default=SUPPRESS
    )
    smp.add_argument("--duration", type=float, default=SUPPRESS)
    smp.add_argument(
        "--shards", nargs="+", type=int, dest="shard_counts", default=SUPPRESS
    )
    smp.add_argument("--steerings", nargs="+", default=SUPPRESS)
    smp.add_argument(
        "--batch-sizes",
        nargs="+",
        type=int,
        default=SUPPRESS,
        help="coalescing batch sizes, 1 = unbatched",
    )
    smp.add_argument("--seeds", nargs="+", type=int, default=SUPPRESS)
    smp.add_argument(
        "--jobs",
        type=int,
        default=SUPPRESS,
        help="worker processes (results are identical for any value)",
    )
    smp.add_argument("--utilization", type=float, default=SUPPRESS)
    smp.add_argument(
        "--out",
        metavar="DIR",
        help="write smp_sweep.txt and smp_sweep.json into DIR",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "bind a real TCP socket, route every arriving frame through"
            " a demux algorithm, and drive it with a seeded loop-back"
            " client swarm"
        ),
    )
    serve.set_defaults(handler=_cmd_serve)
    serve.add_argument("--algorithm", default=SUPPRESS, help=spec_help)
    serve.add_argument("--host", default=SUPPRESS)
    serve.add_argument(
        "--port", type=int, default=SUPPRESS, help="0 picks a free port"
    )
    serve.add_argument(
        "--clients", type=int, default=SUPPRESS, help="loop-back swarm size"
    )
    serve.add_argument(
        "--frames", type=int, default=SUPPRESS, help="frames per client"
    )
    serve.add_argument("--seed", type=int, default=SUPPRESS)
    serve.add_argument(
        "--concurrency",
        type=int,
        default=SUPPRESS,
        help="max clients connected at once",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=SUPPRESS,
        help="shed connections beyond this many live sessions",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=SUPPRESS,
        metavar="SECONDS",
        help="graceful-shutdown drain before cancelling handlers",
    )
    serve.add_argument(
        "--record",
        metavar="PATH",
        help="write the served traffic as a recorded-stream capture",
    )
    serve.add_argument(
        "--record-order",
        choices=("canonical", "arrival"),
        default=SUPPRESS,
        help=(
            "capture ordering: canonical replays byte-identically"
            " across runs; arrival keeps true interleaving"
        ),
    )
    _add_serve_metrics(serve)

    record_info = sub.add_parser(
        "record-info",
        help="validate a recorded capture and print its header",
    )
    record_info.set_defaults(handler=_cmd_record_info)
    record_info.add_argument("file", help="path to a capture .json")

    canary = sub.add_parser(
        "canary",
        help=(
            "A/B a candidate algorithm against the incumbent on one"
            " capture; exit 1 blocks the promotion"
        ),
    )
    canary.set_defaults(handler=_cmd_canary)
    canary.add_argument("candidate", help="candidate algorithm spec")
    canary.add_argument(
        "--incumbent",
        metavar="SPEC",
        default=SUPPRESS,
        help="incumbent spec the candidate must beat",
    )
    canary.add_argument(
        "--capture",
        metavar="PATH",
        help=(
            "recorded capture to replay (e.g. from 'serve --record');"
            " default: a synthetic TPC/A stream"
        ),
    )
    canary.add_argument("--seed", type=int, default=7)
    canary.add_argument(
        "--users",
        type=int,
        default=300,
        help="connections in the synthetic fallback stream (1 to 10^6)",
    )
    canary.add_argument(
        "--duration",
        type=float,
        default=10.0,
        help="synthetic fallback stream's simulated seconds",
    )
    canary.add_argument(
        "--repeats",
        type=int,
        default=SUPPRESS,
        help="timed replays per side (best-of-R)",
    )
    canary.add_argument(
        "--pps-margin",
        type=float,
        default=SUPPRESS,
        help="fractional packets/sec shortfall tolerated",
    )
    canary.add_argument(
        "--examined-margin",
        type=float,
        default=SUPPRESS,
        help="fractional p99-examined excess tolerated",
    )
    canary.add_argument(
        "--json",
        action="store_true",
        help="emit the verdict as JSON instead of text",
    )

    leak = sub.add_parser(
        "leak-audit",
        help=(
            "memory-bounds smoke: churn-storm and SYN-flood each"
            " algorithm, then audit interned keys vs live connections"
        ),
    )
    leak.set_defaults(handler=_cmd_leak_audit)
    leak.add_argument(
        "--algorithms",
        nargs="+",
        default=["fast-sequent:h=19", "sharded-fast-sequent:shards=4,h=19"],
        help=(
            "specs to audit; by default the plain fast path and the"
            " sharded facade, whose shards intern independently"
        ),
    )
    leak.add_argument("--seeds", nargs="+", type=int, default=[1])
    leak.add_argument(
        "--steps",
        type=int,
        default=SUPPRESS,
        help="churn-storm mutation steps per cell",
    )
    leak.add_argument(
        "--grace",
        type=int,
        default=0,
        help="allowed interned-keys overhang above the live population",
    )
    leak.add_argument(
        "--skip-flood",
        action="store_true",
        help="churn-storm cells only (faster; no full-stack pass)",
    )

    balance = sub.add_parser(
        "hash-balance", help="hash function balance comparison"
    )
    balance.set_defaults(handler=_cmd_hash_balance)
    balance.add_argument("--users", type=int, default=2000)
    balance.add_argument("--chains", type=int, default=19)

    pcap = sub.add_parser(
        "pcap", help="summarize a capture written by the simulator"
    )
    pcap.set_defaults(handler=_cmd_pcap)
    pcap.add_argument("file", help="path to a .pcap file")
    pcap.add_argument(
        "--flows", action="store_true", help="per-flow breakdown"
    )

    drill = sub.add_parser(
        "recovery-drill",
        help=(
            "crash a shard mid-run and prove warm restore beats cold"
            " rebuild (writes recovery_drill.{txt,json})"
        ),
    )
    drill.set_defaults(handler=_cmd_recovery_drill)
    drill.add_argument(
        "--algorithms",
        nargs="+",
        metavar="SPEC",
        default=SUPPRESS,
        help="sharded specs to drill",
    )
    drill.add_argument("--seeds", type=int, nargs="+", default=SUPPRESS)
    drill.add_argument("--users", type=int, dest="n_users", default=SUPPRESS)
    drill.add_argument(
        "--packets", type=int, dest="n_packets", default=SUPPRESS
    )
    drill.add_argument(
        "--checkpoint-every",
        type=int,
        default=SUPPRESS,
        metavar="N",
        help="warm copy's checkpoint cadence in operations",
    )
    drill.add_argument(
        "--mttr-budget",
        type=float,
        dest="mttr_budget_ms",
        default=SUPPRESS,
        metavar="MS",
        help="fail the drill if any recovery takes longer (milliseconds)",
    )
    drill.add_argument("--out", default="results")

    runall = sub.add_parser("run-all", help="write all artifacts to a directory")
    runall.set_defaults(handler=_cmd_run_all)
    runall.add_argument("--out", default="results")
    runall.add_argument(
        "--users", type=int, dest="sim_users", default=SUPPRESS
    )
    runall.add_argument("--seed", type=int, default=SUPPRESS)
    runall.add_argument(
        "--no-simulation", action="store_true", help="analytic artifacts only"
    )

    return parser


def _add_table_bound(parser: argparse.ArgumentParser) -> None:
    """The server PCB-table bound, shared by simulate and fault-matrix."""
    parser.add_argument(
        "--max-connections",
        type=int,
        default=SUPPRESS,
        help="bound the server's PCB table (implies --full-stack on simulate)",
    )
    parser.add_argument(
        "--overflow-policy",
        choices=("reject-new", "evict-oldest-embryonic"),
        default=SUPPRESS,
        help=(
            "what a full bounded table does with new SYNs"
            " (implies --full-stack on simulate)"
        ),
    )


def _add_serve_metrics(parser: argparse.ArgumentParser) -> None:
    """The live telemetry endpoint, shared by simulate and serve."""
    parser.add_argument(
        "--serve-metrics",
        type=int,
        metavar="PORT",
        help=(
            "serve /metrics, /snapshot.json and /healthz over HTTP"
            " during the run (0 picks a free port)"
        ),
    )


def _given(args: argparse.Namespace, callee) -> dict:
    """The given options that name a parameter of ``callee``, as keywords.

    Such options default to ``SUPPRESS``: one the user did not give is
    absent from ``args``, so ``callee`` applies its own default.
    ``nargs`` lists become tuples.
    """
    parameters = inspect.signature(callee).parameters
    return {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in vars(args).items()
        if name in parameters
    }


def _cmd_tables(args) -> int:
    from .experiments.text_results import all_text_results

    ok = True
    for table in all_text_results():
        print(table.render())
        print()
        ok = ok and table.all_ok
    return 0 if ok else 1


def _cmd_figures(args) -> int:
    from .experiments.figures import figure4, figure13, figure14

    wanted = {
        "4": figure4,
        "13": figure13,
        "14": figure14,
    }
    keys = [args.figure] if args.figure else ["4", "13", "14"]
    for key in keys:
        print(wanted[key](points=args.points).render())
        print()
    return 0


def _cmd_validate(args) -> int:
    from .experiments.simulate import validate_against_analytic

    result = validate_against_analytic(
        progress=lambda msg: print(f"  ... {msg}", file=sys.stderr),
        **_given(args, validate_against_analytic),
    )
    print(result.render())
    return 0 if result.all_ok else 1


class _SimRun:
    """``simulate``'s run facts as a metrics source (``sim_run``)."""

    def __init__(self, simulation) -> None:
        self.simulation = simulation

    def metrics(self):
        simulation = self.simulation
        facts = {
            "events_run": simulation.sim.events_run,
            "transactions": simulation.transactions_completed,
            "virtual_time_seconds": simulation.sim.now,
            "users": simulation.config.n_users,
            "seed": simulation.config.seed,
        }
        return [(
            "sim_run", "gauge", "simulation run facts",
            [({"name": name}, value) for name, value in facts.items()],
        )]


def _cmd_simulate(args) -> int:
    from .obs.metrics import MetricsRegistry
    from .obs.profile import LookupProfiler
    from .obs.trace import JsonlSink, Tracer
    from .workload.thinktime import make_think_model
    from .workload.tpca import TPCAConfig, TPCADemuxSimulation

    algorithm = make_algorithm(args.algorithm)
    workload = _given(args, TPCAConfig)
    if "think_model" in workload:
        workload["think_model"] = make_think_model(workload["think_model"])
    config = TPCAConfig(**workload)

    # -- fault spec: network terms drive the injector, infrastructure
    # terms (crash/stall/snapcorrupt) drive the shard supervisor.
    fault_models = []
    infra_faults = []
    if args.faults:
        from .faults.infra import parse_mixed_spec

        fault_models, infra_faults = parse_mixed_spec(args.faults)

    supervisor = None
    if args.checkpoint_every or infra_faults:
        from .faults.infra import ShardCrash, ShardStall, SnapshotCorruption
        from .recovery import ShardSupervisor
        from .smp.sharded import ShardedDemux

        if not isinstance(algorithm, ShardedDemux):
            print(
                f"error: --checkpoint-every and crash/stall/snapcorrupt"
                f" faults need a sharded algorithm, got {args.algorithm!r}",
                file=sys.stderr,
            )
            return 2
        snapshot_fault = None
        for fault in infra_faults:
            if isinstance(fault, SnapshotCorruption):
                fault.bind_seed(config.seed)
                snapshot_fault = fault
        try:
            supervisor = ShardSupervisor(
                algorithm,
                checkpoint_every=args.checkpoint_every,
                detect_after=args.detect_after,
                snapshot_fault=snapshot_fault,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for fault in infra_faults:
            if isinstance(fault, ShardCrash):
                supervisor.arm_crashes(
                    fault.schedule(algorithm.nshards, config.seed)
                )
            elif isinstance(fault, ShardStall):
                supervisor.arm_stalls(
                    fault.schedule(algorithm.nshards, config.seed)
                )
        algorithm = supervisor
    elif args.detect_after:
        print(
            "warning: --detect-after has no effect without"
            " --checkpoint-every or a crash/stall/snapcorrupt fault",
            file=sys.stderr,
        )

    lifecycle = (
        args.idle_timeout is not None or args.time_wait is not None
    )
    # The demux-level simulation has no PCB table to bound.
    table_bound = {
        name: value
        for name, value in vars(args).items()
        if name in ("max_connections", "overflow_policy")
    }
    full_stack = (
        args.full_stack or bool(fault_models) or lifecycle or bool(table_bound)
    )

    # -- telemetry plane: spans, sketches, registry ------------------
    # The span collector must exist before the simulation is built:
    # the workload's bind_tracer_clock (demux path) or the stack ctor
    # (full-stack path) binds its clock to virtual time.
    wants_spans = (
        bool(args.spans_out)
        or args.sketch
        or args.span_sample_every is not None
    )
    collector = None
    if wants_spans:
        from .obs.spans import SpanCollector

        collector = SpanCollector(
            sample_every=args.span_sample_every or DEFAULT_SPAN_SAMPLE_EVERY
        )
        collector.attach(algorithm)
    characterizer = None
    if args.sketch:
        from .obs.sketch import TrafficCharacterizer

        characterizer = TrafficCharacterizer().attach(collector)

    serve = args.serve_metrics is not None
    registry = None
    if args.metrics_out or serve or args.sketch or args.slo:
        registry = MetricsRegistry()

    if full_stack:
        from .workload.tpca import TPCAFullStackSimulation

        simulation = TPCAFullStackSimulation(
            config,
            algorithm,
            fault_models=fault_models,
            idle_timeout=args.idle_timeout,
            time_wait_timeout=args.time_wait,
            spans=collector,
            **table_bound,
        )
    else:
        simulation = TPCADemuxSimulation(config, algorithm)

    tracer = None
    if args.trace_out:
        tracer = Tracer(JsonlSink(args.trace_out))
        algorithm.tracer = tracer
        tracer.attach_simulator(simulation.sim)

    profiler = None
    if args.profile is not None:
        profiler = LookupProfiler(args.profile)
        profiler.attach(algorithm)

    # -- registry sources --------------------------------------------
    # Every publish folds in each source's running totals; the
    # registry keeps what it last saw of each, so the periodic
    # publisher and the final flush add only what is new.
    sources = []
    if registry is not None:
        sources = [(algorithm, {}), (_SimRun(simulation), {})]
        if full_stack:
            stack = simulation.server
            sources.append((stack, {}))
            if simulation.injector is not None:
                sources.append(
                    (simulation.injector, {"host": str(stack.address)})
                )
            if stack.reaper is not None:
                sources.append((stack.reaper, {}))
        if characterizer is not None:
            sources.append((characterizer, {}))
        if profiler is not None:
            sources.append((profiler, {}))

    def publish_all() -> None:
        for source, labels in sources:
            registry.publish(source, **labels)

    # -- live telemetry server + watchdog ----------------------------
    watchdog = None
    if registry is not None:
        from .obs.watchdog import HealthWatchdog, default_rules, parse_slo_spec

        try:
            slo_kwargs = parse_slo_spec(args.slo) if args.slo else {}
        except ValueError as exc:
            print(f"error: --slo: {exc}", file=sys.stderr)
            return 2
        watchdog = HealthWatchdog(default_rules(**slo_kwargs), tracer=tracer)
    server = None
    if serve:
        from .obs.live import TelemetryServer

        server = TelemetryServer(
            registry,
            watchdog=watchdog,
            port=args.serve_metrics,
            clock=lambda: simulation.sim.now,
        )
        port = server.start()
        print(
            f"  telemetry: http://127.0.0.1:{port}/metrics"
            " (/snapshot.json, /healthz)",
            file=sys.stderr,
        )

        def publish_periodically() -> None:
            with server.lock:
                publish_all()
            simulation.sim.schedule(
                args.sketch_interval, publish_periodically
            )

        simulation.sim.schedule(args.sketch_interval, publish_periodically)
    elif characterizer is not None:
        characterizer.attach_simulator(
            simulation.sim, registry, interval=args.sketch_interval
        )

    exit_code = 0
    result = simulation.run()
    print(result.summary())
    print(f"  max examined: {result.max_examined}")
    print(f"  structure: {algorithm.describe()}")
    if supervisor is not None:
        summary = supervisor.recovery_summary()
        modes = ", ".join(
            f"{mode}={count}" for mode, count in summary["modes"].items()
        )
        print(
            f"  recovery: crashes={summary['crashes_injected']}"
            f" stalls={summary['stalls_injected']}"
            f" recoveries={summary['recoveries']}"
            + (f" ({modes})" if modes else "")
            + f" dropped={summary['packets_dropped']}"
            f" checkpoints={summary['checkpoints_taken']}"
            f" corrupt={summary['checkpoint_corruptions_detected']}"
            f" mttr-max={summary['mttr_ms_max']:.2f}ms"
        )
        if summary["dead_shards"]:
            print(f"  recovery: shards still dead: {summary['dead_shards']}")
    if full_stack:
        from .faults.audit import audit_leaks, audit_stack

        stack = simulation.server
        print(
            f"  transactions: {simulation.transactions_completed},"
            f" users completed: {simulation.users_completed}/{config.n_users}"
        )
        drops = ", ".join(f"{k}={v}" for k, v in stack.drops.items())
        print(f"  drops: {drops}")
        if simulation.injector is not None:
            print(f"  {simulation.injector.summary()}")
            print(f"  fault digest: {simulation.injector.schedule_digest()}")
        if stack.reaper is not None:
            stats = stack.reaper.stats
            print(
                f"  reaped: idle={stack.reaped['idle']}"
                f" time-wait={stack.reaped['time-wait']}"
                f" spurious-wakeups={stats.spurious_wakeups}"
                f" timers={stats.timers_scheduled}"
            )
        audit = audit_stack(stack)
        print(f"  {audit.describe()}")
        leak = audit_leaks(stack.demux)
        print(f"  {leak.describe()}")
        if not audit.ok or not leak.ok:
            exit_code = 1

    if profiler is not None:
        print(f"  profile: {profiler.report().render()}")
    if tracer is not None:
        tracer.close()
        print(f"  trace written to {args.trace_out}")

    # -- final publish, health verdict, artifacts --------------------
    if registry is not None:
        if server is not None:
            with server.lock:
                publish_all()
        else:
            publish_all()
        health = watchdog.evaluate(registry, now=simulation.sim.now)
        print(f"  health: {health.describe()}")
    if collector is not None:
        print(f"  {collector.summary()}")
    if characterizer is not None:
        print(f"  {characterizer.summary()}")
    if args.spans_out:
        count = collector.to_jsonl(args.spans_out)
        print(f"  {count} spans written to {args.spans_out}")
    if args.metrics_out:
        if args.metrics_out.endswith(".prom"):
            text = registry.to_prometheus()
        else:
            text = registry.to_json() + "\n"
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"  metrics written to {args.metrics_out}")
    if server is not None:
        if args.serve_hold > 0:
            import time

            # The summary must reach a piped stdout before the hold: a
            # scraper that ends the hold early would otherwise lose it.
            sys.stdout.flush()
            print(
                f"  holding telemetry server for {args.serve_hold:g}s",
                file=sys.stderr,
            )
            time.sleep(args.serve_hold)
        server.stop()
    return exit_code


def _cmd_obs_report(args) -> int:
    from .obs.report import load_metrics_snapshot, render_dashboard
    from .obs.trace import read_jsonl

    snapshot = load_metrics_snapshot(args.metrics)
    spans = read_jsonl(args.spans) if args.spans else None
    text = render_dashboard(snapshot, spans=spans)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"dashboard written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_compare(args) -> int:
    from .workload.churn import ChurnConfig, ChurnWorkload
    from .workload.mixed import MixedConfig, MixedWorkload
    from .workload.polling import PollingConfig, PollingWorkload
    from .workload.tpca import TPCAConfig, TPCADemuxSimulation
    from .workload.trains import PacketTrainWorkload, TrainConfig

    def run(spec: str):
        algorithm = make_algorithm(spec)
        if args.workload == "tpca":
            return TPCADemuxSimulation(
                TPCAConfig(n_users=args.users, seed=args.seed), algorithm
            ).run()
        if args.workload == "trains":
            config = TrainConfig(
                n_connections=max(2, args.users // 10),
                n_trains=1000,
                seed=args.seed,
            )
            return PacketTrainWorkload(config, algorithm).run()
        if args.workload == "polling":
            config = PollingConfig(n_terminals=args.users, n_cycles=30)
            return PollingWorkload(config, algorithm).run()
        if args.workload == "mixed":
            config = MixedConfig(
                n_oltp_users=args.users, bulk_rate=50.0, seed=args.seed
            )
            return MixedWorkload(config, algorithm).run()
        config = ChurnConfig(n_users=args.users, seed=args.seed)
        return ChurnWorkload(config, algorithm).run()

    print(
        f"workload={args.workload} users={args.users} seed={args.seed}"
    )
    print(
        f"  {'algorithm':<18} {'PCBs/pkt':>9} {'data':>9} {'ack':>9}"
        f" {'hit rate':>9}"
    )
    for spec in args.algorithms:
        result = run(spec)
        print(
            f"  {spec:<18} {result.mean_examined:>9.2f}"
            f" {result.data_mean_examined:>9.2f}"
            f" {result.ack_mean_examined:>9.2f}"
            f" {result.cache_hit_rate:>9.2%}"
        )
    return 0


def _cmd_fault_matrix(args) -> int:
    import os

    from .faults.config import STANDARD_MIXES, FaultSpecError
    from .faults.matrix import run_fault_matrix

    campaign = _given(args, run_fault_matrix)
    if "mixes" in campaign:
        standard = dict(STANDARD_MIXES)
        mixes = []
        for entry in campaign["mixes"]:
            if entry in standard:
                mixes.append((entry, standard[entry]))
            elif "=" in entry:
                name, _, spec = entry.partition("=")
                mixes.append((name, spec))
            else:
                known = ", ".join(standard)
                raise FaultSpecError(
                    f"unknown mix {entry!r}; known: {known} (or name=SPEC)"
                )
        campaign["mixes"] = mixes

    result = run_fault_matrix(
        progress=lambda cell: print(
            f"  ... {cell.algorithm} / {cell.mix} / seed {cell.seed}:"
            f" {'ok' if cell.ok else 'FAIL'}",
            file=sys.stderr,
        ),
        **campaign,
    )
    text = result.render_text()
    print(text)

    # Re-judge the campaign with the same SLO rules /healthz applies:
    # publish every cell's drop taxonomy and accepted-packet count
    # into a throwaway registry and let the watchdog rate it.  The
    # verdict is informational -- exit status stays with result.ok.
    from .obs.metrics import MetricsRegistry
    from .obs.watchdog import HealthWatchdog, default_rules

    registry = MetricsRegistry()
    for cell in result.cells:
        registry.publish(
            cell, algorithm=cell.algorithm, mix=cell.mix, seed=str(cell.seed)
        )
    health = HealthWatchdog(default_rules()).evaluate(registry)
    print(f"watchdog: {health.describe()}")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        txt_path = os.path.join(args.out, "fault_matrix.txt")
        json_path = os.path.join(args.out, "fault_matrix.json")
        with open(txt_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(result.to_json() + "\n")
        print(f"report written to {txt_path} and {json_path}")
    return 0 if result.ok else 1


def _cmd_smp_sweep(args) -> int:
    from .smp.sweep import SMPSweepConfig, run_smp_sweep, write_sweep_artifacts

    result = run_smp_sweep(
        SMPSweepConfig(**_given(args, SMPSweepConfig)),
        progress=lambda name: print(f"  ... {name}", file=sys.stderr),
    )
    print(result.render_text())
    if args.out:
        outdir = write_sweep_artifacts(result, args.out)
        print(
            f"report written to {outdir}/smp_sweep.txt and"
            f" {outdir}/smp_sweep.json"
        )
    return 0 if result.ok else 1


def _cmd_canary(args) -> int:
    import json as json_module

    from .fastpath.gate import MAX_SWEEP_USERS, CanaryConfig, run_canary
    from .workload.record import (
        CaptureFormatError,
        load_stream,
        record_tpca_stream,
    )

    if args.capture is None and not 1 <= args.users <= MAX_SWEEP_USERS:
        print(
            f"error: --users must be between 1 and {MAX_SWEEP_USERS:,},"
            f" got {args.users}",
            file=sys.stderr,
        )
        return 2
    try:
        config = CanaryConfig(**_given(args, CanaryConfig))
        if args.capture is not None:
            stream = load_stream(args.capture)
        else:
            stream = record_tpca_stream(
                n_users=args.users, duration=args.duration, seed=args.seed
            )
        report = run_canary(
            stream,
            config,
            progress=lambda msg: print(f"  ... {msg}", file=sys.stderr),
        )
    except (CaptureFormatError, OSError) as exc:
        print(f"error: --capture: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json_module.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.promoted else 1


def _cmd_record_info(args) -> int:
    from .workload.record import CaptureFormatError, stream_info

    try:
        info = stream_info(args.file)
    except (CaptureFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    width = max(len(key) for key in info)
    for key, value in info.items():
        print(f"  {key:<{width}}  {value}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import LoadConfig, ServeConfig, run_self_drive

    try:
        serve_config = ServeConfig(**_given(args, ServeConfig))
        load = LoadConfig(**_given(args, LoadConfig))
        algorithm = make_algorithm(serve_config.algorithm)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def on_telemetry(telemetry) -> None:
        print(
            f"  telemetry: {telemetry.url('/metrics')}"
            " (/snapshot.json, /healthz)",
            file=sys.stderr,
        )

    report = asyncio.run(
        run_self_drive(
            serve_config,
            load,
            record_path=args.record,
            telemetry_port=args.serve_metrics,
            algorithm=algorithm,
            on_telemetry=(
                on_telemetry if args.serve_metrics is not None else None
            ),
        )
    )
    print(report.render_text())
    return 0 if report.ok else 1


def _cmd_leak_audit(args) -> int:
    from .faults.audit import audit_leaks, audit_stack
    from .lifecycle.metrics import Retention, count_interned
    from .obs.metrics import MetricsRegistry
    from .obs.watchdog import HealthWatchdog, default_rules
    from .workload.adversarial import ChurnStormWorkload, SynFloodWorkload

    storm = _given(args, ChurnStormWorkload)
    failures = []

    # Every cell's live-vs-interned pair also lands in a registry, so
    # the retained-entries SLO rule re-judges the campaign with the
    # exact logic /healthz uses (informational; the audits decide).
    registry = MetricsRegistry()
    watchdog = HealthWatchdog(
        default_rules(retention_grace=float(args.grace))
    )

    def record_retention(algorithm, spec, seed, phase):
        registry.publish(
            Retention(algorithm, spec), seed=str(seed), phase=phase
        )

    def check(label, audit):
        print(f"  {audit.describe()}")
        if not audit.ok:
            failures.append(label)

    for spec in args.algorithms:
        for seed in args.seeds:
            label = f"{spec} seed={seed}"
            print(f"churn-storm: {label}")
            algorithm = make_algorithm(spec)
            result = ChurnStormWorkload(algorithm, seed=seed, **storm).run()
            print(f"  {result.summary()}")
            record_retention(algorithm, spec, seed, "churn")
            check(f"churn {label}", audit_leaks(algorithm, grace=args.grace))
            # Drain the survivors: with every connection gone, the
            # intern tables must be empty -- the PR 4 leak in one line.
            for pcb in list(algorithm):
                algorithm.remove(pcb.four_tuple)
            drained = count_interned(algorithm)
            status = "OK" if not drained else f"LEAK ({drained} retained)"
            print(f"  drained: live=0 interned={drained or 0}, {status}")
            if drained:
                failures.append(f"drain {label}")

            if args.skip_flood:
                continue
            print(f"syn-flood: {label}")
            flood = SynFloodWorkload(
                algorithm=make_algorithm(spec),
                max_connections=64,
                overflow_policy="evict-oldest-embryonic",
                idle_timeout=5.0,
                time_wait_timeout=0.5,
                seed=seed,
            )
            flood_result = flood.run()
            print(f"  {flood_result.summary()}")
            reaped = flood.server.reaped
            print(
                f"  reaped: idle={reaped['idle']}"
                f" time-wait={reaped['time-wait']}"
            )
            record_retention(flood.server.demux, spec, seed, "flood")
            check(f"flood {label} (stack)", audit_stack(flood.server))
            check(
                f"flood {label} (leaks)",
                audit_leaks(flood.server.demux, grace=args.grace),
            )

    health = watchdog.evaluate(registry)
    print(f"watchdog: {health.describe()}")
    if failures:
        print(f"leak-audit: {len(failures)} FAILURE(S): {', '.join(failures)}")
        return 1
    print("leak-audit: all cells OK")
    return 0


def _cmd_hash_balance(args) -> int:
    from .hashing.analysis import compare_functions
    from .hashing.functions import HASH_FUNCTIONS
    from .workload.tpca import TPCAConfig

    config = TPCAConfig(n_users=args.users)
    keys = [config.user_tuple(i) for i in range(args.users)]
    print(
        f"{args.users} TPC/A connections over {args.chains} chains"
        f" (ideal scan {(args.users / args.chains + 1) / 2:.2f}):"
    )
    for name, balance in compare_functions(HASH_FUNCTIONS, keys, args.chains):
        print(f"  {name:<18} {balance.summary()}")
    return 0


def _cmd_pcap(args) -> int:
    from .sim.pcap import PcapReader

    records = PcapReader(args.file).read_all()
    if not records:
        print(f"{args.file}: empty capture")
        return 0
    first, last = records[0][0], records[-1][0]
    total_bytes = sum(packet.wire_length for _, packet in records)
    pure_acks = sum(1 for _, packet in records if packet.is_pure_ack)
    print(f"{args.file}: {len(records)} packets,"
          f" {total_bytes} IP bytes,"
          f" {last - first:.6f}s span")
    print(f"  pure acks: {pure_acks},"
          f" data/control: {len(records) - pure_acks}")
    if args.flows:
        flows = {}
        for _, packet in records:
            # Normalize both directions onto one flow key.
            tup = packet.four_tuple
            key = min(
                (str(tup.local_addr), tup.local_port,
                 str(tup.remote_addr), tup.remote_port),
                (str(tup.remote_addr), tup.remote_port,
                 str(tup.local_addr), tup.local_port),
            )
            entry = flows.setdefault(key, {"packets": 0, "bytes": 0})
            entry["packets"] += 1
            entry["bytes"] += len(packet.tcp.payload)
        print(f"  {len(flows)} flows:")
        for key, entry in sorted(flows.items()):
            a_addr, a_port, b_addr, b_port = key
            print(
                f"    {a_addr}:{a_port} <-> {b_addr}:{b_port}:"
                f" {entry['packets']} pkts,"
                f" {entry['bytes']} payload bytes"
            )
    return 0


def _cmd_recovery_drill(args) -> int:
    import json as json_module
    import pathlib

    from .recovery import DrillConfig, run_recovery_drill

    result = run_recovery_drill(DrillConfig(**_given(args, DrillConfig)))

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    text = result.render_text()
    (outdir / "recovery_drill.txt").write_text(text + "\n")
    (outdir / "recovery_drill.json").write_text(
        json_module.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"
    )
    print(text)
    print(f"  artifacts written to {outdir}/recovery_drill.{{txt,json}}")
    return 0 if result.ok else 1


def _cmd_run_all(args) -> int:
    from .experiments.runner import run_all

    outdir = run_all(
        args.out,
        include_simulation=not args.no_simulation,
        progress=lambda msg: print(f"  ... {msg}", file=sys.stderr),
        **_given(args, run_all),
    )
    print(f"artifacts written to {outdir}/")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
