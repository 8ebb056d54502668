"""Command-line entry point: experiments plus the streaming runtime.

Usage::

    python -m repro list                # available experiments
    python -m repro --list              # same, as a flag
    python -m repro fig5                # one experiment
    python -m repro all                 # everything (a few minutes)
    REPRO_SCALE=8 python -m repro fig5  # paper-scale aggregation run

    python -m repro loadtest --rate 50 --duration 600 --seed 42
    python -m repro serve --rate 20 --duration 2880 --report-every 96
    python -m repro serve --driver wallclock --slices-per-second 8 --duration 96
    python -m repro loadtest --config run.json --seed 7   # flags beat the file
    python -m repro loadtest --brps 4 --rate 50 --duration 192   # cluster + TSO
    python -m repro serve --cluster cluster.json --report-every 96

    python -m repro loadtest --brps 4 --trace run.jsonl   # structured event log
    python -m repro inspect run.jsonl                     # per-stage breakdown
    python -m repro inspect run.jsonl --offer 42          # one offer's chain
    python -m repro loadtest --metrics --metrics-format prometheus
    python -m repro loadtest --metrics-json metrics.json

    python -m repro loadtest --ledger led/ --duplicate-rate 0.1   # durable + chaos
    python -m repro loadtest --brps 3 --ledger led/ --outage brp-1:20:36

Trigger kinds, drivers and metrics formats are names in the tables of the
layers that read them (``--list`` prints them); unknown names exit ``2``
with the known set.

Exit codes: ``0`` success, ``1`` an experiment raised, ``2`` unknown
experiment/trigger/driver/exporter name or bad config file (argparse usage
errors also exit ``2``).
"""

from __future__ import annotations

import argparse
import sys
import traceback
import typing
from typing import Callable

from .experiments import (
    run_aggregation_scheduling_interplay,
    run_balancing,
    run_exhaustive,
    run_fig4a,
    run_fig4b,
    run_fig5,
    run_fig6,
    run_forecast_scheduling_interplay,
    run_pubsub_savings,
)
from .experiments.ablations import (
    run_flexibility_influence,
    run_hybrid_scheduling,
    run_price_grouping,
)
from .experiments.hierarchy_forecasting import run_hierarchy_forecasting

EXIT_OK = 0
EXIT_EXPERIMENT_FAILED = 1
EXIT_UNKNOWN_EXPERIMENT = 2

EXPERIMENTS: dict[str, tuple[Callable[[], object], str]] = {
    "fig4a": (run_fig4a, "estimator accuracy vs estimation time (Fig. 4a)"),
    "fig4b": (run_fig4b, "forecast accuracy vs horizon, demand vs wind (Fig. 4b)"),
    "fig5": (run_fig5, "aggregation: compression / time / loss / disagg (Fig. 5)"),
    "fig6": (run_fig6, "scheduling cost over time, GS vs EA (Fig. 6)"),
    "exhaustive": (run_exhaustive, "exact optimum vs metaheuristics, 10 offers (§6)"),
    "balancing": (run_balancing, "end-to-end balancing day (Fig. 1)"),
    "interplay-agg": (
        run_aggregation_scheduling_interplay,
        "aggregation thresholds vs scheduling (§8)",
    ),
    "interplay-forecast": (
        run_forecast_scheduling_interplay,
        "forecast error vs schedule cost (§8)",
    ),
    "pubsub": (run_pubsub_savings, "publish-subscribe notification savings (§5)"),
    "hierarchy": (
        run_hierarchy_forecasting,
        "hierarchical forecasting advisor (§5)",
    ),
    "flexibility": (
        run_flexibility_influence,
        "start-time flexibility vs scheduling difficulty (§6 direction)",
    ),
    "hybrid": (run_hybrid_scheduling, "greedy-seeded hybrid EA (§6 direction)"),
    "price-grouping": (
        run_price_grouping,
        "price-aware aggregation grouping (§4 direction)",
    ),
}

#: Runtime subcommands handled by their own parsers (not experiment names).
RUNTIME_COMMANDS: dict[str, str] = {
    "serve": "run the streaming BRP service loop",
    "loadtest": "replay a Poisson offer stream and report",
    "inspect": "per-stage/per-BRP breakdown (or one offer's chain) of a trace",
}


def _print_catalogue() -> None:
    from .aggregation.pipeline import ENGINES
    from .obs.export import EXPORTERS
    from .runtime.drivers import DRIVERS
    from .runtime.triggers import TRIGGERS

    width = max(len(name) for name in EXPERIMENTS)
    for name, (_, description) in EXPERIMENTS.items():
        print(f"{name.ljust(width)}  {description}")
    width = max(len(name) for name in RUNTIME_COMMANDS)
    print()
    print("runtime subcommands (see --help of each):")
    for name, description in RUNTIME_COMMANDS.items():
        print(f"{name.ljust(width)}  {description}")
    print()
    print("names (kind  name  description):")
    for kind, table in (
        ("aggregation", ENGINES),
        ("driver", DRIVERS),
        ("exporter", EXPORTERS),
        ("trigger", TRIGGERS),
    ):
        for name, (_, description) in sorted(table.items()):
            print(f"{kind:<12} {name:<12} {description}")


# ----------------------------------------------------------------------
# runtime subcommands
# ----------------------------------------------------------------------
#: Flags that set a :class:`~repro.runtime.config.ServiceConfig` field:
#: flag -> (section, field, help).  Each default and type is read off a
#: default ``ServiceConfig()``'s section, and the config is built with
#: ``ServiceConfig.from_dict``, so the CLI and the library cannot
#: disagree.  ``--seed`` seeds the scheduler too, but it also seeds the
#: stream, so it stays a flag of its own.
SERVICE_FLAGS: dict[str, tuple[str, str, str]] = {
    "--batch": (
        "ingest",
        "batch_size",
        "optional cap on pending updates per incremental aggregation run; "
        "unset, the batch waits for the flush before the next planning run "
        "(or a sweep that retires offers, or the drain)",
    ),
    "--horizon": (
        "scheduling", "horizon_slices", "rolling scheduling horizon in slices",
    ),
    "--passes": (
        "scheduling", "scheduler_passes", "greedy passes per scheduling run",
    ),
    "--min-run-interval": (
        "scheduling",
        "min_run_interval_slices",
        "cooldown between scheduling runs (slices)",
    ),
    "--target-p95-slices": (
        "scheduling",
        "target_p95_slices",
        "closed-loop latency target: an adaptive trigger at each BRP and "
        "at the TSO steers its count/age thresholds toward this p95 "
        "(slices)",
    ),
}


def _runtime_parser(command: str) -> argparse.ArgumentParser:
    from .ledger import FSYNC_MODES
    from .runtime.config import ServiceConfig

    parser = argparse.ArgumentParser(
        prog=f"python -m repro {command}",
        description=(
            "Run the event-driven BRP runtime against a Poisson flex-offer "
            "stream (simulated time by default — deterministic for a fixed "
            "seed — or real time via --driver wallclock)."
        ),
    )
    parser.add_argument(
        "--config", metavar="FILE.json", default=None,
        help=(
            "JSON file of defaults for any of these flags (keys are the "
            "flag names with '-' as '_'); explicit flags win over the file"
        ),
    )
    parser.add_argument(
        "--rate", type=float, default=50.0,
        help="mean offer arrivals per simulated hour (default 50)",
    )
    parser.add_argument(
        "--duration", type=float, default=600.0,
        help="simulated slices to run (default 600 = 6.25 days at 15 min)",
    )
    parser.add_argument("--seed", type=int, default=42, help="stream + scheduler seed")
    config = ServiceConfig()
    for flag, (section, name, text) in SERVICE_FLAGS.items():
        values = getattr(config, section)
        hint = typing.get_type_hints(type(values))[name]
        # An optional field's flag parses to the type beside None.
        (kind,) = [t for t in typing.get_args(hint) or (hint,) if t is not type(None)]
        parser.add_argument(
            flag, default=getattr(values, name), type=kind,
            help=f"{text}; default %(default)s, from ServiceConfig "
            f"{section}.{name}",
        )
    parser.add_argument(
        "--trigger", metavar="SPEC", action="append", default=None,
        help="trigger policy spec 'kind' or 'kind:key=val,...' "
        "(e.g. 'count:threshold=100', 'age:max_age_slices=8'); "
        "repeatable — a run fires when any of the given specs fires; "
        "default: the library's count/age/imbalance policy "
        "(repro.runtime.config.default_trigger); --target-p95-slices "
        "replaces it with the adaptive one, at the BRPs and at the TSO",
    )
    parser.add_argument(
        "--driver", default="simulated",
        help="time driver: 'simulated' (deterministic) "
        "or 'wallclock' (real time)",
    )
    parser.add_argument(
        "--slices-per-second", type=float, default=4.0,
        help="wallclock driver pacing: slice units per wall second "
        "(ignored for --driver simulated)",
    )
    parser.add_argument(
        "--brps", type=int, default=1,
        help="run a multi-node cluster of this many identically configured "
        "BRPs plus a TSO tier over the message bus (1 = single service)",
    )
    parser.add_argument(
        "--cluster", metavar="FILE.json", default=None,
        help="JSON cluster config (per-BRP service sections + tso section; "
        "see repro.api.ClusterConfig.from_dict); implies cluster mode and "
        "is mutually exclusive with --brps.  Service flags (--batch, "
        "--horizon, --passes, ...) supply the base config; the file's "
        "sections override where they speak",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="cluster mode: run the BRPs in N worker processes behind the "
        "bus seam (shared-memory macro snapshots, TSO in the parent); "
        "requires --driver simulated, incompatible with --outage "
        "(default 0 = single-process cluster)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="also dump the full metrics registry",
    )
    parser.add_argument(
        "--metrics-format", default="text",
        help="exposition format for --metrics: "
        "'text', 'json' or 'prometheus'",
    )
    parser.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="write a JSON metrics snapshot (as_dict) to PATH after the run",
    )
    parser.add_argument(
        "--trace", metavar="FILE.jsonl", default=None,
        help="record the structured event log (spans, offer lifecycle, bus, "
        "triggers) to FILE.jsonl; see repro.obs.EVENT_SCHEMA",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="stream the structured event log to stdout as JSON lines "
        "(the report moves to stderr)",
    )
    parser.add_argument(
        "--trace-sample", type=int, default=1, metavar="N",
        help="offer-lifecycle sampling stride: trace offers whose id is "
        "divisible by N (default 1 = every offer; macro events are always "
        "traced)",
    )
    parser.add_argument(
        "--ledger", metavar="DIR", default=None,
        help="journal every state-changing ingest fact to a durable "
        "segmented JSONL event log under DIR (cluster mode: one DIR/<brp> "
        "subdirectory per node); enables idempotent ingest and "
        "crash-recovery via 'repro.api.LedmsClient.resume_from_ledger'",
    )
    parser.add_argument(
        "--fsync", default="commit", metavar="MODE", choices=FSYNC_MODES,
        help="ledger durability mode: 'commit' (fsync every append call: "
        "each input fact, each planning pass's facts; default), 'close' "
        "(fsync on segment close) or 'never'",
    )
    parser.add_argument(
        "--duplicate-rate", type=float, default=0.0, metavar="P",
        help="fault injection: re-emit this fraction of arrivals later "
        "(at-least-once delivery; 0..1, default 0)",
    )
    parser.add_argument(
        "--reorder-window", type=float, default=0.0, metavar="SLICES",
        help="fault injection: shuffle offers within windows of this many "
        "slices (out-of-order delivery; default 0 = in order)",
    )
    parser.add_argument(
        "--outage", metavar="BRP:START:END", action="append", default=None,
        help="fault injection (cluster mode only): make BRP unreachable on "
        "the bus from slice START to END; repeatable, parked messages "
        "replay on recovery",
    )
    parser.add_argument(
        "--bus-retries", type=int, default=0, metavar="N",
        help="cluster mode: redeliver undeliverable bus messages up to N "
        "times with exponential backoff before parking them (default 0 = "
        "best-effort drop; overrides a --cluster file's bus section)",
    )
    if command == "serve":
        parser.add_argument(
            "--report-every", type=float, default=None,
            help="simulated slices between progress lines (default 96; "
            "not available with --workers)",
        )
    return parser


def _load_config_file(
    parser: argparse.ArgumentParser, command: str, argv: list[str]
) -> str | None:
    """Fold ``--config FILE.json`` values into the parser's defaults.

    File values become argparse *defaults*, so flags given explicitly on
    the command line always win.  Unknown keys are an error (exit 2), with
    the known flag set in the message, and so is a value its flag would not
    take on the command line.  Returns an error string instead of raising
    so the caller owns the exit path.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    args, _ = probe.parse_known_args(argv)
    if args.config is None:
        return None
    flags = {
        action.dest: action
        for action in parser._actions
        if action.dest not in ("help", "config")
    }
    values, error = _read_json_object(args.config, "--config")
    if error is not None:
        return error
    values = {key.replace("-", "_"): value for key, value in values.items()}
    unknown = sorted(set(values) - set(flags))
    if unknown:
        return (
            f"unknown {command} config keys {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(sorted(flags))}"
        )
    for key, value in values.items():
        try:
            values[key] = _config_value(flags[key], value)
        except ValueError as exc:
            return f"bad value for {command} config key {key!r}: {exc}"
    parser.set_defaults(**values)
    return None


def _read_json_object(path: str, flag: str):
    """``(object, None)`` from a ``--config``/``--cluster`` JSON file, or
    ``(None, error)``."""
    import json

    try:
        with open(path) as handle:
            value = json.load(handle)
    except OSError as exc:
        return None, f"cannot read {flag} file: {exc}"
    except json.JSONDecodeError as exc:
        return None, f"{flag} file is not valid JSON: {exc}"
    if not isinstance(value, dict):
        return None, f"{flag} file must hold a JSON object"
    return value, None


def _config_value(flag: argparse.Action, value):
    """One ``--config`` value, through its flag's own ``type``/``action``.

    Scalars travel as the text the command line would have carried, so the
    file accepts exactly what the flag does; a repeatable flag takes a list
    (or one scalar, wrapped — never iterated), an on/off flag a JSON bool.
    """
    if value is None and flag.default is None:
        return None
    if isinstance(flag, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise ValueError(f"expected true or false, got {value!r}")
        return value
    repeatable = isinstance(flag, argparse._AppendAction)
    converted = []
    for item in value if repeatable and isinstance(value, list) else [value]:
        if isinstance(item, (bool, list, dict)) or item is None:
            raise ValueError(f"expected one value, got {item!r}")
        item = item if isinstance(item, str) else repr(item)
        if flag.type is not None:
            item = flag.type(item)
        if flag.choices is not None and item not in flag.choices:
            raise ValueError(
                f"{item!r} is not one of {', '.join(map(repr, flag.choices))}"
            )
        converted.append(item)
    return converted if repeatable else converted[0]


def _parse_trigger_spec(spec: str):
    """``'kind'`` or ``'kind:key=val,...'`` to a :func:`build_trigger` mapping.

    Values parse as int, then float, then bool literal, else string; the
    kind itself is validated downstream against the trigger table so the
    rejection message always carries the known name set.
    """
    from .core.errors import ServiceError

    kind, _, params = spec.partition(":")
    kind = kind.strip()
    if not kind:
        raise ServiceError(f"empty trigger kind in spec {spec!r}")
    mapping: dict = {"kind": kind}
    if params:
        for pair in params.split(","):
            key, eq, raw = pair.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ServiceError(
                    f"bad trigger spec {spec!r}: expected 'kind:key=val,...'"
                    f", got parameter {pair!r}"
                )
            raw = raw.strip()
            value: object
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = {"true": True, "false": False}.get(raw.lower(), raw)
            mapping[key] = value
    return mapping


def _usage_error(message: str) -> int:
    """Report a rejected invocation on stderr; returns its exit code."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_UNKNOWN_EXPERIMENT


def _run_runtime(command: str, argv: list[str]) -> int:
    from .api import LedmsClient, ServiceConfig, WorkerCrashError
    from .core.errors import ServiceError, choose
    from .obs.export import EXPORTERS
    from .runtime.drivers import DRIVERS
    from .runtime import parse_outage

    parser = _runtime_parser(command)
    error = _load_config_file(parser, command, argv)
    if error is not None:
        return _usage_error(error)
    args = parser.parse_args(argv)

    if args.cluster is not None and args.brps != 1:
        return _usage_error("--cluster and --brps are mutually exclusive")
    if args.brps <= 0:
        return _usage_error(f"--brps must be positive, got {args.brps}")
    cluster_mode = args.cluster is not None or args.brps > 1

    # Fault-injection and durability knobs are validated up front so a bad
    # spec never starts a (potentially long) run.
    if not 0.0 <= args.duplicate_rate <= 1.0:
        return _usage_error(
            f"--duplicate-rate must be in [0, 1], got "
            f"{args.duplicate_rate}"
        )
    if args.reorder_window < 0.0:
        return _usage_error(
            f"--reorder-window must be >= 0, got {args.reorder_window}"
        )
    if args.bus_retries < 0:
        return _usage_error(
            f"--bus-retries must be >= 0, got {args.bus_retries}"
        )
    if args.workers < 0:
        return _usage_error(f"--workers must be >= 0, got {args.workers}")
    report_every = getattr(args, "report_every", None)
    if args.workers > 0:
        if not cluster_mode:
            return _usage_error(
                "--workers needs cluster mode (--brps K or --cluster)"
            )
        if args.driver != "simulated":
            return _usage_error(
                "--workers requires --driver simulated (worker "
                "processes own simulated clocks)"
            )
        if args.outage:
            return _usage_error(
                "--outage is not supported with --workers (the fault "
                "harness runs on the single-process cluster)"
            )
        if report_every is not None:
            return _usage_error(
                "--report-every is not supported with --workers (the "
                "BRPs it reports on live in the worker processes)"
            )
    elif command == "serve" and report_every is None:
        report_every = 96.0
    outages = []
    if args.outage:
        if not cluster_mode:
            return _usage_error(
                "--outage needs cluster mode (--brps K or --cluster)"
            )
        for spec in args.outage:
            try:
                outages.append(parse_outage(spec))
            except ServiceError as exc:
                return _usage_error(str(exc))
    cluster_spec = None
    if args.cluster is not None:
        cluster_spec, error = _read_json_object(args.cluster, "--cluster")
        if error is not None:
            return _usage_error(error)

    # With --log-json the event stream owns stdout; everything human-facing
    # moves to stderr.
    out = sys.stderr if args.log_json else sys.stdout
    try:
        # Unknown trigger/driver/exporter names raise a ServiceError
        # carrying the known names.
        sections: dict = {"scheduling": {"seed": args.seed}}
        for flag, (section, name, _) in SERVICE_FLAGS.items():
            value = getattr(args, flag[2:].replace("-", "_"))
            sections.setdefault(section, {})[name] = value
        if args.trigger:
            sections["scheduling"]["trigger"] = [
                _parse_trigger_spec(spec) for spec in args.trigger
            ]
        config = ServiceConfig.from_dict(sections)
        driver_kwargs = (
            {"slices_per_second": args.slices_per_second}
            if args.driver == "wallclock"
            else {}
        )
        driver = choose(DRIVERS, "driver", args.driver)(**driver_kwargs)
        render = choose(EXPORTERS, "exporter", args.metrics_format)
        tracer, writers = _build_tracer(args)
        if cluster_mode:
            node = _build_cluster(
                args, config, cluster_spec, driver, tracer, outages
            )
            arrivals = {
                name: _stream(args, index)
                for index, name in enumerate(node.config.brps)
            }
            placement = (
                f" across {args.workers} worker processes"
                if args.workers > 0
                else ""
            )
            scope = (
                f"cluster of {len(arrivals)} BRPs + TSO{placement}, "
                f"rate={args.rate}/h per BRP,"
            )
            run, shutdown = node.run, node.trace_shutdown
        else:
            node = LedmsClient(
                config, driver=driver, tracer=tracer, ledger=_make_ledger(args)
            )
            arrivals, scope = _stream(args), f"rate={args.rate}/h"
            run, shutdown = node.run_stream, node.service.trace_shutdown
    except ServiceError as exc:
        return _usage_error(f"invalid {command} configuration: {exc}")
    print(
        f"### {command}: {scope} duration={args.duration} slices "
        f"seed={args.seed} driver={args.driver}",
        file=out,
    )
    try:
        report = run(
            arrivals,
            args.duration,
            report_every=report_every,
            report_sink=lambda line: print(line, file=out),
        )
    except WorkerCrashError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT_FAILED
    except ServiceError as exc:
        return _usage_error(f"invalid {command} configuration: {exc}")
    if tracer is not None:
        shutdown()
    for writer in writers:
        writer.close()
    print(report.as_text(), file=out)
    metrics = node.metrics() if cluster_mode else node.service.metrics
    if args.metrics:
        print(file=out)
        print(render(metrics), file=out, end="")
    if args.metrics_json is not None:
        from .obs import render_metrics_json

        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            handle.write(render_metrics_json(metrics))
            handle.write("\n")
    return EXIT_OK


def _stream(args, index: int = 0):
    """The ``--rate``/``--duration``/fault-flag stream of BRP ``index``,
    seeded ``--seed + index`` (per-BRP traffic differs, the run does not)."""
    from .runtime import LoadGenerator

    seed = args.seed + index
    return LoadGenerator(rate_per_hour=args.rate, seed=seed).hostile_stream(
        0.0,
        args.duration,
        duplicate_rate=args.duplicate_rate,
        reorder_window=args.reorder_window,
        seed=seed,
    )


def _make_ledger(args, name: str | None = None):
    """An :class:`OfferLedger` over ``--ledger DIR`` (or ``None`` without it).

    Cluster mode passes the BRP ``name`` so each node journals into its own
    ``DIR/<name>`` subdirectory — one recoverable log per service.
    """
    if args.ledger is None:
        return None
    import os

    from .ledger import JsonlEventLog, OfferLedger

    directory = args.ledger if name is None else os.path.join(args.ledger, name)
    log = JsonlEventLog(directory, fsync=args.fsync)
    return OfferLedger(log, node=name or "brp")


def _build_tracer(args):
    """The shared tracer (and its JSONL writers) from the trace flags.

    Returns ``(None, [])`` when tracing is off, so services fall back to
    their :class:`~repro.obs.tracing.NullTracer` default.
    """
    if args.trace is None and not args.log_json:
        return None, []
    from .obs import JsonlWriter, Tracer

    writers = []
    if args.trace is not None:
        writers.append(JsonlWriter(args.trace))
    if args.log_json:
        writers.append(JsonlWriter(stream=sys.stdout))
    if len(writers) == 1:
        sink = writers[0]
    else:
        def sink(record, _writers=tuple(writers)):
            for writer in _writers:
                writer(record)

    tracer = Tracer(sample_every=args.trace_sample, sink=sink)
    return tracer, writers


def _build_cluster(args, config, spec, driver, tracer, outages):
    """The cluster of serve/loadtest's multi-node mode: K BRPs + TSO.

    ``--cluster FILE.json`` (already read into ``spec``) supplies per-BRP
    service sections and the TSO section, layered over the flag-derived
    base ``config``; ``--brps K`` replicates ``config`` as-is.  With
    ``--ledger DIR`` each BRP journals into ``DIR/<name>``; ``--outage``
    specs schedule bus-reachability toggles on the shared driver.
    ``--workers N`` only chooses the runtime class: the same cluster with
    its BRPs in N forked worker processes instead of on the one shared
    driver.  Raises :class:`~repro.core.errors.ServiceError` on a bad
    configuration.
    """
    import dataclasses

    from .api import ClusterConfig, ClusterRuntime, ParallelClusterRuntime
    from .runtime import BusConfig, apply_outages

    if spec is not None:
        cluster_config = ClusterConfig.from_dict(spec, base=config)
    else:
        cluster_config = ClusterConfig.uniform(args.brps, config)
    target = config.scheduling.target_p95_slices
    tso = cluster_config.tso
    if target is not None and tso.scheduling.target_p95_slices is None:
        # The latency target reaches both tiers: a --cluster file's tso
        # section wins where it speaks, the flag fills the gap.
        scheduling = dataclasses.replace(
            tso.scheduling, target_p95_slices=target
        )
        cluster_config = dataclasses.replace(
            cluster_config, tso=dataclasses.replace(tso, scheduling=scheduling)
        )
    if args.bus_retries > 0:
        cluster_config = dataclasses.replace(
            cluster_config, bus=BusConfig(max_retries=args.bus_retries)
        )
    ledger_factory = (
        (lambda name: _make_ledger(args, name)) if args.ledger else None
    )
    placement = (
        {"workers": args.workers}
        if args.workers > 0
        else {"driver": driver}
    )
    runtime = ParallelClusterRuntime if args.workers > 0 else ClusterRuntime
    cluster = runtime(
        cluster_config, tracer=tracer, ledger_factory=ledger_factory, **placement
    )
    apply_outages(cluster, outages)
    return cluster


# ----------------------------------------------------------------------
def _run_inspect(argv: list[str]) -> int:
    """``inspect TRACE.jsonl [--offer ID]``: summarize a recorded trace."""
    parser = argparse.ArgumentParser(
        prog="python -m repro inspect",
        description=(
            "Summarize a structured event log recorded with --trace: by "
            "default a per-stage/per-node breakdown (span timings, bus "
            "traffic); with --offer, the causal chain of one offer id "
            "across BRP and TSO nodes."
        ),
    )
    parser.add_argument(
        "trace", metavar="TRACE.jsonl",
        help="event log written by 'serve'/'loadtest' --trace",
    )
    parser.add_argument(
        "--offer", type=int, default=None, metavar="ID",
        help="render the end-to-end causal chain of this offer id",
    )
    args = parser.parse_args(argv)

    from .obs import load_trace, render_breakdown, render_offer_tree

    try:
        events = load_trace(args.trace)
    except OSError as exc:
        return _usage_error(f"cannot read trace file: {exc}")
    except ValueError as exc:
        return _usage_error(f"malformed trace file: {exc}")
    if args.offer is not None:
        print(render_offer_tree(events, args.offer))
    else:
        print(render_breakdown(events))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run the selected experiment(s) or runtime subcommand; returns exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "inspect":
        return _run_inspect(argv[1:])
    if argv and argv[0] in RUNTIME_COMMANDS:
        return _run_runtime(argv[0], argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate experiments from the MIRABEL paper (each "
        "prints the rows its figure plots), or drive the streaming runtime "
        "via the 'serve' / 'loadtest' subcommands.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id, 'all', or 'list' (see --list)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print the experiments and the runtime's names",
    )
    args = parser.parse_args(argv)

    if args.list or args.experiment == "list":
        _print_catalogue()
        return EXIT_OK
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        return _usage_error("no experiment given (try --list)")

    if args.experiment == "all":
        selected = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        selected = [args.experiment]
    else:
        return _usage_error(
            f"unknown experiment {args.experiment!r} "
            "(run 'python -m repro --list' for the list)"
        )

    for name in selected:
        runner, description = EXPERIMENTS[name]
        print(f"\n### {name}: {description}")
        try:
            runner()
        except Exception:
            traceback.print_exc()
            print(f"error: experiment {name!r} failed", file=sys.stderr)
            return EXIT_EXPERIMENT_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
