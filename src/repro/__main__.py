"""Command-line front door: ``python -m repro <command>``.

Commands:

* ``info``     — print Table I (machine) and Table II (variants)
* ``spectre``  — run the Spectre V1 penetration test across all configs
* ``interfere`` — run the forward-speculative-interference penetration
                 test (squashed-path resource contention) across all configs
* ``run``      — run one workload under one configuration and print metrics
* ``sweep``    — the full evaluation sweep (Figures 6/7/8, Table III),
                 parallel (``--jobs N``) and cached (``.repro-cache/``,
                 disable with ``--no-cache``), with an optional JSONL
                 event log (``--events``), per-run wall-clock kills
                 (``--timeout``), retries for transient failures
                 (``--retries``), and resumable runs
                 (``--journal`` + ``--resume``)
* ``lint``     — run the sdolint invariant checkers (oblivious-timing,
                 stat-key, determinism, event-schema)
                 against the committed ratchet baseline
* ``scan``     — run the static speculative-taint gadget scanner over
                 the bundled corpus (and any extra program JSON files)
                 against its own ratchet baseline
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.common.config import AttackModel
from repro.common.durable import CorruptLogError
from repro.eval.report import render_table, to_csv
from repro.eval.tables import render_table1, render_table2
from repro.sim.api import Instrumentation, Session
from repro.sim.policies import CachePolicy, ExecutionPolicy, JournalPolicy
from repro.sim.configs import EVALUATED_CONFIGS, SDO_CONFIG_NAMES, config_by_name
from repro.sim.events import JsonlEventLog, ProgressLine
from repro.workloads.spec17 import SPEC17_NAMES, suite, workload_by_name


def _cmd_info(_args) -> int:
    print(render_table1())
    print(render_table2())
    names = ", ".join(SPEC17_NAMES)
    print(f"workloads: {names}")
    return 0


def _cmd_spectre(args) -> int:
    from repro.security.spectre_v1 import run_spectre_v1

    rows = []
    for config in EVALUATED_CONFIGS:
        result = run_spectre_v1(config, AttackModel(args.model), secret=args.secret)
        rows.append([config.name, "LEAKED" if result.leaked else "blocked",
                     result.recovered if result.recovered is not None else "-"])
    print(render_table(["configuration", "outcome", "recovered"], rows,
                       title=f"Spectre V1, secret={args.secret}, model={args.model}"))
    return 0


def _cmd_interfere(args) -> int:
    from repro.security.forward_interference import run_forward_interference

    rows = []
    for config in EVALUATED_CONFIGS:
        result = run_forward_interference(config, AttackModel(args.model))
        divergence = result.divergence
        rows.append([
            config.name,
            "LEAKED" if result.leaked else "blocked",
            f"{result.delta_cycles:+d}",
            (f"event {divergence.event_index}: "
             f"{divergence.baseline_event} != {divergence.divergent_event}")
            if divergence is not None else "-",
        ])
    print(render_table(
        ["configuration", "outcome", "cycle delta", "first trace divergence"],
        rows,
        title=f"forward speculative interference, model={args.model}",
    ))
    return 0


def _session_from(args, observers=()) -> Session:
    journal_path = getattr(args, "journal", None)
    return Session(
        execution=ExecutionPolicy(
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            replay=getattr(args, "replay", False),
        ),
        cache=CachePolicy(
            enabled=not args.no_cache,
            cache_dir=str(args.cache_dir) if args.cache_dir else None,
        ),
        journal=JournalPolicy(
            path=str(journal_path) if journal_path else None,
            resume=getattr(args, "resume", False),
        ),
        observers=observers,
    )


def _instrumentation_from(args) -> Instrumentation | None:
    """Build the run's :class:`Instrumentation` from ``--trace``/``--profile``."""
    trace_jsonl = trace_konata = None
    if args.trace:
        base = args.trace
        if args.trace_format in ("jsonl", "both"):
            trace_jsonl = base + ".jsonl" if args.trace_format == "both" else base
        if args.trace_format in ("konata", "both"):
            trace_konata = base + ".konata" if args.trace_format == "both" else base
    if trace_jsonl is None and trace_konata is None and not args.profile:
        return None
    return Instrumentation(
        trace_jsonl=trace_jsonl, trace_konata=trace_konata, profile=args.profile
    )


def _print_stall_breakdown(metrics) -> None:
    stall = {
        key[len("core.stall."):]: int(value)
        for key, value in metrics.stats.items()
        if key.startswith("core.stall.")
    }
    if not stall:
        return
    active = int(metrics.stats.get("core.commit_active_cycles", 0))
    print(f"  commit-active cycles {active} / {metrics.cycles}")
    print("  stall attribution (cycles the ROB head kept commit idle):")
    for reason, cycles in sorted(stall.items(), key=lambda kv: -kv[1]):
        if cycles:
            print(f"    {reason:<16s} {cycles:>10d}  ({cycles / metrics.cycles:.1%})")


def _print_profile(metrics) -> None:
    phases = {
        key[len("profile."):]: value
        for key, value in metrics.stats.items()
        if key.startswith("profile.")
    }
    if not phases:
        return
    print("  host-side profile:")
    for name, value in sorted(phases.items()):
        unit = "s" if name.endswith("_s") else ""
        print(f"    {name:<16s} {value:>12.3f}{unit}")


def _cmd_run(args) -> int:
    workload = workload_by_name(args.workload)
    config = config_by_name(args.config)
    session = _session_from(args)
    instrumentation = _instrumentation_from(args)
    metrics = session.run(
        workload, config, AttackModel(args.model), instrumentation=instrumentation
    )
    print(f"{workload.name} under {config.name} ({args.model}):")
    print(f"  cycles       {metrics.cycles}")
    print(f"  instructions {metrics.instructions}")
    print(f"  IPC          {metrics.ipc:.3f}")
    if metrics.stats.get("stt.sdo.predictions"):
        print(f"  precision    {metrics.predictor_precision:.1%}")
        print(f"  accuracy     {metrics.predictor_accuracy:.1%}")
        print(f"  SDO squashes {metrics.squashes:.0f}")
    _print_stall_breakdown(metrics)
    _print_profile(metrics)
    if instrumentation is not None and instrumentation.traced:
        for path in (instrumentation.trace_jsonl, instrumentation.trace_konata):
            if path is not None:
                print(f"trace written to {path}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.eval.figure6 import build_figure6
    from repro.eval.figure7 import build_figure7
    from repro.eval.figure8 import build_figure8
    from repro.eval.tables import render_table3, table3_rows

    workloads = suite(scale=args.scale)
    if args.workloads:
        wanted = [name.strip() for name in args.workloads.split(",") if name.strip()]
        by_name = {w.name: w for w in workloads}
        missing = [name for name in wanted if name not in by_name]
        if missing:
            raise KeyError(f"unknown workloads: {missing}; available: {sorted(by_name)}")
        workloads = tuple(by_name[name] for name in wanted)

    if args.configs:
        config_names = [name.strip() for name in args.configs.split(",") if name.strip()]
    else:
        config_names = [c.name for c in EVALUATED_CONFIGS]
    if "Unsafe" not in config_names:  # every figure normalizes to Unsafe
        config_names.insert(0, "Unsafe")
    configs = [config_by_name(name) for name in config_names]

    models = {
        "spectre": (AttackModel.SPECTRE,),
        "futuristic": (AttackModel.FUTURISTIC,),
        "both": (AttackModel.SPECTRE, AttackModel.FUTURISTIC),
    }[args.models]

    observers = [ProgressLine()]
    event_log = JsonlEventLog(args.events) if args.events else None
    if event_log is not None:
        observers.append(event_log)

    session = _session_from(args, observers=observers)
    try:
        results = session.sweep(workloads, configs=configs, attack_models=models)
    finally:
        session.close()
        if event_log is not None:
            event_log.close()

    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    figure6 = build_figure6(results)
    for model in models:
        print(figure6.render(model))
        if out_dir is not None:
            csv_rows = [
                [workload]
                + [figure6.data[model][config][workload] for config in figure6.configs]
                for workload in figure6.workloads
            ]
            (out_dir / f"figure6_{model.value}.csv").write_text(
                to_csv(["benchmark"] + list(figure6.configs), csv_rows)
            )

    sdo_present = tuple(n for n in SDO_CONFIG_NAMES if n in config_names)
    if sdo_present:
        figure7 = build_figure7(results, configs=sdo_present)
        figure8 = build_figure8(results, sdo_present)
        for model in models:
            print(figure7.render(model))
            print(figure8.render(model))
        if table3_rows(results):
            print(render_table3(results))

    if event_log is not None:
        print(f"event log written to {event_log.path}")
    if args.journal:
        print(f"sweep journal written to {args.journal}")
    if out_dir is not None:
        print(f"CSV artifacts written to {out_dir}/")
    return 0


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for simulation runs (default 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default .repro-cache/)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget; a stuck run's worker is killed and "
             "the cell is recorded as a 'timeout' failure",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="extra attempts for transient failures (crash/timeout), with "
             "exponential backoff (default 0)",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="print machine and variant tables")

    spectre = sub.add_parser("spectre", help="run the Spectre V1 penetration test")
    spectre.add_argument("--secret", type=int, default=5)
    spectre.add_argument("--model", choices=["spectre", "futuristic"], default="spectre")

    interfere = sub.add_parser(
        "interfere",
        help="run the forward-speculative-interference penetration test",
    )
    interfere.add_argument(
        "--model", choices=["spectre", "futuristic"], default="spectre"
    )

    run = sub.add_parser("run", help="run one workload under one configuration")
    run.add_argument("workload")
    run.add_argument("config")
    run.add_argument("--model", choices=["spectre", "futuristic"], default="spectre")
    run.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a cycle trace to FILE (instrumented runs bypass the cache)",
    )
    run.add_argument(
        "--trace-format", choices=["jsonl", "konata", "both"], default="jsonl",
        help="trace format; 'both' writes FILE.jsonl and FILE.konata",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="measure wall time per phase and print profile.* stats",
    )
    _add_engine_options(run)

    sweep = sub.add_parser(
        "sweep", help="run the evaluation sweep and print Figures 6/7/8 + Table III"
    )
    sweep.add_argument(
        "--scale", type=float, default=1.0,
        help="scale workload iteration counts (e.g. 0.25 for a quick pass)",
    )
    sweep.add_argument(
        "--workloads", default=None,
        help="comma-separated workload names (default: the whole suite)",
    )
    sweep.add_argument(
        "--configs", default=None,
        help="comma-separated Table II config names (Unsafe is always added)",
    )
    sweep.add_argument(
        "--models", choices=["spectre", "futuristic", "both"], default="both",
    )
    sweep.add_argument(
        "--events", default=None, metavar="FILE",
        help="write a JSONL run-lifecycle event log (suffix: .events.jsonl)",
    )
    sweep.add_argument(
        "--out", default=None, metavar="DIR", help="write CSV artifacts here",
    )
    sweep.add_argument(
        "--journal", default=None, metavar="FILE",
        help="record terminal outcomes to a JSONL sweep journal (suffix: "
             ".journal) so an interrupted sweep can be resumed",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="load the --journal before running and skip every cell it "
             "already holds",
    )
    sweep.add_argument(
        "--replay", action="store_true",
        help="record each workload's architectural trace once and replay "
             "it across every config/model cell sharing it (bit-identical "
             "metrics; traces are stored beside the result cache)",
    )
    _add_engine_options(sweep)

    from repro.lint.cli import add_lint_arguments

    lint = sub.add_parser(
        "lint", help="run the sdolint invariant checkers (ratcheted gate)"
    )
    add_lint_arguments(lint)

    from repro.scan.cli import add_scan_arguments

    scan = sub.add_parser(
        "scan", help="run the static gadget scanner (ratcheted gate)"
    )
    add_scan_arguments(scan)

    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not getattr(args, "journal", None):
        parser.error("--resume requires --journal FILE")
    if args.command == "lint":
        from repro.lint.cli import run_lint_command

        return run_lint_command(args)
    if args.command == "scan":
        from repro.scan.cli import run_scan_command

        return run_scan_command(args)
    handlers = {
        "info": _cmd_info,
        "spectre": _cmd_spectre,
        "interfere": _cmd_interfere,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except CorruptLogError as exc:  # a damaged sweep journal
        print(f"error: {exc}", file=sys.stderr)
        print(f"hint: move {exc.source} aside and rerun to start afresh", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
