"""Command-line interface: ``python -m repro <command> ...``.

The CLI mirrors how the paper's tool chain was driven: compile (or take)
a binary, generate a configuration template, edit flags, instrument, run,
and let the automatic search do the whole loop on a benchmark.

Commands
--------
compile     MH sources -> executable image (pickled Program)
run         execute a program (optionally multi-rank / profiled)
disasm      disassemble a program
config      emit the initial configuration exchange file (paper Fig. 3)
instrument  rewrite a program under a configuration file
view        render the configuration tree (paper Fig. 4, as text)
workloads   list registered workloads (and check their conformance)
analyze     shadow-value analysis of a registered workload (JSON report)
profile     per-site cycle census of a registered workload (profile.json)
search      automatic mixed-precision search on a registered workload
serve       run a search as a cluster coordinator (network workers),
            or a multi-tenant job service with --service ROOT
submit      submit a campaign to a job service (`repro serve --service`)
jobs        list or cancel jobs on a job service
result      fetch a finished job's row + best configuration
worker      evaluation worker for a coordinator (`repro serve`)
store       result-store maintenance (JSONL export/import)
trace       trace toolkit: summary | compare | profile | flame
experiment  regenerate one of the paper's tables/figures

Program images are plain pickles of :class:`repro.binary.model.Program`;
anything ending in ``.mh`` (or any readable text) is compiled on the fly.

Workload names resolve through the SDK registry (:mod:`repro.sdk`):
built-ins plus anything loaded with ``--plugin module[:attr]`` (or
``--plugin path/to/file.py``) or published on the ``repro.workloads``
entry-point group.  ``repro workloads`` prints the live catalogue.

Exit codes (documented in README.md and docs/CLUSTER.md): 0 success,
1 runtime failure, 2 usage error (argparse), 3 missing input (a store
database or JSONL file that does not exist), 4 unusable store (locked
by another process, or an incompatible schema version), 130 interrupted
search (resumable when run under ``--campaign``).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pickle
import sys

from repro import __version__

from repro.asm.disassembler import disassemble_program
from repro.binary.model import Program
from repro.compiler import CompileOptions, compile_program
from repro.config.fileformat import dump_config, load_config
from repro.config.generator import build_tree
from repro.config.model import Config
from repro.instrument.engine import instrument
from repro.mpi.runner import run_mpi_program
from repro.search.bfs import SearchEngine, SearchOptions
from repro.telemetry import (
    JsonlSink,
    MetricsRegistry,
    ProgressRenderer,
    Telemetry,
)
from repro.viewer.tree import render_config_tree, render_search_summary
from repro.vm.machine import run_program
from repro.workloads import make_workload


def _load_plugins(args) -> None:
    """Register every workload named by ``--plugin`` before lookups."""
    from repro.sdk import PluginError, load_plugin

    for ref in getattr(args, "plugin", None) or ():
        try:
            load_plugin(ref)
        except PluginError as exc:
            raise SystemExit(f"--plugin: {exc}")


def _build_telemetry(args) -> tuple[Telemetry, MetricsRegistry | None]:
    """Assemble the Telemetry hub requested by --trace/--metrics/--progress.

    Returns the hub (disabled and free when no flag was given) plus the
    metrics registry, if one was requested, for end-of-run reporting.
    """
    sinks = []
    if getattr(args, "trace", None):
        sinks.append(JsonlSink(args.trace))
    if getattr(args, "progress", False):
        sinks.append(ProgressRenderer())
    metrics = MetricsRegistry() if getattr(args, "metrics", False) else None
    return Telemetry(sinks=sinks, metrics=metrics), metrics


def _clear_progress(telemetry: Telemetry) -> None:
    """Blank any live progress line before ordinary stderr output."""
    for sink in telemetry.sinks:
        if isinstance(sink, ProgressRenderer):
            sink.clear()


def _load_program(paths: list[str], options: CompileOptions) -> Program:
    """Load a pickled image, or compile one or more MH sources."""
    if len(paths) == 1 and paths[0].endswith((".rpx", ".bin", ".pickle")):
        with open(paths[0], "rb") as handle:
            program = pickle.load(handle)
        if not isinstance(program, Program):
            raise SystemExit(f"{paths[0]}: not a program image")
        return program
    sources = []
    for path in paths:
        with open(path, "r") as handle:
            sources.append(handle.read())
    return compile_program(sources, options)


def _save_program(program: Program, path: str) -> None:
    with open(path, "wb") as handle:
        pickle.dump(program, handle)


def _compile_options(args) -> CompileOptions:
    return CompileOptions(
        name=getattr(args, "name", "a.out") or "a.out",
        real_type=getattr(args, "real", "f64"),
        transcendentals=getattr(args, "transcendentals", "instruction"),
    )


def cmd_compile(args) -> int:
    program = _load_program(args.sources, _compile_options(args))
    _save_program(program, args.output)
    stats = program.stats()
    print(f"{args.output}: {stats['instructions']} instructions, "
          f"{stats['candidates']} candidates, {stats['functions']} functions, "
          f"{stats['data_words']} data words")
    return 0


def cmd_run(args) -> int:
    program = _load_program(args.target, _compile_options(args))
    telemetry, metrics = _build_telemetry(args)
    with telemetry:
        if args.mpi > 1:
            result = run_mpi_program(
                program, args.mpi, seed=args.seed, stack_words=args.stack,
                profile=args.profile, telemetry=telemetry,
            )
            print(f"[{args.mpi} ranks, makespan {result.elapsed} cycles, "
                  f"{result.collectives} collectives]")
            run = result.per_rank[0]  # the reporting rank, as for values
            values = result.values()
        else:
            run = run_program(
                program, seed=args.seed, stack_words=args.stack,
                profile=args.profile, telemetry=telemetry,
            )
            print(f"[{run.cycles} cycles, {run.steps} instructions]")
            values = run.values()
        if args.profile:
            hot = sorted(run.exec_counts.items(), key=lambda kv: -kv[1])[:10]
            print("hottest instructions:")
            for addr, count in hot:
                print(f"  {addr:#08x}: {count}")
    for value in values:
        print(value)
    if metrics is not None:
        print(metrics.summary(), end="")
    return 0


def cmd_disasm(args) -> int:
    program = _load_program(args.target, _compile_options(args))
    print(disassemble_program(program))
    return 0


def cmd_config(args) -> int:
    program = _load_program(args.target, _compile_options(args))
    tree = build_tree(program)
    text = dump_config(Config.all_double(tree))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {tree.candidate_count} candidates to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_instrument(args) -> int:
    program = _load_program(args.target, _compile_options(args))
    tree = build_tree(program)
    if args.config:
        with open(args.config) as handle:
            config = load_config(tree, handle.read())
    else:
        config = Config.all_single(tree) if args.all_single else Config.all_double(tree)
    result = instrument(program, config, mode=args.mode, plain=args.plain)
    _save_program(result.program, args.output)
    stats = result.stats
    print(f"{args.output}: {stats.replaced_single} single snippets, "
          f"{stats.wrapped_double} double guards, {stats.ignored} ignored; "
          f"text growth {result.growth:.2f}x")
    return 0


def cmd_view(args) -> int:
    program = _load_program(args.target, _compile_options(args))
    tree = build_tree(program)
    if args.config:
        with open(args.config) as handle:
            config = load_config(tree, handle.read())
    else:
        config = Config.all_double(tree)
    profile = None
    if args.profile:
        profile = run_program(program, profile=True).exec_counts
    analysis = None
    if args.analysis:
        from repro.analysis import AnalysisReport

        with open(args.analysis) as handle:
            analysis = AnalysisReport.loads(handle.read())
    print(
        render_config_tree(config, profile=profile, analysis=analysis),
        end="",
    )
    return 0


def cmd_workloads(args) -> int:
    """List the registry; with --check, run conformance over it."""
    from repro.sdk import REGISTRY, run_conformance

    _load_plugins(args)
    specs = REGISTRY.specs()
    for name, error in REGISTRY.plugin_errors:
        print(f"workloads: entry point {name!r} failed to load: {error}",
              file=sys.stderr)
    name_w = max([len(s.name) for s in specs] + [8])
    cls_w = max([len(",".join(s.classes)) for s in specs] + [7])
    origin_w = max([len(s.origin) for s in specs] + [6])
    print(f"{'NAME':<{name_w}} {'CLASSES':<{cls_w}} {'VERIFY':<8} "
          f"{'MPI':<3} {'ORIGIN':<{origin_w}} DESCRIPTION")
    for spec in specs:
        print(f"{spec.name:<{name_w}} {','.join(spec.classes):<{cls_w}} "
              f"{spec.verify:<8} {'yes' if spec.mpi else 'no':<3} "
              f"{spec.origin:<{origin_w}} {spec.description}")
    if not args.check:
        return 0
    failed = 0
    for spec in specs:
        report = run_conformance(spec)
        if report.passed:
            print(f"conformance {report.workload}.{report.klass}: "
                  f"PASS ({len(report.checks)} checks)")
        else:
            failed += 1
            print(report.summary(), file=sys.stderr)
    if failed:
        print(f"workloads: {failed} of {len(specs)} specs failed "
              f"conformance", file=sys.stderr)
        return 1
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis import analyze

    _load_plugins(args)
    workload = make_workload(args.workload, _klass(args))
    telemetry, metrics = _build_telemetry(args)
    with telemetry:
        report = analyze(workload, telemetry=telemetry)
    text = report.dumps()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        hist = ", ".join(
            f"{k}={v}" for k, v in report.verdict_histogram().items()
        )
        print(f"{args.output}: {report.observed}/{report.candidates} "
              f"candidates observed; verdicts: {hist or 'none'}")
    else:
        print(text)
    if metrics is not None:
        print(metrics.summary(), end="", file=sys.stderr)
    return 0


def cmd_search(args) -> int:
    _load_plugins(args)
    campaign = None
    store = None
    if args.resume:
        if args.workload:
            raise SystemExit(
                "search: --resume takes the workload from the campaign "
                "directory; drop the positional argument"
            )
        from repro.campaign import Campaign

        campaign = Campaign.open(args.resume)
        workload = make_workload(campaign.workload, campaign.klass)
        options = campaign.options
        if args.cluster:
            # The bind address is host-specific, not part of the durable
            # search definition — a resumed campaign may serve anywhere.
            options = dataclasses.replace(
                options,
                cluster=args.cluster,
                lease_timeout=args.lease_timeout,
            )
    else:
        if not args.workload:
            raise SystemExit(
                "search: a workload is required (or --resume CAMPAIGN)"
            )
        klass = _klass(args)
        workload = make_workload(args.workload, klass)
        try:
            options = SearchOptions(
                stop_level=args.stop_level,
                workers=args.workers,
                refine=args.refine,
                analysis=args.analysis,
                cluster=args.cluster or "",
                lease_timeout=args.lease_timeout,
                lattice=args.lattice,
            )
        except ValueError as exc:
            raise SystemExit(f"search: {exc}")
        if args.campaign:
            from repro.campaign import Campaign

            campaign = Campaign.create(args.campaign, args.workload, klass, options)
    if args.store:
        if campaign is not None:
            raise SystemExit(
                "search: --store conflicts with --campaign/--resume "
                "(a campaign owns its own result store)"
            )
        from repro.store import ResultStore

        store = ResultStore(args.store)
    telemetry, metrics = _build_telemetry(args)
    try:
        with telemetry:
            engine = SearchEngine(
                workload, options, telemetry=telemetry,
                campaign=campaign, store=store,
            )
            if options.cluster:
                # Announce the bound address (port 0 lets the OS pick)
                # so workers know where to dial before run() blocks.
                _clear_progress(telemetry)
                print(
                    f"serving {workload.name} on "
                    f"{engine.evaluator.executor.address} — connect workers "
                    f"with: repro worker {engine.evaluator.executor.address}",
                    file=sys.stderr, flush=True,
                )
            result = engine.run()
    except KeyboardInterrupt:
        _clear_progress(telemetry)
        where = args.resume or args.campaign
        if where:
            print(f"interrupted; resume with: repro search --resume {where}",
                  file=sys.stderr)
        else:
            print("interrupted (no --campaign directory, progress not kept)",
                  file=sys.stderr)
        return 130
    finally:
        if campaign is not None:
            campaign.close()
        if store is not None:
            store.close()
    if args.verbose:
        print(render_search_summary(result), end="")
        print()
    row = result.row()
    if not args.quiet:
        pruned = (
            f" ({result.analysis_pruned} pruned by analysis)"
            if result.analysis_used and result.analysis_pruned
            else ""
        )
        if result.store_replays:
            pruned += f" ({result.store_replays} replayed from store)"
        resumed = " [resumed]" if result.resumed else ""
        print(f"search {result.workload}{resumed}: "
              f"{result.candidates} candidates, "
              f"{result.configs_tested} configurations tested{pruned}, "
              f"static {row['static_pct']}% / dynamic {row['dynamic_pct']}%, "
              f"final {row['final']} in {result.wall_seconds:.2f}s")
    if result.refined_config is not None and not args.quiet:
        print(f"refined: static {result.refined_static_pct * 100:.1f}%  "
              f"dynamic {result.refined_dynamic_pct * 100:.1f}%  "
              f"verified {result.refined_verified}")
    if args.trace and not args.quiet:
        print(f"wrote trace to {args.trace}")
    if metrics is not None:
        print(metrics.summary(), end="")
    if args.report:
        from repro.viewer.report import render_markdown_report

        with open(args.report, "w") as handle:
            handle.write(
                render_markdown_report(
                    result, workload, metrics=metrics,
                    analysis=engine.analysis_report,
                    lattice=options.lattice,
                )
            )
        print(f"wrote report to {args.report}")
    if args.explain:
        from repro.profile import collect_profile
        from repro.viewer.explain import render_explain_report

        events = None
        if args.trace:
            from repro.telemetry.tools import load_events

            events = load_events(args.trace)
        with open(args.explain, "w") as handle:
            handle.write(
                render_explain_report(
                    result,
                    analysis=engine.analysis_report,
                    events=events,
                    profile=collect_profile(workload),
                )
            )
        print(f"wrote explanation to {args.explain}")
    if args.output and result.final_config is not None:
        best = (
            result.refined_config
            if result.refined_config is not None and result.refined_verified
            else result.final_config
        )
        with open(args.output, "w") as handle:
            handle.write(dump_config(best, lattice=options.lattice))
        print(f"wrote configuration to {args.output}")
    return 0


def cmd_profile(args) -> int:
    from repro.profile import collect_profile, dumps

    _load_plugins(args)
    workload = make_workload(args.workload, _klass(args))
    telemetry, metrics = _build_telemetry(args)
    with telemetry:
        profile = collect_profile(workload, telemetry=telemetry)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dumps(profile))
        print(f"wrote profile to {args.output}")
    candidates = sum(1 for site in profile["sites"] if site["node"])
    print(
        f"profile {profile['workload']} class {profile['klass'] or '-'}: "
        f"{profile['steps']} steps, {profile['cycles']} cycles, "
        f"{len(profile['sites'])} sites ({candidates} candidates), "
        f"{profile['candidate_cycles']} candidate cycles"
    )
    hot = sorted(
        (s for s in profile["sites"] if s["node"]),
        key=lambda s: (-s["cycles"], s["addr"]),
    )[: args.top]
    if hot:
        print("hottest candidate sites:")
        for site in hot:
            share = 100.0 * site["cycles"] / max(1, profile["cycles"])
            print(
                f"  {site['node']:<8} {site['addr']:#08x} "
                f"{site['mnemonic']:<8} {site['execs']:>10} execs "
                f"{site['cycles']:>12} cycles ({share:.1f}%)"
            )
    if metrics is not None:
        print(metrics.summary(), end="")
    return 0


def cmd_trace(args) -> int:
    from repro.telemetry import tools

    try:
        if args.trace_command == "summary":
            print(tools.summarize(tools.load_events(args.file)))
        elif args.trace_command == "compare":
            print(
                tools.compare(
                    tools.load_events(args.file_a),
                    tools.load_events(args.file_b),
                    label_a=args.file_a,
                    label_b=args.file_b,
                )
            )
        elif args.trace_command == "profile":
            print(tools.profile_view(tools.load_events(args.file), top=args.top))
        else:  # flame
            text = tools.flame_view(tools.load_events(args.file))
            if args.output:
                with open(args.output, "w") as handle:
                    handle.write(text + "\n" if text else "")
                stacks = len(text.splitlines())
                print(f"wrote {stacks} stacks to {args.output}")
            else:
                print(text)
    except ValueError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    """Single-job coordinator by default; --service hosts many."""
    if args.service:
        return _serve_service(args)
    args.cluster = args.address
    return cmd_search(args)


def _serve_service(args) -> int:
    import time

    from repro.service import PrecisionService
    from repro.service.jobs import TERMINAL_STATES
    from repro.telemetry import JsonlSink, Telemetry

    _load_plugins(args)
    if args.workload:
        print("serve: --service takes no workload (clients submit them)",
              file=sys.stderr)
        return 2
    sink = None
    telemetry = None
    if args.trace:
        sink = JsonlSink(args.trace)
        telemetry = Telemetry(sinks=[sink])
    service = PrecisionService(
        args.service,
        bind=args.address,
        max_inflight=args.max_inflight,
        max_queued=args.max_queued,
        lease_timeout=args.lease_timeout,
        telemetry=telemetry,
    )
    if not args.quiet:
        print(f"service listening on {service.address} "
              f"(root {args.service})", flush=True)
    code = 0
    try:
        if args.run_jobs is not None:
            # Exit once N jobs have finished — the harness the smoke
            # tests and CI drive instead of signalling a daemon.
            while True:
                done = sum(
                    1 for job in service.registry.jobs()
                    if job.state in TERMINAL_STATES
                )
                if done >= args.run_jobs:
                    break
                time.sleep(0.1)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        if not args.quiet:
            print("\nservice: interrupted", file=sys.stderr)
        code = 130
    finally:
        service.close()
        if sink is not None:
            sink.close()
    return code


def _submit_options(args) -> dict:
    """SearchOptions JSON carried on a submit frame (the flags of
    `repro search`, with a batch of 4 by default)."""
    return {
        "stop_level": args.stop_level,
        "workers": args.workers,
        "refine": args.refine,
        "analysis": args.analysis,
        "lattice": args.lattice,
    }


def _print_job_outcome(reply: dict, quiet: bool) -> None:
    if quiet:
        return
    row = reply.get("row")
    if row:
        print(f"{reply['job']} {reply['state']}: {row['benchmark']} "
              f"tested {row['tested']}, static {row['static_pct']}%, "
              f"dynamic {row['dynamic_pct']}%, final {row['final']}")
    else:
        suffix = f" ({reply['error']})" if reply.get("error") else ""
        print(f"{reply['job']} {reply['state']}{suffix}")


def cmd_submit(args) -> int:
    from repro.service import ServiceClient, ServiceError

    _load_plugins(args)
    try:
        with ServiceClient(args.address) as client:
            job = client.submit(
                args.workload, _klass(args),
                options=_submit_options(args),
                tenant=args.tenant,
                quantum=args.quantum,
            )
            if not args.wait:
                print(job)
                return 0
            reply = client.wait(job, timeout=args.timeout)
    except ServiceError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    _print_job_outcome(reply, args.quiet)
    if args.output and reply.get("config"):
        with open(args.output, "w") as handle:
            handle.write(reply["config"])
        if not args.quiet:
            print(f"wrote configuration to {args.output}")
    return 0 if reply["state"] == "complete" else 1


def cmd_jobs(args) -> int:
    from repro.service import ServiceClient, ServiceError

    try:
        with ServiceClient(args.address) as client:
            if args.cancel:
                reply = client.cancel(args.cancel)
                print(f"{reply['job']}: {reply['state']}")
                return 0
            jobs = client.jobs()
    except ServiceError as exc:
        print(f"jobs: {exc}", file=sys.stderr)
        return 1
    if not jobs:
        print("no jobs")
        return 0
    print(f"{'JOB':<6} {'TENANT':<12} {'WORKLOAD':<14} {'STATE':<10} "
          f"{'TESTED':>7} {'EXEC':>7}")
    for job in jobs:
        print(f"{job['job']:<6} {job['tenant']:<12} "
              f"{job['workload'] + '.' + job['klass']:<14} "
              f"{job['state']:<10} {job['tested']:>7} {job['executions']:>7}")
    return 0


def cmd_result(args) -> int:
    from repro.service import ServiceClient, ServiceError

    try:
        with ServiceClient(args.address) as client:
            if args.wait:
                reply = client.wait(args.job, timeout=args.timeout)
            else:
                reply = client.result(args.job)
    except ServiceError as exc:
        print(f"result: {exc}", file=sys.stderr)
        return 1
    if reply["state"] in ("queued", "running"):
        print(f"{args.job}: still {reply['state']} (use --wait)",
              file=sys.stderr)
        return 1
    _print_job_outcome(reply, args.quiet)
    if args.output and reply.get("config"):
        with open(args.output, "w") as handle:
            handle.write(reply["config"])
        if not args.quiet:
            print(f"wrote configuration to {args.output}")
    return 0 if reply["state"] == "complete" else 1


def cmd_worker(args) -> int:
    from repro.cluster import WorkerError, run_worker

    _load_plugins(args)
    try:
        stats = run_worker(
            args.address,
            max_tasks=args.max_tasks,
            connect_retries=args.connect_retries,
        )
    except WorkerError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("\nworker: interrupted", file=sys.stderr)
        return 130
    if not args.quiet:
        print(f"worker done: {stats['tasks']} tasks "
              f"({stats['workload'] or 'no workload'})")
    return 0


#: missing input: the store database (export) or JSONL file (import)
EXIT_STORE_MISSING = 3
#: store exists but can't be used: locked by another process, or an
#: incompatible schema version
EXIT_STORE_UNAVAILABLE = 4


def cmd_store(args) -> int:
    import sqlite3

    from repro.store import ResultStore, StoreCollisionError, StoreSchemaError

    if args.store_command == "export" and not os.path.exists(args.db):
        print(f"store export: no such store: {args.db}", file=sys.stderr)
        return EXIT_STORE_MISSING
    if args.store_command == "import" and not os.path.exists(args.file):
        print(f"store import: no such file: {args.file}", file=sys.stderr)
        return EXIT_STORE_MISSING
    try:
        with ResultStore(args.db, timeout=args.timeout) as store:
            if args.store_command == "export":
                count = store.export_jsonl(args.file, workload=args.workload)
                print(f"exported {count} outcomes to {args.file}")
            else:  # import
                try:
                    count = store.import_jsonl(args.file)
                except StoreCollisionError as exc:
                    print(f"store import: {exc}", file=sys.stderr)
                    return 1
                print(f"imported {count} outcomes into {args.db}")
    except StoreSchemaError as exc:
        print(f"store: {exc}", file=sys.stderr)
        return EXIT_STORE_UNAVAILABLE
    except sqlite3.OperationalError as exc:
        print(f"store: {args.db}: {exc}", file=sys.stderr)
        return EXIT_STORE_UNAVAILABLE
    return 0


def cmd_experiment(args) -> int:
    from repro.experiments import amg, fig8, fig9, fig10, fig11, guided, resume
    from repro.experiments.tables import format_table

    name = args.figure
    if name == "resume":
        print(
            format_table(
                resume.run(classes=(args.klass,)),
                title="Checkpoint/resume differential",
            ),
            end="",
        )
        return 0
    if name == "guided":
        print(
            format_table(
                guided.run(classes=(args.klass,)),
                title="Guided vs unguided search",
            ),
            end="",
        )
        return 0
    if name == "fig8":
        print(format_table(fig8.run(klass=args.klass), title="Figure 8"), end="")
    elif name == "fig9":
        print(format_table(fig9.run(classes=(args.klass,)), title="Figure 9"), end="")
    elif name == "fig10":
        print(format_table(fig10.run(classes=(args.klass,)), title="Figure 10"), end="")
    elif name == "fig11":
        print(format_table(fig11.run(klass=args.klass), title="Figure 11"), end="")
    elif name == "amg":
        row = {k: v for k, v in amg.run(args.klass).items() if not k.startswith("_")}
        print(format_table([row], title="AMG (Section 3.2)"), end="")
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown experiment {name}")
    return 0


#: help text for workload-name arguments; the authoritative list is the
#: registry (`repro workloads`), which plugins extend at run time.
_WORKLOAD_HELP = ("a registered workload: bt|cg|ep|ft|lu|mg|sp|amg|superlu|"
                  "heat|nekcg, or one added by --plugin "
                  "(see `repro workloads`)")


def _add_plugin_flag(parser) -> None:
    parser.add_argument("--plugin", action="append", metavar="MODULE[:ATTR]",
                        default=[],
                        help="register workloads from a plugin module "
                             "(dotted name or path/to/file.py) before "
                             "resolving names; repeatable")


def _add_telemetry_flags(parser, progress: bool) -> None:
    parser.add_argument("--trace", metavar="FILE",
                        help="write a replayable JSONL event trace here")
    parser.add_argument("--metrics", action="store_true",
                        help="print aggregated telemetry metrics at the end")
    if progress:
        parser.add_argument("--progress", action="store_true",
                            help="live progress line on stderr")


def _add_workload_args(parser, resumable: bool = False) -> None:
    """The workload and its problem class, positionally or as --class
    (see :func:`_klass`).  A *resumable* command may omit the workload
    and take it from --resume."""
    if resumable:
        parser.add_argument("workload", nargs="?",
                            help=_WORKLOAD_HELP + " (omitted with --resume)")
    else:
        parser.add_argument("workload", help=_WORKLOAD_HELP)
    parser.add_argument("klass", nargs="?", default="W",
                        help="problem class (S/W/A/C)")
    parser.add_argument("--class", dest="klass_opt", default=None,
                        metavar="KLASS",
                        help="problem class (same as the positional argument)")


def _klass(args) -> str:
    """The problem class: --class when given, else the positional."""
    return args.klass_opt if args.klass_opt is not None else args.klass


def _add_search_flags(parser, workers: int) -> None:
    """What a search is: the options `search`, `serve` and `submit` pass
    to SearchOptions.  *workers* is the command's default."""
    parser.add_argument("--analysis", default=True,
                        action=argparse.BooleanOptionalAction,
                        help="shadow-value analysis guidance: one extra "
                             "observed run up front prunes candidates whose "
                             "singleton verdict is already decided "
                             "(--no-analysis restores the paper's unguided "
                             "search; the final configuration is identical "
                             "either way)")
    parser.add_argument("--stop-level", default="instruction",
                        choices=("module", "function", "block", "instruction"))
    parser.add_argument("--lattice", default="f64,f32", metavar="SPEC",
                        help="precision lattice to search down, e.g. "
                             "f64,f32,bf16,f16 (default f64,f32 — the "
                             "paper's binary double/single search); extra "
                             "widths add a lattice-descent phase that "
                             "re-tests passing items one width narrower at "
                             "a time")
    parser.add_argument("--workers", type=int, default=workers,
                        help="configurations evaluated concurrently: local "
                             "worker processes, or the batch leased to "
                             "network workers (default %(default)s)")
    parser.add_argument("--refine", action="store_true",
                        help="second search phase when the union fails")


def _add_run_flags(parser) -> None:
    """How one search runs and reports: shared by `search` and `serve`."""
    parser.add_argument("--campaign", metavar="DIR",
                        help="run as a durable campaign: journal the "
                             "frontier after every batch and record outcomes "
                             "in DIR/results.sqlite so the search survives "
                             "interruption (see --resume)")
    parser.add_argument("--resume", metavar="DIR",
                        help="resume an interrupted campaign from its "
                             "journal; replays decided outcomes from the "
                             "result store and continues from the exact "
                             "frontier")
    parser.add_argument("--store", metavar="DB",
                        help="standalone result store (SQLite file): decided "
                             "outcomes persist across runs, so a repeated "
                             "search warm-starts without re-executing "
                             "anything")
    parser.add_argument("--lease-timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="cluster: requeue a worker's leases after this "
                             "much silence (default 30)")
    parser.add_argument("-o", "--output",
                        help="write the best configuration here")
    parser.add_argument("--report", help="write a Markdown analysis report here")
    parser.add_argument("--explain", metavar="FILE",
                        help="write a per-site decision-provenance report "
                             "here (analysis verdicts, eval evidence, crash "
                             "history, cycle shares; richer with --trace)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the one-line human summary")
    parser.add_argument("--verbose", action="store_true",
                        help="print the full evaluation history")


def _add_compile_flags(parser) -> None:
    parser.add_argument("--real", choices=("f64", "f32"), default="f64",
                        help="meaning of the 'real' type (default f64)")
    parser.add_argument("--transcendentals", choices=("instruction", "library"),
                        default="instruction")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mixed-precision binary analysis on the virtual ISA "
        "(reproduction of Lam et al.)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile MH sources to a program image")
    p.add_argument("sources", nargs="+")
    p.add_argument("-o", "--output", default="a.rpx")
    p.add_argument("--name", default="a.out")
    _add_compile_flags(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="run a program (source or image)")
    p.add_argument("target", nargs="+")
    p.add_argument("--mpi", type=int, default=1, metavar="RANKS")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=0x9E3779B97F4A7C15)
    p.add_argument("--stack", type=int, default=8192)
    p.add_argument("--profile", action="store_true")
    _add_telemetry_flags(p, progress=False)
    _add_compile_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("disasm", help="disassemble a program")
    p.add_argument("target", nargs="+")
    _add_compile_flags(p)
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("config", help="emit the initial configuration file")
    p.add_argument("target", nargs="+")
    p.add_argument("-o", "--output")
    _add_compile_flags(p)
    p.set_defaults(func=cmd_config)

    p = sub.add_parser("instrument", help="rewrite a program under a configuration")
    p.add_argument("target", nargs="+")
    p.add_argument("--config", help="configuration exchange file")
    p.add_argument("--all-single", action="store_true",
                   help="shortcut: replace everything (no --config needed)")
    p.add_argument("--mode", choices=("auto", "all", "none"), default="auto")
    p.add_argument("--plain", action="store_true",
                   help="the paper's Figure 6 snippets: test every operand "
                        "and save/restore scratch registers around each")
    p.add_argument("-o", "--output", default="a.instr.rpx")
    _add_compile_flags(p)
    p.set_defaults(func=cmd_instrument)

    p = sub.add_parser("view", help="render the configuration tree")
    p.add_argument("target", nargs="+")
    p.add_argument("--config")
    p.add_argument("--profile", action="store_true")
    p.add_argument("--analysis", metavar="REPORT",
                   help="JSON analysis report (from `repro analyze -o`): "
                        "adds shadow verdict/error columns")
    _add_compile_flags(p)
    p.set_defaults(func=cmd_view)

    p = sub.add_parser(
        "workloads",
        help="list registered workloads (built-ins and plugins)",
    )
    p.add_argument("--check", action="store_true",
                   help="run the conformance harness over every registered "
                        "spec (smallest class) and exit non-zero on failure")
    _add_plugin_flag(p)
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser(
        "analyze",
        help="shadow-value analysis: one observed run, JSON report",
    )
    _add_workload_args(p)
    p.add_argument("-o", "--output",
                   help="write the JSON report here instead of stdout")
    _add_telemetry_flags(p, progress=False)
    _add_plugin_flag(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "profile",
        help="per-site cycle census: one profiled run, schema-versioned "
             "profile.json",
    )
    _add_workload_args(p)
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the profile document here (profile.json)")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="candidate sites in the human summary (default 10)")
    _add_telemetry_flags(p, progress=False)
    _add_plugin_flag(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("search", help="automatic search on a built-in workload")
    _add_workload_args(p, resumable=True)
    _add_search_flags(p, workers=1)
    _add_run_flags(p)
    p.add_argument("--cluster", metavar="HOST:PORT",
                   help="serve evaluations to network workers instead of "
                        "running them locally: bind a coordinator here "
                        "(port 0 picks a free port) and lease "
                        "configurations to `repro worker` processes; "
                        "--workers then sets the batch size, not a "
                        "process count")
    _add_telemetry_flags(p, progress=True)
    _add_plugin_flag(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "serve",
        help="run a search as a cluster coordinator "
             "(same flags as `search`, plus a bind address)",
    )
    p.add_argument("address", metavar="HOST:PORT",
                   help="address to serve on (port 0 picks a free port)")
    _add_workload_args(p, resumable=True)
    _add_search_flags(p, workers=4)
    _add_run_flags(p)
    p.add_argument("--service", metavar="ROOT", default=None,
                   help="host a multi-tenant job service rooted at ROOT "
                        "instead of one search: clients submit campaigns "
                        "with `repro submit` (see docs/SERVICE.md)")
    p.add_argument("--max-inflight", type=int, default=None, metavar="N",
                   help="service mode: per-tenant cap on concurrently "
                        "leased configurations (default: unlimited)")
    p.add_argument("--max-queued", type=int, default=None, metavar="N",
                   help="service mode: per-tenant cap on active jobs; "
                        "submits beyond it are rejected (default: "
                        "unlimited)")
    p.add_argument("--run-jobs", type=int, default=None, metavar="N",
                   help="service mode: exit once N jobs have finished "
                        "(default: serve forever)")
    _add_telemetry_flags(p, progress=True)
    _add_plugin_flag(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a campaign to a job service (`repro serve --service`)",
    )
    p.add_argument("address", metavar="HOST:PORT",
                   help="service address (printed by `repro serve --service`)")
    _add_workload_args(p)
    _add_search_flags(p, workers=4)
    p.add_argument("--tenant", default="default",
                   help="tenant name for quotas and fair-share "
                        "(default 'default')")
    p.add_argument("--quantum", type=float, default=1.0,
                   help="fair-share weight relative to other jobs "
                        "(default 1.0)")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes and print its result")
    p.add_argument("--timeout", type=float, default=300.0, metavar="SECONDS",
                   help="give up on --wait after this long (default 300)")
    p.add_argument("-o", "--output",
                   help="with --wait: write the best configuration here")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the one-line human summary")
    _add_plugin_flag(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "jobs", help="list or cancel jobs on a job service"
    )
    p.add_argument("address", metavar="HOST:PORT", help="service address")
    p.add_argument("--cancel", metavar="JOB", default=None,
                   help="cancel this job instead of listing")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser(
        "result", help="fetch a finished job's row + best configuration"
    )
    p.add_argument("address", metavar="HOST:PORT", help="service address")
    p.add_argument("job", help="job id (printed by `repro submit`)")
    p.add_argument("--wait", action="store_true",
                   help="block until the job reaches a terminal state")
    p.add_argument("--timeout", type=float, default=300.0, metavar="SECONDS",
                   help="give up on --wait after this long (default 300)")
    p.add_argument("-o", "--output",
                   help="write the job's best configuration here")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the one-line human summary")
    p.set_defaults(func=cmd_result)

    p = sub.add_parser(
        "worker",
        help="evaluation worker: lease and execute configurations "
             "from a coordinator",
    )
    p.add_argument("address", metavar="HOST:PORT",
                   help="coordinator address (printed by `repro serve`)")
    p.add_argument("--max-tasks", type=int, default=None, metavar="N",
                   help="exit after N evaluations (default: serve until "
                        "the coordinator says bye)")
    p.add_argument("--connect-retries", type=int, default=50, metavar="N",
                   help="dial attempts while the coordinator comes up "
                        "(default 50)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the end-of-run summary line")
    _add_plugin_flag(p)
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("store", help="result-store maintenance")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    sp = store_sub.add_parser(
        "export", help="dump a store to canonical JSONL"
    )
    sp.add_argument("db", help="SQLite result store")
    sp.add_argument("file", help="JSONL output path")
    sp.add_argument("--workload", default=None, metavar="ID",
                    help="only rows of this workload id")
    sp.add_argument("--timeout", type=float, default=5.0, metavar="SECONDS",
                    help="give up on a locked store after this long "
                         "(exit 4; default 5)")
    sp.set_defaults(func=cmd_store)
    sp = store_sub.add_parser(
        "import", help="merge an exported JSONL file into a store"
    )
    sp.add_argument("db", help="SQLite result store (created if missing)")
    sp.add_argument("file", help="JSONL input path")
    sp.add_argument("--timeout", type=float, default=5.0, metavar="SECONDS",
                    help="give up on a locked store after this long "
                         "(exit 4; default 5)")
    sp.set_defaults(func=cmd_store)

    p = sub.add_parser(
        "trace",
        help="trace toolkit: read a JSONL trace back "
             "(every event re-validated against the schema)",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    tp = trace_sub.add_parser(
        "summary",
        help="per-kind/per-phase timing plus the replayed metrics table "
             "(byte-identical to the live run's summary)",
    )
    tp.add_argument("file", help="JSONL trace (from --trace)")
    tp.set_defaults(func=cmd_trace)
    tp = trace_sub.add_parser(
        "compare", help="diff two traces (e.g. warm vs cold, serial vs cluster)"
    )
    tp.add_argument("file_a", help="baseline trace")
    tp.add_argument("file_b", help="trace to compare against it")
    tp.set_defaults(func=cmd_trace)
    tp = trace_sub.add_parser(
        "profile", help="cycle attribution: top sites (or the opcode census)"
    )
    tp.add_argument("file", help="JSONL trace")
    tp.add_argument("--top", type=int, default=20, metavar="N",
                    help="rows to show (default 20)")
    tp.set_defaults(func=cmd_trace)
    tp = trace_sub.add_parser(
        "flame",
        help="collapsed-stack cycle attribution "
             "(flamegraph.pl / speedscope input)",
    )
    tp.add_argument("file", help="JSONL trace")
    tp.add_argument("-o", "--output", metavar="FILE",
                    help="write the collapsed stacks here instead of stdout")
    tp.set_defaults(func=cmd_trace)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument(
        "figure",
        choices=("fig8", "fig9", "fig10", "fig11", "amg", "guided", "resume"),
    )
    p.add_argument("klass", nargs="?", default="W")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
