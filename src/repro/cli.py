"""Command-line interface: the tool-vendor front-end in miniature.

Subcommands map to the workflows of the paper::

    repro topology   — device block inventory and tool access paths
    repro profile    — Enhanced System Profiling run + dip diagnosis
    repro trace      — program-trace capture statistics and decode summary
    repro explore    — CPI stack, option prediction, gain/cost ranking
    repro customers  — profile matrix over a generated customer population
    repro campaign   — parallel fleet campaign over the population
    repro profile-kernel — simulation-kernel throughput (naive vs quiescent)
    repro checkpoint — snapshot / inspect / resume a simulation run
    repro serve      — always-on campaign service (HTTP + SSE)
    repro node       — one cluster worker node over a shared directory
    repro cluster    — multi-node campaign: submit / run / status / stop
    repro catalog    — build the campaign-capability catalog artifact
"""

from __future__ import annotations

import argparse
import sys

from .soc.config import CONFIGS


def _scenario(name: str):
    from .workloads import SCENARIOS
    try:
        return SCENARIOS[name]()
    except KeyError:
        raise SystemExit(f"unknown scenario {name!r}; "
                         f"choose from {sorted(SCENARIOS)}")


def _config(name: str):
    try:
        return CONFIGS[name]()
    except KeyError:
        raise SystemExit(f"unknown device {name!r}; "
                         f"choose from {sorted(CONFIGS)}")


def _add_telemetry_flags(p) -> None:
    p.add_argument("--trace-out", metavar="TRACE.json",
                   help="write a Chrome/Perfetto trace-event timeline")
    p.add_argument("--metrics-out", metavar="METRICS.prom",
                   help="write Prometheus text-format metrics")
    p.add_argument("--trace-store", metavar="SEGMENT.rtrace",
                   help="stream every span into a columnar trace-store "
                        "segment (+ .summary.json sidecar; see "
                        "`repro traces` and docs/traces.md)")


def _telemetry_wanted(args) -> bool:
    return bool(getattr(args, "trace_out", None)
                or getattr(args, "metrics_out", None)
                or getattr(args, "trace_store", None))


def _maybe_recording(tel, args):
    """``traces.recording`` when ``--trace-store`` was given, else a no-op."""
    from contextlib import nullcontext
    path = getattr(args, "trace_store", None)
    if not path:
        return nullcontext()
    from . import traces
    return traces.recording(tel, path)


def _write_telemetry(tel, args, events_out=None) -> None:
    written = tel.write_outputs(getattr(args, "trace_out", None),
                                getattr(args, "metrics_out", None),
                                events_out)
    for kind, path in sorted(written.items()):
        print(f"telemetry {kind}: {path}")


# --- subcommands ------------------------------------------------------------
def cmd_topology(args) -> int:
    from .ed.device import EdConfig, EmulationDevice
    device = EmulationDevice(EdConfig(soc=_config(args.device)))
    print(f"{args.device}ED block inventory:")
    for block in device.block_inventory():
        print(f"  {block}")
    print("tool access paths:")
    for path in device.access_paths():
        print("  " + " -> ".join(path))
    return 0


def cmd_profile(args) -> int:
    from .core.profiling import ProfilingSession, analysis, spec
    scenario = _scenario(args.scenario)
    params = {"anomaly": True} if args.anomaly else {}
    device = scenario.build(_config(args.device), params, seed=args.seed)
    session = ProfilingSession(
        device, spec.engine_parameter_set(ipc_resolution=args.resolution))
    result = session.run(args.cycles)
    print(result.summary_table())
    threshold = result["tc.ipc"].mean_rate() * 0.8
    diagnoses = analysis.diagnose(result, ipc_threshold=threshold)
    if diagnoses:
        print(f"\npoor-IPC windows (IPC < {threshold:.2f}):")
        for diag in diagnoses:
            top = ", ".join(name for name, _ in diag.causes[:2])
            print(f"  {diag.window.start}..{diag.window.end} "
                  f"IPC {diag.ipc_inside:.2f}, suspects: {top}")
    else:
        print("\nno poor-IPC windows below 80% of mean")
    return 0


def cmd_trace(args) -> int:
    from .analysis import TraceDecoder
    scenario = _scenario(args.scenario)
    device = scenario.build(_config(args.device), {}, seed=args.seed)
    ptu = device.mcds.add_program_trace(cycle_accurate=args.cycle_accurate)
    device.run(args.cycles)
    print(f"traced {ptu.instructions_traced} instructions in "
          f"{ptu.messages} messages ({ptu.bits} bits, "
          f"{ptu.bits_per_instruction:.2f} bits/instr)")
    print(f"EMEM: {device.emem.message_count} messages buffered, "
          f"{device.emem.fill_ratio:.1%} full, "
          f"{device.emem.lost_oldest} wrapped away")
    decoded = TraceDecoder(device.cpu.program).decode(
        device.emem.contents())
    print(f"decoded {len(decoded.discontinuities)} discontinuities "
          f"spanning {decoded.span_cycles} cycles")
    entries = sorted(decoded.function_entries.items(),
                     key=lambda item: -item[1])[:5]
    for name, count in entries:
        print(f"  {name:<20} {count} entries")
    return 0


def cmd_explore(args) -> int:
    from .core.optimization import (OptionEvaluator, full_catalog,
                                    hardware_options, report)
    scenario = _scenario(args.scenario)
    options = hardware_options() if args.hardware_only else full_catalog()
    evaluator = OptionEvaluator(scenario, _config(args.device), options,
                                work_instructions=args.work, seed=args.seed)
    context = evaluator.run_baseline()
    print("CPI stack:")
    print(context.stack.as_table())
    results = evaluator.evaluate()
    print("\noption ranking:")
    print(report.ranking_table(results))
    print("\nprediction accuracy:")
    print(report.validation_table(results))
    return 0


def cmd_report(args) -> int:
    from .analysis import profiling_report
    from .core.profiling import (FunctionProfiler, ProfilingSession, spec)
    from .core.profiling.export import result_to_json, summary_to_csv
    from .mcds.trace import TraceFanout
    scenario = _scenario(args.scenario)
    params = {"anomaly": True} if args.anomaly else {}
    device = scenario.build(_config(args.device), params, seed=args.seed)
    session = ProfilingSession(
        device, spec.engine_parameter_set(ipc_resolution=args.resolution))
    profiler = FunctionProfiler(device.cpu.program)
    if device.cpu.trace is None:
        device.cpu.trace = TraceFanout()
    device.cpu.trace.add(profiler)
    result = session.run(args.cycles)
    print(profiling_report(device, result, profiler))
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(result_to_json(result))
        print(f"\nfull series exported to {args.json}")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(summary_to_csv(result))
        print(f"summary exported to {args.csv}")
    return 0


def cmd_profile_kernel(args) -> int:
    """Naive-vs-quiescent kernel comparison on one scenario workload."""
    if _telemetry_wanted(args):
        from .obs import telemetry
        with telemetry() as tel:
            with _maybe_recording(tel, args):
                status = _profile_kernel(args, tel)
            _write_telemetry(tel, args)
        return status
    return _profile_kernel(args, None)


def _profile_kernel(args, tel) -> int:
    from .soc.kernel import kernel_mode
    from .soc.kernel.kprof import (KernelProfiler, format_kernel_stats,
                                   format_top_components)
    scenario = _scenario(args.scenario)
    params = {"idle_halt": True} if args.idle_halt else {}
    top = getattr(args, "top", None)
    want_wall = args.wall or top is not None   # --top needs wall times
    runs = {}
    for mode in ("naive", "quiescent"):
        with kernel_mode(mode):
            device = scenario.build(_config(args.device), dict(params),
                                    seed=args.seed)
        sim = device.soc.sim
        profiler = KernelProfiler(sim) if want_wall else None
        if profiler is not None:
            profiler.attach()
        device.run(args.cycles)
        runs[mode] = (sim.kernel_stats(), sim.hub.totals[:])
        if profiler is not None:
            profiler.detach()
        if tel is not None:
            # same registry schema `repro telemetry` exports, one label
            # per kernel mode; the print below keeps its old shape
            from .obs import bridge
            bridge.record_kernel_stats(tel.registry, runs[mode][0],
                                       kernel=mode)
        print(f"\n== {mode} kernel ==")
        print(format_kernel_stats(runs[mode][0]))
        if top is not None:
            print(f"\ntop {top} components by tick self-time ({mode}):")
            print(format_top_components(runs[mode][0], top))
    naive_stats, naive_oracle = runs["naive"]
    quiesc_stats, quiesc_oracle = runs["quiescent"]
    if naive_oracle != quiesc_oracle:
        print("\nERROR: oracle totals diverged between kernels")
        return 1
    # nothing subscribes to a bare run's signals, so its totals cannot show
    # a window closed on the wrong tick: compare a profiled run's plane too
    naive_plane, quiesc_plane = (
        _profiled_plane(scenario, args, params, mode)
        for mode in ("naive", "quiescent"))
    if naive_plane != quiesc_plane:
        print("\nERROR: EMEM streams or counter snapshots diverged "
              "between kernels")
        return 1
    speedup = (quiesc_stats["cycles_per_sec"] /
               max(1e-9, naive_stats["cycles_per_sec"]))
    print(f"\noracle totals identical across kernels "
          f"({sum(naive_oracle)} events)")
    print(f"EMEM streams and counter snapshots identical across kernels "
          f"({len(naive_plane[0])} messages)")
    print(f"quiescent speedup: {speedup:.2f}x")
    return 0


def _profiled_plane(scenario, args, params, mode):
    """EMEM stream and MCDS snapshot of one run with the engine
    parameter set, under kernel ``mode``."""
    from .core.profiling import ProfilingSession, spec
    from .soc.kernel import kernel_mode
    with kernel_mode(mode):
        device = scenario.build(_config(args.device), dict(params),
                                seed=args.seed)
    ProfilingSession(device, spec.engine_parameter_set())
    device.run(args.cycles)
    return ([msg.to_dict() for msg in device.emem.contents()],
            device.mcds.snapshot_state())


def cmd_checkpoint(args) -> int:
    """Snapshot, inspect, or resume one scenario run.

    The save path records the scenario/device/seed in the checkpoint meta,
    so ``--restore`` rebuilds the identical device without re-specifying
    them — resuming and running on is byte-identical to a run that was
    never interrupted (the tentpole guarantee of docs/checkpoint.md).
    """
    from .checkpoint import CheckpointError, checkpoint_info
    if args.info:
        try:
            info = checkpoint_info(args.info)
        except CheckpointError as exc:
            print(f"rejected: {exc}")
            return 1
        meta = info["meta"]
        log = info.get("log")
        print(f"checkpoint {info['path']} (schema {info['schema']}, "
              f"{info['size_bytes']} bytes"
              + (f"; message log {log['segments']} segments, "
                 f"{log['bytes']} bytes" if log else "") + ")")
        for key in sorted(meta):
            print(f"  {key:<12}{meta[key]}")
        print(f"  components  {', '.join(info['components'])}")
        return 0
    if args.restore:
        from .checkpoint import load_checkpoint
        try:
            _, meta = load_checkpoint(args.restore)
        except CheckpointError as exc:
            print(f"rejected: {exc}")
            return 1
        scenario = _scenario(meta["scenario"])
        device = scenario.build(_config(meta["device"]), {},
                                seed=meta["seed"])
        device.soc._ensure_order()
        device.restore(args.restore)
        print(f"restored {args.restore} at cycle {device.cycle}")
        if args.cycles:
            device.run(args.cycles)
            print(f"ran {args.cycles} more cycles -> cycle {device.cycle}, "
                  f"IPC {device.soc.ipc():.3f}")
        return 0
    scenario = _scenario(args.scenario)
    device = scenario.build(_config(args.device), {}, seed=args.seed)
    device.run(args.cycles)
    path = device.checkpoint(args.out, meta={
        "scenario": args.scenario, "device": args.device,
        "seed": args.seed})
    import os
    print(f"cycle {device.cycle}: wrote {path} "
          f"({os.path.getsize(path)} bytes)")
    return 0


def cmd_customers(args) -> int:
    from .core.optimization import CpiStack
    from .soc.kernel import signals
    from .workloads import CustomerGenerator
    customers = CustomerGenerator(seed=args.seed).generate(args.count)
    config = _config(args.device)
    print(f"{'customer':<28}{'IPC':>6}{'I$miss%':>9}{'flashD%':>9}"
          f"{'pcp%':>7}")
    for customer in customers:
        device = customer.build(config, seed=args.seed)
        device.run(args.cycles)
        counts = device.oracle()
        instr = max(1, counts[signals.TC_INSTR])
        stack = CpiStack.from_counts(counts, device.cycle, config)
        print(f"{customer.name:<28}{stack.ipc:>6.2f}"
              f"{100 * counts[signals.ICACHE_MISS] / instr:>9.2f}"
              f"{100 * counts[signals.PFLASH_DATA_ACCESS] / instr:>9.2f}"
              f"{100 * counts[signals.PCP_INSTR] / instr:>7.2f}")
    return 0


def cmd_campaign(args) -> int:
    if _telemetry_wanted(args):
        from .obs import telemetry
        with telemetry() as tel:
            with _maybe_recording(tel, args):
                status = _campaign(args)
            if args.trace_store:
                print(f"trace store: {args.trace_store}")
            _write_telemetry(tel, args)
        return status
    return _campaign(args)


def _campaign(args) -> int:
    import os

    from .errors import ConfigurationError
    from .fleet import (CampaignSpec, campaign_matrix, matrix_table,
                        rank_portfolio, run_campaign)
    from .fleet.store import STOP_NAME
    if args.workers < 0:
        raise SystemExit("--workers must be >= 0 (0 = in-process)")
    try:
        spec = CampaignSpec(count=args.count, cycles=args.cycles,
                            device=args.device, seed=args.seed,
                            ipc_resolution=args.resolution,
                            drill=args.drill, deadline_s=args.deadline,
                            backend=args.backend)
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    fault_plan = None
    if args.fault_plan:
        from .faults import load_fault_plan
        plan = load_fault_plan(args.fault_plan)
        fault_plan = plan.to_dict()
        print(f"chaos: fault plan {args.fault_plan!r} (seed {plan.seed}, "
              f"{len(plan.rules)} rules) — result cache disabled")
    if args.checkpoint_every and not args.campaign_dir:
        raise SystemExit("--checkpoint-every needs --campaign-dir")
    # same entry path the HTTP service uses (repro.fleet.run_campaign),
    # so a CLI run and a served run of one spec are the same computation
    try:
        report = run_campaign(
            spec, workers=args.workers, cache_dir=args.cache_dir,
            campaign_dir=args.campaign_dir, max_retries=args.retries,
            timeout_s=args.timeout, resume=args.resume,
            fault_plan=fault_plan,
            checkpoint_every=args.checkpoint_every)
    except ConfigurationError as exc:
        # e.g. --backend batch without the repro[batch] extra installed:
        # surface the actionable message, not a traceback
        raise SystemExit(str(exc))
    if report.deadline_exceeded:
        print(f"campaign: DEADLINE EXCEEDED after {args.deadline}s — "
              f"{len(report.records)} of the jobs finished, "
              f"no aggregate written")
        return 1
    if report.preempted:
        stop = os.path.join(args.campaign_dir, STOP_NAME)
        print(f"campaign: STOPPED — {len(report.records)} of "
              f"{report.metrics.total_jobs} jobs finished, no aggregate "
              f"written; delete {stop} and rerun with --resume to finish")
        return 1
    print(f"campaign: {len(report.records)} jobs over "
          f"{args.workers} workers")
    print(report.metrics.summary_table())
    print()
    print(matrix_table(campaign_matrix(report.records)))
    for record in report.quarantined:
        print(f"quarantined: {record['job_id']} after "
              f"{record['attempts']} attempts — {record['error']}")
    if report.aggregate_path:
        print(f"\nstore: {report.store_path}")
        print(f"aggregate: {report.aggregate_path}")
    if args.rank:
        from .core.optimization import hardware_options
        from .core.optimization.portfolio import portfolio_table
        entries = rank_portfolio(spec.customers(), report.records,
                                 _config(args.device), hardware_options(),
                                 work_instructions=args.work,
                                 seed=args.seed)
        print("\nvolume-weighted portfolio ranking:")
        print(portfolio_table(entries))
    return 1 if report.quarantined and args.strict else 0


def cmd_node(args) -> int:
    """Run one cluster worker node over a shared cluster directory."""
    import gc

    from .cluster import ClusterNode
    from .cluster.node import exit_status
    from .errors import ClusterError

    def _run() -> int:
        try:
            node = ClusterNode(args.cluster_dir, node_id=args.node_id,
                               ttl_s=args.ttl, poll_s=args.poll)
        except ClusterError as exc:
            raise SystemExit(str(exc))
        # the start-up heap lives as long as the process: freeze it, so
        # the node's collection after each job skips it
        gc.freeze()
        summary = node.run()
        print(f"node {summary['node']}: {summary['state']} — "
              f"{summary['jobs_done']} jobs, {summary['fenced']} fenced")
        if summary["aggregate_path"]:
            print(f"aggregate: {summary['aggregate_path']}")
        return exit_status(summary)

    if _telemetry_wanted(args):
        from .obs import telemetry
        with telemetry(run_id=args.node_id) as tel:
            with _maybe_recording(tel, args):
                status = _run()
            _write_telemetry(tel, args)
        return status
    return _run()


def cmd_cluster(args) -> int:
    """Cluster campaign coordination: submit, run locally, inspect."""
    import json
    import os

    from .cluster import cluster_status, request_stop, run_clustered, submit
    from .errors import ClusterError, ConfigurationError
    from .fleet import CampaignSpec, jobs_for
    from .fleet.store import STOP_NAME

    if args.cluster_command == "status":
        status = cluster_status(args.cluster_dir)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        if status.get("state") == "empty":
            print(f"cluster {args.cluster_dir}: no campaign submitted")
            return 1
        print(f"cluster {args.cluster_dir}: "
              f"{status['records']['ok']}/{status['total_jobs']} jobs ok, "
              f"{status['records']['quarantined']} quarantined")
        print(f"  jobs: {status['done_jobs']}/{status['total_jobs']} "
              f"done; final={status['final']} stop={status['stop_requested']}")
        for entry in status["job_states"]:
            lease = entry.get("lease")
            held = ""
            if lease is not None:
                held = (" [damaged lease]" if lease.get("damaged") else
                        f" [{lease['node']} token {lease['token']} "
                        f"expires {lease['expires_in_s']:+.1f}s]")
            print(f"    {entry['job_id']}: "
                  f"{'done' if entry['done'] else 'pending'}{held}")
        for node in status["nodes"]:
            print(f"  node {node['node']}: {node['state']} "
                  f"(heartbeat {node['heartbeat_age_s']:.1f}s ago, "
                  f"{node['jobs_done']} jobs)")
        print(f"  nodes alive: {status['nodes_alive']}")
        return 0
    if args.cluster_command == "stop":
        request_stop(args.cluster_dir)
        print(f"cluster {args.cluster_dir}: stop requested")
        return 0

    # submit | run: build the job matrix from the campaign spec flags
    try:
        spec = CampaignSpec(count=args.count, cycles=args.cycles,
                            device=args.device, seed=args.seed,
                            ipc_resolution=args.resolution)
        jobs = jobs_for(spec)
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    fault_plan = None
    if args.fault_plan:
        from .faults import load_fault_plan
        fault_plan = load_fault_plan(args.fault_plan).to_dict()
        print(f"chaos: fault plan {args.fault_plan!r} — "
              f"shared result cache disabled")
    try:
        if args.cluster_command == "submit":
            path = submit(args.cluster_dir, jobs,
                          checkpoint_every=args.checkpoint_every,
                          max_retries=args.retries, fault_plan=fault_plan,
                          deadline_s=args.deadline,
                          cache=not args.no_cache)
            print(f"cluster submit: {len(jobs)} jobs -> {path}")
            print(f"start workers with: repro node "
                  f"--cluster-dir {args.cluster_dir}")
            return 0
        report = run_clustered(jobs, args.cluster_dir, nodes=args.nodes,
                               checkpoint_every=args.checkpoint_every,
                               max_retries=args.retries,
                               fault_plan=fault_plan,
                               deadline_s=args.deadline,
                               cache=not args.no_cache, ttl_s=args.ttl)
    except (ClusterError, ConfigurationError) as exc:
        raise SystemExit(str(exc))
    if report.deadline_exceeded:
        print(f"cluster: DEADLINE EXCEEDED — {len(report.records)} jobs "
              f"committed, no aggregate written")
        return 1
    if report.preempted:
        stop = os.path.join(args.cluster_dir, STOP_NAME)
        print(f"cluster: STOPPED — {len(report.records)} of "
              f"{report.metrics.total_jobs} jobs committed, no aggregate "
              f"written; delete {stop}, then start repro node "
              f"--cluster-dir {args.cluster_dir} to finish")
        return 1
    print(f"cluster: {len(report.records)} jobs over "
          f"{max(1, args.nodes)} nodes")
    print(report.metrics.summary_table())
    for record in report.quarantined:
        print(f"quarantined: {record['job_id']} after "
              f"{record['attempts']} attempts — {record['error']}")
    if report.aggregate_path:
        print(f"\nstore: {report.store_path}")
        print(f"aggregate: {report.aggregate_path}")
    return 0


def cmd_serve(args) -> int:
    """Run the always-on campaign service until interrupted."""
    import asyncio

    from .resilience import CircuitBreaker
    from .serve import CampaignService, QuotaManager, TenantPolicy, serve
    quota = QuotaManager(default=TenantPolicy(
        weight=1.0, burst=args.burst, refill_per_s=args.refill,
        max_queued=args.max_queued))
    breaker = CircuitBreaker(
        window_s=args.breaker_window,
        min_samples=args.breaker_min_samples,
        failure_threshold=args.breaker_threshold,
        cooldown_s=args.breaker_cooldown)
    service = CampaignService(
        root=args.root, quota=quota, slots=args.slots,
        checkpoint_every=args.checkpoint_every,
        max_retries=args.retries, cache_dir=args.cache_dir,
        catalog_path=args.catalog, breaker=breaker,
        trace_store=args.trace_store, cluster_nodes=args.cluster_nodes)
    try:
        asyncio.run(serve(service, host=args.host, port=args.port))
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    return 0


def cmd_catalog(args) -> int:
    """Build the campaign-capability catalog artifact (or print it)."""
    from .serve.catalog import build_catalog, write_catalog
    if args.out:
        path = write_catalog(args.out)
        import os
        print(f"catalog: wrote {path} ({os.path.getsize(path)} bytes)")
    else:
        import json
        print(json.dumps(build_catalog(), indent=2, sort_keys=True))
    return 0


def cmd_telemetry(args) -> int:
    """One fully-instrumented in-process campaign: trace + metrics + events.

    Runs with ``workers=0`` by default so every hook site — kernel advance
    spans, pipeline decode/download spans, gap/fault/trigger instants,
    fleet cache and job events — fires inside this process and lands in
    one correlated timeline.  The exports cover all four metric families
    (kernel, pipeline, faults, fleet) even where a counter stayed zero.
    """
    from .fleet import CampaignRunner, build_matrix
    from .obs import telemetry
    from .workloads import CustomerGenerator
    _config(args.device)          # fail fast on unknown device names
    if args.workers < 0:
        raise SystemExit("--workers must be >= 0 (0 = in-process)")
    customers = CustomerGenerator(seed=args.seed).generate(args.count)
    jobs = build_matrix(customers, devices=(args.device,),
                       cycle_budgets=(args.cycles,), seed=args.seed,
                       ipc_resolution=args.resolution)
    fault_plan = None
    if args.fault_plan:
        from .faults import load_fault_plan
        fault_plan = load_fault_plan(args.fault_plan).to_dict()
    with telemetry(run_id=args.run_id) as tel:
        with _maybe_recording(tel, args):
            report = CampaignRunner(
                jobs, workers=args.workers, cache_dir=args.cache_dir,
                campaign_dir=args.campaign_dir,
                fault_plan=fault_plan).run()
        print(f"run {tel.run_id}: {len(jobs)} jobs, "
              f"{args.workers} workers")
        print(report.metrics.summary_table())
        print(f"\nrecorded {len(tel.tracer)} trace events, "
              f"{len(tel.events)} log records")
        if args.trace_store:
            print(f"trace store: {args.trace_store}")
        _write_telemetry(tel, args, events_out=args.events_out)
    return 0


def cmd_traces(args) -> int:
    """Trace-store analytics: ingest / info / query / diff / export."""
    from .errors import ConfigurationError, TraceStoreError
    try:
        return _TRACES_ACTIONS[args.traces_command](args)
    except (ConfigurationError, TraceStoreError) as exc:
        print(f"traces: {exc}", file=sys.stderr)
        return 1


def _traces_ingest(args) -> int:
    from . import traces
    dest = args.out
    if not dest:
        base = args.source
        for suffix in (".json", ".jsonl"):
            if base.endswith(suffix):
                base = base[:-len(suffix)]
                break
        dest = base + ".rtrace"
    writer = traces.ingest_chrome(args.source, dest, run_id=args.run_id)
    print(f"ingested {writer.events_written} events "
          f"({writer.spans_written} spans, {writer.instants_written} "
          f"instants, {writer.skipped_events} skipped) into {dest}")
    print(f"summary sidecar: {traces.sidecar_path(dest)}")
    return 0


def _traces_info(args) -> int:
    import json as _json

    from . import traces
    with traces.TraceReader(args.segment) as reader:
        counts = reader.counts
        info = {
            "segment": args.segment,
            "run_id": reader.run_id,
            "file_bytes": reader.file_bytes,
            "blocks": len(reader.blocks),
            "events": counts.get("events", 0),
            "spans": counts.get("spans", 0),
            "instants": counts.get("instants", 0),
            "skipped": counts.get("skipped", 0),
            "lanes": [list(lane) for lane in reader.lanes],
        }
    summary = traces.summary_for(args.segment)
    info["totals"] = summary.get("totals", {})
    if args.json:
        print(_json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"segment {args.segment} (run {info['run_id'] or '-'}): "
          f"{info['events']} events in {info['blocks']} blocks, "
          f"{info['file_bytes']} bytes")
    print(f"  spans {info['spans']}, instants {info['instants']}, "
          f"skipped {info['skipped']}, lanes {len(info['lanes'])}")
    for key in sorted(info["totals"]):
        print(f"  {key:<18}{info['totals'][key]}")
    slowest = summary.get("slowest", [])
    if slowest:
        print("slowest spans:")
        for entry in slowest[:5]:
            print(f"  {entry['name']:<28}{entry['dur_us']:>12.1f}us  "
                  f"ts={entry['ts_us']:.1f}"
                  + (f"  job={entry['job']}" if entry.get("job") else ""))
    return 0


def _traces_query(args) -> int:
    import json as _json

    from . import traces
    query = traces.TraceQuery(
        begin_us=args.begin, end_us=args.end,
        names=tuple(args.name) if args.name else None,
        jobs=tuple(args.job) if args.job else None,
        phase=args.phase, limit=args.limit)
    result = traces.query_segment(args.segment, query)
    if args.json:
        print(_json.dumps({
            "events": result.events,
            "blocks_total": result.blocks_total,
            "blocks_scanned": result.blocks_scanned,
            "bytes_read": result.bytes_read,
            "file_bytes": result.file_bytes,
            "bytes_fraction": round(result.bytes_fraction, 4),
            "truncated": result.truncated,
        }, indent=2, sort_keys=True))
        return 0
    for event in result.events:
        job = (event.get("args") or {}).get("job", "")
        dur = f" dur={event['dur']:.1f}us" if event["ph"] == "X" else ""
        print(f"{event['ts']:>14.1f}  {event['ph']}  "
              f"{event['name']:<24}{dur}"
              + (f"  job={job}" if job else ""))
    print(f"-- {len(result.events)} events"
          + (" (truncated)" if result.truncated else "")
          + f"; scanned {result.blocks_scanned}/{result.blocks_total} "
          f"blocks, read {result.bytes_read}/{result.file_bytes} bytes "
          f"({result.bytes_fraction:.1%})")
    return 0


def _traces_diff(args) -> int:
    from . import traces
    diff = traces.diff_summaries(
        traces.summary_for(args.before), traces.summary_for(args.after),
        rel_threshold=args.threshold, abs_threshold=args.min_abs)
    print(traces.format_diff(diff))
    if args.strict and diff.regressions:
        return 1
    return 0


def _traces_export(args) -> int:
    from . import traces
    if not args.chrome and not args.perfetto:
        raise SystemExit("traces export: give --chrome and/or --perfetto")
    with traces.TraceReader(args.segment) as reader:
        if args.chrome:
            traces.write_chrome(reader, args.chrome)
            print(f"chrome trace: {args.chrome}")
        if args.perfetto:
            traces.write_perfetto(reader, args.perfetto)
            print(f"perfetto trace: {args.perfetto}")
    return 0


_TRACES_ACTIONS = {
    "ingest": _traces_ingest,
    "info": _traces_info,
    "query": _traces_query,
    "diff": _traces_diff,
    "export": _traces_export,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Infineon system-performance-optimization methodology "
                    "(DATE 2008) reproduction")
    parser.add_argument("--device", default="tc1797",
                        help="tc1797 or tc1767 (default tc1797)")
    parser.add_argument("--seed", type=int, default=2008)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("topology", help="block inventory and access paths")

    p = sub.add_parser("profile", help="enhanced system profiling run")
    p.add_argument("--scenario", default="engine")
    p.add_argument("--cycles", type=int, default=200_000)
    p.add_argument("--resolution", type=int, default=512)
    p.add_argument("--anomaly", action="store_true")

    p = sub.add_parser("trace", help="program trace capture")
    p.add_argument("--scenario", default="engine")
    p.add_argument("--cycles", type=int, default=100_000)
    p.add_argument("--cycle-accurate", action="store_true")

    p = sub.add_parser("explore", help="architecture-option ranking")
    p.add_argument("--scenario", default="engine")
    p.add_argument("--work", type=int, default=120_000)
    p.add_argument("--hardware-only", action="store_true")

    p = sub.add_parser("profile-kernel",
                       help="simulation-kernel throughput profile "
                            "(naive vs quiescent)")
    p.add_argument("--scenario", default="engine")
    p.add_argument("--cycles", type=int, default=200_000)
    p.add_argument("--idle-halt", action="store_true",
                   help="rtos only: idle hook halts (wait-for-interrupt)")
    p.add_argument("--wall", action="store_true",
                   help="attach the kernel profiler for per-component "
                        "wall-time shares (adds measurement overhead)")
    p.add_argument("--top", type=int, metavar="N",
                   help="print the top-N components by tick self-time "
                        "(sorted, stable output; implies --wall)")
    _add_telemetry_flags(p)

    p = sub.add_parser("customers", help="customer profile matrix")
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--cycles", type=int, default=100_000)

    p = sub.add_parser("campaign", help="parallel fleet profiling campaign")
    p.add_argument("--count", type=int, default=8,
                   help="generated customer population size")
    p.add_argument("--cycles", type=int, default=100_000)
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--backend", choices=("scalar", "batch"),
                   default="scalar",
                   help="execution backend: 'batch' runs each job as a "
                        "numpy lane that rebuilds its profile from the "
                        "emission stream, with byte-identical payloads; "
                        "jobs it cannot model run on the live plane "
                        "(needs the repro[batch] extra; see "
                        "docs/batch.md)")
    p.add_argument("--workers", type=int, default=4,
                   help="worker processes (0 = in-process, no pool)")
    p.add_argument("--cache-dir", help="content-addressed result cache dir")
    p.add_argument("--campaign-dir", help="JSONL store + aggregate dir")
    p.add_argument("--resume", action="store_true",
                   help="replay completed jobs from the campaign store")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget per failing job")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job timeout in seconds")
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock deadline for the whole campaign; "
                        "expiry is terminal (no aggregate, exit 1)")
    p.add_argument("--drill", action="store_true",
                   help="inject an always-crashing job (quarantine demo)")
    p.add_argument("--fault-plan", metavar="PLAN.json",
                   help="chaos-test the campaign under a fault-injection "
                        "plan (see docs/faults.md; disables the cache)")
    p.add_argument("--checkpoint-every", type=int, metavar="CYCLES",
                   help="periodic mid-run job checkpoints: a crashed or "
                        "killed attempt resumes from its last intact "
                        "checkpoint instead of cycle 0 (needs "
                        "--campaign-dir; see docs/checkpoint.md)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero if any job was quarantined")
    p.add_argument("--rank", action="store_true",
                   help="volume-weighted portfolio ranking afterwards")
    p.add_argument("--work", type=int, default=80_000,
                   help="per-option work instructions for --rank")
    _add_telemetry_flags(p)

    p = sub.add_parser("telemetry",
                       help="instrumented campaign run: Chrome trace, "
                            "Prometheus metrics, JSONL event log")
    p.add_argument("--count", type=int, default=4,
                   help="generated customer population size")
    p.add_argument("--cycles", type=int, default=50_000)
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes (default 0: in-process, so "
                        "every hook records into one timeline)")
    p.add_argument("--cache-dir", help="content-addressed result cache dir")
    p.add_argument("--campaign-dir", help="JSONL store + aggregate dir")
    p.add_argument("--fault-plan", metavar="PLAN.json",
                   help="run under a fault-injection plan so fault "
                        "instants appear on the timeline")
    p.add_argument("--run-id", help="override the generated run id")
    p.add_argument("--trace-out", metavar="TRACE.json",
                   default="telemetry_trace.json",
                   help="Chrome/Perfetto trace path "
                        "(default telemetry_trace.json)")
    p.add_argument("--metrics-out", metavar="METRICS.prom",
                   default="telemetry_metrics.prom",
                   help="Prometheus text-format path "
                        "(default telemetry_metrics.prom)")
    p.add_argument("--events-out", metavar="EVENTS.jsonl",
                   default="telemetry_events.jsonl",
                   help="structured event-log path "
                        "(default telemetry_events.jsonl)")
    p.add_argument("--trace-store", metavar="SEGMENT.rtrace",
                   help="also stream every span into a columnar "
                        "trace-store segment (see `repro traces`)")

    p = sub.add_parser("node",
                       help="one cluster worker node: claim jobs via "
                            "leases over a shared directory, execute, "
                            "migrate work off dead peers (docs/cluster.md)")
    p.add_argument("--cluster-dir", required=True,
                   help="shared cluster coordination directory")
    p.add_argument("--node-id",
                   help="stable node name (default node-<pid>)")
    p.add_argument("--ttl", type=float, default=10.0, metavar="SECONDS",
                   help="lease TTL: miss heartbeats for this long and "
                        "the node's job migrates (default 10)")
    p.add_argument("--poll", type=float, default=0.2, metavar="SECONDS",
                   help="claim-scan interval while jobs are all "
                        "leased out; an idle node still checks for a "
                        "final or stopped campaign every 10 ms "
                        "(default 0.2)")
    _add_telemetry_flags(p)

    p = sub.add_parser("cluster",
                       help="multi-node campaign coordination: submit a "
                            "manifest, run N local nodes, inspect state")
    csub = p.add_subparsers(dest="cluster_command", required=True)

    def _cluster_campaign_flags(cp) -> None:
        cp.add_argument("--cluster-dir", required=True,
                        help="shared cluster coordination directory")
        cp.add_argument("--count", type=int, default=8,
                        help="generated customer population size")
        cp.add_argument("--cycles", type=int, default=100_000)
        cp.add_argument("--resolution", type=int, default=256)
        cp.add_argument("--checkpoint-every", type=int, default=5_000,
                        metavar="CYCLES",
                        help="chunk size: a node checks STOP and the "
                             "deadline every CYCLES cycles, and saves a "
                             "checkpoint and renews its lease there once "
                             "a third of the lease TTL has passed; keep "
                             "a chunk's wall under two thirds of the TTL "
                             "(default 5000)")
        cp.add_argument("--retries", type=int, default=2,
                        help="retry budget per failing job")
        cp.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline for the whole campaign")
        cp.add_argument("--fault-plan", metavar="PLAN.json",
                        help="chaos-test under a fault-injection plan "
                             "(disables the shared cache)")
        cp.add_argument("--no-cache", action="store_true",
                        help="disable the shared content-addressed "
                             "result cache")

    cp = csub.add_parser("submit",
                         help="publish a campaign manifest; start "
                              "`repro node` workers to execute it")
    _cluster_campaign_flags(cp)

    cp = csub.add_parser("run",
                         help="submit + run N local node subprocesses to "
                              "completion (0 = one in-process node)")
    _cluster_campaign_flags(cp)
    cp.add_argument("--nodes", type=int, default=2,
                    help="worker node subprocesses (default 2; "
                         "0 = in-process)")
    cp.add_argument("--ttl", type=float, default=5.0, metavar="SECONDS",
                    help="lease TTL for the spawned nodes (default 5)")

    cp = csub.add_parser("status",
                         help="snapshot of jobs, leases, node "
                              "heartbeats, and results")
    cp.add_argument("--cluster-dir", required=True)
    cp.add_argument("--json", action="store_true")

    cp = csub.add_parser("stop",
                         help="ask every node to stop at its next safe "
                              "boundary (checkpoints survive)")
    cp.add_argument("--cluster-dir", required=True)

    p = sub.add_parser("serve",
                       help="always-on campaign service: HTTP submission, "
                            "priority queue, SSE result streaming")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="listen port (0 = OS-assigned; the bound address "
                        "is printed on startup)")
    p.add_argument("--root", default="serve_data",
                   help="state directory: per-campaign stores, "
                        "checkpoints, aggregates (default serve_data)")
    p.add_argument("--slots", type=int, default=1,
                   help="campaigns executing concurrently (default 1)")
    p.add_argument("--checkpoint-every", type=int, default=5_000,
                   metavar="CYCLES",
                   help="checkpoint cadence = preemption granularity "
                        "(default 5000 cycles)")
    p.add_argument("--retries", type=int, default=1,
                   help="retry budget per failing job (default 1)")
    p.add_argument("--cache-dir",
                   help="shared content-addressed result cache dir")
    p.add_argument("--catalog", metavar="CATALOG.json",
                   help="serve this pinned catalog artifact instead of "
                        "building one at startup (see `repro catalog`)")
    p.add_argument("--burst", type=float, default=4.0,
                   help="default tenant token-bucket burst (default 4)")
    p.add_argument("--refill", type=float, default=0.5,
                   help="default tenant refill rate, campaigns/s "
                        "(default 0.5)")
    p.add_argument("--max-queued", type=int, default=8,
                   help="default per-tenant queued+running cap (default 8)")
    p.add_argument("--breaker-window", type=float, default=30.0,
                   metavar="SECONDS",
                   help="circuit-breaker failure-rate window (default 30)")
    p.add_argument("--breaker-threshold", type=float, default=0.5,
                   help="failure fraction that trips the breaker "
                        "(default 0.5)")
    p.add_argument("--breaker-cooldown", type=float, default=5.0,
                   metavar="SECONDS",
                   help="initial open-state cooldown; doubles per "
                        "consecutive trip (default 5)")
    p.add_argument("--breaker-min-samples", type=int, default=5,
                   help="outcomes required before the breaker may trip "
                        "(default 5)")
    p.add_argument("--trace-store", metavar="DIR",
                   help="record each campaign into a .rtrace segment "
                        "under DIR (one at a time; see docs/traces.md)")
    p.add_argument("--cluster-nodes", type=int, default=0, metavar="N",
                   help="execute each campaign over N cluster worker "
                        "node subprocesses (survives node death; "
                        "default 0 = in-process orchestrator; see "
                        "docs/cluster.md)")

    p = sub.add_parser("catalog",
                       help="build the campaign-capability catalog "
                            "artifact for `repro serve --catalog`")
    p.add_argument("--out", metavar="CATALOG.json",
                   help="write the canonical-JSON artifact here "
                        "(omit to print it)")

    p = sub.add_parser("checkpoint",
                       help="snapshot / inspect / resume a simulation run")
    p.add_argument("--scenario", default="engine")
    p.add_argument("--cycles", type=int, default=100_000,
                   help="cycles to run before saving (or after restoring)")
    p.add_argument("--out", default="repro.ckpt", metavar="FILE.ckpt",
                   help="checkpoint path to write (default repro.ckpt)")
    p.add_argument("--info", metavar="FILE.ckpt",
                   help="inspect an existing checkpoint and exit")
    p.add_argument("--restore", metavar="FILE.ckpt",
                   help="rebuild the device recorded in the checkpoint, "
                        "restore it, and run --cycles more")

    p = sub.add_parser("traces",
                       help="trace-store analytics: ingest, query, "
                            "cross-run diff, Chrome/Perfetto export")
    tsub = p.add_subparsers(dest="traces_command", required=True)

    tp = tsub.add_parser("ingest",
                         help="convert a Chrome trace JSON file into a "
                              "columnar .rtrace segment")
    tp.add_argument("source", help="Chrome trace-event JSON file")
    tp.add_argument("-o", "--out", metavar="SEGMENT.rtrace",
                    help="segment path (default: source with .rtrace)")
    tp.add_argument("--run-id", help="run id recorded in the footer")

    tp = tsub.add_parser("info", help="segment footer + summary overview")
    tp.add_argument("segment")
    tp.add_argument("--json", action="store_true")

    tp = tsub.add_parser("query",
                         help="predicate query reading only matching "
                              "column blocks")
    tp.add_argument("segment")
    tp.add_argument("--begin", type=float, metavar="US",
                    help="window start (microseconds since trace epoch)")
    tp.add_argument("--end", type=float, metavar="US", help="window end")
    tp.add_argument("--name", action="append", metavar="SPAN",
                    help="span/instant name filter (repeatable)")
    tp.add_argument("--job", action="append", metavar="CUSTOMER",
                    help="customer/job filter (repeatable)")
    tp.add_argument("--phase", choices=("X", "i"),
                    help="spans only (X) or instants only (i)")
    tp.add_argument("--limit", type=int, help="stop after N matches")
    tp.add_argument("--json", action="store_true")

    tp = tsub.add_parser("diff",
                         help="cross-run diff of two segments by "
                              "(customer, signal)")
    tp.add_argument("before", help="baseline .rtrace segment")
    tp.add_argument("after", help="candidate .rtrace segment")
    tp.add_argument("--threshold", type=float, default=0.01,
                    help="relative change required (default 0.01 = 1%%)")
    tp.add_argument("--min-abs", type=float, default=1e-9,
                    help="absolute change floor (default 1e-9)")
    tp.add_argument("--strict", action="store_true",
                    help="exit 1 when any regression is found")

    tp = tsub.add_parser("export",
                         help="export a segment to Chrome JSON and/or "
                              "Perfetto protobuf")
    tp.add_argument("segment")
    tp.add_argument("--chrome", metavar="OUT.json")
    tp.add_argument("--perfetto", metavar="OUT.pftrace")

    p = sub.add_parser("report", help="full profiling report (+export)")
    p.add_argument("--scenario", default="engine")
    p.add_argument("--cycles", type=int, default=200_000)
    p.add_argument("--resolution", type=int, default=512)
    p.add_argument("--anomaly", action="store_true")
    p.add_argument("--json", help="write full series JSON to this path")
    p.add_argument("--csv", help="write summary CSV to this path")
    return parser


COMMANDS = {
    "topology": cmd_topology,
    "profile": cmd_profile,
    "trace": cmd_trace,
    "explore": cmd_explore,
    "profile-kernel": cmd_profile_kernel,
    "customers": cmd_customers,
    "checkpoint": cmd_checkpoint,
    "campaign": cmd_campaign,
    "telemetry": cmd_telemetry,
    "node": cmd_node,
    "cluster": cmd_cluster,
    "serve": cmd_serve,
    "catalog": cmd_catalog,
    "traces": cmd_traces,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
