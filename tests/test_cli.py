"""CLI: every subcommand runs and prints the expected artifacts."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_topology(capsys):
    code, out = run_cli(capsys, "topology")
    assert code == 0
    assert "tricore" in out and "mcds" in out
    assert "dap -> ecerberus -> bbb -> emem" in out


def test_topology_tc1767(capsys):
    code, out = run_cli(capsys, "--device", "tc1767", "topology")
    assert code == 0
    assert "tc1767ED" in out


def test_unknown_device_exits():
    with pytest.raises(SystemExit):
        main(["--device", "tc9999", "topology"])


def test_profile(capsys):
    code, out = run_cli(capsys, "profile", "--cycles", "60000")
    assert code == 0
    assert "tc.ipc" in out
    assert "Mbit/s" in out


def test_profile_anomaly_finds_dips(capsys):
    code, out = run_cli(capsys, "profile", "--cycles", "150000", "--anomaly",
                        "--resolution", "512")
    assert code == 0
    assert "poor-IPC windows" in out


def test_trace(capsys):
    code, out = run_cli(capsys, "trace", "--cycles", "40000")
    assert code == 0
    assert "bits/instr" in out
    assert "discontinuities" in out


def test_trace_other_scenario(capsys):
    code, out = run_cli(capsys, "trace", "--cycles", "40000",
                        "--scenario", "transmission")
    assert code == 0
    assert "decoded" in out


def test_unknown_scenario_exits():
    with pytest.raises(SystemExit):
        main(["profile", "--scenario", "spaceship"])


def test_explore_hardware_only(capsys):
    code, out = run_cli(capsys, "explore", "--work", "40000",
                        "--hardware-only")
    assert code == 0
    assert "gain/cost" in out
    assert "mean absolute error" in out
    assert "tables_dspr" not in out     # software options excluded


def test_customers(capsys):
    code, out = run_cli(capsys, "customers", "--count", "2",
                        "--cycles", "30000")
    assert code == 0
    assert "customer00" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_report(capsys, tmp_path):
    json_path = tmp_path / "profile.json"
    csv_path = tmp_path / "summary.csv"
    code, out = run_cli(capsys, "report", "--cycles", "60000",
                        "--json", str(json_path), "--csv", str(csv_path))
    assert code == 0
    assert "Enhanced System Profiling report" in out
    assert "CPI stack" in out
    assert json_path.exists() and csv_path.exists()
    import json as json_mod
    payload = json_mod.loads(json_path.read_text())
    assert payload["cycles_run"] == 60000


def test_campaign(capsys, tmp_path):
    code, out = run_cli(capsys, "campaign", "--count", "3",
                        "--cycles", "15000", "--workers", "2",
                        "--cache-dir", str(tmp_path / "cache"),
                        "--campaign-dir", str(tmp_path / "run"))
    assert code == 0
    assert "3 jobs over 2 workers" in out
    assert "worker utilization" in out
    assert "customer00" in out
    assert (tmp_path / "run" / "campaign.jsonl").exists()
    assert (tmp_path / "run" / "aggregate.json").exists()


def test_campaign_warm_cache_rerun(capsys, tmp_path):
    args = ["campaign", "--count", "2", "--cycles", "15000",
            "--workers", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--campaign-dir", str(tmp_path / "run")]
    run_cli(capsys, *args)
    code, out = run_cli(capsys, *args)
    assert code == 0
    assert "cache hits 2 (100%)" in " ".join(out.split())
    assert "executed 0" in " ".join(out.split())


def test_campaign_drill_quarantines(capsys, tmp_path):
    code, out = run_cli(capsys, "campaign", "--count", "2",
                        "--cycles", "15000", "--workers", "2",
                        "--retries", "1", "--drill",
                        "--campaign-dir", str(tmp_path / "run"))
    assert code == 0                 # quarantine is not a campaign failure
    assert "quarantined: fault-drill-" in out
    assert "customer00" in out       # healthy jobs still reported


def test_campaign_drill_strict_exits_nonzero(capsys, tmp_path):
    code, out = run_cli(capsys, "campaign", "--count", "2",
                        "--cycles", "15000", "--workers", "2",
                        "--retries", "0", "--drill", "--strict")
    assert code == 1


def test_cluster_run_prints_wall_and_sim_throughput(capsys, tmp_path):
    code, out = run_cli(capsys, "cluster", "run",
                        "--cluster-dir", str(tmp_path / "c"),
                        "--count", "2", "--cycles", "2000",
                        "--checkpoint-every", "500", "--nodes", "0")
    assert code == 0
    summary = " ".join(out.split())
    assert "executed 2" in summary
    assert "campaign wall 0.00 s" not in summary
    assert "(4,000 cycles)" in summary
    assert "sim throughput 0 cycles/s" not in summary


def test_cluster_run_rejects_negative_retries(tmp_path):
    with pytest.raises(SystemExit, match="max_retries must be >= 0"):
        main(["cluster", "run", "--cluster-dir", str(tmp_path / "c"),
              "--count", "1", "--cycles", "2000", "--nodes", "0",
              "--retries", "-1"])


def test_campaign_stopped_by_stop_file_says_so(capsys, tmp_path):
    """A STOPped campaign is not a finished one: exit 1, no matrix, and
    the way to finish it."""
    run = tmp_path / "run"
    run.mkdir()
    (run / "STOP").write_text("stop\n")
    code, out = run_cli(capsys, "campaign", "--count", "2",
                        "--cycles", "3000", "--workers", "0",
                        "--campaign-dir", str(run))
    assert code == 1
    assert "campaign: STOPPED" in out
    assert "0 of 2 jobs finished" in out
    assert f"delete {run / 'STOP'} and rerun with --resume to finish" in out
    assert "customer00" not in out      # no matrix
    assert not (run / "aggregate.json").exists()


def test_cluster_run_stopped_by_stop_file_says_so(capsys, tmp_path):
    cdir = tmp_path / "c"
    cdir.mkdir()
    (cdir / "STOP").write_text("stop\n")
    code, out = run_cli(capsys, "cluster", "run", "--cluster-dir", str(cdir),
                        "--count", "2", "--cycles", "3000", "--nodes", "0")
    assert code == 1
    assert "cluster: STOPPED" in out
    assert "0 of 2 jobs committed" in out
    assert (f"delete {cdir / 'STOP'}, then start repro node "
            f"--cluster-dir {cdir} to finish") in out
    assert "jobs total" not in out      # no summary table
    assert not (cdir / "aggregate.json").exists()


def test_campaign_rank(capsys, tmp_path):
    code, out = run_cli(capsys, "campaign", "--count", "2",
                        "--cycles", "15000", "--workers", "0",
                        "--work", "20000", "--rank")
    assert code == 0
    assert "volume-weighted portfolio ranking" in out
    assert "gain/cost" in out


def test_telemetry_subcommand_writes_artifacts(capsys, tmp_path):
    import json
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.prom"
    events = tmp_path / "events.jsonl"
    code, out = run_cli(capsys, "telemetry", "--count", "2",
                        "--cycles", "15000",
                        "--trace-out", str(trace),
                        "--metrics-out", str(metrics),
                        "--events-out", str(events))
    assert code == 0
    assert "telemetry trace:" in out
    body = json.loads(trace.read_text())
    names = {e["name"] for e in body["traceEvents"]}
    assert {"campaign", "job.execute", "sim.advance",
            "pipeline.decode"} <= names
    prom = metrics.read_text()
    # the four metric families the telemetry run must cover
    for family in ("repro_sim_cycles_total", "repro_pipeline_messages_total",
                   "repro_faults_injected_total", "repro_fleet_jobs_total"):
        assert f"# TYPE {family} counter" in prom
    records = [json.loads(line)
               for line in events.read_text().splitlines()]
    assert records[0]["event"] == "campaign.start"
    assert records[-1]["event"] == "campaign.end"
    assert len({r["run_id"] for r in records}) == 1


def test_campaign_telemetry_flags(capsys, tmp_path):
    import json
    trace = tmp_path / "trace.json"
    code, out = run_cli(capsys, "campaign", "--count", "2",
                        "--cycles", "15000", "--workers", "2",
                        "--trace-out", str(trace),
                        "--metrics-out", str(tmp_path / "m.prom"))
    assert code == 0
    body = json.loads(trace.read_text())
    jobs = [e for e in body["traceEvents"]
            if e["name"] == "job.execute" and e["ph"] == "X"]
    # retro-emitted spans carry the worker pids
    assert len(jobs) == 2 and all(e["pid"] != 0 for e in jobs)
    assert "repro_fleet_jobs_total" in (tmp_path / "m.prom").read_text()


def test_profile_kernel_telemetry_flags(capsys, tmp_path):
    metrics = tmp_path / "k.prom"
    code, out = run_cli(capsys, "profile-kernel", "--cycles", "20000",
                        "--wall", "--metrics-out", str(metrics))
    assert code == 0
    assert "quiescent speedup" in out        # old output shape kept
    prom = metrics.read_text()
    # both kernel modes fold into the same schema repro telemetry uses
    assert 'repro_kernel_cycles_per_sec{kernel="naive"}' in prom
    assert 'repro_kernel_cycles_per_sec{kernel="quiescent"}' in prom
    assert "repro_kernel_component_ticks_total" in prom
    assert "repro_kernel_component_wall_seconds" in prom


def test_profile_kernel_top_table(capsys):
    # --top implies --wall: no explicit flag needed for self-time ranking
    code, out = run_cli(capsys, "profile-kernel", "--cycles", "20000",
                        "--top", "2")
    assert code == 0
    for mode in ("naive", "quiescent"):
        header = f"top 2 components by tick self-time ({mode}):"
        assert header in out
        block = out.split(header, 1)[1].splitlines()
        # header row + exactly 2 ranked rows before the blank line
        ranked = []
        for line in block[2:]:
            if not line.strip():
                break
            ranked.append(line)
        assert len(ranked) == 2
    # the hottest engine component is the CPU, on both kernels
    assert out.count("  1 tricore") == 2


def test_profile_kernel_checks_the_measurement_plane(capsys, monkeypatch):
    # a window horizon one unit too far closes instruction-basis windows a
    # tick late on the quiescent kernel only: a bare run's oracle totals
    # cannot see that, the profiled run's EMEM stream does
    from repro.mcds.counters import _BasisGroup
    monkeypatch.setattr(_BasisGroup, "horizon",
                        lambda group: group.left - group.pending + 1)
    code, out = run_cli(capsys, "profile-kernel", "--cycles", "20000")
    assert code == 1
    assert "oracle totals diverged" not in out
    assert "EMEM streams or counter snapshots diverged" in out


def test_catalog_prints_document(capsys):
    code, out = run_cli(capsys, "catalog")
    assert code == 0
    import json as json_mod
    doc = json_mod.loads(out)
    assert set(doc["devices"]) == {"tc1767", "tc1797"}
    assert doc["catalog_schema"] == 1


def test_catalog_writes_artifact(capsys, tmp_path):
    path = tmp_path / "catalog.json"
    code, out = run_cli(capsys, "catalog", "--out", str(path))
    assert code == 0
    assert "catalog: wrote" in out
    from repro.serve import build_catalog, load_catalog
    assert load_catalog(str(path)) == build_catalog()
