"""E13 — Fleet campaign scaling over the customer population (ROADMAP).

The architect's population profiling (E9) is embarrassingly parallel
across customers: every job rebuilds its own seeded device.  E13 measures
what the ``repro.fleet`` subsystem buys: wall-clock speedup of an
N-worker campaign over the sequential 1-worker path, and the cost of a
warm-cache re-run (which must execute zero jobs).  Determinism is
asserted, not assumed — the parallel aggregate must be byte-identical to
the sequential one.
"""

import os
import tempfile
import time

import pytest

from repro.fleet import build_matrix, run_campaign
from repro.workloads import CustomerGenerator

from _common import emit, once

#: long enough that the sequential leg takes over 5 s on a 2-vCPU host,
#: so the speedup gate times parallel simulation, not pool start-up
CYCLES = 300_000
N_CUSTOMERS = 8
WORKERS = 4
SEED = 9


def run_experiment():
    customers = CustomerGenerator(seed=42).generate(N_CUSTOMERS)
    jobs = build_matrix(customers, cycle_budgets=(CYCLES,), seed=SEED)
    with tempfile.TemporaryDirectory() as root:
        t0 = time.perf_counter()
        seq = run_campaign(jobs, workers=1,
                           campaign_dir=f"{root}/seq")
        seq_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        par = run_campaign(jobs, workers=WORKERS,
                           cache_dir=f"{root}/cache",
                           campaign_dir=f"{root}/par")
        par_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm = run_campaign(jobs, workers=WORKERS,
                            cache_dir=f"{root}/cache",
                            campaign_dir=f"{root}/warm")
        warm_wall = time.perf_counter() - t0

        with open(seq.aggregate_path, "rb") as a, \
                open(par.aggregate_path, "rb") as b:
            identical = a.read() == b.read()
    return {
        "seq_wall": seq_wall, "par_wall": par_wall, "warm_wall": warm_wall,
        "identical": identical, "seq": seq.metrics, "par": par.metrics,
        "warm": warm.metrics,
    }


@pytest.mark.benchmark(group="e13")
def test_e13_fleet_scaling(benchmark):
    data = once(benchmark, run_experiment)
    speedup = data["seq_wall"] / data["par_wall"]
    warm_speedup = data["seq_wall"] / data["warm_wall"]
    lines = [
        f"{'campaign':<22}{'wall s':>9}{'jobs/s':>9}{'executed':>10}"
        f"{'cache':>7}{'util%':>7}",
        f"{'sequential (1 worker)':<22}{data['seq_wall']:>9.2f}"
        f"{data['seq'].jobs_per_sec:>9.2f}{data['seq'].executed:>10}"
        f"{data['seq'].cache_hits:>7}"
        f"{100 * data['seq'].worker_utilization:>7.0f}",
        f"{f'parallel ({WORKERS} workers)':<22}{data['par_wall']:>9.2f}"
        f"{data['par'].jobs_per_sec:>9.2f}{data['par'].executed:>10}"
        f"{data['par'].cache_hits:>7}"
        f"{100 * data['par'].worker_utilization:>7.0f}",
        f"{'warm-cache re-run':<22}{data['warm_wall']:>9.2f}"
        f"{data['warm'].jobs_per_sec:>9.2f}{data['warm'].executed:>10}"
        f"{data['warm'].cache_hits:>7}"
        f"{100 * data['warm'].worker_utilization:>7.0f}",
        "",
        f"host cores: {os.cpu_count()}",
        f"speedup {WORKERS} workers vs sequential: {speedup:.2f}x",
        f"warm-cache re-run vs sequential: {warm_speedup:.1f}x "
        f"({data['warm_wall'] * 1000:.0f} ms, 0 jobs executed)",
        f"parallel aggregate byte-identical to sequential: "
        f"{data['identical']}",
    ]
    emit("E13", "fleet campaign scaling & cache warm re-run", lines)

    assert data["identical"]
    assert data["warm"].executed == 0
    assert data["warm"].cache_hits == N_CUSTOMERS
    # parallel speedup needs actual cores; on a single-core host the
    # campaign still completes, it just can't overlap simulation
    if (os.cpu_count() or 1) >= 2:
        assert speedup > 1.2
    assert data["warm_wall"] < data["seq_wall"]
