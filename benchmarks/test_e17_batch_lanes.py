"""E17 — Batch-lane portfolio throughput vs the scalar per-customer loop.

The batch backend (``repro.batch``) replaces the live measurement plane —
counter structures, message encoding, EMEM storage, session decode — with
an emission log per lane plus one vectorized reconstruction pass, and
fans N same-config portfolio customers into one ``LaneSimulator``.  Its
advantage therefore *grows with measurement density*: the scalar worker
pays per sample, the lanes pay (almost) only for the simulation itself.

Two legs, both through the real fleet worker entry points:

* **fine** — the finest measurement grid the EMEM trace share can hold
  without degradation (a rate sample per instruction): the workload the
  backend exists for, gated at >= 5x.
* **default** — the campaign defaults (ipc 256, rate_per 100): the
  typical-case speedup, reported transparently.  Its regression gate
  does not use the speedup, whose scalar side moves with every change to
  the measurement plane: the lanes' time is normalised by a bare
  naive-kernel run of the same jobs (no profiling session, so no plane),
  the way E15 normalises the quiescent kernel.

Byte-identity is asserted payload-for-payload across every lane before
any speedup is reported — the backend's contract is that results never
depend on which backend ran.

Outputs ``BENCH_batch.json`` at the repo root for the CI perf-smoke
lane, which compares against the committed baseline in
``benchmarks/batch_baseline.json`` and fails on a >25% regression: of
the fine leg's speedup, and of the default leg's ``batch_over_naive``.
"""

import gc
import json
import os
import time

import pytest

from repro.fleet.spec import build_matrix
from repro.fleet.worker import (CONFIGS, SCENARIOS, execute_job,
                                run_batch_shard)
from repro.soc.kernel import kernel_mode
from repro.workloads import CustomerGenerator

from _common import emit, once

BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "batch_baseline.json")
BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_batch.json")

#: (leg, lanes, cycles, ipc_resolution, rate_per)
LEGS = [
    ("fine", 64, 20_000, 32, 1),
    ("default", 16, 100_000, 256, 100),
]

#: the leg whose gate is normalised by a bare naive-kernel run
NORMALISED_LEG = "default"
#: rounds behind that gate: each side keeps its best round, as E15 does
GATE_ROUNDS = 3


def engine_jobs(lanes, cycles, ipc_resolution, rate_per):
    """One same-config engine portfolio: N customers, one group key."""
    customers = CustomerGenerator(
        seed=2008, domain_mix=(1, 0, 0, 0)).generate(lanes)
    return [job.to_dict() for job in build_matrix(
        customers, devices=("tc1797",), cycle_budgets=(cycles,),
        seed=2008, ipc_resolution=ipc_resolution, rate_per=rate_per)]


def canon(payload):
    return json.dumps(payload, sort_keys=True)


def bare_naive_run(jobs):
    """Build and run ``jobs`` on the naive kernel without a profiling session."""
    with kernel_mode("naive"):
        for job in jobs:
            device = SCENARIOS[job["domain"]]().build(
                CONFIGS[job["device"]](), dict(job["params"]),
                seed=job["seed"])
            device.run(job["cycles"])


def wall_s(func, jobs):
    gc.collect()
    t0 = time.perf_counter()
    func(jobs)
    return time.perf_counter() - t0


def normalised_gate(jobs, batch_s):
    """Best lanes wall over best bare naive-kernel wall, ``GATE_ROUNDS``
    each.  The rounds alternate so both sides sample the same stretch of
    host speed; the lanes' first round is the leg's timed run."""
    batch, naive = [batch_s], []
    for round_ in range(GATE_ROUNDS):
        naive.append(wall_s(bare_naive_run, jobs))
        if round_ < GATE_ROUNDS - 1:
            batch.append(wall_s(run_batch_shard, jobs))
    return {"batch_best_s": min(batch), "naive_s": min(naive),
            "batch_over_naive": min(batch) / min(naive)}


def run_leg(lanes, cycles, ipc_resolution, rate_per, normalise=False):
    jobs = engine_jobs(lanes, cycles, ipc_resolution, rate_per)

    # each leg holds exactly what the real shard would hold: its own
    # payloads.  Between legs only the canonical strings survive, and a
    # collect levels the GC field so neither leg is billed for the other
    # leg's live object graph.
    gc.collect()
    t0 = time.perf_counter()
    scalar = [execute_job(job) for job in jobs]
    scalar_s = time.perf_counter() - t0
    assert max(s["profile"]["lost_messages"] for s in scalar) == 0, \
        "workload overflows the EMEM; lanes would have refused it"
    scalar_canon = [canon(s) for s in scalar]
    del scalar

    gc.collect()
    t0 = time.perf_counter()
    outcomes = run_batch_shard(jobs)
    batch_s = time.perf_counter() - t0

    assert all(o["status"] == "ok" for o in outcomes)
    assert [o["job"]["name"] for o in outcomes] == \
        [job["name"] for job in jobs]
    # the gate: every lane's payload byte-identical to the scalar worker's
    mismatches = [job["name"] for job, o, s in
                  zip(jobs, outcomes, scalar_canon)
                  if canon(o["payload"]) != s]
    assert not mismatches, \
        f"batch payloads diverged from scalar for {mismatches}"

    result = {
        "lanes": lanes,
        "cycles": cycles,
        "ipc_resolution": ipc_resolution,
        "rate_per": rate_per,
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "scalar_per_job_s": scalar_s / lanes,
        "batch_per_job_s": batch_s / lanes,
        "speedup": scalar_s / batch_s,
    }
    if normalise:
        result.update(normalised_gate(jobs, batch_s))
    return result


def run_experiment():
    # warm interpreter caches so the first timed leg is not charged for
    # process warm-up (same discipline as E15)
    execute_job(engine_jobs(1, 5_000, 256, 100)[0])
    return {name: run_leg(lanes, cycles, ipc, rate,
                          normalise=name == NORMALISED_LEG)
            for name, lanes, cycles, ipc, rate in LEGS}


@pytest.mark.benchmark(group="e17")
def test_e17_batch_lanes(benchmark):
    data = once(benchmark, run_experiment)
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)

    lines = [
        f"{'leg':<9}{'lanes':>6}{'cycles':>8}{'ipc':>5}{'rate':>5}"
        f"{'scalar s':>10}{'batch s':>9}{'speedup':>9}{'baseline':>10}",
    ]
    for name, r in data.items():
        lines.append(
            f"{name:<9}{r['lanes']:>6}{r['cycles']:>8}"
            f"{r['ipc_resolution']:>5}{r['rate_per']:>5}"
            f"{r['scalar_s']:>10.2f}{r['batch_s']:>9.2f}"
            f"{r['speedup']:>8.2f}x{baseline[name]['speedup']:>9.2f}x")
    norm = data[NORMALISED_LEG]
    lines += [
        "",
        f"{NORMALISED_LEG} leg gate, best of {GATE_ROUNDS}: batch "
        f"{norm['batch_best_s']:.2f} s over bare naive-kernel run "
        f"{norm['naive_s']:.2f} s = {norm['batch_over_naive']:.3f} "
        f"(baseline {baseline[NORMALISED_LEG]['batch_over_naive']:.3f})",
        "",
        "byte-identity asserted payload-for-payload on every lane of",
        "both legs before any speedup was reported.",
    ]
    emit("E17", "batch-lane portfolio vs scalar per-customer loop", lines)

    with open(BENCH_PATH, "w") as handle:
        json.dump({"legs": data}, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # acceptance floor (ISSUE): a same-config engine portfolio on the
    # finest supported grid runs >= 5x faster through the lanes
    assert data["fine"]["speedup"] >= 5.0
    # perf smoke: >25% regression against the committed baseline fails.
    # The normalised leg is gated on the lanes alone: its speedup also
    # moves when the scalar side's measurement plane gets faster.
    for name, r in data.items():
        if name == NORMALISED_LEG:
            ceiling = 1.25 * baseline[name]["batch_over_naive"]
            assert r["batch_over_naive"] <= ceiling, \
                f"{name}: batch over bare naive run " \
                f"{r['batch_over_naive']:.3f} exceeds 125% of the " \
                f"committed baseline ({ceiling:.3f})"
            continue
        floor = 0.75 * baseline[name]["speedup"]
        assert r["speedup"] >= floor, \
            f"{name}: speedup {r['speedup']:.2f}x regressed below " \
            f"75% of the committed baseline ({floor:.2f}x)"
