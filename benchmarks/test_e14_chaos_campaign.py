"""E14 — Chaos campaign: fleet convergence under fault injection (ROADMAP).

The robustness claim of ``repro.faults``: a profiling campaign running
under an adversarial fault plan — transient worker crashes, short hangs,
one permanently poisoned job — still converges, quarantines exactly the
poisoned job, and produces byte-identical payloads for every surviving
job.  The retry policy (``repro.fleet.worker.should_retry``: a retryable
failure runs again at once, within the retry budget) absorbs the injected
chaos; determinism absorbs nothing less than everything else.
"""

import json
import os
import tempfile
import time

import pytest

from repro.faults import load_fault_plan
from repro.fleet import CampaignJob, build_matrix, run_campaign
from repro.fleet.spec import canonical_json
from repro.workloads import CustomerGenerator

from _common import emit, once

CYCLES = 60_000
N_CUSTOMERS = 6
WORKERS = 4
SEED = 9
PLAN_PATH = os.path.join(os.path.dirname(__file__), "fault_plan.json")


def build_jobs():
    customers = CustomerGenerator(seed=42).generate(N_CUSTOMERS)
    jobs = build_matrix(customers, cycle_budgets=(CYCLES,), seed=SEED)
    jobs.append(CampaignJob(name="poison-drill", domain="engine",
                            device="tc1797", cycles=CYCLES, seed=SEED))
    return jobs


def checkpoint_chaos_plan(base):
    """The base chaos plan plus checkpoint-era failure modes: mid-run
    crashes at checkpoint boundaries and damaged checkpoint files, so
    recovery must survive resuming from a *rejected* checkpoint too."""
    rules = [rule.to_dict() for rule in base.rules] + [
        {"site": "worker.crash", "probability": 0.5, "max_faults": 1,
         "match": {"phase": "checkpoint", "attempt": 0}},
        {"site": "checkpoint.corrupt", "probability": 0.3},
        {"site": "checkpoint.truncated", "probability": 0.2},
    ]
    return {"seed": base.seed, "rules": rules, "watchdog": base.watchdog}


def run_experiment():
    jobs = build_jobs()
    plan = load_fault_plan(PLAN_PATH)
    with tempfile.TemporaryDirectory() as root:
        t0 = time.perf_counter()
        clean = run_campaign(jobs, workers=WORKERS,
                             campaign_dir=f"{root}/clean")
        clean_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        chaos = run_campaign(jobs, workers=WORKERS,
                             campaign_dir=f"{root}/chaos",
                             fault_plan=plan.to_dict())
        chaos_wall = time.perf_counter() - t0

        # third lane: the same chaos plus checkpoint-targeted faults,
        # with periodic checkpoints absorbing the mid-run crashes
        t0 = time.perf_counter()
        ckpt = run_campaign(jobs, workers=WORKERS,
                            campaign_dir=f"{root}/ckpt",
                            checkpoint_every=CYCLES // 4,
                            fault_plan=checkpoint_chaos_plan(plan))
        ckpt_wall = time.perf_counter() - t0

    clean_payloads = {r["job_id"]: r["payload"] for r in clean.ok_records}
    chaos_payloads = {r["job_id"]: r["payload"] for r in chaos.ok_records}
    ckpt_payloads = {r["job_id"]: r["payload"] for r in ckpt.ok_records}
    survivors_identical = all(
        canonical_json(chaos_payloads[job_id])
        == canonical_json(clean_payloads[job_id])
        for job_id in chaos_payloads)
    ckpt_identical = all(
        canonical_json(ckpt_payloads[job_id])
        == canonical_json(clean_payloads[job_id])
        for job_id in ckpt_payloads)
    return {
        "clean_wall": clean_wall, "chaos_wall": chaos_wall,
        "ckpt_wall": ckpt_wall,
        "clean": clean.metrics, "chaos": chaos.metrics,
        "ckpt": ckpt.metrics,
        "chaos_quarantined": chaos.quarantined,
        "clean_quarantined": clean.quarantined,
        "ckpt_quarantined": ckpt.quarantined,
        "survivors": len(chaos_payloads),
        "ckpt_survivors": len(ckpt_payloads),
        "survivors_identical": survivors_identical,
        "ckpt_identical": ckpt_identical,
        "plan_rules": len(plan.rules),
    }


@pytest.mark.benchmark(group="e14")
def test_e14_chaos_campaign(benchmark):
    data = once(benchmark, run_experiment)
    overhead = data["chaos_wall"] / data["clean_wall"]
    lines = [
        f"{'campaign':<22}{'wall s':>9}{'executed':>10}{'retries':>9}"
        f"{'quarantined':>13}",
        f"{'clean':<22}{data['clean_wall']:>9.2f}"
        f"{data['clean'].executed:>10}{data['clean'].retries:>9}"
        f"{data['clean'].quarantined:>13}",
        f"{'chaos (fault plan)':<22}{data['chaos_wall']:>9.2f}"
        f"{data['chaos'].executed:>10}{data['chaos'].retries:>9}"
        f"{data['chaos'].quarantined:>13}",
        f"{'chaos + checkpoints':<22}{data['ckpt_wall']:>9.2f}"
        f"{data['ckpt'].executed:>10}{data['ckpt'].retries:>9}"
        f"{data['ckpt'].quarantined:>13}",
        "",
        f"fault plan: {data['plan_rules']} rules "
        f"(transient crashes, hangs, 1 poisoned job)",
        f"chaos wall overhead vs clean: {overhead:.2f}x",
        f"surviving jobs: {data['survivors']}/{N_CUSTOMERS + 1}, payloads "
        f"byte-identical to clean run: {data['survivors_identical']}",
        f"checkpoint lane: {data['ckpt'].checkpoint_saves} saves, "
        f"{data['ckpt'].checkpoint_resumes} mid-run resumes, "
        f"{data['ckpt'].cycles_recovered:,} cycles recovered; payloads "
        f"byte-identical: {data['ckpt_identical']}",
    ]
    emit("E14", "chaos campaign under fault injection", lines)

    # the clean campaign is the control: everything passes, nothing retried
    assert data["clean"].quarantined == 0
    assert data["clean"].executed == N_CUSTOMERS + 1
    # chaos converges: only the permanently poisoned job is quarantined...
    assert [r["job"]["name"] for r in data["chaos_quarantined"]] == \
        ["poison-drill"]
    assert data["survivors"] == N_CUSTOMERS
    # ...the transient faults were actually injected and absorbed...
    assert data["chaos"].retries > 0
    # ...and retries reproduced the clean payloads bit-for-bit
    assert data["survivors_identical"]
    # the checkpointed chaos lane converges the same way, writing real
    # checkpoints along the way, with damaged ones rejected cleanly
    assert [r["job"]["name"] for r in data["ckpt_quarantined"]] == \
        ["poison-drill"]
    assert data["ckpt_survivors"] == N_CUSTOMERS
    assert data["ckpt"].checkpoint_saves > 0
    assert data["ckpt_identical"]
