"""Batch-lane backend: grouping, fallbacks, payload identity, numpy guard.

The backend's contract (docs/batch.md) in unit-test form:

* ``group_key`` partitions jobs by exactly the fields that shape the
  simulated SoC and the measurement grid — never by customer program;
* an ``"ok"`` payload from the lanes is byte-identical (canonical JSON)
  to the scalar worker's payload for the same job;
* anything the lanes cannot model — fault drills, fault plans,
  checkpoints, EMEM overflow, mixed configurations — refuses loudly or
  runs that one job on the live plane with unchanged semantics, never
  silently diverges;
* numpy is an optional extra: without it the scalar path still works and
  the batch backend fails at admission with an actionable message.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.batch import (HAVE_NUMPY, BatchUnsupported, LaneSimulator,
                         group_key, run_lane_group)
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.fleet import CampaignJob, CampaignSpec, run_campaign
from repro.fleet.spec import canonical_json
from repro.fleet.worker import run_shard
from repro.obs import telemetry

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="numpy extra not installed")

CYCLES = 6_000
SEED = 7


def job(name, domain="engine", **overrides):
    base = dict(name=name, domain=domain, device="tc1797", params={},
                cycles=CYCLES, seed=SEED)
    base.update(overrides)
    return CampaignJob(**base).to_dict()


# -- group_key ---------------------------------------------------------------

def test_group_key_ignores_customer_program():
    # different customers, same SoC + measurement grid: one lane group
    assert group_key(job("a")) == group_key(job("b"))
    assert group_key(job("a")) == group_key(
        job("c", domain="transmission", params={"load": 3}))


@pytest.mark.parametrize("field,value", [
    ("device", "tc1767"),
    ("cycles", CYCLES + 1),
    ("seed", SEED + 1),
    ("ipc_resolution", 128),
    ("rate_per", 50),
])
def test_group_key_splits_on_config_fields(field, value):
    assert group_key(job("a")) != group_key(job("a", **{field: value}))


# -- payload identity --------------------------------------------------------

@needs_numpy
def test_lane_payloads_byte_identical_to_scalar():
    jobs = [job("alpha"), job("beta", domain="transmission"),
            job("gamma", params={"injectors": 6})]
    scalar = run_shard([dict(j) for j in jobs])
    assert all(o["status"] == "ok" for o in scalar)
    payloads = run_lane_group(jobs)
    assert len(payloads) == len(scalar)
    for batch_payload, outcome in zip(payloads, scalar):
        assert canonical_json(batch_payload) == \
            canonical_json(outcome["payload"])


@needs_numpy
def test_lane_simulator_masks_and_strides():
    jobs = [job("a", cycles=5_000), job("b", cycles=5_000)]
    lanes = LaneSimulator(jobs, stride=2_000)
    assert lanes.lanes == 2
    assert list(lanes.active_mask()) == [True, True]
    assert lanes.sweep() == 2           # 2000 of 5000 cycles consumed
    assert list(lanes.remaining) == [3_000, 3_000]
    lanes.run()                         # drains both lanes
    assert list(lanes.active_mask()) == [False, False]
    for lane in range(lanes.lanes):
        assert lanes.devices[lane].cycle - lanes.start_cycles[lane] == 5_000


# -- refusals and fallbacks --------------------------------------------------

@needs_numpy
def test_lane_simulator_rejects_mixed_groups():
    with pytest.raises(ConfigurationError, match="incompatible"):
        LaneSimulator([job("a"), job("b", seed=SEED + 1)])


@needs_numpy
def test_fault_drill_is_batch_unsupported():
    with pytest.raises(BatchUnsupported, match="fault drill"):
        run_lane_group([job("a"), job("drill", fault="crash")])


def assert_same_outcomes(batch, scalar):
    """Outcome by outcome: status, canonical payload bytes, error."""
    assert [o["job"]["name"] for o in batch] == \
        [o["job"]["name"] for o in scalar]
    for outcome, reference in zip(batch, scalar):
        assert outcome["status"] == reference["status"]
        if outcome["status"] == "ok":
            assert canonical_json(outcome["payload"]) == \
                canonical_json(reference["payload"])
        assert outcome.get("error") == reference.get("error")


@needs_numpy
def test_batch_backend_shard_matches_scalar_outcomes():
    # two seeds plus a fault-drill job
    jobs = [job("a1"), job("a2", domain="transmission"),
            job("b1", seed=SEED + 1), job("drill", fault="crash")]
    batch = run_shard([dict(j) for j in jobs], backend="batch")
    scalar = run_shard([dict(j) for j in jobs])
    by_name = {o["job"]["name"]: o for o in scalar}
    assert len(batch) == len(scalar)
    for outcome in batch:
        reference = by_name[outcome["job"]["name"]]
        assert outcome["status"] == reference["status"]
        if outcome["status"] == "ok":
            assert canonical_json(outcome["payload"]) == \
                canonical_json(reference["payload"])
        else:
            assert outcome["error"] == reference["error"]


@needs_numpy
def test_batch_backend_shard_preempts_at_job_boundary():
    outcomes = run_shard([job("a"), job("b")],
                         should_stop=lambda: "preempted", backend="batch")
    assert [o["status"] for o in outcomes] == ["preempted"]


def stop_on_call(n):
    """A ``should_stop`` that returns ``"preempted"`` on its ``n``-th call."""
    calls = []

    def should_stop():
        calls.append(None)
        return "preempted" if len(calls) == n else None
    return should_stop


#: long enough for three lane strides (8192 cycles each)
LONG = 20_000
#: a fine-grid job whose capture outgrows the EMEM trace share
OVERFLOW = dict(cycles=40_000, ipc_resolution=32, rate_per=1)
EMEM_DROP = FaultPlan(rules=(
    {"site": "emem.drop", "probability": 0.3},)).to_dict()

#: id -> (jobs, run_shard kwargs given tmp_path, the scalar reference's
#: kwargs (None: the same), fallbacks by reason, jobs run as lanes)
PER_JOB_CASES = {
    "drill-crash": (
        [job("a"), job("drill", fault="crash"), job("b")],
        lambda tmp: {}, None, {}, 2),
    "drill-flaky-first-attempt": (
        [job("flaky", fault="flaky:1")], lambda tmp: {}, None, {}, 0),
    "drill-flaky-retry": (
        [job("flaky", fault="flaky:1")], lambda tmp: {"attempt": 1}, None,
        {"unsupported": 1}, 0),
    "fault-plan": (
        [job("a"), job("b")], lambda tmp: {"fault_plan": EMEM_DROP}, None,
        {}, 0),
    "checkpoint": (
        [job("a")], lambda tmp: {"checkpoint": {
            "dir": str(tmp / "checkpoints"), "every": 2_000}}, None, {}, 0),
    "emem-overflow": (
        [job("a"), job("fine", **OVERFLOW)], lambda tmp: {}, None,
        {"unsupported": 1}, 1),
    # call 1 is run_shard's before job a, calls 2 and 3 the lane's before
    # its first and second strides; the scalar reference stops before a
    "stop-between-strides": (
        [job("a", cycles=LONG), job("b", cycles=LONG)],
        lambda tmp: {"should_stop": stop_on_call(3)},
        {"should_stop": lambda: "preempted"}, {}, 0),
}


@needs_numpy
@pytest.mark.parametrize("case", sorted(PER_JOB_CASES))
def test_batch_backend_falls_back_per_job(case, tmp_path):
    jobs, kwargs, reference, fallbacks, lanes = PER_JOB_CASES[case]
    with telemetry() as tel:
        batch = run_shard([dict(j) for j in jobs], backend="batch",
                          **kwargs(tmp_path))
        reg = tel.registry
        for reason in ("unsupported", "error"):
            assert reg.get("repro_batch_fallbacks_total").value(reason) \
                == fallbacks.get(reason, 0), reason
        assert reg.get("repro_batch_lanes_total").value() == lanes
        strides = reg.get("repro_batch_strides_total").value()
    scalar = run_shard([dict(j) for j in jobs],
                       **(kwargs(tmp_path) if reference is None
                          else reference))
    assert_same_outcomes(batch, scalar)
    if case == "checkpoint":
        # the live plane ran it: checkpoint saves as on the scalar path
        assert batch[0]["checkpoint"]["saves"] == \
            scalar[0]["checkpoint"]["saves"] > 0
    if case == "stop-between-strides":
        assert [o["status"] for o in batch] == ["preempted"]
        assert strides == 1     # stopped between the first two strides


# -- CampaignSpec / runner wiring --------------------------------------------

def test_campaign_spec_rejects_unknown_backend():
    with pytest.raises(ConfigurationError, match="unknown backend"):
        CampaignSpec(count=1, backend="gpu")


def test_campaign_spec_backend_never_feeds_spec_documents():
    # scalar (the default) must leave pre-backend spec documents — and
    # their client-side digests — byte-for-byte unchanged
    assert "backend" not in CampaignSpec(count=1).to_dict()
    body = CampaignSpec(count=1, backend="batch").to_dict()
    assert body["backend"] == "batch"
    assert CampaignSpec.from_dict(body).backend == "batch"


@needs_numpy
def test_campaign_backend_batch_aggregate_byte_identical(tmp_path):
    spec = {"count": 3, "cycles": 4_000, "seed": 11}
    scalar = run_campaign(dict(spec), workers=0,
                          campaign_dir=str(tmp_path / "scalar"))
    batch = run_campaign(dict(spec, backend="batch"), workers=0,
                         campaign_dir=str(tmp_path / "batch"))
    with open(scalar.aggregate_path, "rb") as a, \
            open(batch.aggregate_path, "rb") as b:
        assert a.read() == b.read()


# -- numpy optional extra (the import guard) ---------------------------------

GUARD_SCRIPT = r"""
import sys


class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked for this test")
        return None


sys.meta_path.insert(0, BlockNumpy())
for mod in list(sys.modules):
    if mod == "numpy" or mod.startswith("numpy."):
        del sys.modules[mod]

import repro.batch as batch
assert batch.HAVE_NUMPY is False

from repro.errors import ConfigurationError

try:
    batch.require_numpy()
except ConfigurationError as exc:
    assert "repro[batch]" in str(exc), str(exc)
else:
    raise AssertionError("require_numpy did not raise")

# the scalar path never needs numpy: a worker job runs end to end
from repro.fleet import CampaignJob, CampaignRunner
from repro.fleet.worker import run_shard

job = CampaignJob(name="a", domain="engine", device="tc1797",
                  params={}, cycles=2_000, seed=7).to_dict()
(outcome,) = run_shard([job])
assert outcome["status"] == "ok", outcome

# asking for the batch backend fails at admission, actionably
try:
    CampaignRunner([CampaignJob.from_dict(job)], backend="batch")
except ConfigurationError as exc:
    assert "repro[batch]" in str(exc), str(exc)
else:
    raise AssertionError("batch backend admitted without numpy")
print("GUARD-OK")
"""


def test_scalar_path_works_without_numpy():
    """Subprocess with numpy import-blocked: scalar ok, batch actionable."""
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", GUARD_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    assert "GUARD-OK" in proc.stdout
