"""The live measurement plane's bytes, pinned.

Each case runs 5k cycles of an engine job through a profiling session
and hashes what the plane produced: every stored message's ``to_dict()``
in order, the EMEM's gaps, ``Mcds.snapshot_state()`` and the decoded
profile's compact JSON.  The expected digests were recorded before the
rate-sample path was made straight (slotted messages, sizing inline in
``MessageFactory.rate_sample``, eviction only over capacity, decode
without concatenation), so any change that reaches a message, a gap, a
counter snapshot or a payload byte fails here.

The cases cover what the per-sample path branches on: the fine grid
(seven windows close per retired instruction), tainted samples that
carry ``extra`` (4-bit counters that saturate and wrap), a FILL buffer
that rejects, a RING buffer that wraps, timestamps off, and every
fault point the path passes (``counter.wrap``, ``emem.drop``,
``trace.corrupt`` — dropped at the sink, or stored with its CRC when
the flip is a no-op — and ``emem.overflow``).

Runs without numpy: the crash-recovery CI lane installs the package
without the batch extra and runs this file next to the checkpoint
suite, whose message log carries the same ``to_dict`` form.
"""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.profiling import ProfilingSession, spec
from repro.core.profiling.export import result_to_json
from repro.ed.emem import FILL
from repro.faults import FaultInjector, FaultPlan
from repro.mcds.counters import CYCLES, SATURATE, WRAP
from repro.mcds.messages import MessageFactory
from repro.soc.config import CONFIGS
from repro.soc.kernel import signals
from repro.workloads import SCENARIOS

CYCLES_RUN = 5_000
FINE = (32, 1)
DEFAULT = (256, 100)

FAULTS = FaultPlan(rules=(
    {"site": "counter.wrap", "probability": 0.01},
    {"site": "emem.drop", "probability": 0.01},
    {"site": "trace.corrupt", "start_hit": 200, "max_faults": 5},
    # xor 0 leaves the checksum valid: the message is stored with its CRC
    {"site": "trace.corrupt", "start_hit": 400, "max_faults": 5,
     "params": {"xor": 0}},
    {"site": "emem.overflow", "start_hit": 3_000, "max_faults": 1,
     "params": {"messages": 50}},
), seed=11)

#: case -> (grid, EdConfig overrides, add 4-bit counters, fault plan)
CASES = {
    "fine": (FINE, {}, False, None),
    "default-overflowing": (DEFAULT, {}, True, None),
    "fill-rejects": (FINE, {"emem_kb": 8, "emem_mode": FILL}, False, None),
    "ring-wraps": (FINE, {"emem_kb": 8}, False, None),
    "no-timestamps": (FINE, {"timestamps": False}, False, None),
    "faults": (FINE, {}, False, FAULTS),
}

#: sha256 of each case's plane output, recorded before the rate-sample
#: path was changed
EXPECTED = {
    "fine":
        "5ae62860429c79731bafb7f7f3b6b0b12406656ef0a4493d3bf35881a4e349ee",
    "default-overflowing":
        "8ad263bfd80c66dbe0d23d742fe116ab0eca371abb5ea3c1d9b70703f9398b71",
    "fill-rejects":
        "5268e5da3ade7701d3274bb0359cf61903182187baabbe0e43ed43d4a4c9a502",
    "ring-wraps":
        "e51781820c0a710210b05538f03c7c5d53373be59d770e920b92f140f0ad735c",
    "no-timestamps":
        "4ed993b60c0744019a3f3cf7437f6f260255f47bfeb6df88a2be03fbbabc9d2a",
    "faults":
        "7eb748f98f5e1f5f156e3aca3bb6ee3921e31aca21a9977b35adea1986e80775",
}


def _run(case):
    grid, overrides, narrow, plan = CASES[case]
    device = SCENARIOS["engine"](dict(overrides)).build(
        CONFIGS["tc1797"](), {}, seed=2008)
    session = ProfilingSession(device, spec.engine_parameter_set(*grid))
    if narrow:
        # 4-bit counters of the retired instructions themselves: both
        # overflow inside every window, so each sample carries a taint
        device.mcds.add_rate_counter("instr.sat4", [signals.TC_INSTR],
                                     grid[0], basis=CYCLES, width=4,
                                     on_overflow=SATURATE)
        device.mcds.add_rate_counter("instr.wrap4", [signals.TC_INSTR],
                                     grid[1], width=4, on_overflow=WRAP)
    if plan is None:
        device.run(CYCLES_RUN)
    else:
        with FaultInjector(plan, scope=case):
            device.run(CYCLES_RUN)
    return device, session.result()


def plane_digest(case):
    device, result = _run(case)
    digest = hashlib.sha256()
    for part in ([msg.to_dict() for msg in device.emem.contents()],
                 [gap.to_list() for gap in device.emem.gaps],
                 device.mcds.snapshot_state()):
        digest.update(json.dumps(part, sort_keys=True).encode("utf-8"))
    digest.update(result_to_json(result, compact=True).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_plane_bytes_unchanged(case):
    assert plane_digest(case) == EXPECTED[case]


def test_cases_reach_the_branches_they_name():
    """Each case exercises what it is there for, so a digest cannot go
    vacuous without this test noticing."""
    def stored(device):
        return device.emem.contents()

    device, _ = _run("default-overflowing")
    assert any(msg.extra.get("tainted") == SATURATE for msg in stored(device))
    assert any(msg.extra.get("tainted") == WRAP for msg in stored(device))
    device, result = _run("fill-rejects")
    assert device.emem.lost_new and result.degraded_samples
    assert {gap.kind for gap in device.emem.gaps} == {"reject"}
    device, _ = _run("ring-wraps")
    assert device.emem.lost_oldest
    assert {gap.kind for gap in device.emem.gaps} == {"wrap"}
    device, result = _run("faults")
    kinds = {gap.kind for gap in device.emem.gaps}
    assert kinds == {"injected", "corrupt"}
    assert any("crc" in msg.extra for msg in stored(device))
    assert any(msg.extra.get("tainted") == "injected"
               for msg in stored(device))
    assert result.degraded_samples


# -- the rate-sample size rule ---------------------------------------------
def reference_varlen_bits(value, chunk=8):
    """The variable-length field rule as ``_varlen_bits`` states it."""
    if value < 0:
        value = -value
    needed = max(1, value.bit_length())
    groups = (needed + chunk - 1) // chunk
    return groups * chunk


@settings(max_examples=200, deadline=None)
@given(value=st.integers(0, 2**40), delta=st.integers(-2**40, 2**40))
@example(value=0, delta=0)
@example(value=255, delta=255)
@example(value=256, delta=256)
@example(value=256, delta=-256)
@example(value=2**32 - 1, delta=2**32 - 1)
@example(value=2**32, delta=2**32)
@example(value=2**32, delta=-2**32)
def test_rate_sample_size_follows_the_varlen_rule(value, delta):
    last = 2**41
    stamped = MessageFactory(timestamp_enabled=True)
    stamped.restore_state({"last_cycle": last})
    msg = stamped.rate_sample(last + delta, "c", value)
    assert msg.bits == (6 + 3 + reference_varlen_bits(value)
                        + reference_varlen_bits(delta))
    assert stamped.snapshot_state() == {"last_cycle": last + delta}

    bare = MessageFactory(timestamp_enabled=False)
    bare.restore_state({"last_cycle": last})
    assert bare.rate_sample(last + delta, "c", value).bits == \
        6 + 3 + reference_varlen_bits(value)
    assert bare.snapshot_state() == {"last_cycle": last}
