"""Property tests: checkpoint codec/format round-trips.

Same idiom as ``test_emem_properties.py``: hypothesis drives arbitrary
state shapes through the tagged-JSON codec and the CRC-guarded document
format.  The invariants are the foundations the whole subsystem rests on:
``decode(encode(x)) == x`` for every state shape components produce and
``parse(render(body)) == body`` through a real file.  Damage detection
(truncation, bit flips) is tested once for every sealed format in
``test_durable_properties.py``.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (decode_value, encode_value, parse_checkpoint,
                              render_checkpoint)

# the value shapes that actually occur in component snapshots: JSON
# scalars plus tuples, bytes, sets, and dicts with non-string keys
scalars = (st.none() | st.booleans() | st.integers(-2**63, 2**63 - 1)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(max_size=12) | st.binary(max_size=12))

values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.sets(st.integers(-1000, 1000) | st.text(max_size=6),
                  max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
        | st.dictionaries(st.integers(-1000, 1000), children, max_size=3)
        | st.dictionaries(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                          children, max_size=3)),
    max_leaves=20)


@settings(max_examples=120, deadline=None)
@given(values)
def test_codec_roundtrip(value):
    encoded = encode_value(value)
    # the encoding must itself be plain JSON
    rebuilt = json.loads(json.dumps(encoded))
    assert decode_value(rebuilt) == value
    assert type(decode_value(rebuilt)) is type(value)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=8), values, max_size=5),
       st.dictionaries(st.text(min_size=1, max_size=8),
                       st.integers(0, 2**32), max_size=3))
def test_document_roundtrip(body, meta):
    text = render_checkpoint(body, meta)
    parsed_body, parsed_meta = parse_checkpoint(text)
    assert parsed_body == body
    assert parsed_meta == meta


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3))
def test_simulator_roundtrip_at_arbitrary_cut_points(quarters, seed):
    """Kernel-level property: cutting a run at any chunk boundary and
    resuming from the file reproduces the uninterrupted oracle exactly."""
    from repro.soc.config import tc1797_config
    from repro.workloads import TransmissionScenario

    total, cut = 8_000, 2_000 * quarters

    control = TransmissionScenario().build(tc1797_config(), {}, seed=seed)
    control.run(total)

    first = TransmissionScenario().build(tc1797_config(), {}, seed=seed)
    first.run(cut)
    body = first.soc.sim.snapshot_state()
    # through the full encode/parse path, as save/load would do
    body, _ = parse_checkpoint(render_checkpoint(body, {}))

    resumed = TransmissionScenario().build(tc1797_config(), {}, seed=seed)
    resumed.soc._ensure_order()
    resumed.soc.sim.restore_state(body)
    resumed.run(total - cut)
    assert resumed.oracle() == control.oracle()
    assert resumed.cycle == control.cycle
