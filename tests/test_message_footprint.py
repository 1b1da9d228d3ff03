"""A stored trace message's footprint: slotted, with a shared empty extra.

On the fine grid the EMEM holds one message per closed counter window,
so the message object is most of the live plane's memory.  A
``TraceMessage`` has no ``__dict__``, and every message without extras
shares the read-only :data:`~repro.mcds.messages.NO_EXTRA`.  These tests
guard both halves and the ways messages leave a process: pickling, deep
copies and the ``to_dict`` form checkpoints carry.
"""

import copy
import gc
import pickle
import tracemalloc

import pytest

from repro.core.profiling import ProfilingSession, spec
from repro.mcds.messages import (DATA_ACCESS, NO_EXTRA, MessageFactory,
                                 TraceMessage)
from repro.soc.config import CONFIGS
from repro.workloads import SCENARIOS

#: tracemalloc's retained bytes per stored message over a 10k-cycle
#: fine-grid job: the dataclass message read 214, the slotted one 102
MAX_BYTES_PER_MESSAGE = 128


def _fine_job():
    device = SCENARIOS["engine"]().build(CONFIGS["tc1797"](), {}, seed=2008)
    ProfilingSession(device, spec.engine_parameter_set(32, 1))
    return device


def test_a_stored_message_retains_at_most_128_bytes():
    device = _fine_job()
    tracing = tracemalloc.is_tracing()
    gc.collect()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        device.run(10_000)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    stored = device.emem.message_count
    assert stored > 10_000 and not device.emem.overrun
    assert retained / stored <= MAX_BYTES_PER_MESSAGE, \
        f"{retained / stored:.1f} bytes retained per stored message"


def test_a_message_has_no_dict():
    msg = TraceMessage("rate_sample", 1, 20, "c", 3)
    assert not hasattr(msg, "__dict__")
    with pytest.raises(AttributeError):
        msg.note = "x"


def test_the_shared_empty_extra_refuses_writes():
    first = TraceMessage("rate_sample", 1, 20, "c", 3)
    second = MessageFactory().rate_sample(2, "c", 4)
    assert first.extra is NO_EXTRA and second.extra is NO_EXTRA
    writes = [
        lambda extra: extra.__setitem__("crc", 1),
        lambda extra: extra.__delitem__("crc"),
        lambda extra: extra.update(crc=1),
        lambda extra: extra.setdefault("crc", 1),
        lambda extra: extra.pop("crc", None),
        lambda extra: extra.popitem(),
        lambda extra: extra.clear(),
        lambda extra: extra.__ior__({"crc": 1}),
    ]
    for write in writes:
        with pytest.raises(TypeError):
            write(first.extra)
    assert NO_EXTRA == {} and not NO_EXTRA
    # the writers replace it: the other messages keep theirs
    first.extra = {"tainted": "wrap"}
    assert second.extra is NO_EXTRA and NO_EXTRA == {}


def _messages():
    device = _fine_job()
    device.run(2_000)
    stored = device.emem.contents()[:50]
    tagged = MessageFactory().data_access(9, 0xD000_0010, True, 0xD000_0000)
    tainted = TraceMessage("rate_sample", 12, 20, "c", 7,
                           extra={"tainted": "saturate"})
    return stored + [tagged, tainted]


@pytest.mark.parametrize("clone", [
    lambda msg: pickle.loads(pickle.dumps(msg)),
    copy.deepcopy,
    lambda msg: TraceMessage.from_dict(msg.to_dict()),
], ids=["pickle", "deepcopy", "to_dict"])
def test_messages_round_trip_to_equal_messages(clone):
    messages = _messages()
    assert messages[-2].kind == DATA_ACCESS and messages[-2].extra
    for msg in messages:
        restored = clone(msg)
        assert restored == msg and restored is not msg
        assert restored.to_dict() == msg.to_dict()
        if not msg.extra:
            assert restored.extra is NO_EXTRA
        else:
            assert restored.extra is not msg.extra
