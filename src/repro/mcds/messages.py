"""Trace message formats with bit-accurate size accounting.

The paper's bandwidth argument (Section 5, last paragraph) is quantitative
over message sizes: "Instead of sampling by the external tool at least two
long counters ... only a single trace message with the counted events is
stored."  Every message therefore carries its encoded size in bits, so EMEM
occupancy, DAP bandwidth, and compression ratios can be computed exactly.

Sizes follow the spirit of Nexus/MCDS message encoding: a short header
(TCODE + source), variable-length payload in 8-bit chunks, and a
variable-length timestamp delta.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

# message kinds
RATE_SAMPLE = "rate_sample"      # counter-structure sample (the paper's new message)
COUNTER_RAW = "counter_raw"      # full raw counter value (old-approach model)
IPT_BRANCH = "ipt_branch"        # program-flow discontinuity, compressed address
IPT_SYNC = "ipt_sync"            # periodic full-address synchronisation
IPT_TICK = "ipt_tick"            # cycle-accurate executed-count message
DATA_ACCESS = "data_access"      # qualified data-trace message
BUS_XFER = "bus_xfer"            # bus observation message
TRIGGER_EVT = "trigger"          # trigger/watchdog fired
OVERFLOW = "overflow"            # trace FIFO overflowed, messages lost
GAP = "gap"                      # synthesized: a span of lost messages

_HEADER_BITS = 6                 # TCODE
_SOURCE_BITS = 3                 # originating observation block / counter id


def _varlen_bits(value: int, chunk: int = 8) -> int:
    """Bits for a variable-length field packed in ``chunk``-bit groups."""
    if value < 0:
        value = -value
    needed = max(1, value.bit_length())
    groups = (needed + chunk - 1) // chunk
    return groups * chunk


class _EmptyExtra(dict):
    """The one empty ``extra`` that every message without extras shares.

    Read-only, so no message can grow another's extras; it pickles and
    deep-copies as itself."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("the shared empty extra is read-only: assign a "
                        "new dict to the message's extra instead")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return "NO_EXTRA"


NO_EXTRA = _EmptyExtra()


class TraceMessage:
    """One encoded trace message.

    A slotted class, not a dataclass: a fine grid stores one per closed
    counter window, so each costs no ``__dict__``.  A message without
    extras shares the read-only :data:`NO_EXTRA`; its writers (a
    corruption drill, a tainted sample) assign a new dict instead of
    mutating it.
    """

    __slots__ = ("kind", "cycle", "bits", "source", "value", "address",
                 "extra")
    __hash__ = None

    def __init__(self, kind: str, cycle: int, bits: int, source: str = "",
                 value: int = 0, address: Optional[int] = None,
                 extra: dict = NO_EXTRA) -> None:
        self.kind = kind
        self.cycle = cycle
        self.bits = bits
        self.source = source
        self.value = value
        self.address = address
        self.extra = extra

    def _fields(self) -> tuple:
        return (self.kind, self.cycle, self.bits, self.source, self.value,
                self.address, self.extra)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "TraceMessage(%s)" % ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._fields()))

    def checksum(self) -> int:
        """CRC over the content fields, as the hardware frames it.

        The sim only materializes the CRC where it matters: a corruption
        fault stores the pre-corruption checksum in ``extra["crc"]``, and
        the EMEM verifies it at the sink — so the check is free for the
        (overwhelming) majority of messages that were never touched.
        """
        body = f"{self.kind}/{self.cycle}/{self.source}/{self.value}/" \
               f"{self.address}"
        return zlib.crc32(body.encode("utf-8"))

    def to_dict(self) -> dict:
        """Checkpoint-friendly encoding (plain scalars + a dict)."""
        return {"kind": self.kind, "cycle": self.cycle, "bits": self.bits,
                "source": self.source, "value": self.value,
                "address": self.address, "extra": dict(self.extra)}

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceMessage":
        extra = payload["extra"]
        return cls(payload["kind"], payload["cycle"], payload["bits"],
                   payload["source"], payload["value"], payload["address"],
                   dict(extra) if extra else NO_EXTRA)


@dataclass
class Gap:
    """A contiguous span of trace messages lost between ``start``/``end``.

    Side-band accounting, not buffered content: gaps never occupy EMEM
    capacity (the happy path stays byte-identical), but they travel with
    the decoded stream so every profiling window overlapping one can be
    marked degraded instead of silently reporting a wrong rate.  ``kind``
    names the cause: ``wrap`` (ring eviction), ``reject`` (fill-mode
    refusal), ``corrupt`` (CRC mismatch at the sink), ``injected`` (a
    fault drill), ``dap`` (lost on the wire).
    """

    start: int
    end: int
    lost: int
    kind: str
    source: str = "emem"

    def to_message(self) -> TraceMessage:
        """The in-stream representation (a Nexus-style overflow message)."""
        bits = _HEADER_BITS + _varlen_bits(self.lost)
        return TraceMessage(GAP, self.end, bits, self.source, self.lost,
                            extra={"start": self.start, "kind": self.kind})

    def to_list(self) -> list:
        return [self.start, self.end, self.lost, self.kind, self.source]

    @classmethod
    def from_list(cls, payload) -> "Gap":
        return cls(int(payload[0]), int(payload[1]), int(payload[2]),
                   str(payload[3]), str(payload[4]))


def merge_gap_spans(gaps: List[Gap]) -> List[Tuple[int, int]]:
    """Collapse gaps into sorted, disjoint (start, end) cycle spans."""
    spans = sorted((gap.start, gap.end) for gap in gaps)
    merged: List[Tuple[int, int]] = []
    for start, end in spans:
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


class MessageFactory:
    """Builds messages with consistent size accounting and timestamp deltas.

    Timestamps are delta-encoded against the previous message of the same
    stream (scalable time-stamping, paper Section 3).
    """

    def __init__(self, timestamp_enabled: bool = True) -> None:
        self.timestamp_enabled = timestamp_enabled
        self._last_cycle = 0

    def _stamp_bits(self, cycle: int) -> int:
        if not self.timestamp_enabled:
            return 0
        delta = cycle - self._last_cycle
        self._last_cycle = cycle
        return _varlen_bits(delta)

    def rate_sample(self, cycle: int, counter: str, value: int) -> TraceMessage:
        """The paper's enhanced-profiling message: one counted-events value.

        A fine grid builds one per closed window, so the size is computed
        inline: :func:`_varlen_bits` of the value plus, with timestamps
        on, of the delta (``_stamp_bits``), both as ``8 * groups``."""
        bits = (_HEADER_BITS + _SOURCE_BITS
                + 8 * ((value.bit_length() + 7) // 8 or 1))
        if self.timestamp_enabled:
            delta = cycle - self._last_cycle
            self._last_cycle = cycle
            bits += 8 * ((delta.bit_length() + 7) // 8 or 1)
        return TraceMessage(RATE_SAMPLE, cycle, bits, counter, value)

    def counter_raw(self, cycle: int, counter: str, value: int) -> TraceMessage:
        """Old approach: a full-width counter sampled by the external tool.

        Two 32-bit counters (events + basis) must be read to form one rate
        value, so the conventional flow costs two of these per sample.
        """
        bits = _HEADER_BITS + _SOURCE_BITS + 32 + self._stamp_bits(cycle)
        return TraceMessage(COUNTER_RAW, cycle, bits, counter, value)

    def branch(self, cycle: int, source_addr: int, target_addr: int,
               last_reported: int) -> TraceMessage:
        """Program-flow message with relative address compression."""
        relative = target_addr ^ last_reported
        bits = (_HEADER_BITS + _SOURCE_BITS + _varlen_bits(relative)
                + self._stamp_bits(cycle))
        return TraceMessage(IPT_BRANCH, cycle, bits, "ptu", address=target_addr)

    def sync(self, cycle: int, address: int) -> TraceMessage:
        bits = _HEADER_BITS + _SOURCE_BITS + 32 + self._stamp_bits(cycle)
        return TraceMessage(IPT_SYNC, cycle, bits, "ptu", address=address)

    def tick(self, cycle: int, executed: int) -> TraceMessage:
        """Cycle-accurate mode: executed-instruction count for one cycle."""
        bits = _HEADER_BITS + 2 + self._stamp_bits(cycle)
        return TraceMessage(IPT_TICK, cycle, bits, "ptu", value=executed)

    def data_access(self, cycle: int, address: int, is_write: bool,
                    last_reported: int) -> TraceMessage:
        relative = address ^ last_reported
        bits = (_HEADER_BITS + _SOURCE_BITS + 1 + _varlen_bits(relative)
                + self._stamp_bits(cycle))
        return TraceMessage(DATA_ACCESS, cycle, bits, "dtu", address=address,
                            extra={"write": is_write})

    def bus_xfer(self, cycle: int, bus: str, master: str) -> TraceMessage:
        bits = _HEADER_BITS + _SOURCE_BITS + 4 + self._stamp_bits(cycle)
        return TraceMessage(BUS_XFER, cycle, bits, bus,
                            extra={"master": master})

    def trigger(self, cycle: int, name: str) -> TraceMessage:
        bits = _HEADER_BITS + _SOURCE_BITS + self._stamp_bits(cycle)
        return TraceMessage(TRIGGER_EVT, cycle, bits, name)

    def overflow(self, cycle: int, lost: int) -> TraceMessage:
        bits = _HEADER_BITS + _varlen_bits(lost) + self._stamp_bits(cycle)
        return TraceMessage(OVERFLOW, cycle, bits, "fifo", value=lost)

    def reset(self) -> None:
        self._last_cycle = 0

    def snapshot_state(self) -> dict:
        return {"last_cycle": self._last_cycle}

    def restore_state(self, state: dict) -> None:
        self._last_cycle = state["last_cycle"]
