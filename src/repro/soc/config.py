"""SoC configuration: every architecture parameter the methodology can vary.

The optimization methodology (paper Section 4/6) evaluates next-generation
architecture options against profiles gathered on the current device.  Each
option is expressed as a delta on this configuration, re-simulated, and the
measured gain compared with the analytic prediction.

Defaults approximate a TC1797: TriCore 1.3.1 @ 180 MHz, 16 KB I-cache (the
TC1797 ICACHE), 4 MB program flash behind read/prefetch buffers, separate
code and data flash ports, DSPR/PSPR scratchpads, no data cache.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


@dataclass
class CpuConfig:
    """TriCore-like CPU core parameters."""

    frequency_mhz: int = 180
    #: maximum instructions issued per cycle (TriCore: integer + load/store +
    #: loop pipeline can retire up to 3)
    issue_width: int = 3
    #: pipeline refill penalty for a taken branch, in cycles
    branch_penalty: int = 2
    #: cycles for the fast context switch on call/interrupt entry
    context_switch_cycles: int = 2
    #: additional cycles of interrupt entry (vector fetch, arbitration)
    irq_entry_cycles: int = 4


@dataclass
class CacheConfig:
    """Set-associative cache geometry."""

    size_bytes: int = 16 * 1024
    line_bytes: int = 32
    ways: int = 2
    enabled: bool = True

    @property
    def sets(self) -> int:
        return max(1, self.size_bytes // (self.line_bytes * self.ways))


@dataclass
class FlashConfig:
    """Embedded program/data flash timing and buffering.

    The flash array has a fixed access time in nanoseconds; the number of
    CPU-cycle wait states therefore *grows with CPU frequency* — the effect
    that makes the CPU→flash path "the main lever" (paper Section 4).
    """

    size_kb: int = 4096
    access_time_ns: float = 30.0
    #: bytes delivered per array access (a 256-bit line on AUDO)
    line_bytes: int = 32
    #: independent flash banks; code/data accesses to different banks overlap
    banks: int = 2
    #: line entries in the code-port read/prefetch buffer
    code_buffer_lines: int = 2
    #: line entries in the data-port read buffer
    data_buffer_lines: int = 1
    #: fetch the sequentially-next line speculatively after a code miss
    prefetch_enabled: bool = True
    #: data port wins a same-cycle bank conflict when True (calibration data
    #: fetches are latency critical); code port wins otherwise
    data_port_priority: bool = True

    def wait_states(self, frequency_mhz: int) -> int:
        """Array wait states at a given CPU frequency (cycles beyond the first)."""
        cycles = math.ceil(self.access_time_ns * frequency_mhz / 1000.0)
        return max(0, cycles - 1)


@dataclass
class MemoryConfig:
    """Scratchpads and on-chip SRAM."""

    dspr_kb: int = 128       # data scratchpad (1-cycle)
    pspr_kb: int = 40        # program scratchpad (1-cycle fetch)
    lmu_kb: int = 128        # on-chip SRAM behind the LMB
    lmu_latency: int = 3     # LMB SRAM access latency in CPU cycles
    dflash_kb: int = 64      # EEPROM-emulation data flash
    dflash_latency: int = 6


@dataclass
class BusConfig:
    """Bus layer occupancies (CPU cycles per beat)."""

    lmb_occupancy: int = 1
    spb_occupancy: int = 2     # FPI/SPB runs at half the CPU clock
    spb_latency: int = 4       # peripheral register access round trip
    mli_latency: int = 8       # MLI bridge hop into the EEC
    #: replace the shared LMB with a per-target crossbar (SRI-style) —
    #: a next-generation architecture option
    lmb_crossbar: bool = False


@dataclass
class PcpConfig:
    """Peripheral Control Processor."""

    enabled: bool = True
    #: PCP executes at most one instruction per cycle from its PRAM
    pram_kb: int = 32
    irq_entry_cycles: int = 6   # channel-program context load


@dataclass
class DmaConfig:
    channels: int = 8
    move_cycles: int = 2        # per-beat engine occupancy on top of bus time


@dataclass
class SoCConfig:
    """Complete product-chip configuration."""

    name: str = "tc1797"
    cpu: CpuConfig = dataclasses.field(default_factory=CpuConfig)
    icache: CacheConfig = dataclasses.field(default_factory=CacheConfig)
    dcache: CacheConfig = dataclasses.field(
        default_factory=lambda: CacheConfig(size_bytes=4 * 1024, enabled=False))
    flash: FlashConfig = dataclasses.field(default_factory=FlashConfig)
    memory: MemoryConfig = dataclasses.field(default_factory=MemoryConfig)
    bus: BusConfig = dataclasses.field(default_factory=BusConfig)
    pcp: PcpConfig = dataclasses.field(default_factory=PcpConfig)
    dma: DmaConfig = dataclasses.field(default_factory=DmaConfig)

    def copy(self) -> "SoCConfig":
        """Deep copy, so architecture options can mutate freely."""
        return dataclasses.replace(
            self,
            cpu=dataclasses.replace(self.cpu),
            icache=dataclasses.replace(self.icache),
            dcache=dataclasses.replace(self.dcache),
            flash=dataclasses.replace(self.flash),
            memory=dataclasses.replace(self.memory),
            bus=dataclasses.replace(self.bus),
            pcp=dataclasses.replace(self.pcp),
            dma=dataclasses.replace(self.dma),
        )


def tc1797_config() -> SoCConfig:
    """TC1797: 180 MHz, 4 MB flash, 16 KB I-cache, PCP + DMA."""
    return SoCConfig()


def tc1767_config() -> SoCConfig:
    """TC1767: the smaller AUDO FUTURE family member (133 MHz, 2 MB flash)."""
    cfg = SoCConfig(name="tc1767")
    cfg.cpu.frequency_mhz = 133
    cfg.flash.size_kb = 2048
    cfg.icache.size_bytes = 8 * 1024
    cfg.memory.dspr_kb = 68
    cfg.memory.pspr_kb = 24
    return cfg


#: a campaign job's ``device`` key -> its config factory
CONFIGS = {"tc1797": tc1797_config, "tc1767": tc1767_config}
