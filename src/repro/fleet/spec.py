"""Campaign job specifications: the unit of work a fleet worker executes.

A :class:`CampaignJob` is pure data — customer name, application domain,
scenario parameters, device config name, cycle budget, profiling spec knobs
— everything a worker process needs to rebuild the emulation device and
run one profiling session from scratch.  Keeping the spec declarative (no
live scenario/device objects cross the process boundary) is what makes
jobs shippable to a ``ProcessPoolExecutor``, hashable for the result
cache, and replayable for campaign resume.

Identity is content-addressed: :func:`job_digest` hashes the canonical
JSON of the spec together with the package version, so any change to a
customer's parameters, the device config choice, the cycle budget, or the
simulator version yields a new cache key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import __version__
from ..durable import canonical_json
from ..errors import ConfigurationError

#: bump when the worker payload layout changes — invalidates every cache
#: entry written by older code
SCHEMA_VERSION = 2

#: fault-drill modes a job may carry (used by tests, the ``--drill`` CLI
#: flag, and resilience benchmarks): ``crash`` raises on every attempt,
#: ``flaky:N`` raises on attempts < N then succeeds, ``exit`` kills the
#: worker process outright, ``hang:S`` sleeps S seconds before succeeding.
FAULT_MODES = ("crash", "flaky", "exit", "hang")


@dataclass(frozen=True)
class CampaignJob:
    """One profiling run in a campaign matrix."""

    name: str                     # customer / job label (unique per matrix)
    domain: str                   # workload scenario key: engine, body, ...
    device: str                   # SoC config key: tc1797, tc1767
    params: Dict = field(default_factory=dict)   # scenario parameter set
    cycles: int = 100_000         # cycle budget to simulate
    seed: int = 2008              # device build seed
    ipc_resolution: int = 256     # IPC sample window (cycles)
    rate_per: int = 100           # event-rate resolution (instructions)
    fault: Optional[str] = None   # fault-drill mode, None in production

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "domain": self.domain,
            "device": self.device,
            "params": dict(self.params),
            "cycles": self.cycles,
            "seed": self.seed,
            "ipc_resolution": self.ipc_resolution,
            "rate_per": self.rate_per,
            "fault": self.fault,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "CampaignJob":
        return cls(**payload)

    @property
    def digest(self) -> str:
        return job_digest(self)

    @property
    def job_id(self) -> str:
        """Stable, human-greppable identity: label plus content hash."""
        return f"{self.name}-{self.digest[:10]}"


def job_digest(job: CampaignJob) -> str:
    """Content hash of (job spec, package version, payload schema)."""
    body = canonical_json({
        "job": job.to_dict(),
        "version": __version__,
        "schema": SCHEMA_VERSION,
    })
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def build_matrix(customers: Sequence,
                 devices: Iterable[str] = ("tc1797",),
                 cycle_budgets: Iterable[int] = (100_000,),
                 seed: int = 2008,
                 ipc_resolution: int = 256,
                 rate_per: int = 100) -> List[CampaignJob]:
    """Fan a customer population out over devices and cycle budgets.

    ``customers`` are :class:`repro.workloads.Customer` objects (or
    anything with ``name``/``domain``/``params``).  The matrix order is
    deterministic: customers in given order, then devices, then budgets.
    """
    devices = tuple(devices)
    cycle_budgets = tuple(cycle_budgets)
    jobs: List[CampaignJob] = []
    for customer in customers:
        for device in devices:
            for cycles in cycle_budgets:
                label = customer.name
                if len(devices) > 1:
                    label += f"@{device}"
                if len(cycle_budgets) > 1:
                    label += f"/{cycles}"
                jobs.append(CampaignJob(
                    name=label,
                    domain=customer.domain,
                    device=device,
                    params=dict(customer.params),
                    cycles=cycles,
                    seed=seed,
                    ipc_resolution=ipc_resolution,
                    rate_per=rate_per,
                ))
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ConfigurationError("campaign job labels must be unique")
    return jobs

