"""Programmatic campaign API — one entry path for CLI, service, and code.

Historically ``repro campaign`` owned the wiring from "a population
description" to "a running :class:`CampaignRunner`": generate customers,
fan out the job matrix, pick runner knobs.  ``repro.serve`` needs the
identical path minus argparse, so the wiring lives here as data
(:class:`CampaignSpec`) plus one function (:func:`run_campaign`) and both
front-ends call it — a submitted HTTP campaign and a CLI campaign of the
same spec are *the same computation*, which is what makes the service's
byte-identity acceptance test (service SSE payloads == offline aggregate)
possible at all.

:func:`run_campaign` also takes a plain sequence of :class:`CampaignJob`,
so job-list callers need no spec.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..soc.config import CONFIGS
from .orchestrator import CampaignReport, CampaignRunner
from .spec import CampaignJob, build_matrix

#: runner knobs forwarded verbatim to :class:`CampaignRunner`
RUNNER_KWARGS = ("workers", "cache_dir", "campaign_dir", "max_retries",
                 "timeout_s", "resume", "fault_plan", "checkpoint_every",
                 "deadline_s", "backend")


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative campaign request: what to run, not how to run it.

    Everything here feeds job *content* (and therefore cache digests);
    execution knobs (workers, dirs, retries, ...) are deliberately not
    part of the spec — they change wall clock, never results, and belong
    to the caller of :func:`run_campaign`.

    Either a generated population (``count``/``seed`` → customer
    generator) or an explicit ``jobs`` list of
    ``CampaignJob.to_dict()``-shaped dicts; the two are mutually
    exclusive.
    """

    count: int = 8                # generated customer population size
    cycles: int = 100_000         # cycle budget per job
    device: str = "tc1797"        # SoC config key
    seed: int = 2008              # population + device build seed
    ipc_resolution: int = 256     # IPC sample window (cycles)
    rate_per: int = 100           # event-rate resolution (instructions)
    drill: bool = False           # append an always-crashing drill job
    jobs: Optional[Tuple[Dict, ...]] = None   # explicit job dicts instead
    #: optional wall-clock deadline for the whole campaign, in seconds
    #: from admission.  The one spec field that is *not* job content: it
    #: bounds how long the result is worth computing, not what to
    #: compute, so it never feeds cache digests or payload bytes.
    deadline_s: Optional[float] = None
    #: execution backend: ``"scalar"`` (the live measurement plane) or
    #: ``"batch"`` (each job a one-lane :class:`~repro.batch.LaneSimulator`
    #: that rebuilds its profile from the emission stream; the same pool
    #: tasks, and the live plane for a job the lane refuses).  Like
    #: ``deadline_s`` it is not job content: payloads are byte-identical
    #: either way (the batch backend's contract), so it never feeds cache
    #: digests or payload bytes.
    backend: str = "scalar"

    #: admissible bounds — the service exposes this spec to untrusted
    #: tenants, so limits live with the spec, not with each front-end
    MAX_COUNT = 256
    MAX_CYCLES = 50_000_000

    def __post_init__(self) -> None:
        if self.backend not in ("scalar", "batch"):
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; "
                f"choose from ['batch', 'scalar']")
        if self.deadline_s is not None:
            try:
                deadline = float(self.deadline_s)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"deadline_s must be a number of seconds, got "
                    f"{self.deadline_s!r}")
            if not 0 < deadline < float("inf"):
                raise ConfigurationError(
                    f"deadline_s must be a positive finite number of "
                    f"seconds, got {self.deadline_s!r}")
            object.__setattr__(self, "deadline_s", deadline)
        if self.jobs is not None:
            object.__setattr__(self, "jobs", tuple(
                dict(job) for job in self.jobs))
            if not self.jobs:
                raise ConfigurationError("explicit jobs list is empty")
            return
        if not 1 <= int(self.count) <= self.MAX_COUNT:
            raise ConfigurationError(
                f"count must be in 1..{self.MAX_COUNT}, got {self.count}")
        if not 1 <= int(self.cycles) <= self.MAX_CYCLES:
            raise ConfigurationError(
                f"cycles must be in 1..{self.MAX_CYCLES}, got {self.cycles}")
        if int(self.ipc_resolution) < 1 or int(self.rate_per) < 1:
            raise ConfigurationError(
                "ipc_resolution and rate_per must be >= 1")
        if self.device not in CONFIGS:
            raise ConfigurationError(
                f"unknown device {self.device!r}; "
                f"choose from {sorted(CONFIGS)}")

    @classmethod
    def from_dict(cls, payload: Dict) -> "CampaignSpec":
        """Validated construction from untrusted input (HTTP bodies).

        Unknown keys are rejected rather than ignored — a client typo
        like ``"cycle"`` must fail loudly, not silently run the default.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError("campaign spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown campaign spec fields {unknown}; "
                f"known fields: {sorted(known)}")
        body = dict(payload)
        if body.get("jobs") is not None:
            body["jobs"] = tuple(body["jobs"])
        return cls(**body)

    def to_dict(self) -> Dict:
        body = {
            "count": self.count, "cycles": self.cycles,
            "device": self.device, "seed": self.seed,
            "ipc_resolution": self.ipc_resolution,
            "rate_per": self.rate_per, "drill": self.drill,
        }
        if self.jobs is not None:
            body["jobs"] = [dict(job) for job in self.jobs]
        # only present when set, so pre-deadline spec documents (and
        # their client-side digests) are byte-for-byte unchanged
        if self.deadline_s is not None:
            body["deadline_s"] = self.deadline_s
        if self.backend != "scalar":
            body["backend"] = self.backend
        return body

    def customers(self) -> List:
        """The generated customer population (portfolio ranking needs it)."""
        from ..workloads import CustomerGenerator
        if self.jobs is not None:
            raise ConfigurationError(
                "an explicit-jobs spec has no generated population")
        return CustomerGenerator(seed=self.seed).generate(self.count)

    def build_jobs(self) -> List[CampaignJob]:
        """Deterministic job matrix for this spec."""
        if self.jobs is not None:
            try:
                return [CampaignJob.from_dict(job) for job in self.jobs]
            except TypeError as exc:
                raise ConfigurationError(f"bad job spec: {exc}")
        jobs = build_matrix(self.customers(), devices=(self.device,),
                            cycle_budgets=(self.cycles,), seed=self.seed,
                            ipc_resolution=self.ipc_resolution,
                            rate_per=self.rate_per)
        if self.drill:
            jobs = jobs + [CampaignJob(
                name="fault-drill", domain="engine", device=self.device,
                params={}, cycles=self.cycles, seed=self.seed,
                fault="crash")]
        return jobs


SpecLike = Union[CampaignSpec, Dict, Sequence[CampaignJob]]


def jobs_for(spec: SpecLike) -> List[CampaignJob]:
    """Resolve any accepted spec form into a concrete job list."""
    if isinstance(spec, CampaignSpec):
        return spec.build_jobs()
    if isinstance(spec, dict):
        return CampaignSpec.from_dict(spec).build_jobs()
    jobs = list(spec)
    for job in jobs:
        if not isinstance(job, CampaignJob):
            raise ConfigurationError(
                f"expected CampaignJob entries, got {type(job).__name__}")
    return jobs


def run_campaign(spec: SpecLike, **kwargs) -> CampaignReport:
    """Run one campaign from a spec (or, back-compat, a job list).

    ``spec`` may be a :class:`CampaignSpec`, its dict form (exactly what
    ``POST /v1/campaigns`` accepts), or — the historical signature — a
    sequence of :class:`CampaignJob`.  ``kwargs`` are the
    :class:`CampaignRunner` execution knobs named in
    :data:`RUNNER_KWARGS`.
    """
    unknown = sorted(set(kwargs) - set(RUNNER_KWARGS))
    if unknown:
        raise ConfigurationError(
            f"unknown runner options {unknown}; known: "
            f"{sorted(RUNNER_KWARGS)}")
    # a spec-carried deadline/backend flows into the runner unless the
    # caller overrides it explicitly (the service passes the *remaining*
    # time, and a CLI --backend flag wins over the spec document)
    if "deadline_s" not in kwargs or "backend" not in kwargs:
        if isinstance(spec, dict):
            spec = CampaignSpec.from_dict(spec)
        if isinstance(spec, CampaignSpec):
            if "deadline_s" not in kwargs and spec.deadline_s is not None:
                kwargs["deadline_s"] = spec.deadline_s
            if "backend" not in kwargs and spec.backend != "scalar":
                kwargs["backend"] = spec.backend
    return CampaignRunner(jobs_for(spec), **kwargs).run()
