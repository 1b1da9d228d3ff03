"""Campaign metrics: throughput, cache efficiency, worker utilization.

The numbers an operator reads after a campaign: how many jobs ran vs came
from cache or a resumed store, how hard the worker pool was driven, and
the per-job wall-clock distribution.  ``busy_s`` sums the in-worker wall
time of every executed attempt (retries included), so utilization is
``busy / (campaign wall x workers)`` — the classic pool-efficiency ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class CampaignMetrics:
    """Aggregated counters for one campaign run."""

    total_jobs: int = 0
    executed: int = 0            # jobs that ran in a worker this campaign
    cache_hits: int = 0
    resumed: int = 0             # satisfied from a prior store via --resume
    quarantined: int = 0
    retries: int = 0             # extra attempts beyond the first
    workers: int = 1
    wall_s: float = 0.0          # whole-campaign wall clock
    busy_s: float = 0.0          # summed in-worker job wall clock
    sim_cycles: int = 0          # simulated cycles across executed jobs
    job_walls: List[float] = field(default_factory=list)
    # degradation accounting, summed over every completed payload
    lost_messages: int = 0
    trace_gaps: int = 0
    degraded_samples: int = 0
    # crash-recovery accounting (only non-zero with --checkpoint-every):
    # the retry budget is measured in lost cycles, not lost jobs
    checkpoint_saves: int = 0
    checkpoint_bytes: int = 0        # bodies plus message-log segments
    checkpoint_resumes: int = 0      # attempts that resumed mid-run
    cycles_recovered: int = 0        # cycles NOT re-simulated on resume

    @property
    def completed(self) -> int:
        return self.executed + self.cache_hits + self.resumed

    @property
    def jobs_per_sec(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total_jobs if self.total_jobs else 0.0

    @property
    def worker_utilization(self) -> float:
        capacity = self.wall_s * max(1, self.workers)
        return min(1.0, self.busy_s / capacity) if capacity > 0 else 0.0

    @property
    def sim_cycles_per_sec(self) -> float:
        """Fleet-wide simulation throughput over in-worker busy time.

        Only executed jobs contribute cycles (cache hits and resumes cost
        no simulation), so this is the kernel-throughput number a
        ``repro profile-kernel`` run should roughly reproduce per worker.
        """
        return self.sim_cycles / self.busy_s if self.busy_s > 0 else 0.0

    def note_record(self, record: Dict) -> None:
        """Fold in one job record, the tally of both executors.  An
        executed record's ``wall_s`` covers all of its attempts, and its
        attempts after the first are ``retries``."""
        executed = record["source"] == "executed"
        if executed:
            self.retries += record["attempts"] - 1
            self.busy_s += record["wall_s"]
        if record["status"] != "ok":
            self.quarantined += 1
            return
        if executed:
            self.executed += 1
            self.job_walls.append(record["wall_s"])
            self.sim_cycles += int(record["payload"].get("sim_cycles", 0))
        elif record["source"] == "cache":
            self.cache_hits += 1
        else:
            self.resumed += 1
        self.note_payload(record["payload"])

    def note_payload(self, payload: Dict) -> None:
        """Fold one completed job payload into the degradation counters.

        Reads the canonical profile export inside the payload, so cache
        hits and resumed records contribute the same numbers a fresh
        execution would — the counts are properties of the results, not
        of how they were obtained.
        """
        profile = payload.get("profile") if isinstance(payload, dict) else None
        if not isinstance(profile, dict):
            return
        self.lost_messages += int(profile.get("lost_messages", 0) or 0)
        self.trace_gaps += len(profile.get("gaps", ()))
        for entry in profile.get("parameters", {}).values():
            self.degraded_samples += len(entry.get("degraded", ()))

    def note_checkpoint(self, stats: Dict) -> None:
        """Fold one attempt's checkpoint accounting (worker outcome dict)."""
        if not isinstance(stats, dict):
            return
        self.checkpoint_saves += int(stats.get("saves", 0) or 0)
        self.checkpoint_bytes += int(stats.get("bytes", 0) or 0)
        resumed = int(stats.get("resumed_from_cycle", 0) or 0)
        if resumed > 0:
            self.checkpoint_resumes += 1
            self.cycles_recovered += resumed

    @property
    def mean_job_wall_s(self) -> float:
        if not self.job_walls:
            return 0.0
        return sum(self.job_walls) / len(self.job_walls)

    @property
    def max_job_wall_s(self) -> float:
        return max(self.job_walls) if self.job_walls else 0.0

    def summary_table(self) -> str:
        rows = [
            ("jobs total", f"{self.total_jobs}"),
            ("executed", f"{self.executed}"),
            ("cache hits", f"{self.cache_hits}"
                           f" ({100 * self.cache_hit_rate:.0f}%)"),
            ("resumed", f"{self.resumed}"),
            ("quarantined", f"{self.quarantined}"),
            ("retries", f"{self.retries}"),
            ("workers", f"{self.workers}"),
            ("campaign wall", f"{self.wall_s:.2f} s"),
            ("throughput", f"{self.jobs_per_sec:.2f} jobs/s"),
            ("worker utilization", f"{100 * self.worker_utilization:.0f}%"),
            ("sim throughput", f"{self.sim_cycles_per_sec:,.0f} cycles/s"
                               f" ({self.sim_cycles:,} cycles)"),
            ("job wall mean/max", f"{self.mean_job_wall_s:.2f} s"
                                  f" / {self.max_job_wall_s:.2f} s"),
            ("degradation", f"{self.lost_messages} lost msgs / "
                            f"{self.trace_gaps} gaps / "
                            f"{self.degraded_samples} degraded samples"),
        ]
        if self.checkpoint_saves or self.checkpoint_resumes:
            rows.append(
                ("crash recovery",
                 f"{self.checkpoint_saves} checkpoints "
                 f"({self.checkpoint_bytes:,} bytes) / "
                 f"{self.checkpoint_resumes} resumes / "
                 f"{self.cycles_recovered:,} cycles recovered"))
        width = max(len(label) for label, _ in rows) + 2
        return "\n".join(f"{label:<{width}}{value}"
                         for label, value in rows)
