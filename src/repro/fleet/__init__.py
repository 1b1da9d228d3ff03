"""repro.fleet — parallel profiling-campaign subsystem.

The paper's architect optimizes for a *population* of customers
(Section 4); this package runs that population as a campaign: a matrix of
(customer x device config x parameter set x cycle budget) jobs fanned out
over a fault-tolerant process pool, with deterministic sharding, a
content-addressed result cache, retry-with-backoff plus poison-job
quarantine, a JSONL result store with resume, and campaign metrics.

Results are bit-identical to the sequential path regardless of worker
count — parallelism changes the wall clock, never the science.
"""

from .aggregate import (campaign_matrix, matrix_table, profile_of,
                        rank_portfolio, volume_weights)
from .api import CampaignSpec, jobs_for, run_campaign
from .cache import ResultCache
from .metrics import CampaignMetrics
from .orchestrator import CampaignReport, CampaignRunner
from .spec import (CampaignJob, assign_shards, build_matrix, canonical_json,
                   job_digest)
from .store import ResultStore
from .worker import execute_job, run_shard

__all__ = [
    "CampaignJob", "CampaignMetrics", "CampaignReport", "CampaignRunner",
    "CampaignSpec", "ResultCache", "ResultStore", "assign_shards",
    "build_matrix", "campaign_matrix", "canonical_json", "execute_job",
    "job_digest", "jobs_for", "matrix_table", "profile_of",
    "rank_portfolio", "run_campaign", "run_shard", "volume_weights",
]
