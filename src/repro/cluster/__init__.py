"""repro.cluster — failure-tolerant multi-node campaign execution.

Coordinates N worker processes over a **shared directory** — no network
protocol, no external services: lease files with monotonic fencing
tokens decide which node runs which job (one lease per job), per-job
checkpoints migrate work off dead nodes, and the result store's fenced
append makes a revived stale node unable to double-commit.  The
campaign's ``aggregate.json`` is byte-identical to a single-node run —
including runs where a node was SIGKILLed mid-campaign (see
docs/cluster.md and the cluster-chaos CI lane).
"""

from ..fleet.store import request_stop, stop_requested
from .coordinator import (cluster_status, dedupe_records, finalize,
                          is_final, job_plan, load_manifest, submit)
from .lease import Lease, LeaseManager
from .local import fold_report, run_clustered, spawn_node
from .node import ClusterNode

__all__ = [
    "ClusterNode", "Lease", "LeaseManager", "cluster_status",
    "dedupe_records", "finalize", "fold_report", "is_final", "job_plan",
    "load_manifest", "request_stop", "run_clustered", "spawn_node",
    "stop_requested", "submit",
]
