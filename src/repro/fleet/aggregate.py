"""Campaign aggregation: from job payloads to the architect's matrix.

Turns the deterministic campaign records into the artifacts the
methodology consumes: the per-customer profile matrix (the E9 table, now
produced by the fleet instead of a sequential loop), trace-derived volume
weights, and a volume-weighted portfolio ranking via
:class:`repro.core.optimization.portfolio.PortfolioEvaluator`.

Weights stay trace-derived on purpose: a customer's executed-instruction
volume (mean IPC x cycles profiled) is read from the decoded profile
payload, never from simulator oracle counters — consistent with the
repo-wide rule that everything the methodology uses comes out of trace
messages.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..core.optimization.portfolio import (PortfolioEntry,
                                           PortfolioEvaluator)
from ..core.profiling.export import result_from_dict


def profile_of(record: Dict):
    """Rebuild the live :class:`ProfileResult` from a campaign record."""
    return result_from_dict(record["payload"]["profile"])


def _mean_rate(payload: Dict, name: str) -> float:
    entry = payload["profile"]["parameters"].get(name)
    return entry["mean_rate"] if entry else 0.0


def campaign_matrix(records: Iterable[Dict]) -> List[Dict]:
    """One row per completed job: the population profile matrix."""
    rows = []
    for record in records:
        if record["status"] != "ok":
            continue
        payload = record["payload"]
        rows.append({
            "name": payload["name"],
            "domain": payload["domain"],
            "device": payload["device"],
            "cycles": payload["cycles"],
            "ipc": _mean_rate(payload, "tc.ipc"),
            "icache_miss_pct": 100 * _mean_rate(payload,
                                                "icache.miss_rate"),
            "flash_data_pct": 100 * _mean_rate(payload,
                                               "flash.data_access_rate"),
            "pcp_ipc": _mean_rate(payload, "pcp.ipc"),
            "irq_rate": _mean_rate(payload, "irq.rate"),
            "bandwidth_mbps": payload["profile"]["bandwidth_mbps"],
            "lost_messages": payload["profile"]["lost_messages"],
        })
    rows.sort(key=lambda row: row["name"])
    return rows


def matrix_table(rows: Sequence[Dict]) -> str:
    """Render the campaign profile matrix like the E9 table."""
    lines = [f"{'customer':<28}{'IPC':>6}{'I$miss%':>9}{'flashD%':>9}"
             f"{'pcpIPC':>8}{'Mbit/s':>8}{'lost':>6}"]
    for row in rows:
        lines.append(
            f"{row['name']:<28}{row['ipc']:>6.2f}"
            f"{row['icache_miss_pct']:>9.2f}{row['flash_data_pct']:>9.2f}"
            f"{row['pcp_ipc']:>8.2f}{row['bandwidth_mbps']:>8.2f}"
            f"{row['lost_messages']:>6}")
    return "\n".join(lines)


def volume_weights(records: Iterable[Dict]) -> Dict[str, float]:
    """Trace-derived customer weights: executed instructions profiled.

    mean IPC x cycles run = instruction volume, the proxy for how much
    compute each customer's application represents in the population.
    """
    weights: Dict[str, float] = {}
    for record in records:
        if record["status"] != "ok":
            continue
        payload = record["payload"]
        weights[payload["name"]] = max(
            1.0, _mean_rate(payload, "tc.ipc") * payload["cycles"])
    return weights


def rank_portfolio(customers: Sequence, records: Iterable[Dict],
                   base_config, options,
                   work_instructions: int = 80_000,
                   seed: int = 2008) -> List[PortfolioEntry]:
    """Volume-weighted option ranking over the campaign's population.

    ``customers`` is the population the campaign profiled (quarantined
    customers are dropped — no profile, no vote); weights come from
    :func:`volume_weights` over the campaign records.
    """
    records = list(records)
    weights = volume_weights(records)
    profiled = [c for c in customers if c.name in weights]
    evaluator = PortfolioEvaluator(
        profiled, base_config, options, weights=weights,
        work_instructions=work_instructions, seed=seed)
    return evaluator.evaluate()
