"""Fleet campaign quickstart: profile a customer population in parallel.

Runs the architect's population-profiling step (paper Section 4) as a
fleet campaign — one task per job over worker processes,
content-addressed-cached, fault-tolerant — then feeds the aggregated
matrix into the volume-weighted portfolio ranking.

Run twice to see the cache do its job: the second campaign executes zero
jobs and the ranking comes straight off the stored profiles.
"""

import os
import tempfile

from repro.core.optimization import hardware_options
from repro.core.optimization.portfolio import portfolio_table
from repro.fleet import (CampaignJob, build_matrix, campaign_matrix,
                         matrix_table, rank_portfolio, run_campaign)
from repro.soc.config import tc1797_config
from repro.workloads import CustomerGenerator

CACHE_DIR = os.path.join(tempfile.gettempdir(), "repro-fleet-cache")
CAMPAIGN_DIR = os.path.join(tempfile.gettempdir(), "repro-fleet-campaign")


def main():
    customers = CustomerGenerator(seed=42).generate(8)
    jobs = build_matrix(customers, cycle_budgets=(60_000,), seed=9)

    # a fault drill rides along: it will crash, be retried, and end up
    # quarantined without disturbing the eight real jobs
    jobs = jobs + [CampaignJob(name="fault-drill", domain="engine",
                               device="tc1797", params={}, cycles=10_000,
                               seed=9, fault="crash")]

    report = run_campaign(jobs, workers=4, cache_dir=CACHE_DIR,
                          campaign_dir=CAMPAIGN_DIR, max_retries=1)

    print("campaign metrics:")
    print(report.metrics.summary_table())
    print()
    print("population profile matrix (decoded from trace messages):")
    print(matrix_table(campaign_matrix(report.records)))
    for record in report.quarantined:
        print(f"\nquarantined: {record['job_id']} — {record['error']}")

    print("\nvolume-weighted hardware-option ranking over the population:")
    entries = rank_portfolio(customers, report.records, tc1797_config(),
                             hardware_options(), work_instructions=40_000,
                             seed=9)
    print(portfolio_table(entries))
    print(f"\nartifacts: {report.store_path}\n           "
          f"{report.aggregate_path}")
    print("re-run this script: the campaign will be 100% cache hits")


if __name__ == "__main__":
    main()
