"""Fleet job specs: content hashing and matrix building."""

import pytest

from repro.fleet import CampaignJob, build_matrix, job_digest
from repro.fleet import spec as fleet_spec
from repro.workloads import CustomerGenerator


def make_job(**overrides):
    base = dict(name="c0", domain="engine", device="tc1797",
                params={"rpm": 4500, "use_pcp": True}, cycles=50_000,
                seed=9)
    base.update(overrides)
    return CampaignJob(**base)


def test_digest_stable_across_equal_specs():
    assert make_job().digest == make_job().digest
    # param dict insertion order must not matter (canonical JSON)
    a = make_job(params={"rpm": 4500, "use_pcp": True})
    b = make_job(params={"use_pcp": True, "rpm": 4500})
    assert a.digest == b.digest


@pytest.mark.parametrize("change", [
    {"cycles": 50_001}, {"seed": 10}, {"device": "tc1767"},
    {"params": {"rpm": 5500}}, {"ipc_resolution": 512},
    {"fault": "crash"},
])
def test_digest_changes_with_spec(change):
    assert make_job().digest != make_job(**change).digest


def test_digest_changes_with_package_version(monkeypatch):
    before = make_job().digest
    monkeypatch.setattr(fleet_spec, "__version__", "99.0.0")
    assert make_job().digest != before


def test_job_id_greppable():
    job = make_job()
    assert job.job_id.startswith("c0-")
    assert job.job_id.endswith(job.digest[:10])


def test_round_trip_dict():
    job = make_job(fault="flaky:2")
    assert CampaignJob.from_dict(job.to_dict()) == job
    assert job_digest(CampaignJob.from_dict(job.to_dict())) == job.digest


def test_build_matrix_covers_population():
    customers = CustomerGenerator(seed=42).generate(5)
    jobs = build_matrix(customers, devices=("tc1797", "tc1767"),
                        cycle_budgets=(10_000, 20_000), seed=7)
    assert len(jobs) == 5 * 2 * 2
    assert len({job.name for job in jobs}) == len(jobs)
    # labels carry the matrix axes when they fan out
    assert any("@tc1767" in job.name for job in jobs)
    assert any("/20000" in job.name for job in jobs)
    # customer parameters are carried verbatim
    by_base = {job.name.split("@")[0] for job in jobs}
    assert {c.name for c in customers} == by_base


def test_build_matrix_single_axis_keeps_plain_names():
    customers = CustomerGenerator(seed=42).generate(3)
    jobs = build_matrix(customers)
    assert [job.name for job in jobs] == [c.name for c in customers]


def test_duplicate_labels_rejected():
    customers = CustomerGenerator(seed=42).generate(2)
    customers[1].name = customers[0].name
    with pytest.raises(ValueError):
        build_matrix(customers)
