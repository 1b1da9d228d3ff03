"""Profile export: JSON and CSV serialisation plus round-trip loaders."""

import csv
import io
import json

import numpy as np
import pytest

from repro.batch import HAVE_NUMPY, LaneSimulator
from repro.core.profiling import ProfilingSession, spec
from repro.core.profiling.export import (result_from_csv, result_from_dict,
                                         result_from_json, result_to_dict,
                                         result_to_json, series_to_csv,
                                         summary_to_csv)
from repro.ed.device import EdConfig, EmulationDevice
from repro.faults import FaultInjector, FaultPlan
from repro.fleet import CampaignJob
from repro.soc.config import tc1797_config
from repro.soc.cpu import isa
from repro.soc.memory import map as amap
from repro.workloads import EngineControlScenario

from tests.helpers import make_loop_program


@pytest.fixture(scope="module")
def result():
    device = EmulationDevice(EdConfig(soc=tc1797_config()), seed=48)
    device.load_program(make_loop_program(
        alu_per_iter=3,
        load_gen=isa.FixedAddr(amap.DSPR_BASE + 0x40)))
    session = ProfilingSession(device, [spec.ipc(resolution=256),
                                        spec.icache_miss_rate()])
    return session.run(30_000)


def test_json_roundtrip_rebuilds_result(result):
    text = result_to_json(result)
    loaded = result_from_json(text)
    assert loaded.cycles_run == 30_000
    assert set(loaded.names) == {"tc.ipc", "icache.miss_rate"}
    ipc = loaded["tc.ipc"]
    assert ipc.spec.resolution == 256
    assert ipc.spec == result["tc.ipc"].spec
    assert len(ipc) == len(result["tc.ipc"])
    assert np.array_equal(ipc.cycles, result["tc.ipc"].cycles)
    assert np.array_equal(ipc.values, result["tc.ipc"].values)
    assert loaded.mean_rate("tc.ipc") == pytest.approx(
        result.mean_rate("tc.ipc"))
    assert loaded.bandwidth_mbps() == pytest.approx(result.bandwidth_mbps())


def test_json_reexport_is_byte_identical(result):
    """Stable serialisation: load + re-export reproduces the exact bytes."""
    text = result_to_json(result)
    assert result_to_json(result_from_json(text)) == text
    compact = result_to_json(result, compact=True)
    assert result_to_json(result_from_json(compact), compact=True) == compact
    assert "\n" not in compact
    assert json.loads(compact) == json.loads(text)


def test_json_without_series(result):
    payload = json.loads(result_to_json(result, include_series=False))
    assert "cycles" not in payload["parameters"]["tc.ipc"]


def test_summary_only_export_cannot_roundtrip(result):
    with pytest.raises(ValueError, match="summary-only"):
        result_from_json(result_to_json(result, include_series=False))


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        result_from_json('{"hello": 1}')
    with pytest.raises(ValueError):
        result_from_json('[1, 2, 3]')


def test_series_csv_long_format(result):
    rows = list(csv.reader(io.StringIO(series_to_csv(result))))
    assert rows[0] == ["parameter", "cycle", "value", "rate"]
    body = rows[1:]
    expected = sum(len(result[name]) for name in result.names)
    assert len(body) == expected
    parameters = {row[0] for row in body}
    assert parameters == {"tc.ipc", "icache.miss_rate"}


def test_series_csv_selected_names(result):
    rows = list(csv.reader(io.StringIO(series_to_csv(result, ["tc.ipc"]))))
    assert all(row[0] == "tc.ipc" for row in rows[1:])


def test_csv_roundtrip_with_specs(result):
    specs = {name: result[name].spec for name in result.names}
    loaded = result_from_csv(series_to_csv(result), specs=specs,
                             cycles_run=result.cycles_run,
                             frequency_mhz=result.frequency_mhz,
                             trace_bits=result.trace_bits)
    assert set(loaded.names) == set(result.names)
    for name in result.names:
        assert loaded[name].spec == result[name].spec
        assert np.array_equal(loaded[name].cycles, result[name].cycles)
        assert np.array_equal(loaded[name].values, result[name].values)
    assert loaded.cycles_run == result.cycles_run


def test_csv_roundtrip_infers_resolution(result):
    loaded = result_from_csv(series_to_csv(result))
    assert loaded["tc.ipc"].spec.resolution == 256
    assert loaded["icache.miss_rate"].spec.resolution == 100
    assert loaded.mean_rate("tc.ipc") == pytest.approx(
        result.mean_rate("tc.ipc"))
    # cycles_run defaults to the last sample cycle seen
    assert loaded.cycles_run == max(int(result[name].cycles[-1])
                                    for name in result.names)


def test_csv_rejects_garbage():
    with pytest.raises(ValueError):
        result_from_csv("a,b\n1,2\n")


def test_summary_csv(result):
    rows = list(csv.reader(io.StringIO(summary_to_csv(result))))
    assert rows[0][0] == "parameter"
    assert len(rows) == 3
    by_name = {row[0]: row for row in rows[1:]}
    assert float(by_name["tc.ipc"][4]) == pytest.approx(
        result.mean_rate("tc.ipc"))


# -- the one profile-dict builder ---------------------------------------------
def _engine_result():
    device = EngineControlScenario().build(tc1797_config(), {}, seed=48)
    return ProfilingSession(device, spec.engine_parameter_set()).run(20_000)


def _degraded_result():
    # as tests/test_faults.py degrades a capture: EMEM drops leave gaps
    device = EmulationDevice(EdConfig(soc=tc1797_config()), seed=13)
    device.load_program(make_loop_program(
        alu_per_iter=3,
        load_gen=isa.TableAddr(amap.PFLASH_BASE + 0x10_0000, 4, 2048,
                               locality=0.6)))
    session = ProfilingSession(device, [spec.ipc(resolution=128)])
    plan = FaultPlan(rules=({"site": "emem.drop", "probability": 0.3},))
    with FaultInjector(plan):
        result = session.run(20_000)
    assert result.gaps and result.degraded_samples
    return result


def _lane_result():
    job = CampaignJob(name="lane", domain="engine", device="tc1797",
                      params={}, cycles=20_000, seed=48).to_dict()
    lanes = LaneSimulator([job])
    lanes.run()
    return lanes.result(0)


@pytest.fixture(params=[
    _engine_result, _degraded_result,
    pytest.param(_lane_result, marks=pytest.mark.skipif(
        not HAVE_NUMPY, reason="numpy extra not installed"))],
    ids=["engine", "degraded", "lane"])
def built(request):
    return request.param()


def test_result_to_dict_is_the_parsed_export(built):
    assert result_to_dict(built) == json.loads(
        result_to_json(built, compact=True))


def test_result_from_dict_round_trips_the_export(built):
    assert result_to_json(result_from_dict(result_to_dict(built))) == \
        result_to_json(built)
