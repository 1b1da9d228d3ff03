"""Lane execution: N same-config portfolio customers per invocation.

A :class:`LaneSimulator` owns one simulation lane per campaign job —
every lane the same SoC configuration, seed, cycle budget, and
measurement resolution (that is what :func:`group_key` groups by), each
lane its own customer program.  Lanes advance together in fixed strides
with a numpy activity mask: a finished lane drops out of the sweep, a
quiescent lane fast-forwards inside its own kernel (the PR3 sleep-heap
machinery), and the sweep loop is where the group honours
``should_stop`` — the same contract the scalar worker implements at
job and checkpoint boundaries.

No lane carries the live measurement plane.  Each lane records its raw
emission stream and the profile is reconstructed afterwards as array
math (:mod:`repro.batch.measure`), byte-identical to what a scalar
:class:`~repro.core.profiling.ProfilingSession` would have decoded.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

try:
    import numpy as np
except ImportError:          # pragma: no cover - guarded by require_numpy
    np = None

from ..core.profiling import spec as pspec
from ..core.profiling.export import result_to_json  # noqa: F401  (tests)
from ..core.profiling.session import ProfileResult
from ..errors import CampaignStopped, ConfigurationError
from ..faults import injector as _fi
from ..obs import runtime as _obs
from .measure import EmissionLog, reconstruct_result, watched_signals

#: default sweep stride in cycles — small enough that preemption and
#: deadline checks stay responsive, large enough to amortize the sweep
STRIDE = 8192


def group_key(job: Dict) -> Tuple:
    """The lane-compatibility key: jobs sharing it may ride one group.

    Everything that shapes the simulated SoC and the measurement grid is
    in the key; the customer program (domain + params) is per-lane.
    """
    return (job["device"], job["cycles"], job["seed"],
            job["ipc_resolution"], job["rate_per"])


def _check_supported(jobs: Sequence[Dict]) -> None:
    from . import BatchUnsupported
    if not jobs:
        raise ConfigurationError("empty lane group")
    if _fi._active is not None:
        raise BatchUnsupported(
            "a fault injector is active; fault drills must run on the "
            "scalar kernel, which models the degradation they cause")
    keys = {group_key(job) for job in jobs}
    if len(keys) != 1:
        raise ConfigurationError(
            f"lane group mixes {len(keys)} incompatible configurations; "
            f"group jobs by group_key() first")
    for job in jobs:
        if job.get("fault"):
            raise BatchUnsupported(
                f"job {job['name']!r} carries a fault drill "
                f"({job['fault']!r}); run it on the scalar backend")


class LaneSimulator:
    """N lockstep simulation lanes over one SoC configuration."""

    def __init__(self, jobs: Sequence[Dict], stride: int = STRIDE) -> None:
        from . import BatchUnsupported, require_numpy
        require_numpy()
        _check_supported(jobs)
        if stride < 1:
            raise ConfigurationError("stride must be >= 1")
        from ..fleet.worker import CONFIGS, SCENARIOS
        self.jobs = [dict(job) for job in jobs]
        self.stride = stride
        self.specs = pspec.engine_parameter_set(
            ipc_resolution=self.jobs[0]["ipc_resolution"],
            rate_per=self.jobs[0]["rate_per"])
        signals = watched_signals(self.specs)
        self.devices = []
        self.logs: List[EmissionLog] = []
        self.start_cycles: List[int] = []
        for job in self.jobs:
            try:
                scenario = SCENARIOS[job["domain"]]()
            except KeyError:
                raise ConfigurationError(
                    f"unknown workload domain {job['domain']!r}")
            try:
                config = CONFIGS[job["device"]]()
            except KeyError:
                raise ConfigurationError(
                    f"unknown device config {job['device']!r}")
            device = scenario.build(config, dict(job["params"]),
                                    seed=job["seed"])
            if device.mcds.total_messages:
                raise BatchUnsupported(
                    f"scenario {job['domain']!r} emits trace messages "
                    f"during build; the shared-timestamp stream must be "
                    f"modelled by the scalar kernel")
            self.devices.append(device)
            self.logs.append(EmissionLog(device.soc.hub, signals))
            self.start_cycles.append(device.cycle)
        self.remaining = np.asarray([job["cycles"] for job in self.jobs],
                                    dtype=np.int64)

    @property
    def lanes(self) -> int:
        return len(self.jobs)

    def active_mask(self):
        """Boolean mask of lanes still short of their cycle budget."""
        return self.remaining > 0

    def sweep(self) -> int:
        """Advance every active lane one stride; returns lanes still active.

        Each lane's own kernel handles quiescence inside the stride
        (sleeping components are skipped, empty hot sets fast-forward), so
        an idle lane costs almost nothing to keep in the sweep.
        """
        tel = _obs._active
        active = np.flatnonzero(self.remaining)
        steps = np.minimum(self.remaining[active], self.stride)
        t0 = tel.tracer.now_us() if tel is not None else 0.0
        for lane, step in zip(active.tolist(), steps.tolist()):
            self.devices[lane].run(step)
        self.remaining[active] -= steps
        if tel is not None:
            cycles = int(steps.sum())
            tel.tracer.complete(
                "batch.stride", t0, tel.tracer.now_us() - t0, "batch",
                args={"lanes": int(active.size), "cycles": cycles,
                      "stride": self.stride})
            reg = tel.registry
            reg.get("repro_batch_strides_total").inc()
            reg.get("repro_batch_sweep_cycles_total").inc(cycles)
        return int(np.count_nonzero(self.remaining))

    def run(self, should_stop: Optional[Callable[[], Optional[str]]] = None
            ) -> None:
        """Sweep all lanes to completion; a reason from ``should_stop``
        at a sweep boundary raises :class:`~repro.errors.CampaignStopped`.
        """
        while True:
            reason = should_stop and should_stop()
            if reason:
                raise CampaignStopped(reason)
            if self.sweep() == 0:
                return

    # -- results -------------------------------------------------------------
    def result(self, lane: int) -> ProfileResult:
        device = self.devices[lane]
        return reconstruct_result(
            self.specs, self.logs[lane], self.start_cycles[lane],
            device.cycle - self.start_cycles[lane],
            device.config.soc.cpu.frequency_mhz,
            capacity_bits=device.emem.capacity_bits)

    def payload(self, lane: int) -> Dict:
        """The scalar worker's payload dict, reconstructed for one lane."""
        job = self.jobs[lane]
        tel = _obs._active
        if tel is not None:
            # telemetry reads lane state, never writes: the payload is
            # byte-identical with the span on or off
            with tel.span("batch.reconstruct", cat="batch",
                          job=job["name"], device=job["device"]):
                result = self.result(lane)
        else:
            result = self.result(lane)
        return {
            "name": job["name"],
            "domain": job["domain"],
            "device": job["device"],
            "cycles": job["cycles"],
            "sim_cycles": self.devices[lane].soc.sim.cycle,
            "profile": profile_payload(result),
        }

    def payloads(self) -> List[Dict]:
        return [self.payload(lane) for lane in range(self.lanes)]


def profile_payload(result: ProfileResult) -> Dict:
    """``json.loads(result_to_json(result, compact=True))`` without the
    serialisation round trip.

    Equality holds because canonical JSON round-trips every value here
    exactly (ints, shortest-repr floats, lists of ints); the property
    tests assert it against the real exporter.
    """
    payload: Dict = {
        "cycles_run": result.cycles_run,
        "frequency_mhz": result.frequency_mhz,
        "trace_bits": result.trace_bits,
        "bandwidth_mbps": result.bandwidth_mbps(),
        "lost_messages": result.lost_messages,
        "parameters": {},
    }
    if result.gaps:
        payload["gaps"] = [gap.to_list() for gap in result.gaps]
    for name, data in result.series.items():
        # the series lists are shared, not copied: both sides are
        # freshly reconstructed per lane and immediately serialised
        entry: Dict = {
            "events": list(data.spec.events),
            "basis": data.spec.basis,
            "resolution": data.spec.resolution,
            "samples": len(data),
            "mean_rate": data.mean_rate(),
            "cycles": data.cycle_list(),
            "values": data.value_list(),
        }
        if data.degraded_count:
            entry["degraded"] = data.degraded_indices()
        payload["parameters"][name] = entry
    return payload


def run_lane_group(jobs: Sequence[Dict],
                   should_stop: Optional[Callable[[], Optional[str]]] = None,
                   stride: int = STRIDE) -> List[Dict]:
    """Execute one compatible job group on lanes; payloads in job order."""
    lanes = LaneSimulator(jobs, stride=stride)
    lanes.run(should_stop)
    return lanes.payloads()
