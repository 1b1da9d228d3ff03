#!/usr/bin/env python3
"""Portfolio-campaign benchmark: end-to-end times and their split by layer.

Run from the repository root::

    python3 bench/run.py                          # all workloads, both phases
    python3 bench/run.py --workload pool-fine --seed 3 --seconds 20 --trace 0

Each workload runs in its own fresh child process, one after another;
``setup_s`` is the median over that child and ``SETUP_PROBES`` more fresh
processes, each timed from spawn until set-up is done.  ``--trace 0``
runs only the timed phase (end-to-end metrics), ``--trace 1`` only the
traced phase (per-layer metrics), no ``--trace`` both.  Every metric is
printed with its unit and sample count; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when the correctness gate passes.

Scratch files, the digest ledger and the Chrome traces live under
``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from statistics import median
from typing import Dict, List, Optional

from stats import NOMINAL_REF_S, host_ref_s, tail_percentile
from workloads import METRICS, WORKERS, WORKLOAD_NAMES, reported, workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
#: fresh processes timed for ``setup_s`` besides the measuring child
SETUP_PROBES = 4
#: a child still running after this long is killed with its process group
CHILD_TIMEOUT_S = 170.0
DEFAULT_SECONDS = 20
DEFAULT_SEED = 2008


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Time portfolio campaigns on the pool, fine-grid, batch "
                    "and cluster paths and split their wall time by layer.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="population seed (CampaignSpec(seed=N))")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed phase per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed phase only, 1: traced phase only "
                             "(default: both)")
    # internal: the per-workload child and the set-up probes
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child side ----------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import phases
    chosen = workload(args.workload)
    jobs = phases.build_jobs(chosen, args.seed)
    phases.warm_up(chosen, jobs)
    print("READY", flush=True)
    if args.probe:
        return 0
    work = os.path.join(WORK, f"{chosen.name}-{os.getpid()}")
    bench = phases.Bench(chosen, jobs, work)
    result: Dict = {"workload": chosen.name, "jobs": len(jobs),
                    "jobset": phases.jobset_key(jobs), "values": {},
                    "raw": None, "ledger": [], "trace": None}
    try:
        if args.trace in (None, 0):
            values, result["raw"] = bench.timed(args.seconds)
            result["values"].update(values)
        if args.trace in (None, 1):
            values, tracer = bench.traced()
            result["values"].update(values)
            result["ledger"] = phases.ledger(tracer)
            traces = os.path.join(WORK, "traces")
            os.makedirs(traces, exist_ok=True)
            path = tracer.chrome(os.path.join(
                traces, f"{chosen.name}-seed{args.seed}.json"))
            result["trace"] = os.path.relpath(path, ROOT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(bench.digests) != 1:
        bench.problems.append(
            f"{len(bench.digests)} distinct aggregate digests across "
            f"the workload's campaigns")
    result.update(digest=min(bench.digests) if bench.digests else None,
                  campaigns=bench.attempted // len(jobs),
                  problems=bench.problems, attempted=bench.attempted,
                  failed=bench.failed)
    print(json.dumps(result), flush=True)
    return 0


# -- parent side ---------------------------------------------------------------
def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(name: str, args: argparse.Namespace, probe: bool):
    """Run one child; returns (seconds until READY or None, stdout lines
    after it, exit code)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--probe" if probe else "--child", "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace is not None:
        cmd += ["--trace", str(args.trace)]
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, TMPDIR=tmp,
               PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    start = time.perf_counter()
    # own process group: a timeout also reaps pool workers and nodes
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, [proc])
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            _kill_group(proc)
            proc.wait()
        # a killed child leaves its campaign directories behind
        shutil.rmtree(os.path.join(WORK, f"{name}-{proc.pid}"),
                      ignore_errors=True)
    return ready, lines, code


def measure(name: str, args: argparse.Namespace) -> Optional[Dict]:
    """Set-up probes, then the measuring child; its result plus the
    set-up samples (raw seconds, host scale)."""
    setups = []
    for index in range(SETUP_PROBES + 1):
        probe = index < SETUP_PROBES
        scale = NOMINAL_REF_S / host_ref_s()
        ready, lines, code = spawn(name, args, probe)
        if code != 0 or ready is None or not (probe or lines):
            print(f"bench: {name} child exited with code {code}",
                  file=sys.stderr)
            return None
        setups.append((ready, scale))
    result = json.loads(lines[-1])
    result["setup"] = setups
    return result


def cross_check(results: List[Dict], seed: int) -> None:
    """Same jobs, same aggregate: across workloads and across runs.

    ``.bench_work/digests.json`` remembers the first clean aggregate
    digest per job list, so pool-default, batch-default and
    cluster-default are compared even when run one per invocation.
    """
    path = os.path.join(WORK, "digests.json")
    try:
        with open(path) as handle:
            known = json.load(handle)
    except FileNotFoundError:
        known = {}
    for result in results:
        if result["digest"] is None:
            continue
        entry = known.get(result["jobset"])
        if entry is None:
            if not result["problems"]:
                known[result["jobset"]] = {"digest": result["digest"],
                                           "workload": result["workload"],
                                           "seed": seed}
        elif entry["digest"] != result["digest"]:
            result["problems"].append(
                f"aggregate differs from {entry['workload']}'s for the "
                f"same jobs (seed {entry['seed']})")
        else:
            result["matches"] = entry["workload"]
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _value(result: Dict, name: str):
    if name == "setup_s":
        setups = result["setup"]
        return median([ready * scale for ready, scale in setups]), len(setups)
    return result["values"].get(name)


def _raw_note(result: Dict, name: str) -> str:
    """The uncalibrated reading behind a calibrated end-to-end time."""
    raw = result["raw"]
    if name == "setup_s":
        return f"raw p50 {median([r for r, _ in result['setup']]):.4f} s"
    if raw is None or name not in ("campaign_s_p50", "warm_campaign_s_p50"):
        return ""
    samples = raw["cold" if name == "campaign_s_p50" else "warm"]
    note = f"raw p50 {median(samples):.4f} s"
    tail = tail_percentile(samples)
    if tail is None:
        return note + "; under 40 samples, no higher percentile qualifies"
    return note + f"; raw p{tail[0]:g} {tail[1]:.4f} s"


def print_result(result: Dict, args: argparse.Namespace) -> None:
    chosen = workload(result["workload"])
    print(f"\n== {chosen.name}: {result['jobs']} jobs, {chosen.path} path, "
          f"{WORKERS} {'nodes' if chosen.path == 'cluster' else 'workers'},"
          f" seed {args.seed}; closed loop, one campaign at a time ==")
    if result["raw"]:
        print(f"  host speed: reference loop {NOMINAL_REF_S * 1e3:.1f} ms "
              f"nominal, times scaled by a median "
              f"{median(result['raw']['scale']):.3f}")
    for entry in METRICS:
        if entry.path not in (None, chosen.path):
            continue
        found = _value(result, entry.name)
        if found is None:
            continue
        value, n = found
        note = _raw_note(result, entry.name)
        print(f"  {entry.name:<40}{value:>16.6g} {entry.unit:<9} n={n}"
              + (f"  ({note})" if note else ""))
    if result["ledger"]:
        wall = sum(seconds for _, seconds, _ in result["ledger"])
        print(f"  traced layer ledger (self time of {wall:.3f} s, cold + "
              f"warm in-process campaign):")
        for name, seconds, calls in result["ledger"]:
            print(f"    {name:<36}{seconds:>10.4f} s {100 * seconds / wall:>6.1f}%"
                  f"  calls={calls}")
        print(f"  chrome trace: {result['trace']}")
    verdict = "FAIL: " + "; ".join(result["problems"]) \
        if result["problems"] else "pass"
    print(f"  correctness: {verdict}")
    if result["digest"]:
        same = f", matches {result['matches']}" if result.get("matches") \
            else ""
        print(f"  aggregate.json sha256 {result['digest']} identical across "
              f"{result['campaigns']} campaigns{same}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.child or args.probe:
        return child_main(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no package at {SRC}/repro; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    results = []
    for name in names:
        result = measure(name, args)
        if result is None:
            return 1
        results.append(result)
    cross_check(results, args.seed)
    for result in results:
        print_result(result, args)
    print("\naccuracy: the model is unvalidated against silicon, so no "
          "error figure is given")

    kinds = {None: ("end_to_end", "per_layer"), 0: ("end_to_end",),
             1: ("per_layer",)}[args.trace]
    metrics = {}
    for result in results:
        prefix = "" if args.workload else result["workload"] + "/"
        for kind in kinds:
            for entry in reported(kind):
                value, _ = _value(result, entry.name)
                metrics[prefix + entry.name] = {"value": value,
                                                "unit": entry.unit}
    correct = not any(result["problems"] for result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
