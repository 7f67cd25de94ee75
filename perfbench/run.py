"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1-cell --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` runs the workload's digest prefix twice in fresh
interpreters, untraced and with the :mod:`layers` wrappers installed, and
reports the per-layer metrics, the self-time table and the tracing
overhead.  Every run checks its results (instance invariants, the prefix
digest against the recorded and previously seen digests, and a solo
re-run of seed-chosen instances) and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import service  # noqa: E402
from workloads import WORKLOADS, cells_per_job, digest  # noqa: E402

#: Setup samples per run (the work process or measured server adds one).
SETUP_PROBES = 2
#: Instances re-run solo after the timed loop.
VERIFY_INSTANCES = 3

IMPORT_STATEMENTS = {
    "simulation": "import repro.api",
    # What a service worker imports before it marks its job running.
    "service": (
        "import repro.experiments.runner, repro.experiments.spec, "
        "repro.experiments.store, repro.service.jobs, repro.telemetry"
    ),
}

#: Wrapped layers reported as ``<layer>_s`` (self seconds) and, where the
#: second element is set, ``<layer>.calls``.
LAYER_METRICS = [
    ("scheduling.allocate", True),
    ("scheduling.select.proactive", True),
    ("scheduling.select.passive", True),
    ("scheduling.select.random", True),
    ("analysis.evaluate_batch", True),
    ("analysis.context_build", False),
    ("availability.sample_block", True),
    ("simulation.engine_run", False),
    ("simulation.driver_run", False),
    ("simulation.comm_phase_span", True),
    ("simulation.comm_manager", True),
    ("simulation.fast_forward", False),
    ("platform.build", True),
    ("experiments.tracebank", True),
    ("experiments.store_append", True),
]
#: Raw wall-clock figures printed beside the rescaled metrics.
WALL_REPORT = ["wall_slots_per_s", "wall_job_latency_s_p50", "kernel_ms_p50"]
SERVICE_METRICS = ["submit_s", "status_s", "queue_wait_s", "run_s", "notify_lag_s"]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def simwork(env: dict, *arguments: str):
    """Run ``simwork.py``; returns ``(seconds until READY, final JSON or None)``."""
    command = [sys.executable, str(BENCH_DIR / "simwork.py"), *arguments]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    ready = None
    lines = []
    for line in proc.stdout:
        if ready is None and line.strip() == "READY":
            ready = time.perf_counter() - start
        else:
            lines.append(line)
    if proc.wait() != 0:
        fail(f"simwork {' '.join(arguments)} exited with {proc.returncode}")
    return ready, (json.loads(lines[-1]) if lines else None)


def fingerprint(env: dict) -> dict:
    probe = (
        "import json, numpy, repro, repro.simulation.kernels as k\n"
        "try:\n import numba; nb = numba.__version__\n"
        "except ImportError:\n nb = None\n"
        "print(json.dumps({'repro': repro.__file__, 'numpy': numpy.__version__,"
        " 'numba': nb, 'kernel_backend': k.kernel_backend()}))"
    )
    answer = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=ROOT, capture_output=True, text=True
    )
    if answer.returncode != 0:
        fail("cannot import repro from src/: " + answer.stderr.strip().splitlines()[-1])
    info = json.loads(answer.stdout)
    if not Path(info.pop("repro")).resolve().is_relative_to(ROOT / "src"):
        fail("repro was imported from outside this checkout's src/")
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(), **info}


def import_split(env: dict, statement: str) -> dict:
    """``-X importtime`` of *statement* in a fresh interpreter, by package."""
    answer = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", statement],
        env=env, cwd=ROOT, capture_output=True, text=True,
    )
    totals = {"repro": 0, "scipy": 0, "networkx": 0, "all": 0}
    for line in answer.stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if not match:
            continue
        self_us, module = int(match.group(1)), match.group(2)
        totals["all"] += self_us
        package = module.split(".")[0]
        if package in totals:
            totals[package] += self_us
    return {name: value / 1e6 for name, value in totals.items()}


# ----------------------------------------------------------------------
# Digest bookkeeping
# ----------------------------------------------------------------------
def check_digest(workload: str, seed: int, value: str) -> list:
    """Compare with the recorded digest and with digests earlier runs saw."""
    errors = []
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    expected = recorded.get(workload, {}).get(str(seed))
    if expected is not None and expected != value:
        errors.append(f"digest {value[:12]} differs from the recorded {expected[:12]}")
    seen_path = ROOT / ".perfbench" / "digests-seen.json"
    seen = json.loads(seen_path.read_text()) if seen_path.exists() else {}
    # Keyed by the workload definition too, so editing the benchmark never
    # compares against digests of different inputs.
    key = f"{workload}/{seed}/{digest([WORKLOADS[workload]])[:16]}"
    if seen.setdefault(key, value) != value:
        errors.append(f"digest {value[:12]} differs from an earlier run's {seen[key][:12]}")
    seen_path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return errors


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------
def timing_metrics(timed: list) -> dict:
    """Medians over the timed simulation jobs, in reference and wall seconds.

    Each job is rescaled by the calibrations taken just before and after it
    (see ``hostspeed``).
    """
    latency = [hostspeed.reference_seconds(j["latency_s"], *j["kernel_s"]) for j in timed]
    return {
        "slots_per_s": median([j["slots"] / seconds for j, seconds in zip(timed, latency)]),
        "job_latency_s_p50": median(latency),
        "wall_slots_per_s": median([j["slots"] / j["latency_s"] for j in timed]),
        "wall_job_latency_s_p50": median([j["latency_s"] for j in timed]),
        "kernel_ms_p50": 1e3 * median([sum(j["kernel_s"]) / 2 for j in timed]),
    }


def sim_end_to_end(args, env, run_dir, report) -> dict:
    setups = [
        simwork(env, "setup", "--workload", args.workload, "--seed", str(args.seed))[0]
        for _ in range(SETUP_PROBES)
    ]
    ready, result = simwork(
        env, "work", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--verify", str(VERIFY_INSTANCES),
        "--run-dir", str(run_dir),
    )
    setups.append(ready)
    digest_errors = check_digest(args.workload, args.seed, result["prefix_digest"])
    mismatches = result["verify"]["mismatches"]
    errors = result["errors"] + digest_errors
    errors.extend(f"solo re-run differs: {item}" for item in mismatches)
    jobs = result["jobs"]
    done = [job for job in jobs if not job.get("failed")]
    per_job = cells_per_job(args.workload)
    # Operations: every instance, every solo re-run and the digest check.
    attempted = len(jobs) * per_job + result["verify"]["checked"] + 1
    failed = (
        sum(job["bad"] for job in done)
        + (len(jobs) - len(done)) * per_job
        + len(mismatches)
        + min(1, len(digest_errors))
    )
    timed = [job for job in done if job["timed"]]
    timing = timing_metrics(timed)
    report.update(
        jobs=len(jobs), timed_jobs=len(timed), heuristic_slots=sum(j["slots"] for j in timed),
        instances=sum(j["instances"] for j in done),
        prefix_digest=result["prefix_digest"], setup_samples=setups,
        solo_checked=result["verify"]["checked"],
        **{name: timing[name] for name in WALL_REPORT},
    )
    return {
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": (median(setups), "s"),
            "slots_per_s": (timing["slots_per_s"], "1/s"),
            "job_latency_s_p50": (timing["job_latency_s_p50"], "s"),
            "rss_peak_mb": (result["rss_peak_mb"], "MB"),
            "ok_ratio": (1.0 - failed / attempted, "ratio"),
        },
    }


def sim_traced(args, env, run_dir, report) -> dict:
    prefix = str(WORKLOADS[args.workload]["prefix"])
    common = ["--workload", args.workload, "--seed", str(args.seed), "--jobs", prefix]
    _, plain = simwork(env, "work", *common, "--run-dir", str(run_dir / "plain"))
    _, traced = simwork(env, "work", *common, "--trace", "--run-dir", str(run_dir / "traced"))
    errors = plain["errors"] + traced["errors"]
    if plain["prefix_digest"] != traced["prefix_digest"]:
        errors.append("tracing changed the results")
    errors += check_digest(args.workload, args.seed, traced["prefix_digest"])
    table = traced["layers"]
    metrics = layer_metrics(table, traced["calls"], traced["counters"])
    metrics["trace.overhead_ratio"] = (
        hostspeed.reference_seconds(traced["wall_s"], traced["kernel_s"])
        / hostspeed.reference_seconds(plain["wall_s"], plain["kernel_s"]),
        "ratio",
    )
    metrics["trace.unattributed_share"] = (table["unattributed"] / traced["wall_s"], "ratio")
    report.update(
        untraced_wall_s=plain["wall_s"], traced_wall_s=traced["wall_s"],
        self_time=table, prefix_digest=traced["prefix_digest"],
    )
    jobs = len(plain["jobs"]) + len(traced["jobs"])
    return {"errors": errors, "attempted": jobs + 1, "failed": len(errors), "metrics": metrics}


def layer_metrics(table: dict, calls: dict, counters: dict) -> dict:
    metrics = {}
    for layer, with_calls in LAYER_METRICS:
        metrics[f"{layer}_s"] = (table.get(layer, 0.0), "s")
        if with_calls:
            metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    metrics["simulation.shared_window.calls"] = (calls.get("simulation.shared_window", 0), "count")
    metrics["availability.slots_sampled"] = (
        counters.get("availability.sample_block.slots_sampled", 0), "count"
    )
    for name in ("analysis.cache_keys", "simulation.heuristic_slots",
                 "experiments.instances", "experiments.store_bytes"):
        metrics[name] = (counters.get(name, 0), "bytes" if name.endswith("bytes") else "count")
    return metrics


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
def start_server(run_dir: Path, name: str, env: dict) -> service.Server:
    root = run_dir / name
    root.mkdir(parents=True)
    return service.Server(root, env, run_dir / f"{name}.log")


def service_verify(env, run_dir, seed, prefix_jobs, errors) -> int:
    path = run_dir / "verify.json"
    path.write_text(json.dumps({"jobs": prefix_jobs}))
    _, result = simwork(
        env, "verify", "--seed", str(seed), "--verify", str(VERIFY_INSTANCES), "--input", str(path)
    )
    errors.extend(f"solo re-run differs: {item}" for item in result["mismatches"])
    return result["checked"]


def service_end_to_end(args, env, run_dir, report) -> dict:
    setups = []
    for probe in range(SETUP_PROBES):
        server = start_server(run_dir, f"probe{probe}", env)
        setups.append(server.setup_s)
        server.stop()
    server = start_server(run_dir, "root", env)
    setups.append(server.setup_s)
    sampler = service.RssSampler(server.proc.pid)
    sampler.start()
    try:
        loop = service.client_loop(server, args.seed, args.seconds)
    finally:
        rss_mb = sampler.stop()
        server.stop()
    errors = list(loop["errors"])
    if sampler.max_workers > min(service.WORKERS, os.cpu_count() or 1):
        errors.append(f"load exceeded {service.WORKERS} worker(s): saw {sampler.max_workers}")
    prefix_digest = digest([job["rows"] for job in loop["prefix"]])
    errors += check_digest(args.workload, args.seed, prefix_digest)
    checked = service_verify(env, run_dir, args.seed, loop["prefix"], errors)
    jobs = loop["jobs"]
    timed = [job for job in jobs if job.get("timed") and not job["failed"]]
    attempted = len(jobs) + loop["requests"] + checked + 1
    failed = len(errors)
    report.update(
        jobs=len(jobs), timed_jobs=len(timed), heuristic_slots=sum(j["slots"] for j in timed),
        prefix_digest=prefix_digest, setup_samples=setups, solo_checked=checked,
        max_workers=sampler.max_workers,
        job_latencies_s=[round(job["latency_s"], 4) for job in jobs],
    )
    return {
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": (median(setups), "s"),
            # Per second of each job's own run (started -> finished in the job
            # document): the submit-to-done wall is mostly worker start-up.
            "slots_per_s": (median([job["slots"] / job["run_s"] for job in timed]), "1/s"),
            "job_latency_s_p50": (median([job["latency_s"] for job in timed]), "s"),
            "rss_peak_mb": (rss_mb, "MB"),
            "ok_ratio": (1.0 - failed / attempted, "ratio"),
        },
    }


def service_traced(args, env, run_dir, report) -> dict:
    prefix = WORKLOADS[args.workload]["prefix"]
    server = start_server(run_dir, "plain", env)
    try:
        plain = service.client_loop(server, args.seed, 0.0, jobs=prefix)
    finally:
        server.stop()
    spans_dir = run_dir / "spans"
    spans_dir.mkdir()
    server = start_server(
        run_dir, "traced", service.instrumented_env(env, BENCH_DIR, spans_dir)
    )
    try:
        traced = service.client_loop(server, args.seed, 0.0, jobs=prefix)
    finally:
        server.stop()
    errors = plain["errors"] + traced["errors"]
    digests = [digest([job["rows"] for job in loop["prefix"]]) for loop in (plain, traced)]
    if digests[0] != digests[1]:
        errors.append("tracing changed the results")
    errors += check_digest(args.workload, args.seed, digests[1])
    workers = service.worker_spans(spans_dir)
    if len(workers) != prefix:
        errors.append(f"expected {prefix} worker span files, found {len(workers)}")
    calls, counters, inside = {}, {}, {}
    for worker in workers:
        for source, target in ((worker["calls"], calls), (worker["counters"], counters),
                               (worker["layers"], inside)):
            for name, value in source.items():
                target[name] = target.get(name, 0) + value
    jobs = traced["jobs"]
    counters["simulation.heuristic_slots"] = sum(job.get("slots", 0) for job in jobs)
    counters["experiments.instances"] = sum(job.get("instances", 0) for job in jobs)
    counters["experiments.store_bytes"] = service.store_bytes(run_dir / "traced")
    metrics = layer_metrics(inside, calls, counters)
    for name in SERVICE_METRICS:
        samples = traced["status_s"] if name == "status_s" else [j[name] for j in jobs if name in j]
        metrics[f"service.{name}_p50"] = (median(samples), "s")
    metrics["service.status.calls"] = (len(traced["status_s"]), "count")
    import_s = sum(worker["import_s"] for worker in workers)
    metrics["import.in_run_s"] = (import_s, "s")
    # The client's critical path: every job is submit, queue wait (dispatch,
    # worker spawn, worker import), run (the worker's layers), notify lag
    # (status-poll granularity) and the cells read.
    run_s = sum(job.get("run_s", 0.0) for job in jobs)
    worker_layers = {name: value for name, value in inside.items() if name != "unattributed"}
    table = {
        "service.submit": sum(job["submit_s"] for job in jobs),
        "service.queue_wait": sum(job.get("queue_wait_s", 0.0) for job in jobs) - import_s,
        "import.worker": import_s,
        **worker_layers,
        "service.run_other": run_s - sum(worker_layers.values()),
        "service.notify_lag": sum(job.get("notify_lag_s", 0.0) for job in jobs),
        "service.cells": sum(job["cells_s"] for job in jobs),
    }
    table["unattributed"] = traced["wall_s"] - sum(table.values())
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    metrics["trace.unattributed_share"] = (abs(table["unattributed"]) / traced["wall_s"], "ratio")
    report.update(
        untraced_wall_s=plain["wall_s"], traced_wall_s=traced["wall_s"], self_time=table,
        prefix_digest=digests[1],
    )
    attempted = len(plain["jobs"]) + len(jobs) + plain["requests"] + traced["requests"] + 1
    return {"errors": errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}


# ----------------------------------------------------------------------
def print_report(args, host: dict, report: dict, outcome: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    table = report.pop("self_time", None)
    for key, value in report.items():
        print(f"  {key}: {value}")
    if table is not None:
        wall = report["traced_wall_s"]
        print(f"  self time per layer (traced wall {wall:.3f} s):")
        for name, seconds in sorted(table.items(), key=lambda item: -item[1]):
            print(f"    {name:34s} {seconds:10.4f} s  {100 * seconds / wall:6.2f} %")
    for error in outcome["errors"]:
        print(f"  ERROR {error}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"  {name} = {value} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    env = environment()
    host = fingerprint(env)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    run_dir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    kind = "service" if args.workload == "service-roundtrip" else "simulation"
    report: dict = {}
    try:
        if args.trace:
            split = import_split(env, IMPORT_STATEMENTS[kind])
            outcome = (service_traced if kind == "service" else sim_traced)(
                args, env, run_dir, report
            )
            for package in ("repro", "scipy", "networkx"):
                outcome["metrics"][f"import.{package}_s"] = (split[package], "s")
            outcome["metrics"].setdefault("import.in_run_s", (0.0, "s"))
            for name in SERVICE_METRICS:
                outcome["metrics"].setdefault(f"service.{name}_p50", (0.0, "s"))
            outcome["metrics"].setdefault("service.status.calls", (0, "count"))
            report["import_split_s"] = split
        else:
            outcome = (service_end_to_end if kind == "service" else sim_end_to_end)(
                args, env, run_dir, report
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print_report(args, host, report, outcome)
    print(
        json.dumps(
            {
                "correct": not outcome["errors"],
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
