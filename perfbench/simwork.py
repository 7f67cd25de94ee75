"""Child process of the benchmark: everything that imports ``repro``.

Modes (one JSON object on the last stdout line unless noted):

``setup``   import ``repro.api`` and resolve the first job's spec, print
            ``READY`` and exit (one ``setup_s`` sample).
``work``    the same set-up, ``READY``, then run simulation jobs in order
            through ``api.sweep``: the warm-up job(s), then more jobs until
            ``--seconds`` have passed and at least the workload's digest
            prefix is done; ``--jobs N`` runs
            exactly N jobs instead.  ``--trace`` installs the layer
            wrappers (:mod:`layers`) around the job loop.  After the timed
            loop, ``--verify N`` re-runs N seed-chosen instances solo.
``verify``  re-run instances solo for jobs another process produced (the
            service): reads ``{"jobs": [{"spec": ..., "rows": ...}, ...]}``
            from ``--input``.

Run from the benchmark: ``python3 perfbench/simwork.py work --workload
table1-cell --seed 1 --seconds 20 --run-dir DIR``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed
from workloads import (
    WARMUP_JOBS,
    WORKLOADS,
    cells_per_job,
    check_record,
    digest,
    heuristic_slots,
    job_spec,
    stable_rows,
)

# Importing the program is part of the measured set-up.
from repro import api
from repro.analysis.group import ExpectationMode
from repro.experiments.runner import run_instance
from repro.experiments.spec import CampaignSpec


def _emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def run_job(workload: str, seed: int, index: int, run_dir: Path, errors: list) -> dict:
    """Run job *index* through ``api.sweep`` and check every instance."""
    config = WORKLOADS[workload]
    mapping = job_spec(workload, seed, index)
    store = run_dir / "stores" / f"j{index}" if config["store"] else None
    start = time.perf_counter()
    try:
        result = api.sweep(CampaignSpec.from_dict(mapping), store=store)
    except Exception as error:  # noqa: BLE001 - a failed job is reported, not fatal
        errors.append(f"job {index}: {type(error).__name__}: {error}")
        return {"latency_s": time.perf_counter() - start, "failed": True, "timed": False}
    latency = time.perf_counter() - start
    records = [instance.as_dict() for instance in result.results]
    expected = cells_per_job(workload)
    problems = [] if len(records) == expected else [f"{len(records)} of {expected} cells"]
    bad = max(0, expected - len(records))
    for record in records:
        issues = check_record(record, mapping)
        bad += bool(issues)
        problems.extend(issues)
    if problems:
        errors.append(f"job {index}: " + "; ".join(problems[:3]))
    return {
        "latency_s": latency,
        "slots": heuristic_slots(records, mapping["makespan_cap"]),
        "instances": len(records),
        "bad": bad,
        "timed": index >= WARMUP_JOBS,
        "rows": stable_rows(records),
        "store_bytes": (
            sum(path.stat().st_size for path in store.iterdir()) if store is not None else 0
        ),
    }


def run_jobs(args) -> dict:
    config = WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)
    jobs = []
    errors = []
    recorder = None
    if args.trace:
        import layers

        recorder = layers.Recorder()
        uninstall = layers.install(recorder)
    minimum = args.jobs if args.jobs is not None else config["prefix"]
    store_bytes = 0
    begin = time.perf_counter()
    # Calibrations bracket every job; their own time is left out of the wall.
    kernel_before = hostspeed.calibrate()
    kernels = [kernel_before]
    deadline = None
    index = 0
    while index < minimum or (
        args.jobs is None and (deadline is None or time.perf_counter() < deadline)
    ):
        if index == WARMUP_JOBS:
            deadline = time.perf_counter() + args.seconds
        job = run_job(args.workload, args.seed, index, run_dir, errors)
        store_bytes += job.pop("store_bytes", 0)
        kernel_after = hostspeed.calibrate()
        kernels.append(kernel_after)
        job["kernel_s"] = [kernel_before, kernel_after]
        kernel_before = kernel_after
        jobs.append(job)
        index += 1
    wall = time.perf_counter() - begin - sum(kernels)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "wall_s": wall,
        "kernel_s": statistics.median(kernels),
        "rss_peak_mb": rss_mb,
        "errors": errors,
        "jobs": [{k: v for k, v in job.items() if k != "rows"} for job in jobs],
        "prefix_digest": digest([job.get("rows") for job in jobs[: config["prefix"]]]),
    }
    if recorder is not None:
        uninstall()
        prefix = jobs[: config["prefix"]]
        out["layers"] = layers.layer_table(recorder, wall)
        out["calls"] = dict(recorder.calls)
        out["counters"] = {
            **recorder.counters,
            "analysis.cache_keys": recorder.cache_keys(),
            "simulation.heuristic_slots": sum(job.get("slots", 0) for job in prefix),
            "experiments.instances": sum(job.get("instances", 0) for job in prefix),
            "experiments.store_bytes": store_bytes,
        }
    if args.verify:
        out["verify"] = verify(
            [
                {"spec": job_spec(args.workload, args.seed, i), "rows": job["rows"]}
                for i, job in enumerate(jobs[: config["prefix"]])
                if "rows" in job
            ],
            args.verify,
            args.seed,
        )
    shutil.rmtree(run_dir / "stores", ignore_errors=True)
    return out


def verify(jobs: list, count: int, seed: int) -> dict:
    """Re-run *count* seed-chosen instances solo and compare stable fields.

    Solo means one engine per instance, sampling availability from the
    models itself: no trace bank and no one-pass driver, so equality checks
    the solo == one-pass == replay invariant on the campaign's own results.
    """
    chooser = random.Random(f"perfbench-verify-{seed}")
    candidates = [(j, r) for j, job in enumerate(jobs) for r in range(len(job["rows"]))]
    chosen = chooser.sample(candidates, min(count, len(candidates)))
    mismatches = []
    for job_index, row_index in chosen:
        job = jobs[job_index]
        spec = CampaignSpec.from_dict(job["spec"])
        row = job["rows"][row_index]
        heuristic, scenario_index, trial = row[0], row[1], row[2]
        cell = next(
            cell
            for cell in spec.cells()
            if cell.heuristic == heuristic
            and cell.scenario.scenario_index == scenario_index
            and cell.trial == trial
        )
        solo = run_instance(
            cell.scenario,
            heuristic,
            trial,
            scale=spec.scale_for(cell.scenario.params.num_processors),
            mode=ExpectationMode(spec.estimator),
        )
        solo_row = stable_rows([solo.as_dict()])[0]
        if solo_row != row:
            mismatches.append({"job": job_index, "campaign": row, "solo": solo_row})
    return {"checked": len(chosen), "mismatches": mismatches}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "work", "verify"))
    parser.add_argument("--workload", default="table1-cell", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--verify", type=int, default=0)
    parser.add_argument("--run-dir", default=".")
    parser.add_argument("--input", default=None)
    args = parser.parse_args()
    if args.mode == "verify":
        payload = json.loads(Path(args.input).read_text())
        _emit(verify(payload["jobs"], args.verify, args.seed))
        return 0
    CampaignSpec.from_dict(job_spec(args.workload, args.seed, 0))
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    _emit(run_jobs(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
