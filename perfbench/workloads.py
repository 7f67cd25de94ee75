"""The benchmark's workloads as campaign-spec mappings (standard library only).

Every job is one campaign spec whose name folds in the benchmark seed and
the job index, so the seed chooses both the platform draws and the trials,
and no two jobs of a run (or of two seeds) share a platform or a
service-side dedup key.  The program only ever sees the generated spec.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

ALL_17 = [
    "RANDOM", "IP", "IE", "IY", "IAY",
    "P-IP", "P-IE", "P-IY", "P-IAY",
    "E-IP", "E-IE", "E-IY", "E-IAY",
    "Y-IP", "Y-IE", "Y-IY", "Y-IAY",
]

#: The first ``WARMUP_JOBS`` jobs of a run are checked and digested but
#: not timed: ``--seconds`` and the timing metrics start after them.
WARMUP_JOBS = 1

#: Per workload: the grid point and heuristics of one job, and ``prefix``,
#: the number of leading jobs every run completes whatever ``--seconds``
#: says.  Digests and work counters cover exactly that prefix, so they
#: repeat between runs of one seed while the timed loop fills the run.
WORKLOADS: Dict[str, dict] = {
    # One paper Table I cell point (m=5, ncom=10, wmin=1), all 17
    # heuristics, the paper's 1M cap.  A job is one platform and one paired
    # trial (about 0.5 s): job cost follows the platform draw, so a run
    # takes its medians over many small jobs rather than a few large ones.
    "table1-cell": {
        "grid": {"m_values": [5], "ncom_values": [10], "wmin_values": [1]},
        "heuristics": ALL_17,
        "scenarios_per_cell": 1,
        "trials_per_scenario": 1,
        "makespan_cap": 1_000_000,
        "store": True,
        "prefix": 8,
    },
    # The passive-contract heuristics the one-pass driver advances in
    # lockstep, on the slow wmin=10 point where RANDOM runs to the cap.
    # At the paper's 1M cap one trial costs 0.2M-4.4M heuristic-slots
    # depending on the seed, more than a whole run.  The 20k cap bounds a
    # trial at 100k slots; a job is one platform and one trial (about
    # 0.6 s), so a run takes its medians over ~50 platform draws.
    "passive-long": {
        "grid": {"m_values": [5], "ncom_values": [10], "wmin_values": [10]},
        "heuristics": ["RANDOM", "IP", "IE", "IY", "IAY"],
        "scenarios_per_cell": 1,
        "trials_per_scenario": 1,
        "makespan_cap": 20_000,
        "store": False,
        "prefix": 8,
    },
    # One table1-cell grid point, four heuristics, per service job.  Four
    # platforms (1 trial each) make the job's run about 0.7 s, long enough
    # to time its simulation rate from the job document.
    "service-roundtrip": {
        "grid": {"m_values": [5], "ncom_values": [10], "wmin_values": [1]},
        "heuristics": ["IE", "RANDOM", "P-IE", "Y-IE"],
        "scenarios_per_cell": 4,
        "trials_per_scenario": 1,
        "makespan_cap": 1_000_000,
        "store": True,
        "prefix": 4,
    },
}

#: Result fields that identify an outcome (never wall times).
STABLE_FIELDS = (
    "heuristic",
    "scenario_index",
    "trial_index",
    "success",
    "makespan",
    "completed_iterations",
    "total_restarts",
    "total_configuration_changes",
)


def job_spec(workload: str, seed: int, job: int) -> dict:
    """The flat campaign-spec mapping of job *job* of *workload* at *seed*."""
    config = WORKLOADS[workload]
    return {
        "name": f"perfbench-{workload}-s{seed}-j{job}",
        **config["grid"],
        "num_processors_values": [20],
        "heuristics": list(config["heuristics"]),
        "scenarios_per_cell": config["scenarios_per_cell"],
        "trials_per_scenario": config["trials_per_scenario"],
        "iterations": 10,
        "makespan_cap": config["makespan_cap"],
    }


def cells_per_job(workload: str) -> int:
    config = WORKLOADS[workload]
    return config["scenarios_per_cell"] * config["trials_per_scenario"] * len(config["heuristics"])


def stable_rows(records) -> List[list]:
    """The stable fields of result records (dicts), in the given order."""
    return [[record[name] for name in STABLE_FIELDS] for record in records]


def digest(rows_per_job: List[List[list]]) -> str:
    """sha256 over the stable rows of a sequence of jobs."""
    text = json.dumps(rows_per_job, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def heuristic_slots(records, cap: int) -> int:
    """Σ makespan, counting the cap for runs that hit it."""
    return sum(cap if record["makespan"] is None else record["makespan"] for record in records)


def check_record(record: dict, spec: dict) -> List[str]:
    """Invariants every instance result must satisfy (empty when correct)."""
    problems = []
    cap = spec["makespan_cap"]
    if record["heuristic"] not in spec["heuristics"]:
        problems.append(f"unexpected heuristic {record['heuristic']!r}")
    if record["success"]:
        if record["makespan"] is None or not 1 <= record["makespan"] <= cap:
            problems.append(f"makespan {record['makespan']} outside [1, {cap}]")
        if record["completed_iterations"] != spec["iterations"]:
            problems.append("successful run did not complete every iteration")
    else:
        if record["makespan"] is not None:
            problems.append("failed run reports a makespan")
        if record["completed_iterations"] >= spec["iterations"]:
            problems.append("failed run completed every iteration")
    if record["total_restarts"] < 0 or record["total_configuration_changes"] < 0:
        problems.append("negative restart or configuration-change count")
    return problems
