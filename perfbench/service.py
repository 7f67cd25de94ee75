"""The ``service-roundtrip`` workload: ``repro serve`` plus one closed-loop client.

The client submits a distinct inline spec, polls its status until the job
is ``completed`` (or ``failed``), reads the job's ``/cells`` page and only
then submits the next job.  Only the standard library is used here; the
service runs in its own interpreter (``python3 -m repro serve``) with one
worker, so the load never exceeds two busy processes.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

from workloads import WARMUP_JOBS, WORKLOADS, check_record, heuristic_slots, job_spec, stable_rows

#: Client status-poll period (seconds); bounds the notify lag it adds.
POLL_S = 0.05
#: ``repro serve --workers``: one simulation at a time, within ``nproc``.
WORKERS = 1


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def request(method: str, url: str, body: Optional[dict] = None):
    """``(status, payload, seconds)``; non-2xx answers return their status."""
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(req, timeout=60) as answer:
            payload = json.loads(answer.read().decode() or "null")
            status = answer.status
    except urllib.error.HTTPError as error:
        payload, status = None, error.code
    return status, payload, time.perf_counter() - start


class Server:
    """One ``repro serve`` process; ``setup_s`` is spawn until ``/healthz`` is 200."""

    def __init__(self, root: Path, env: dict, log: Path):
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        command = [
            sys.executable, "-m", "repro", "serve", "--root", str(root),
            "--port", str(self.port), "--workers", str(WORKERS), "--framework", "stdlib",
        ]
        start = time.perf_counter()
        with open(log, "ab") as handle:
            # stop() shuts the server down with SIGINT, which a shell leaves
            # ignored in the commands it starts in the background.
            self.proc = subprocess.Popen(
                command, stdout=handle, stderr=subprocess.STDOUT, env=env,
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
            )
        try:
            while True:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"repro serve exited with {self.proc.returncode}; see {log}")
                if time.perf_counter() - start > 60:
                    raise RuntimeError("repro serve did not become healthy within 60 s")
                try:
                    status, _, _ = request("GET", self.url + "/healthz")
                except OSError:
                    status = None
                if status == 200:
                    break
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _children(pid: int) -> List[int]:
    # Children are listed per thread; the pool spawns workers from its own.
    children = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children.extend(int(child) for child in (task / "children").read_text().split())
        except OSError:
            continue
    return children


def _hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssSampler(threading.Thread):
    """Peak RSS of the server and its workers, sampled from ``/proc``.

    Each process's high-water mark is monotone, so the last sample before a
    worker exits is its peak up to the sampling period.
    """

    def __init__(self, pid: int, period: float = 0.02):
        super().__init__(daemon=True)
        self.pid = pid
        self.period = period
        self.worker_peak_kb: Dict[int, int] = {}
        self.server_kb = 0
        self.max_workers = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.period):
            self.sample()

    def sample(self) -> None:
        self.server_kb = max(self.server_kb, _hwm_kb(self.pid))
        children = _children(self.pid)
        self.max_workers = max(self.max_workers, len(children))
        for child in children:
            self.worker_peak_kb[child] = max(self.worker_peak_kb.get(child, 0), _hwm_kb(child))

    def stop(self) -> float:
        self._stop_event.set()
        self.join()
        self.sample()
        return (self.server_kb + max(self.worker_peak_kb.values(), default=0)) / 1024.0


def client_loop(server: Server, seed: int, seconds: float, jobs: Optional[int] = None) -> dict:
    """Closed loop: the warm-up job(s), then jobs until *seconds* passed and
    the digest prefix is done.

    ``jobs`` runs exactly that many jobs instead.  Returns per-job
    measurements, the prefix jobs' results and every error seen.
    """
    workload = "service-roundtrip"
    prefix = WORKLOADS[workload]["prefix"]
    minimum = prefix if jobs is None else jobs
    out: dict = {"jobs": [], "errors": [], "requests": 0, "status_s": [], "prefix": []}

    def call(method, path, body=None):
        status, payload, seconds_taken = request(method, server.url + path, body)
        out["requests"] += 1
        if not 200 <= status < 300:
            out["errors"].append(f"{method} {path} -> HTTP {status}")
            payload = None
        return payload, seconds_taken

    begin = time.perf_counter()
    deadline = None
    index = 0
    while index < minimum or (
        jobs is None and (deadline is None or time.perf_counter() < deadline)
    ):
        if index == WARMUP_JOBS:
            deadline = time.perf_counter() + seconds
        mapping = job_spec(workload, seed, index)
        start = time.perf_counter()
        accepted, submit_s = call("POST", "/campaigns", {"spec": mapping})
        if accepted is None or accepted.get("deduplicated"):
            out["errors"].append(f"job {index}: not accepted as a new job")
            out["jobs"].append({"failed": True, "latency_s": time.perf_counter() - start})
            index += 1
            continue
        location = accepted["location"]
        while True:
            document, status_s = call("GET", location)
            out["status_s"].append(status_s)
            if document is None or document["status"] in ("completed", "failed"):
                break
            time.sleep(POLL_S)
        seen = time.time()
        latency = time.perf_counter() - start
        cells, cells_s = call("GET", location + "/cells?limit=1000")
        failed = document is None or document["status"] != "completed" or cells is None
        job = {
            "latency_s": latency, "submit_s": submit_s, "cells_s": cells_s,
            "failed": failed, "timed": index >= WARMUP_JOBS,
        }
        if failed:
            out["errors"].append(f"job {index}: {document and document.get('error')}")
        else:
            # The job document's own timestamps split the wait.
            job["queue_wait_s"] = document["started_at"] - document["submitted_at"]
            job["run_s"] = document["finished_at"] - document["started_at"]
            job["notify_lag_s"] = seen - document["finished_at"]
            records = sorted(cells["cells"], key=lambda record: record["cell"])
            problems = [] if len(records) == document["total_cells"] else ["missing cells"]
            for record in records:
                problems.extend(check_record(record, mapping))
            if problems:
                out["errors"].append(f"job {index}: " + "; ".join(problems[:3]))
            job["slots"] = heuristic_slots(records, mapping["makespan_cap"])
            job["instances"] = len(records)
            if index < prefix:
                out["prefix"].append({"spec": mapping, "rows": stable_rows(records)})
        out["jobs"].append(job)
        index += 1
    out["wall_s"] = time.perf_counter() - begin
    return out


def store_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in (root / "stores").rglob("*") if path.is_file())


def worker_spans(spans_dir: Path) -> List[dict]:
    """Span summaries the instrumented workers wrote on exit."""
    return [json.loads(path.read_text()) for path in sorted(spans_dir.glob("spans-*.json"))]


def instrumented_env(env: dict, bench_dir: Path, spans_dir: Path) -> dict:
    """Environment whose ``repro.service.worker`` processes load the layer wrappers."""
    traced = dict(env)
    inject = str(bench_dir / "inject")
    traced["PYTHONPATH"] = inject + os.pathsep + traced.get("PYTHONPATH", "")
    traced["PERFBENCH_SPANS_DIR"] = str(spans_dir)
    return traced
