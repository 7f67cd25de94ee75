"""Reference drivers for the engine's differential tests.

Two references stand behind the production engine:

* :func:`perslot_availability` swaps every availability model class on a
  platform back to the base :meth:`AvailabilityModel.sample_block` loop —
  one ``next_state`` call per slot — for the duration of a ``with`` block.
  Vectorised model samplers promise to consume exactly the draws of that
  loop, so any code path (solo engine, one-pass driver, trace bank) re-run
  inside the block must reproduce the production run bit for bit.  The
  ``perslot_oracle`` fixture hands the context manager to a test.
* :func:`assert_fast_forward_exact` runs one engine set-up twice, once as
  in production and once with ``record_events=True``, which turns every
  span jump off so the engine processes each slot one by one.  Both runs
  must agree on every scalar result and on the collector's exact series.

One reference stands behind the production allocator:

* :class:`ReferenceAllocator` is the greedy allocation of Section VI-A with
  one candidate evaluated at a time, the loop the production frontier
  evaluation was derived from.  :func:`reference_allocation` makes every
  passive heuristic (and so every proactive candidate) allocate with it
  for the duration of a ``with`` block; fixed seed, the selected
  configurations and whole runs must equal production's.
"""

import math
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence

import pytest

from repro.application.configuration import Configuration
from repro.availability.model import AvailabilityModel
from repro.metrics import MetricsCollector
from repro.scheduling import passive as passive_module
from repro.scheduling.allocation import IncrementalAllocator

#: Scalar fields of a ``SimulationResult`` that differential tests compare.
RESULT_FIELDS = (
    "success",
    "makespan",
    "completed_iterations",
    "total_restarts",
    "total_configuration_changes",
    "communication_slots",
    "computation_slots",
    "idle_slots",
)

#: Collector series that are exact at every sampled slot, however the
#: engine traverses the run (the other two are interpolated inside jumps).
EXACT_SERIES = (
    "pool_up",
    "pool_down",
    "active_workers",
    "enrollment_churn",
    "iterations_completed",
)


@contextmanager
def perslot_availability(platform):
    """Sample *platform*'s availability slot by slot inside the block.

    Patches the model classes, not the instances, so platforms rebuilt
    from the same description (trace banks, ``api.run``) are covered too.
    """
    with pytest.MonkeyPatch.context() as patch:
        for model_class in {type(processor.availability) for processor in platform.processors}:
            patch.setattr(model_class, "sample_block", AvailabilityModel.sample_block)
        yield platform


@pytest.fixture
def perslot_oracle():
    """The :func:`perslot_availability` context manager."""
    return perslot_availability


def assert_fast_forward_exact(make_engine, stride=32):
    """*make_engine(metrics=..., record_events=...)* runs alike with and without jumps."""
    runs = []
    for record_events in (False, True):
        collector = MetricsCollector(stride=stride)
        result = make_engine(metrics=collector, record_events=record_events).run()
        runs.append((result, collector.result()))
    (fast, fast_metrics), (slow, slow_metrics) = runs
    for field in RESULT_FIELDS:
        assert getattr(fast, field) == getattr(slow, field), field
    assert fast_metrics.end_slot == slow_metrics.end_slot
    for name in EXACT_SERIES:
        assert fast_metrics.series[name] == slow_metrics.series[name], name


class ReferenceAllocator(IncrementalAllocator):
    """The greedy allocation, one candidate evaluated at a time.

    Overrides the production frontier loop with the plain per-candidate
    loop it was derived from: every candidate's group quantities come from
    ``AnalysisContext.group`` one set at a time, and the "slowest other
    transfer" term is a scan over the committed workers.  The traced
    wrapper's *stats* are accepted and left untouched.
    """

    def _allocate_batched(
        self,
        up_workers: Sequence[int],
        *,
        has_program: Iterable[int] = (),
        received_data: Optional[Mapping[int, int]] = None,
        elapsed: int = 0,
        stats: Optional[Dict[str, int]] = None,
    ) -> Optional[Configuration]:
        capacities = self._capacities
        program_set = frozenset(int(w) for w in has_program)
        reusable = {int(k): int(v) for k, v in received_data.items()} if received_data else {}
        tprog = self.platform.tprog
        tdata = self.platform.tdata
        ncom = self.platform.ncom
        criterion_name = self.criterion.name
        higher_better = self.criterion.higher_is_better
        group = self.analysis.group
        mode = self.analysis.mode
        context = self.analysis

        # Mutable running state of the greedy allocation.
        allocation: Dict[int, int] = {}
        worker_set: FrozenSet[int] = frozenset()
        loads: Dict[int, int] = {}
        comm_slots: Dict[int, int] = {}
        max_load = 0
        total_comm = 0
        # Per-worker single-worker expected communication times (for the max term).
        per_worker_comm_time: Dict[int, float] = {}

        def candidate_comm_slots(worker: int, tasks: int) -> int:
            already = min(reusable.get(worker, 0), tasks)
            program_cost = 0 if worker in program_set else tprog
            return program_cost + (tasks - already) * tdata

        for _ in range(self.num_tasks):
            best_worker: Optional[int] = None
            best_value = -math.inf if higher_better else math.inf
            for worker in up_workers:
                current_tasks = allocation.get(worker, 0)
                if current_tasks >= capacities[worker]:
                    continue
                new_tasks = current_tasks + 1
                # --- workload of the candidate configuration -------------
                new_load = new_tasks * self._speeds[worker]
                workload = new_load if new_load > max_load else max_load
                # --- communication estimate -------------------------------
                new_comm_q = candidate_comm_slots(worker, new_tasks)
                old_comm_q = comm_slots.get(worker, 0)
                candidate_total_comm = total_comm - old_comm_q + new_comm_q
                if worker in worker_set:
                    candidate_set = worker_set
                    num_workers = len(worker_set)
                else:
                    candidate_set = worker_set | {worker}
                    num_workers = len(worker_set) + 1
                comm_time = context.single_expected_time(worker, new_comm_q)
                for other, slots in comm_slots.items():
                    if other == worker:
                        continue
                    other_time = per_worker_comm_time.get(other, 0.0)
                    if other_time > comm_time:
                        comm_time = other_time
                if num_workers > ncom:
                    bandwidth_bound = candidate_total_comm / ncom
                    if bandwidth_bound > comm_time:
                        comm_time = bandwidth_bound
                if candidate_total_comm > 0:
                    duration = int(math.ceil(comm_time))
                    comm_probability = 1.0
                    # Ascending worker order: the canonical product order of the
                    # analysis layer (frozenset iteration order depends on the
                    # set's construction history, which would make the value an
                    # accident of the greedy path rather than a function of the
                    # candidate set).
                    for other in sorted(candidate_set):
                        comm_probability *= context.no_down_probability(other, duration)
                else:
                    comm_time = 0.0
                    comm_probability = 1.0
                # --- computation estimate ---------------------------------
                quantities = group.quantities(candidate_set)
                comp_probability = quantities.success_probability(workload)
                comp_time = quantities.expected_time(workload, mode)
                # --- criterion value ---------------------------------------
                probability = comm_probability * comp_probability
                expected = comm_time + comp_time
                if criterion_name == "P":
                    value = probability
                elif criterion_name == "E":
                    value = expected
                elif criterion_name == "Y":
                    denominator = elapsed + expected
                    value = probability / denominator if denominator > 0 else math.inf
                else:  # "AY"
                    value = probability / expected if expected > 0 else math.inf

                if best_worker is None:
                    best_worker = worker
                    best_value = value
                elif higher_better:
                    if value > best_value:
                        best_worker = worker
                        best_value = value
                else:
                    if value < best_value:
                        best_worker = worker
                        best_value = value

            if best_worker is None:
                return None  # defensive: cannot happen after the capacity sum check
            # Commit the task to the winning worker and update the running state.
            new_tasks = allocation.get(best_worker, 0) + 1
            allocation[best_worker] = new_tasks
            worker_set = worker_set | {best_worker}
            loads[best_worker] = new_tasks * self._speeds[best_worker]
            if loads[best_worker] > max_load:
                max_load = loads[best_worker]
            new_comm_q = candidate_comm_slots(best_worker, new_tasks)
            total_comm += new_comm_q - comm_slots.get(best_worker, 0)
            comm_slots[best_worker] = new_comm_q
            per_worker_comm_time[best_worker] = context.single_expected_time(
                best_worker, new_comm_q
            )

        return Configuration(allocation)


@contextmanager
def reference_allocation():
    """Build every passive heuristic's allocator as a :class:`ReferenceAllocator`.

    Patches the name :class:`~repro.scheduling.passive.PassiveHeuristic`
    binds, and engines bind their scheduler when they run, so keep
    ``engine.run()`` (not only the scheduler's construction) inside the
    block.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(passive_module, "IncrementalAllocator", ReferenceAllocator)
        yield
