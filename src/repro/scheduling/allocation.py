"""Incremental greedy task allocation (the core of the passive heuristics).

Section VI-A: "Passive heuristics assign tasks to workers, which must be in
the UP state, one by one until m tasks are assigned.  Each task is assigned
to a worker according to a criterion that defines the heuristic."

The allocator therefore loops ``m`` times; at each step it considers every UP
worker with remaining capacity, evaluates the configuration obtained by
giving that worker one more task (probability of success, expected completion
time, yield, apparent yield — via the Section V machinery), and commits the
task to the worker whose configuration scores best under the heuristic's
criterion.

The same allocator also serves the proactive heuristics, which rebuild a
candidate configuration "from scratch ... as if no task were allocated to any
worker" at every slot.

Implementation note — this sits on the simulator's hottest path (a proactive
heuristic performs ``m × |UP|`` candidate evaluations *per slot*), so the
inner loop computes the criterion values directly from the cached
:class:`~repro.analysis.group.GroupAnalysis` /
:class:`~repro.analysis.single.WorkerAnalysis` quantities instead of
materialising a :class:`Configuration` and a
:class:`~repro.analysis.evaluation.ConfigurationEstimate` per candidate.  The
formulas are exactly those of :mod:`repro.analysis.evaluation` and
:mod:`repro.analysis.communication`; ``tests/scheduling/test_allocation.py``
cross-checks the fast path against the reference evaluation.

Each greedy step evaluates its whole candidate frontier at once (see
:meth:`IncrementalAllocator._allocate_batched`).  A one-candidate-at-a-time
version of the same loop, ``ReferenceAllocator`` in ``tests/oracle.py``, is
the reference ``tests/scheduling/test_batch_equivalence.py`` compares this
path against, allocation by allocation and run by run.
"""

from __future__ import annotations

import math
import time
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence

from repro.analysis.cache import AnalysisContext
from repro.analysis.criteria import Criterion
from repro.application.configuration import Configuration
from repro.platform.platform import Platform

__all__ = ["IncrementalAllocator"]


class IncrementalAllocator:
    """Greedy, one-task-at-a-time configuration builder.

    Parameters
    ----------
    criterion:
        The figure of merit optimised at every step (defines IP / IE / IY /
        IAY).
    analysis:
        The platform's cached analytical machinery.
    platform:
        The platform (speeds, capacities, communication constants).
    num_tasks:
        ``m`` — how many tasks to place.
    """

    def __init__(
        self,
        criterion: Criterion,
        analysis: AnalysisContext,
        platform: Platform,
        num_tasks: int,
    ) -> None:
        if num_tasks < 1:
            raise ValueError(f"num_tasks must be >= 1, got {num_tasks}")
        self.criterion = criterion
        self.analysis = analysis
        self.platform = platform
        self.num_tasks = int(num_tasks)
        self._speeds = {q: platform.processor(q).speed for q in range(platform.num_processors)}
        self._capacities = {
            q: platform.processor(q).capacity for q in range(platform.num_processors)
        }

    # ------------------------------------------------------------------
    def allocate(
        self,
        up_workers: Sequence[int],
        *,
        has_program: Iterable[int] = (),
        received_data: Optional[Mapping[int, int]] = None,
        elapsed: int = 0,
    ) -> Optional[Configuration]:
        """Build a full ``m``-task configuration, or return ``None`` if impossible.

        Parameters
        ----------
        up_workers:
            Workers eligible for enrolment (must be UP at the current slot).
        has_program:
            Workers that already hold the application program (affects the
            communication estimate).
        received_data:
            Data messages already received and reusable, per worker (only
            meaningful when rebuilding after a failure, per Section VI-A).
        elapsed:
            Slots already spent in the current iteration (enters the yield
            criteria).

        When the shared :class:`AnalysisContext` carries a tracer
        (``analysis.tracer``), every call accumulates into one aggregated
        ``allocate`` span (duration, ``calls``, memo hit/miss counters,
        flushed at the end of the engine run); with no tracer this method
        takes the exact pre-telemetry code path.
        """
        up_workers = sorted(set(int(w) for w in up_workers))
        if not up_workers:
            return None
        capacities = self._capacities
        if sum(capacities[w] for w in up_workers) < self.num_tasks:
            return None
        tracer = getattr(self.analysis, "tracer", None)
        if tracer is None:
            return self._allocate_batched(
                up_workers,
                has_program=has_program,
                received_data=received_data,
                elapsed=elapsed,
            )
        begin = time.perf_counter_ns()
        stats = {
            "steps": 0,
            "candidates": 0,
            "single_time_misses": 0,
            "survival_misses": 0,
            "computation_misses": 0,
        }
        result = self._allocate_batched(
            up_workers,
            has_program=has_program,
            received_data=received_data,
            elapsed=elapsed,
            stats=stats,
        )
        # The computation memo is probed exactly once per candidate, so
        # hits are the complement of the recorded misses.
        stats["computation_hits"] = stats["candidates"] - stats["computation_misses"]
        stats["up_workers"] = len(up_workers)
        tracer.accumulate(
            "allocate",
            begin,
            counters=stats,
            criterion=self.criterion.name,
        )
        return result

    # ------------------------------------------------------------------
    def _allocate_batched(
        self,
        up_workers: Sequence[int],
        *,
        has_program: Iterable[int] = (),
        received_data: Optional[Mapping[int, int]] = None,
        elapsed: int = 0,
        stats: Optional[Dict[str, int]] = None,
    ) -> Optional[Configuration]:
        """Frontier-at-a-time evaluation of the greedy allocation.

        At every greedy step the whole candidate frontier (one candidate per
        eligible worker) is prepared first: uncached group quantities are
        computed in one :meth:`AnalysisContext.prefetch_groups` batch, the
        "slowest other transfer" term of the communication estimate comes
        from a per-step top-two precomputation instead of an inner loop (the
        max of a set of floats does not depend on evaluation order), and the
        per-candidate survival products / computation estimates go through
        the :class:`AnalysisContext` memos keyed on (frozen set, duration) and
        (frozen set, workload).  The memo dictionaries are probed directly
        (``AnalysisContext.computation_cache`` and friends) so a cache hit —
        the steady state of a long simulation — costs one dictionary lookup
        instead of a method call; misses fall through to the owning
        :class:`AnalysisContext` methods, which populate the same memos.
        Every candidate value is produced by the same scalar float
        expressions as a one-candidate-at-a-time loop would use, so the
        selected worker — and therefore the returned configuration — does
        not depend on the batching.

        *stats*, when given (only by the traced :meth:`allocate` wrapper),
        accumulates greedy-step / candidate counts plus memo misses.  The
        miss increments live inside the already-slow cache-miss branches and
        the per-step increments are two dict adds per greedy step, so the
        counters never touch the per-candidate hot path; with ``stats=None``
        the loop is byte-for-byte the untraced one.
        """
        capacities = self._capacities
        speeds = self._speeds
        program_set = frozenset(int(w) for w in has_program)
        reusable = {int(k): int(v) for k, v in received_data.items()} if received_data else {}
        tprog = self.platform.tprog
        tdata = self.platform.tdata
        ncom = self.platform.ncom
        criterion_name = self.criterion.name
        higher_better = self.criterion.higher_is_better
        context = self.analysis
        # Hot locals: bound methods and raw memo probes for the inner loop.
        ceil = math.ceil
        inf = math.inf
        prefetch_groups = context.prefetch_groups
        single_expected_time = context.single_expected_time
        comm_survival = context.comm_survival
        computation = context.computation
        single_time_get = context.single_time_cache.get
        survival_get = context.survival_cache.get
        computation_get = context.computation_cache.get
        reusable_get = reusable.get

        allocation: Dict[int, int] = {}
        allocation_get = allocation.get
        worker_set: FrozenSet[int] = frozenset()
        loads: Dict[int, int] = {}
        comm_slots: Dict[int, int] = {}
        comm_slots_get = comm_slots.get
        max_load = 0
        total_comm = 0
        per_worker_comm_time: Dict[int, float] = {}

        for _ in range(self.num_tasks):
            eligible = [
                worker
                for worker in up_workers
                if allocation_get(worker, 0) < capacities[worker]
            ]
            if not eligible:
                return None  # defensive: cannot happen after the capacity sum check
            if stats is not None:
                stats["steps"] += 1
                stats["candidates"] += len(eligible)

            # --- frontier preparation (one batch, not one call per worker) --
            candidate_sets = {
                worker: (worker_set if worker in worker_set else worker_set | {worker})
                for worker in eligible
            }
            prefetch_groups(candidate_sets.values())

            # Top-two of the committed per-worker communication times: the
            # "slowest other transfer" for candidate w is the global max, or
            # the runner-up when w itself holds the max.
            slowest_worker = None
            slowest_time = second_time = -inf
            for other, other_time in per_worker_comm_time.items():
                if other_time > slowest_time:
                    slowest_worker, slowest_time, second_time = (
                        other,
                        other_time,
                        slowest_time,
                    )
                elif other_time > second_time:
                    second_time = other_time

            best_worker: Optional[int] = None
            best_value = -inf if higher_better else inf
            for worker in eligible:
                new_tasks = allocation_get(worker, 0) + 1
                # --- workload of the candidate configuration -------------
                new_load = new_tasks * speeds[worker]
                workload = new_load if new_load > max_load else max_load
                # --- communication estimate -------------------------------
                already = reusable_get(worker, 0)
                if already > new_tasks:
                    already = new_tasks
                new_comm_q = (0 if worker in program_set else tprog) + (
                    new_tasks - already
                ) * tdata
                candidate_total_comm = total_comm - comm_slots_get(worker, 0) + new_comm_q
                candidate_set = candidate_sets[worker]
                if new_comm_q <= 0:
                    comm_time = 0.0
                else:
                    comm_time = single_time_get((worker, new_comm_q))
                    if comm_time is None:
                        if stats is not None:
                            stats["single_time_misses"] += 1
                        comm_time = single_expected_time(worker, new_comm_q)
                others_max = second_time if worker == slowest_worker else slowest_time
                if others_max > comm_time:
                    comm_time = others_max
                if len(candidate_set) > ncom:
                    bandwidth_bound = candidate_total_comm / ncom
                    if bandwidth_bound > comm_time:
                        comm_time = bandwidth_bound
                if candidate_total_comm > 0:
                    duration = int(ceil(comm_time))
                    comm_probability = survival_get((candidate_set, duration))
                    if comm_probability is None:
                        if stats is not None:
                            stats["survival_misses"] += 1
                        comm_probability = comm_survival(candidate_set, duration)
                else:
                    comm_time = 0.0
                    comm_probability = 1.0
                # --- computation estimate ---------------------------------
                # ``workload >= speed >= 1`` and the set is non-empty, so the
                # uncached-trivial branch of ``computation`` never applies.
                comp = computation_get((candidate_set, workload))
                if comp is None:
                    if stats is not None:
                        stats["computation_misses"] += 1
                    comp = computation(candidate_set, workload)
                comp_probability, comp_time = comp
                # --- criterion value ---------------------------------------
                probability = comm_probability * comp_probability
                expected = comm_time + comp_time
                if criterion_name == "P":
                    value = probability
                elif criterion_name == "E":
                    value = expected
                elif criterion_name == "Y":
                    denominator = elapsed + expected
                    value = probability / denominator if denominator > 0 else inf
                else:  # "AY"
                    value = probability / expected if expected > 0 else inf

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

            # Commit the task to the winning worker and update the running state.
            new_tasks = allocation_get(best_worker, 0) + 1
            allocation[best_worker] = new_tasks
            worker_set = worker_set | {best_worker}
            loads[best_worker] = new_tasks * speeds[best_worker]
            if loads[best_worker] > max_load:
                max_load = loads[best_worker]
            already = reusable_get(best_worker, 0)
            if already > new_tasks:
                already = new_tasks
            new_comm_q = (0 if best_worker in program_set else tprog) + (
                new_tasks - already
            ) * tdata
            total_comm += new_comm_q - comm_slots_get(best_worker, 0)
            comm_slots[best_worker] = new_comm_q
            per_worker_comm_time[best_worker] = single_expected_time(
                best_worker, new_comm_q
            )

        return Configuration(allocation)
