"""Per-layer timing of ``src/repro`` measured from outside the program.

:func:`install` replaces public functions and methods of each layer with
timing wrappers, patched at the name the caller looks up (``engine`` and
``runner`` import ``comm_phase_span`` / ``sample_state_block`` by name, so
those are patched in the importing module, not where they are defined).
Every wrapper pushes a frame on one shared stack; a layer's *self* time is
its call's duration minus the time of the wrapped calls nested inside it,
so the self times of all layers plus the unattributed remainder add up to
the wall time of the traced region.  Spans are aggregated in memory only.

Nothing here changes results: wrappers call the original with the same
arguments and return its value unchanged.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (layer name, module, attribute path, work counter or None).  The counter
#: receives the call's positional and keyword arguments and returns the
#: amount added to ``<layer>.<counter name>``.
Target = Tuple[str, str, str, Optional[Tuple[str, Callable]]]


def _horizon(args, kwargs) -> int:
    # sample_state_block(models, start_slot, horizon, rngs, current)
    return int(kwargs["horizon"] if "horizon" in kwargs else args[2])


TARGETS: List[Target] = [
    ("experiments.campaign", "repro.api", "run_campaign_spec", None),
    ("experiments.campaign", "repro.experiments.runner", "run_campaign_spec", None),
    ("experiments.store_append", "repro.experiments.store", "ResultStore.append", None),
    ("experiments.tracebank", "repro.experiments.runner", "_BankTrace.block", None),
    ("platform.build", "repro.experiments.scenarios", "ExperimentScenario.build_platform", None),
    ("analysis.context_build", "repro.analysis.cache", "AnalysisContext.__init__", None),
    ("analysis.evaluate_batch", "repro.analysis.cache", "AnalysisContext.evaluate_batch", None),
    ("availability.sample_block", "repro.experiments.runner", "sample_state_block",
     ("slots_sampled", _horizon)),
    ("availability.initial_states", "repro.experiments.runner", "sample_initial_states", None),
    ("simulation.engine_run", "repro.simulation.engine", "SimulationEngine.run", None),
    ("simulation.driver_run", "repro.simulation.multirun", "MultiHeuristicDriver.run", None),
    ("simulation.shared_window", "repro.simulation.multirun", "SharedBlockSource.window", None),
    ("simulation.comm_phase_span", "repro.simulation.engine", "comm_phase_span", None),
    ("simulation.fast_forward", "repro.simulation.engine", "frozen_span", None),
    ("simulation.fast_forward", "repro.simulation.engine", "compute_span", None),
    ("simulation.comm_manager", "repro.simulation.comm", "CommunicationManager.allocate", None),
    ("simulation.comm_manager", "repro.simulation.comm", "CommunicationManager.serve", None),
    ("simulation.comm_manager", "repro.simulation.comm", "CommunicationManager.drain", None),
    ("scheduling.select.proactive", "repro.scheduling.proactive", "ProactiveHeuristic.select", None),
    ("scheduling.select.passive", "repro.scheduling.passive", "PassiveHeuristic.select", None),
    ("scheduling.select.random", "repro.scheduling.random_heuristic", "RandomScheduler.select", None),
    ("scheduling.allocate", "repro.scheduling.allocation", "IncrementalAllocator.allocate", None),
]


class Recorder:
    """Aggregated self time, call counts and work counters per layer."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        #: Every AnalysisContext built while installed (for cache sizes).
        self.contexts: list = []
        self._stack: List[List[int]] = []

    def wrap(self, name: str, func: Callable, counter=None) -> Callable:
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                if counter is not None:
                    counters[f"{name}.{counter[0]}"] += counter[1](args, kwargs)

        return wrapper

    def cache_keys(self) -> int:
        """Σ of ``cache_stats()`` over every analysis context seen."""
        return sum(sum(context.cache_stats().values()) for context in self.contexts)


def install(recorder: Recorder) -> Callable[[], None]:
    """Patch every target with a wrapper; returns a function undoing it."""
    undo = []
    for name, module_name, path, counter in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = getattr(owner, attribute)
        wrapped = recorder.wrap(name, original, counter)
        if name == "analysis.context_build":
            wrapped = _remember_context(recorder, wrapped)
        setattr(owner, attribute, wrapped)
        undo.append((owner, attribute, original))

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall


def _remember_context(recorder: Recorder, init: Callable) -> Callable:
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        recorder.contexts.append(self)

    return wrapper


def layer_table(recorder: Recorder, wall_s: float) -> Dict[str, float]:
    """Self seconds per layer plus ``unattributed``, adding up to *wall_s*."""
    table = {name: ns / 1e9 for name, ns in sorted(recorder.self_ns.items())}
    table["unattributed"] = wall_s - sum(table.values())
    return table
