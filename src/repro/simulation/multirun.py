"""One-pass multi-heuristic simulation over a shared availability realisation.

The Section VII campaign evaluates many heuristics on the *same*
(scenario, trial) availability realisation.  Running them through separate
:class:`~repro.simulation.engine.SimulationEngine` instances repeats the
expensive, heuristic-independent work once per heuristic: sampling (or trace
decoding) the worker-state blocks and deriving their per-column companions
(DOWN mask, column-change mask, next-change table).

This module removes that duplication without changing a single result:

* :class:`SharedBlockSource` materialises availability in aligned windows —
  ``[k·B, (k+1)·B)`` for block size ``B`` — each wrapped in one
  :class:`~repro.simulation.kernels.BlockData` that every engine of the pass
  shares (masks and tables are computed once per window, not once per
  engine).  Windows come from a replay trace or are sampled from the
  platform's models with the engine's own RNG recipe, so the realisation is
  bit-identical to what a solo engine with the same seed would see.
* :class:`MultiHeuristicDriver` builds one engine per scheduler, all backed
  by the same source, and advances them in lockstep through the cooperative
  step iterator (:data:`~repro.simulation.engine.BLOCK_BOUNDARY`): each
  engine runs up to its next window boundary before the next engine is
  resumed, so the window working set stays small and already-consumed
  windows can be released.

Each engine still takes its own decisions (rebuilds, communication,
fast-forward spans diverge per heuristic), so the returned
:class:`~repro.simulation.results.SimulationResult` of every scheduler is
bit-identical to a sequential ``SimulationEngine.run()`` with the same seed
— pinned by ``tests/simulation/test_multirun.py``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.cache import AnalysisContext
from repro.application.application import Application
from repro.availability.trace import AvailabilityTrace
from repro.exceptions import SimulationError
from repro.platform.platform import Platform
from repro.scheduling.base import Scheduler
from repro.simulation.engine import (
    BLOCK_BOUNDARY,
    DEFAULT_BLOCK_SIZE,
    DEFAULT_MAX_SLOTS,
    SimulationEngine,
)
from repro.simulation.kernels import BlockData
from repro.simulation.results import SimulationResult
from repro.types import ProcessorState
from repro.utils.rng import SeedLike, derive_run_streams

__all__ = ["SharedBlockSource", "MultiHeuristicDriver"]


class SharedBlockSource:
    """Aligned availability windows, materialised once and shared by engines.

    Parameters
    ----------
    platform:
        The platform whose workers' states are served.
    trace:
        Optional replay trace (an :class:`AvailabilityTrace` or any object
        with ``num_processors``, ``horizon`` and ``block(start, stop)``).
        When absent, windows are sampled from the platform's availability
        models using the engine's per-worker stream recipe
        (:func:`~repro.utils.rng.derive_run_streams`), which makes the
        realisation bit-identical to a solo engine run with the same
        *seed* — the engine consumes availability in exactly these aligned
        windows.
    seed:
        Seed of the sampled realisation (ignored when *trace* is given).
    block_size, max_slots:
        Must match the engines' parameters: window boundaries — and
        therefore the models' ``sample_block`` call sequence — depend on
        both.
    """

    def __init__(
        self,
        platform: Platform,
        *,
        trace: Optional[AvailabilityTrace] = None,
        seed: SeedLike = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_slots: int = DEFAULT_MAX_SLOTS,
    ) -> None:
        if block_size < 1:
            raise SimulationError(f"block_size must be >= 1, got {block_size}")
        if max_slots < 1:
            raise SimulationError(f"max_slots must be >= 1, got {max_slots}")
        if trace is not None and trace.num_processors != platform.num_processors:
            raise SimulationError(
                f"trace has {trace.num_processors} processors but the platform "
                f"has {platform.num_processors}"
            )
        self.platform = platform
        self.trace = trace
        self.block_size = int(block_size)
        self.max_slots = int(max_slots)
        self._windows: Dict[int, BlockData] = {}
        self._next_index = 0
        self._last_column: Optional[np.ndarray] = None
        self._base_last_column: Optional[np.ndarray] = None
        # Platform-level hazard overlay: materialised once per window and
        # shared by every engine of the pass (replay traces carry it baked
        # in).  Deriving the extra hazard stream leaves the worker streams
        # bit-identical, so hazard-free sources are unchanged.
        self._hazard = platform.hazard if trace is None else None
        if trace is None:
            if self._hazard is not None:
                self._rngs, _, self._hazard_rng = derive_run_streams(
                    seed, platform.num_processors, hazard=True
                )
            else:
                self._rngs, _ = derive_run_streams(seed, platform.num_processors)
                self._hazard_rng = None
        else:
            self._rngs = None
            self._hazard_rng = None

    # ------------------------------------------------------------------
    def window(self, slot: int) -> Tuple[int, BlockData]:
        """The aligned window containing *slot*: ``(window start, data)``.

        Windows are generated sequentially and cached, so any engine may ask
        for any already-reachable slot; engines that run ahead trigger
        generation, the rest hit the cache.
        """
        if slot < 0 or slot >= self.max_slots:
            raise SimulationError(
                f"slot {slot} outside the source's range [0, {self.max_slots})"
            )
        index = slot // self.block_size
        while self._next_index <= index:
            self._generate_next()
        data = self._windows.get(index)
        if data is None:
            raise SimulationError(
                f"window {index} was already released (lockstep violation: "
                "an engine asked for a window below the release watermark)"
            )
        start = index * self.block_size
        if slot - start >= data.length:
            # The window was clipped by the trace horizon; a solo engine
            # would have asked for this slot directly and hit the same wall.
            raise SimulationError(
                f"availability trace ends at slot {start + data.length} but "
                f"the run reached slot {slot}; provide a longer trace or "
                "lower max_slots"
            )
        return start, data

    def release_below(self, slot: int) -> None:
        """Drop cached windows that end at or before *slot* (memory hygiene)."""
        block_size = self.block_size
        for index in [k for k in self._windows if (k + 1) * block_size <= slot]:
            del self._windows[index]

    # ------------------------------------------------------------------
    def _generate_next(self) -> None:
        start = self._next_index * self.block_size
        if self.trace is not None:
            horizon = self.trace.horizon
            if horizon < 1:
                raise SimulationError("availability trace is empty")
            if start >= horizon:
                raise SimulationError(
                    f"availability trace ends at slot {horizon} but the run "
                    f"reached slot {start}; provide a longer trace or lower "
                    "max_slots"
                )
            length = min(self.block_size, horizon - start, self.max_slots - start)
            block = np.asarray(self.trace.block(start, start + length), dtype=np.int8)
            if block.shape != (self.platform.num_processors, length):
                raise SimulationError(
                    f"availability source returned a block of shape "
                    f"{block.shape}, expected "
                    f"{(self.platform.num_processors, length)}"
                )
        else:
            length = min(self.block_size, self.max_slots - start)
            block = np.empty((self.platform.num_processors, length), dtype=np.int8)
            if start == 0:
                for worker_id, processor in enumerate(self.platform.processors):
                    model = processor.availability
                    model.reset()
                    rng = self._rngs[worker_id]
                    state = model.initial_state(rng)
                    block[worker_id, 0] = int(state)
                    if length > 1:
                        block[worker_id, 1:] = model.sample_block(
                            1, length - 1, rng, current=state
                        )
            else:
                # With a hazard, the base chains continue from the raw
                # pre-overlay states — same discipline as the solo engine,
                # which keeps the realisation window-boundary independent.
                previous = (
                    self._base_last_column
                    if self._hazard is not None
                    else self._last_column
                )
                for worker_id, processor in enumerate(self.platform.processors):
                    block[worker_id] = processor.availability.sample_block(
                        start,
                        length,
                        self._rngs[worker_id],
                        current=ProcessorState(int(previous[worker_id])),
                    )
            if self._hazard is not None:
                if start == 0:
                    self._hazard.reset(self._hazard_rng)
                self._base_last_column = block[:, -1].copy()
                self._hazard.overlay(start, block)
        self._windows[self._next_index] = BlockData(block, self._last_column)
        self._last_column = block[:, -1]
        self._next_index += 1


class MultiHeuristicDriver:
    """Advance several schedulers over one availability realisation, one pass.

    Parameters
    ----------
    platform, application:
        Shared models; every scheduler simulates the same instance.
    schedulers:
        The scheduler instances to co-simulate (one engine each; an instance
        must not be shared between drivers or engines).  Any scheduler type
        works — the engines only share availability, never decisions — but
        the intended use (and what the experiment layer routes here) is a
        cell's worth of passive-contract heuristics.
    seed:
        Per-engine run seed.  All engines get the same seed, so each result
        is bit-identical to ``SimulationEngine(..., seed=seed).run()``.
    trace:
        Optional replay trace handed to the :class:`SharedBlockSource`.
    analysis:
        Optional shared :class:`AnalysisContext` (built once otherwise).
    metrics:
        Optional sequence of per-scheduler
        :class:`~repro.metrics.collector.MetricsCollector` instances (or
        ``None`` entries), one per scheduler, attached to the matching
        engine.  Collectors are read-only observers, so attaching them
        keeps every result bit-identical.
    tracer:
        Optional shared :class:`~repro.telemetry.tracer.Tracer` attached
        to every engine (engine spans carry the heuristic name, so one
        trace file disentangles the interleaved runs).  Read-only like the
        collectors; ``None`` is the exact untraced path.

    After :meth:`run`, :attr:`wall_seconds` holds the per-scheduler driving
    time (the shared window generation is attributed to the engine that
    first reached the window).
    """

    def __init__(
        self,
        platform: Platform,
        application: Application,
        schedulers: Sequence[Scheduler],
        *,
        seed: SeedLike = None,
        max_slots: int = DEFAULT_MAX_SLOTS,
        trace: Optional[AvailabilityTrace] = None,
        analysis: Optional[AnalysisContext] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        metrics: Optional[Sequence] = None,
        tracer=None,
    ) -> None:
        if not schedulers:
            raise SimulationError("MultiHeuristicDriver needs at least one scheduler")
        if metrics is not None and len(metrics) != len(schedulers):
            raise SimulationError(
                f"metrics must provide one collector per scheduler "
                f"({len(metrics)} given for {len(schedulers)} schedulers)"
            )
        self.source = SharedBlockSource(
            platform,
            trace=trace,
            seed=seed,
            block_size=block_size,
            max_slots=max_slots,
        )
        self.analysis = analysis if analysis is not None else AnalysisContext(platform)
        self.engines: List[SimulationEngine] = [
            SimulationEngine(
                platform,
                application,
                scheduler,
                seed=seed,
                max_slots=max_slots,
                analysis=self.analysis,
                block_size=block_size,
                shared_blocks=self.source,
                metrics=metrics[index] if metrics is not None else None,
                tracer=tracer,
            )
            for index, scheduler in enumerate(schedulers)
        ]
        #: Per-scheduler driving wall time of the last :meth:`run`.
        self.wall_seconds: List[float] = []

    # ------------------------------------------------------------------
    def run(self) -> List[SimulationResult]:
        """Run every engine to completion; results in scheduler order."""
        perf_counter = time.perf_counter
        results: List[Optional[SimulationResult]] = [None] * len(self.engines)
        walls = [0.0] * len(self.engines)
        # (engine index, cooperative stepper, scheduler.select) per live run.
        live: List[Tuple[int, object, object]] = [
            (index, engine._drive(cooperative=True), engine.scheduler.select)
            for index, engine in enumerate(self.engines)
        ]
        while live:
            next_round: List[Tuple[int, object, object]] = []
            for index, stepper, select in live:
                # Advance this engine up to its next window boundary: the
                # stepper yields observations (answered by its scheduler)
                # until it emits BLOCK_BOUNDARY or finishes.
                started = perf_counter()
                answer = None
                try:
                    while True:
                        emitted = stepper.send(answer)
                        if emitted is BLOCK_BOUNDARY:
                            next_round.append((index, stepper, select))
                            break
                        answer = select(emitted)
                except StopIteration as stop:
                    results[index] = stop.value
                walls[index] += perf_counter() - started
            live = next_round
            if live:
                # Everyone still running has fetched past the watermark.
                watermark = min(self.engines[index]._block_start for index, _, _ in live)
                self.source.release_below(watermark)
        self.wall_seconds = walls
        return results  # type: ignore[return-value]
