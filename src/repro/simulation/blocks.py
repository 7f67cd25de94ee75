"""Aligned availability windows: the engine's one availability input.

Every :class:`~repro.simulation.engine.SimulationEngine` reads worker states
from a :class:`SharedBlockSource`.  A solo engine builds a private one from
its ``trace``/``seed``/``block_size``/``max_slots``; the engines of a
:class:`~repro.simulation.multirun.MultiHeuristicDriver` pass all read one
source, so the heuristic-independent work (sampling or trace decoding, and
the per-column companions of :class:`~repro.simulation.kernels.BlockData`)
is done once per window for the whole pass.  Either way a seed names one
realisation, bit for bit.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple

import numpy as np

from repro.availability.generators import sample_initial_states, sample_state_block
from repro.availability.trace import AvailabilityTrace
from repro.exceptions import SimulationError
from repro.platform.platform import Platform
from repro.simulation.kernels import BlockData
from repro.utils.rng import SeedLike, derive_run_streams

__all__ = ["SharedBlockSource", "DEFAULT_BLOCK_SIZE", "DEFAULT_MAX_SLOTS"]

#: Default makespan cap, matching the paper's 1,000,000-slot limit.
DEFAULT_MAX_SLOTS = 1_000_000

#: Default number of slots prefetched per availability block.
DEFAULT_BLOCK_SIZE = 4096


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
        models with the per-worker streams of
        :func:`~repro.utils.rng.derive_run_streams`, and a platform-level
        hazard overlay is applied to each window.
    seed:
        Seed of the run's streams.  The availability streams are ignored
        when *trace* is given; every engine reading the source binds its
        scheduler to a copy of the scheduler stream
        (:meth:`scheduler_stream`).
    block_size, max_slots:
        Window length and the last slot served.  Must match the parameters
        of every engine reading the source: window boundaries — and
        therefore the models' ``sample_block`` call sequence — depend on
        both.

    Windows are generated sequentially and cached; each engine releases
    the windows behind the one it installs, so engines advanced in lockstep
    (every live engine on the same window index) keep one window alive.
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
        self._models = [processor.availability for processor in platform.processors]
        self._windows: Dict[int, BlockData] = {}
        self._next_index = 0
        self._last_column: Optional[np.ndarray] = None
        # Raw (pre-overlay) last column of the previous window: the base
        # chains continue from it, because a hazard overlay is an exogenous
        # forcing that leaves the workers' own processes alone.  That also
        # keeps the realisation independent of window boundaries, so the
        # experiment layer's trace bank (chunked differently) matches.
        self._base_last_column: Optional[np.ndarray] = None
        # Replay traces carry any hazard baked in.
        self._hazard = platform.hazard if trace is None else None
        # All of a run's streams are derived here, once: a Generator seed is
        # drawn from only one time.  The hazard stream is an extra
        # SeedSequence child, so requesting it leaves the others unchanged.
        self._rngs, self._scheduler_rng, self._hazard_rng = derive_run_streams(
            seed, platform.num_processors, hazard=True
        )

    # ------------------------------------------------------------------
    def scheduler_stream(self) -> np.random.Generator:
        """A fresh copy of the run's scheduler stream, in its initial state.

        Every engine reading the source gets an identical copy, so each
        scheduler draws what it would draw in a solo run with the same seed,
        whatever the kind of seed (a ``Generator`` seed is drawn from only
        once, when the source derives the run's streams).
        """
        return copy.deepcopy(self._scheduler_rng)

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
                "an engine asked for a window behind one already installed)"
            )
        start = index * self.block_size
        if slot - start >= data.length:
            # The window was clipped by the trace horizon.
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
            if start == 0:
                first = sample_initial_states(self._models, self._rngs)
                block = np.empty((len(first), length), dtype=np.int8)
                block[:, 0] = first
                if length > 1:
                    block[:, 1:] = sample_state_block(
                        self._models, 1, length - 1, self._rngs, first
                    )
            else:
                block = sample_state_block(
                    self._models, start, length, self._rngs, self._base_last_column
                )
            self._base_last_column = block[:, -1].copy()
            if self._hazard is not None:
                # Applied once per freshly sampled window, before BlockData
                # derives the companions, so schedulers, kernels and metrics
                # all see the overlaid states.
                if start == 0:
                    self._hazard.reset(self._hazard_rng)
                self._hazard.overlay(start, block)
        self._windows[self._next_index] = BlockData(block, self._last_column)
        self._last_column = block[:, -1]
        self._next_index += 1
