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
"""

from contextlib import contextmanager

import pytest

from repro.availability.model import AvailabilityModel
from repro.metrics import MetricsCollector

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
