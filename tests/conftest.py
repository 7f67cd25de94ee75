"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.application import Application
from repro.availability import MarkovAvailabilityModel
from repro.availability.generators import paper_transition_matrix
from repro.platform import Platform, PlatformSpec, Processor, paper_platform, uniform_platform

from tests.oracle import perslot_oracle  # noqa: F401  (shared fixture)


@pytest.fixture
def reliable_model() -> MarkovAvailabilityModel:
    """A processor that is always UP."""
    return MarkovAvailabilityModel.always_up()


@pytest.fixture
def paper_model() -> MarkovAvailabilityModel:
    """A fixed model following the paper's structure (stay probabilities 0.95/0.92/0.90)."""
    return MarkovAvailabilityModel(paper_transition_matrix([0.95, 0.92, 0.90]))


@pytest.fixture
def flaky_model() -> MarkovAvailabilityModel:
    """A clearly unreliable processor (frequent failures and reclamations)."""
    return MarkovAvailabilityModel(paper_transition_matrix([0.70, 0.60, 0.50]))


@pytest.fixture
def small_platform(paper_model, flaky_model) -> Platform:
    """Four heterogeneous processors with mixed reliability, ncom = 2."""
    processors = [
        Processor(speed=1, capacity=5, availability=paper_model),
        Processor(speed=2, capacity=5, availability=paper_model),
        Processor(speed=3, capacity=5, availability=flaky_model),
        Processor(speed=4, capacity=5, availability=flaky_model),
    ]
    return Platform(processors, ncom=2, tprog=2, tdata=1)


@pytest.fixture
def reliable_platform() -> Platform:
    """Five identical, perfectly reliable processors with no communication cost."""
    return uniform_platform(5, speed=2, capacity=3, tprog=0, tdata=0)


@pytest.fixture
def paper_style_platform() -> Platform:
    """A small random platform generated with the paper's methodology."""
    return paper_platform(
        PlatformSpec(num_processors=8, ncom=4, wmin=1), num_tasks=5, seed=1234
    )


@pytest.fixture
def application() -> Application:
    return Application(tasks_per_iteration=5, iterations=3)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)
