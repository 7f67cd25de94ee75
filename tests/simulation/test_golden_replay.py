"""Golden-seed regression tests for the chunked simulation core.

``golden_engine_results.json`` was generated with the pre-refactor engine
(slot-by-slot ``next_state`` sampling, no fast-forwarding).  The engine must
reproduce every one of those runs bit for bit — with its vectorised model
samplers, under the per-slot availability oracle, at any block size and with
fast-forward turned off — because the block samplers are stream-equivalent
and the span jumps are exact.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.analysis.cache import AnalysisContext
from repro.application import Application
from repro.availability.diurnal import DiurnalAvailabilityModel
from repro.availability.semi_markov import SemiMarkovAvailabilityModel
from repro.platform import Platform, PlatformSpec, Processor, paper_platform
from repro.scheduling import create_scheduler
from repro.simulation import SimulationEngine

from tests.oracle import RESULT_FIELDS, assert_fast_forward_exact

GOLDEN_PATH = Path(__file__).parent / "golden_engine_results.json"
GOLDEN_CASES = json.loads(GOLDEN_PATH.read_text())


def build_setup(case):
    if case["kind"] == "markov":
        platform = paper_platform(
            PlatformSpec(num_processors=20, ncom=10, wmin=2), num_tasks=5, seed=123
        )
        application = Application(tasks_per_iteration=5, iterations=10)
    elif case["kind"] == "semimarkov":
        processors = [
            Processor(
                speed=1 + (q % 4),
                capacity=5,
                availability=SemiMarkovAvailabilityModel.desktop_grid(mean_up=30.0 + q),
            )
            for q in range(8)
        ]
        platform = Platform(processors, ncom=4, tprog=2, tdata=1)
        application = Application(tasks_per_iteration=4, iterations=5)
    else:
        processors = [
            Processor(
                speed=2,
                capacity=5,
                availability=DiurnalAvailabilityModel.office_hours(phase_offset=7 * q),
            )
            for q in range(6)
        ]
        platform = Platform(processors, ncom=3, tprog=2, tdata=1)
        application = Application(tasks_per_iteration=3, iterations=5)
    return platform, application


def make_engine(case, *, block_size=4096, metrics=None, record_events=False):
    platform, application = build_setup(case)
    return SimulationEngine(
        platform,
        application,
        create_scheduler(case["heuristic"]),
        seed=case["seed"],
        max_slots=50_000,
        analysis=AnalysisContext(platform),
        block_size=block_size,
        metrics=metrics,
        record_events=record_events,
    )


def run_case(case, *, block_size=4096, metrics=None):
    return make_engine(case, block_size=block_size, metrics=metrics).run()


def case_id(case):
    return f"{case['kind']}-{case['heuristic']}-s{case['seed']}"


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=case_id)
def test_engine_reproduces_golden_run(case):
    result = run_case(case)
    for field in RESULT_FIELDS:
        assert getattr(result, field) == case[field], field


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=case_id)
def test_perslot_oracle_reproduces_golden_run(case, perslot_oracle):
    platform, _ = build_setup(case)
    with perslot_oracle(platform):
        result = run_case(case)
    for field in RESULT_FIELDS:
        assert getattr(result, field) == case[field], field


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=case_id)
def test_fast_forward_matches_slot_by_slot_run(case):
    """The span jumps change no result and no exact collector series."""
    assert_fast_forward_exact(functools.partial(make_engine, case))


@pytest.mark.parametrize("block_size", [1, 17, 512])
def test_block_size_does_not_change_results(block_size):
    """The chunk decomposition is an implementation detail, not a parameter."""
    for case in GOLDEN_CASES[:6]:
        result = run_case(case, block_size=block_size)
        for field in RESULT_FIELDS:
            assert getattr(result, field) == case[field], (case_id(case), field)


@pytest.mark.parametrize("heuristic", ["RANDOM", "IE", "Y-IE", "E-IAY", "THRESHOLD-IE"])
def test_engine_matches_perslot_oracle(heuristic, perslot_oracle):
    """Differential check on a fresh platform, including proactive heuristics."""
    case = {"kind": "markov", "heuristic": heuristic, "seed": 1234}
    production = run_case(case)
    platform, _ = build_setup(case)
    with perslot_oracle(platform):
        reference = run_case(case)
    for field in RESULT_FIELDS:
        assert getattr(production, field) == getattr(reference, field), field
