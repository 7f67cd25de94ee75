"""Differential tests: the production allocator vs the test-only reference.

Every heuristic allocates through one :class:`IncrementalAllocator`, which
evaluates each greedy step's whole candidate frontier at once.  The plain
one-candidate-at-a-time loop it was derived from lives in
``tests/oracle.py`` as :class:`ReferenceAllocator`, and
:func:`reference_allocation` makes the heuristics build theirs as one.
Fixed seed ⇒ the two must select *identical* configurations and produce
*identical* simulation results — not approximately equal ones.  These tests
pin that guarantee at three levels: single allocations, per-slot proactive
decisions, and whole simulated runs.  The batched evaluation layer the
proactive heuristics score with (``AnalysisContext.evaluate_batch``) is
checked against the scalar ``evaluate`` as well.
"""

import numpy as np
import pytest

from repro.analysis.cache import AnalysisContext, EvaluationRequest
from repro.analysis.criteria import PROACTIVE_CRITERIA, get_criterion
from repro.application import Application, Configuration
from repro.availability import MarkovAvailabilityModel
from repro.availability.generators import paper_transition_matrix
from repro.platform import PlatformSpec, paper_platform, uniform_platform
from repro.scheduling import create_scheduler
from repro.scheduling.allocation import IncrementalAllocator
from repro.scheduling.passive import PASSIVE_CRITERION_BY_NAME, make_passive_heuristic
from repro.scheduling.proactive import ProactiveHeuristic
from repro.simulation import SimulationEngine
from tests.oracle import ReferenceAllocator, reference_allocation


def make_platform(num_processors=12, ncom=4, wmin=2, seed=29, num_tasks=6):
    return paper_platform(
        PlatformSpec(num_processors=num_processors, ncom=ncom, wmin=wmin),
        num_tasks=num_tasks,
        seed=seed,
    )


def identical_workers_platform():
    """Six interchangeable workers: every greedy step is a tie."""
    return uniform_platform(
        6,
        capacity=2,
        ncom=3,
        tprog=2,
        tdata=1,
        availability=MarkovAvailabilityModel(paper_transition_matrix([0.95, 0.92, 0.9])),
    )


class TestAllocatorEquivalence:
    @pytest.mark.parametrize("criterion_name", ["P", "E", "Y", "AY"])
    @pytest.mark.parametrize("ncom", [1, 4])
    def test_identical_allocations_under_random_observations(self, criterion_name, ncom):
        platform = make_platform(ncom=ncom)
        criterion = get_criterion(criterion_name)
        reference = ReferenceAllocator(
            criterion, AnalysisContext(platform), platform, num_tasks=6
        )
        production = IncrementalAllocator(
            criterion, AnalysisContext(platform), platform, num_tasks=6
        )
        rng = np.random.default_rng(123)
        for trial in range(40):
            up = sorted(
                int(w)
                for w in rng.choice(12, size=int(rng.integers(3, 13)), replace=False)
            )
            program = [int(w) for w in up if rng.random() < 0.4]
            if rng.random() < 0.5:
                received = {
                    int(w): int(rng.integers(1, 3)) for w in up if rng.random() < 0.3
                }
            else:
                received = None
            elapsed = int(rng.integers(0, 50))
            expected = reference.allocate(
                up, has_program=program, received_data=received, elapsed=elapsed
            )
            got = production.allocate(
                up, has_program=program, received_data=received, elapsed=elapsed
            )
            assert expected == got, (
                f"trial {trial}: reference {expected} != production {got} "
                f"(criterion {criterion_name}, up={up})"
            )

    @pytest.mark.parametrize("criterion_name", ["P", "E", "Y", "AY"])
    def test_ties_break_alike(self, criterion_name):
        platform = identical_workers_platform()
        criterion = get_criterion(criterion_name)
        allocators = [
            allocator_class(criterion, AnalysisContext(platform), platform, num_tasks=5)
            for allocator_class in (ReferenceAllocator, IncrementalAllocator)
        ]
        for up in ([0, 1, 2, 3, 4, 5], [1, 2, 4, 5], [0, 3, 5]):
            expected, got = (
                allocator.allocate(up, has_program=[up[-1]], elapsed=3)
                for allocator in allocators
            )
            assert expected == got, (up, expected, got)

    def test_infeasible_allocations_agree(self):
        platform = make_platform()
        context = AnalysisContext(platform)
        reference = ReferenceAllocator(get_criterion("E"), context, platform, num_tasks=6)
        production = IncrementalAllocator(get_criterion("E"), context, platform, num_tasks=6)
        assert reference.allocate([]) is None is production.allocate([])
        # One worker cannot hold six tasks on a capacity-1 platform cell.
        capacities = sum(platform.processor(q).capacity for q in range(1))
        if capacities < 6:
            assert reference.allocate([0]) is None is production.allocate([0])


class TestEvaluateBatchEquivalence:
    def test_matches_scalar_evaluate(self):
        platform = make_platform()
        scalar_context = AnalysisContext(platform)
        batched_context = AnalysisContext(platform)
        configurations = [
            Configuration({0: 2, 3: 1, 5: 3}),
            Configuration({1: 1}),
            Configuration.empty(),
        ]
        requests = [
            EvaluationRequest(
                configurations[0], has_program=[0, 5], elapsed=4
            ),
            EvaluationRequest(
                configurations[1],
                comm_slots={1: 7},
                completed_work=1,
                elapsed=9,
            ),
            EvaluationRequest(configurations[2]),
        ]
        batch = batched_context.evaluate_batch(requests)
        singles = [
            scalar_context.evaluate(
                configurations[0], has_program=[0, 5], elapsed=4
            ),
            scalar_context.evaluate(
                configurations[1], comm_slots={1: 7}, completed_work=1, elapsed=9
            ),
            scalar_context.evaluate(configurations[2]),
        ]
        for one, many in zip(singles, batch):
            assert one.success_probability == many.success_probability
            assert one.expected_time == many.expected_time
            assert one.yield_value == many.yield_value
            assert one.workload == many.workload
            assert one.elapsed == many.elapsed

    def test_memoisation_keyed_on_set_and_workload(self):
        platform = make_platform()
        context = AnalysisContext(platform)
        configuration = Configuration({0: 2, 3: 1})
        context.evaluate_batch([EvaluationRequest(configuration)])
        stats = context.cache_stats()
        assert stats["computation_keys"] == 1
        # Same set, same workload: no new key.  Different remaining workload
        # (progress made): one new key.
        context.evaluate_batch(
            [EvaluationRequest(configuration, completed_work=1)]
        )
        assert context.cache_stats()["computation_keys"] == 2


def simulation_setup():
    platform = make_platform(num_processors=10, ncom=3, wmin=1, seed=31, num_tasks=4)
    return platform, Application(tasks_per_iteration=4, iterations=12)


def identical_workers_setup():
    return identical_workers_platform(), Application(tasks_per_iteration=5, iterations=6)


def make_engine(scheduler, *, seed, setup=simulation_setup, max_slots=4000):
    platform, application = setup()
    return SimulationEngine(
        platform,
        application,
        scheduler,
        seed=seed,
        max_slots=max_slots,
        analysis=AnalysisContext(platform),
    )


def make_proactive(criterion_name, passive_name):
    return ProactiveHeuristic(
        get_criterion(criterion_name), make_passive_heuristic(passive_name)
    )


def allocator_of(scheduler):
    """The allocator a bound passive or proactive heuristic builds with."""
    return getattr(scheduler, "passive", scheduler)._allocator


def run_both(make_scheduler, *, seed, setup=simulation_setup):
    """``(reference, production)`` results of one set-up."""
    with reference_allocation():
        engine = make_engine(make_scheduler(), seed=seed, setup=setup)
        reference = engine.run()
    assert isinstance(allocator_of(engine.scheduler), ReferenceAllocator)
    production_engine = make_engine(make_scheduler(), seed=seed, setup=setup)
    production = production_engine.run()
    assert type(allocator_of(production_engine.scheduler)) is IncrementalAllocator
    return reference, production


class TestProactiveDecisionEquivalence:
    @pytest.mark.parametrize("criterion_name", PROACTIVE_CRITERIA)
    @pytest.mark.parametrize("passive_name", ["IE", "IY", "IAY"])
    def test_identical_decisions_slot_by_slot(self, criterion_name, passive_name):
        """A reference-built shadow takes the production decision at every slot."""
        engine = make_engine(make_proactive(criterion_name, passive_name), seed=5)
        shadow = make_proactive(criterion_name, passive_name)
        with reference_allocation():
            shadow.bind(
                engine.platform,
                engine.application,
                AnalysisContext(engine.platform),
                np.random.default_rng(0),
            )
        assert isinstance(allocator_of(shadow), ReferenceAllocator)
        stepper = engine.steps()
        select = engine.scheduler.select
        decisions = switches = 0
        try:
            observation = next(stepper)
            while True:
                decision = select(observation)
                assert shadow.select(observation) == decision, observation.slot
                decisions += 1
                if (
                    not observation.needs_new_configuration()
                    and decision != observation.current_configuration
                ):
                    switches += 1
                observation = stepper.send(decision)
        except StopIteration:
            pass
        assert decisions > 100
        assert switches > 0


class TestSimulationEquivalence:
    @pytest.mark.parametrize("name", ["IE", "IAY", "Y-IE", "P-IY"])
    def test_runs_identical_on_identical_workers(self, name):
        """Every allocation is a chain of ties, broken alike run-long."""
        reference, production = run_both(
            lambda: create_scheduler(name), seed=3, setup=identical_workers_setup
        )
        assert reference == production

    @pytest.mark.parametrize("name", sorted(PASSIVE_CRITERION_BY_NAME))
    def test_passive_runs_identical(self, name):
        for seed in (1, 7):
            reference, production = run_both(lambda: make_passive_heuristic(name), seed=seed)
            assert reference == production

    @pytest.mark.parametrize("criterion_name", PROACTIVE_CRITERIA)
    def test_proactive_runs_identical(self, criterion_name):
        for passive_name in ("IE", "IY"):
            reference, production = run_both(
                lambda: make_proactive(criterion_name, passive_name), seed=5
            )
            assert reference == production
