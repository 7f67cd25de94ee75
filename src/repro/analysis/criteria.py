"""The four scheduling criteria of Section VI.

Each criterion maps a :class:`~repro.analysis.evaluation.ConfigurationEstimate`
to a scalar figure of merit:

* **P** — probability of success of the iteration (higher is better);
* **E** — expected completion time of the iteration (lower is better);
* **Y** — expected yield ``P / (t + E)`` where ``t`` is the time already
  spent in the current iteration (higher is better);
* **AY** — apparent yield ``P / E``, i.e. the yield of the *remaining* work
  only (higher is better).

Criteria are used in two roles:

1. as the *selection* rule of the incremental passive heuristics (assign the
   next task to the worker that optimises the criterion), and
2. as the *switching* rule of the proactive heuristics (abandon the current
   configuration when a freshly computed one scores strictly better).

The paper only retains P, E and Y for the proactive role because AY does not
satisfy the anti-divergence constraint (a configuration that has been running
longer must never score worse than the same configuration started later).
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Dict, Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.evaluation import ConfigurationEstimate

__all__ = [
    "Criterion",
    "ProbabilityCriterion",
    "ExpectedTimeCriterion",
    "YieldCriterion",
    "ApparentYieldCriterion",
    "get_criterion",
    "PROACTIVE_CRITERIA",
]


class Criterion(abc.ABC):
    """A scalar figure of merit over configuration estimates."""

    #: Short name used in heuristic identifiers ("P", "E", "Y", "AY").
    name: str = "?"
    #: Whether larger values are preferable.
    higher_is_better: bool = True
    #: Whether the criterion satisfies the proactive anti-divergence
    #: constraint of Section VI-B (a configuration's score must not degrade
    #: as it accumulates progress).
    proactive_safe: bool = True
    #: Whether the value depends on the time already spent in the iteration
    #: (``elapsed``).  A greedy allocation under a criterion that does not is
    #: a function of the worker states alone, so it can be memoised.
    reads_elapsed: bool = False

    @abc.abstractmethod
    def value(self, estimate: "ConfigurationEstimate") -> float:
        """The criterion value of *estimate*."""

    # ------------------------------------------------------------------
    def better(self, candidate: float, incumbent: float) -> bool:
        """Whether the scalar *candidate* is strictly better than *incumbent*."""
        if math.isnan(candidate):
            return False
        if math.isnan(incumbent):
            return True
        if self.higher_is_better:
            return candidate > incumbent
        return candidate < incumbent

    def better_estimate(
        self, candidate: "ConfigurationEstimate", incumbent: "ConfigurationEstimate"
    ) -> bool:
        """Whether *candidate* is strictly better than *incumbent* under this criterion."""
        return self.better(self.value(candidate), self.value(incumbent))

    def worst(self) -> float:
        """A value strictly worse than any achievable criterion value."""
        return -math.inf if self.higher_is_better else math.inf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Criterion {self.name}>"


class ProbabilityCriterion(Criterion):
    """P — probability of successfully completing the iteration."""

    name = "P"
    higher_is_better = True
    proactive_safe = True

    def value(self, estimate: "ConfigurationEstimate") -> float:
        return estimate.success_probability


class ExpectedTimeCriterion(Criterion):
    """E — expected (remaining) completion time of the iteration."""

    name = "E"
    higher_is_better = False
    proactive_safe = True

    def value(self, estimate: "ConfigurationEstimate") -> float:
        return estimate.expected_time


class YieldCriterion(Criterion):
    """Y — expected yield ``P / (t + E)`` with ``t`` the elapsed iteration time."""

    name = "Y"
    higher_is_better = True
    proactive_safe = True
    reads_elapsed = True

    def value(self, estimate: "ConfigurationEstimate") -> float:
        return estimate.yield_value


class ApparentYieldCriterion(Criterion):
    """AY — apparent yield ``P / E`` (remaining work only).

    Not proactive-safe: as a configuration nears completion its apparent
    yield can oscillate in a way that lets a lower-ranked configuration
    displace it repeatedly, so the paper excludes it from the proactive
    criteria.
    """

    name = "AY"
    higher_is_better = True
    proactive_safe = False

    def value(self, estimate: "ConfigurationEstimate") -> float:
        return estimate.apparent_yield


_CRITERIA: Dict[str, Type[Criterion]] = {
    "P": ProbabilityCriterion,
    "E": ExpectedTimeCriterion,
    "Y": YieldCriterion,
    "AY": ApparentYieldCriterion,
}

#: The criteria the paper allows as proactive switching rules.
PROACTIVE_CRITERIA = ("P", "E", "Y")


def get_criterion(name: str) -> Criterion:
    """Instantiate a criterion by its short name (case-insensitive)."""
    key = str(name).strip().upper()
    try:
        return _CRITERIA[key]()
    except KeyError:
        raise ValueError(
            f"unknown criterion {name!r}; expected one of {sorted(_CRITERIA)}"
        ) from None
