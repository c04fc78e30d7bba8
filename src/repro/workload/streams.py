"""Churn streams: the equilibrium regime of Section 6.2.2.

The paper's adaptability experiments run the system at *equilibrium*: the
matcher holds a fixed population (3 M subscriptions, each living ~16 h at
50 insertions/s); every second the 50 oldest subscriptions are deleted
and 50 new ones — drawn from the *current* workload — are inserted, and
the remaining time is spent matching events.

:class:`SubscriptionChurn` implements the FIFO population; a
:class:`TransitionSchedule` lists the phases (stable → drift → stable)
as virtual-time segments.  Timing/throughput measurement lives in
:mod:`repro.bench`; this module only moves subscriptions.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.core.matcher import Matcher
from repro.core.types import Subscription
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import WorkloadSpec


class SubscriptionChurn:
    """FIFO subscription population over any matcher."""

    def __init__(self, matcher: Matcher, churn_rate: int = 50) -> None:
        if churn_rate < 0:
            raise ValueError("churn_rate must be >= 0")
        self.matcher = matcher
        self.churn_rate = churn_rate
        self._fifo: Deque[Any] = deque()

    @property
    def live_count(self) -> int:
        """Current population size."""
        return len(self._fifo)

    def populate(self, generator: WorkloadGenerator, n: Optional[int] = None) -> int:
        """Fill the matcher from *generator* (default: its spec's ``n_S``)
        as one batch."""
        subs = list(generator.subscriptions(n))
        self.matcher.add_batch(subs)
        self._fifo.extend(sub.id for sub in subs)
        return len(subs)

    def step(self, generator: WorkloadGenerator) -> Tuple[List[Any], List[Subscription]]:
        """One virtual second: delete the oldest ``churn_rate``, insert as
        many, each as one batch.

        New subscriptions come from *generator* — switch generators to
        drift the population (old entries age out over ~lifetime/rate
        steps, exactly the paper's 16-hour transition).
        """
        deleted = [self._fifo.popleft() for _ in range(min(self.churn_rate, len(self._fifo)))]
        self.matcher.remove_batch(deleted)
        inserted = [generator.next_subscription() for _ in range(self.churn_rate)]
        self.matcher.add_batch(inserted)
        self._fifo.extend(sub.id for sub in inserted)
        return deleted, inserted


@dataclasses.dataclass(frozen=True)
class ChurnPhase:
    """One segment of a transition experiment."""

    label: str
    #: Workload the *inserted* subscriptions and the *events* follow.
    spec: WorkloadSpec
    #: Virtual seconds (churn steps) this phase lasts.
    steps: int

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("phase must last at least one step")


@dataclasses.dataclass(frozen=True)
class TransitionSchedule:
    """The full stable → drift → stable storyline of Figure 4.

    ``initial_spec`` populates the system; each phase then churns with
    its own spec.  The paper's timeline (2 h stable, 16 h transition,
    2 h stable) compresses to any step budget via ``compressed``.
    """

    initial_spec: WorkloadSpec
    phases: Tuple[ChurnPhase, ...]
    churn_rate: int = 50

    def total_steps(self) -> int:
        """Virtual seconds across all phases."""
        return sum(p.steps for p in self.phases)

    @staticmethod
    def figure4(
        old_spec: WorkloadSpec,
        new_spec: WorkloadSpec,
        population: int,
        churn_rate: int,
        stable_steps: int,
        transition_steps: int,
    ) -> "TransitionSchedule":
        """The canonical Figure 4 storyline, at arbitrary compression.

        *population* subscriptions of *old_spec* are loaded; then:
        stable (old), transition (inserting new while old age out), and
        stable (new).  ``transition_steps`` should be ≈
        population / churn_rate so the population fully turns over,
        mirroring the paper's 16 h = 3 M / 50 per s.
        """
        initial = dataclasses.replace(old_spec, n_subscriptions=population)
        return TransitionSchedule(
            initial_spec=initial,
            phases=(
                ChurnPhase("stable-old", old_spec, stable_steps),
                ChurnPhase("transition", new_spec, transition_steps),
                ChurnPhase("stable-new", new_spec, stable_steps),
            ),
            churn_rate=churn_rate,
        )
