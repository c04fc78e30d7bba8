"""Event-stream statistics: the ν and μ estimators of the cost model.

The cost formulas of Section 3 need two probabilities:

* ``ν(p)`` — probability that an incoming event satisfies access
  predicate ``p`` (a conjunction of equality predicates);
* ``μ(H)`` — probability that an incoming event's schema includes the
  schema of hash table ``H``.

Two providers are implemented behind one protocol:

* :class:`UniformStatistics` — the closed form under the paper's
  workload-generator assumptions (attributes present with known
  probability, values uniform over a known domain).  Used by the analytic
  tests (Example 3.1) and as the prior before any event is observed.
* :class:`EventStatistics` — online estimates from the observed event
  stream, with periodic exponential decay so the estimator tracks drift
  (this is what lets the dynamic algorithm adapt in Figure 4(b)).

Both assume attribute independence, exactly as the paper's Example 3.1
("three independently distributed attributes") does.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Protocol, Tuple

from repro.core.types import Event, Predicate, Value

#: (attribute, value) pair — the unit ν composes over.
Pair = Tuple[str, Value]


class Statistics(Protocol):
    """Probability estimates consumed by the cost model."""

    @property
    def version(self) -> int:
        """Moves whenever any estimate may have changed.

        Consumers may keep a value derived from the estimates for as
        long as this stands still.  A provider without the attribute is
        treated as changing on every read.
        """
        ...

    def attr_prob(self, attribute: str) -> float:
        """P(attribute present in an event)."""
        ...

    def pair_prob(self, attribute: str, value: Value) -> float:
        """P(attribute present and carrying exactly *value*)."""
        ...

    def nu_of_pairs(self, pairs: Iterable[Pair]) -> float:
        """ν of a concrete conjunction of equality predicates."""
        ...

    def mu_of_schema(self, schema: Iterable[str]) -> float:
        """μ: P(event schema includes *schema*)."""
        ...

    def expected_nu_schema(self, schema: Iterable[str]) -> float:
        """ν of a *random* access predicate over *schema* (value-averaged)."""
        ...


def nu_of_predicates(stats: "Statistics", predicates: Iterable[Predicate]) -> float:
    """ν of a set of equality predicates via their (attr, value) pairs."""
    return stats.nu_of_pairs((p.attribute, p.value) for p in predicates)


class UniformStatistics:
    """Closed-form statistics for uniform workloads.

    Parameters
    ----------
    domains:
        attribute → number of distinct values the attribute takes in
        events (the paper's ``u_A - l_A + 1``).
    attr_probs:
        attribute → probability of appearing in an event schema; defaults
        to 1.0 (the paper's events carry all ``n_A = 32`` attributes).
    default_domain:
        fallback cardinality for unlisted attributes.
    """

    def __init__(
        self,
        domains: Optional[Mapping[str, int]] = None,
        attr_probs: Optional[Mapping[str, float]] = None,
        default_domain: int = 35,
        default_attr_prob: float = 1.0,
    ) -> None:
        self._domains = dict(domains or {})
        self._attr_probs = dict(attr_probs or {})
        self._default_domain = max(1, default_domain)
        self._default_attr_prob = min(1.0, max(0.0, default_attr_prob))

    @property
    def version(self) -> int:
        """Constant: the closed form never changes."""
        return 0

    def domain(self, attribute: str) -> int:
        """Cardinality assumed for *attribute*."""
        return self._domains.get(attribute, self._default_domain)

    def attr_prob(self, attribute: str) -> float:
        return self._attr_probs.get(attribute, self._default_attr_prob)

    def pair_prob(self, attribute: str, value: Value) -> float:
        return self.attr_prob(attribute) / self.domain(attribute)

    def nu_of_pairs(self, pairs: Iterable[Pair]) -> float:
        p = 1.0
        for attribute, value in pairs:
            p *= self.pair_prob(attribute, value)
        return p

    def mu_of_schema(self, schema: Iterable[str]) -> float:
        p = 1.0
        for attribute in schema:
            p *= self.attr_prob(attribute)
        return p

    def expected_nu_schema(self, schema: Iterable[str]) -> float:
        p = 1.0
        for attribute in schema:
            p *= self.attr_prob(attribute) / self.domain(attribute)
        return p


class EventStatistics:
    """Online ν/μ estimation over the observed event stream.

    Keeps, per attribute, a presence count and a value histogram.  Every
    ``decay_every`` observed events all counts are scaled by ``decay`` so
    old traffic fades — the estimator then tracks the value-skew drift the
    paper injects in Figure 4(b).  Falls back to a uniform prior (of
    ``prior_domain`` values) while an attribute has few observations.
    """

    def __init__(
        self,
        prior_domain: int = 35,
        prior_weight: float = 8.0,
        decay: float = 0.5,
        decay_every: int = 1000,
    ) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self._prior_domain = max(1, prior_domain)
        self._prior_weight = max(0.0, prior_weight)
        self._decay = decay
        self._decay_every = max(1, decay_every)
        self._events = 0.0
        self._observed = 0
        self._version = 0
        self._presence: Dict[str, float] = {}
        self._values: Dict[str, Dict[Value, float]] = {}

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe(self, event: Event) -> None:
        """Fold one event into the estimates."""
        self._events += 1.0
        self._observed += 1
        self._version += 1
        presence = self._presence
        values = self._values
        for attribute, value in event.items():
            presence[attribute] = presence.get(attribute, 0.0) + 1.0
            hist = values.get(attribute)
            if hist is None:
                hist = values[attribute] = {}
            hist[value] = hist.get(value, 0.0) + 1.0
        if self._observed % self._decay_every == 0 and self._decay < 1.0:
            self._apply_decay()

    def _apply_decay(self) -> None:
        self._version += 1
        d = self._decay
        self._events *= d
        for attribute in list(self._presence):
            self._presence[attribute] *= d
        for hist in self._values.values():
            for value in list(hist):
                hist[value] *= d
                if hist[value] < 1e-6:
                    del hist[value]

    @property
    def version(self) -> int:
        """Bumped by every :meth:`observe` and every decay."""
        return self._version

    @property
    def event_weight(self) -> float:
        """Decayed number of observed events."""
        return self._events

    @property
    def events_observed(self) -> int:
        """Raw (undecayed) number of observed events."""
        return self._observed

    # ------------------------------------------------------------------
    # estimates
    # ------------------------------------------------------------------
    def attr_prob(self, attribute: str) -> float:
        # Prior: attribute present (the paper's events carry every name).
        num = self._presence.get(attribute, 0.0) + self._prior_weight
        den = self._events + self._prior_weight
        return min(1.0, num / den) if den > 0 else 1.0

    def pair_prob(self, attribute: str, value: Value) -> float:
        hist = self._values.get(attribute)
        seen = hist.get(value, 0.0) if hist else 0.0
        present = self._presence.get(attribute, 0.0)
        # Smoothed conditional P(value | present).  The prior mass grows
        # with the observation count (adaptive shrinkage): per-value
        # counts stay small even after many events (35+ values share
        # them), and un-shrunk estimates are noisy enough to flip
        # clustering decisions between statistically identical values.
        # Halving the weight of the observed counts bounds the relative
        # noise while leaving genuine skew (hot values holding a large
        # fraction of the mass) clearly visible.
        prior = max(self._prior_weight, present)
        num = seen + prior / self._prior_domain
        den = present + prior
        cond = num / den if den > 0 else 1.0 / self._prior_domain
        return self.attr_prob(attribute) * min(1.0, cond)

    def nu_of_pairs(self, pairs: Iterable[Pair]) -> float:
        p = 1.0
        for attribute, value in pairs:
            p *= self.pair_prob(attribute, value)
        return p

    def mu_of_schema(self, schema: Iterable[str]) -> float:
        p = 1.0
        for attribute in schema:
            p *= self.attr_prob(attribute)
        return p

    def expected_nu_schema(self, schema: Iterable[str]) -> float:
        """Value-averaged ν: Σ_v P(v)² per attribute (collision probability).

        For a random subscription value drawn from the same distribution
        as event values, P(match) = Σ_v P(v)²; this is what makes skew
        *raise* ν (two hot values collide often), reproducing the
        Figure 4(b) degradation for the no-change strategy.
        """
        p = 1.0
        for attribute in schema:
            hist = self._values.get(attribute)
            present = self._presence.get(attribute, 0.0)
            prior_mass = self._prior_weight
            den = present + prior_mass
            if den <= 0:
                p *= self.attr_prob(attribute) / self._prior_domain
                continue
            # Collision probability with smoothing: treat prior mass as
            # uniformly spread over the prior domain.
            coll = 0.0
            if hist:
                for count in hist.values():
                    coll += (count / den) ** 2
            coll += (prior_mass / den) ** 2 / self._prior_domain
            p *= self.attr_prob(attribute) * min(1.0, coll)
        return p

    def value_distribution(self, attribute: str) -> Dict[Value, float]:
        """Normalized observed value distribution (no smoothing)."""
        hist = self._values.get(attribute, {})
        total = sum(hist.values())
        if total <= 0:
            return {}
        return {v: c / total for v, c in hist.items()}
