"""Propagation matchers: single-equality access predicates (paper §6).

``propagation`` groups subscriptions into cluster lists keyed by **one**
equality predicate per subscription (its *access predicate*); an event
probes the cluster list of each of its (attribute, value) pairs and
checks only those members.  Two variants differ solely in the phase-2
check kernel:

* :class:`PropagationMatcher` — scalar short-circuit loop (paper's
  ``propagation``);
* :class:`PrefetchPropagationMatcher` — vectorized columnar sweep
  (paper's ``propagation-wp``: the unrolled + prefetched scan; in Python
  the numpy gather/reduce is the equivalent streaming traversal).

Subscriptions with no equality predicate have no possible access
predicate; they land in a *universal* cluster list checked for every
event (the paper's generated workloads always have ≥2 equality
predicates, so this list stays empty there).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import TwoPhaseMatcher
from repro.algorithms.clusters import Cluster, ClusterList, Homes
from repro.core.errors import id_repr
from repro.core.types import Event, Predicate, Subscription, Value
from repro.indexes.ordered import IndexKind

#: Pluggable access-predicate chooser: given the subscription and its
#: equality predicates, return the predicate to cluster under.
AccessSelector = Callable[[Subscription, Tuple[Predicate, ...]], Predicate]


class PropagationMatcher(TwoPhaseMatcher):
    """Cluster lists keyed by one equality predicate per subscription."""

    name = "propagation"

    #: Phase-2 kernel flag; the prefetch subclass flips it.
    vectorized = False

    def __init__(
        self,
        index_kind: IndexKind = IndexKind.SORTED_ARRAY,
        access_selector: Optional[AccessSelector] = None,
    ) -> None:
        super().__init__(index_kind)
        self._lists: Dict[Tuple[str, Value], ClusterList] = {}
        self._universal = ClusterList(key=None)
        self._selector = access_selector
        # handle -> the cluster (and column) that holds it; its list's
        # key is the access predicate, None for the universal list.
        self._home = Homes()

    # ------------------------------------------------------------------
    # access-predicate choice
    # ------------------------------------------------------------------
    def _choose_access(self, sub: Subscription) -> Optional[Predicate]:
        eqs = sub.equality_predicates()
        if not eqs:
            return None
        if self._selector is not None:
            return self._selector(sub, eqs)
        # Default: the subscription's first equality predicate ("simple
        # equality predicates as access predicates" — no cost model, no
        # balancing; that is exactly what the paper's simple propagation
        # does, and what the static/dynamic algorithms improve upon).
        return eqs[0]

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _place(self, handle: int, sub: Subscription, bits: List[int]) -> Cluster:
        access = self._choose_access(sub)
        # The residual: every bit but the access predicate's, equality
        # first so the scalar kernel short-circuits on them (§6.2.1).
        eq_bits: List[int] = []
        other_bits: List[int] = []
        for pred, bit in zip(sub.predicates, bits):
            if pred == access:
                continue
            if pred.operator.is_equality:
                eq_bits.append(bit)
            else:
                other_bits.append(bit)
        if access is None:
            lst = self._universal
        else:
            key = (access.attribute, access.value)
            lst = self._lists.get(key)
            if lst is None:
                lst = self._lists[key] = ClusterList(key=access)
        home = lst.add(handle, eq_bits + other_bits)
        self._home.settle(handle, home)
        return home

    def _displace(self, handle: int, sub: Subscription) -> None:
        lst = self._home[handle].owner
        self._home.evict(handle, lst)
        if not lst and lst is not self._universal:
            del self._lists[(lst.key.attribute, lst.key.value)]

    # ------------------------------------------------------------------
    # phase 2
    # ------------------------------------------------------------------
    def _match_phase2(self, event: Event) -> List[int]:
        out: List[int] = []
        bits = self.bits.array
        reads = 0
        if len(self._universal):
            reads += self._universal.match(bits, out, self.vectorized)
        lists = self._lists
        for pair in event.items():
            lst = lists.get(pair)
            if lst is not None:
                reads += lst.match(bits, out, self.vectorized)
        self.counters["subscription_checks"] += reads
        return out

    def _match_phase2_batch(
        self, events: Sequence[Event], truth: np.ndarray
    ) -> List[List[int]]:
        """Row-grouped cluster walk: each probed list is visited once.

        Events are grouped by (attribute, value) pair, so a cluster list
        probed by many events of the batch runs one gather over all
        their truth rows instead of one walk per event.
        """
        out: List[List[int]] = [[] for _ in events]
        reads = 0
        if len(self._universal):
            all_rows = np.arange(len(events), dtype=np.intp)
            reads += self._universal.match_rows(truth, all_rows, out)
        lists = self._lists
        rows_of: Dict[Tuple[str, Value], List[int]] = {}
        for row, event in enumerate(events):
            for pair in event.items():
                if pair in lists:
                    rows_of.setdefault(pair, []).append(row)
        for pair, rows in rows_of.items():
            reads += lists[pair].match_rows(
                truth, np.asarray(rows, dtype=np.intp), out
            )
        self.counters["subscription_checks"] += reads
        return out

    # ------------------------------------------------------------------
    # debugging
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        super().check_invariants()
        for key, lst in self._lists.items():
            assert lst, f"empty cluster list retained for {id_repr(key)}"
            assert key == (lst.key.attribute, lst.key.value), "list filed under another key"
        lists = [self._universal, *self._lists.values()]
        homes = self._home.members(lists, (handle for handle, _sub in self._subs.items()))
        for handle, cluster in homes.items():
            sub, access = self._subs.get(handle), cluster.owner.key
            assert access is None or access in sub.predicates
            expected = sub.size - (0 if access is None else 1)
            assert cluster.size == expected, f"residual size drift for {id_repr(sub.id)}"

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cluster_list_sizes(self) -> Dict[Tuple[str, Value], int]:
        """Subscription count per access predicate (for tests/benchmarks)."""
        return {key: len(lst) for key, lst in self._lists.items()}

    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        base.update(
            cluster_lists=len(self._lists),
            universal_members=len(self._universal),
            vectorized=self.vectorized,
        )
        return base


class PrefetchPropagationMatcher(PropagationMatcher):
    """``propagation-wp``: identical clustering, streaming check kernel."""

    name = "propagation-wp"
    vectorized = True
