"""Subscription clusters: columnar phase-2 storage (paper Section 2.2).

A :class:`Cluster` holds every subscription sharing one *access predicate*
and one *residual size* (number of predicates left to check once the
access predicate is known true).  Storage is **column-wise**: a
``(size, capacity)`` int32 matrix of bit-vector references plus a parallel
subscription line of ids.  Column ``j`` lists the residual predicate bits
of subscription ``j``; the subscription matches iff all bits in its
column are set.

Two check kernels are provided:

* :meth:`match_scalar` — a Python loop with per-row short-circuit, the
  analogue of the paper's non-prefetching ``propagation`` code;
* :meth:`match_vector` — a numpy gather + AND-reduce over whole columns,
  the analogue of ``propagation-wp``'s unrolled, prefetched scan (a
  branch-free sequential sweep that lets the memory system stream).

Callers must push a subscription's *equality* residual bits before its
inequality bits: the scalar kernel then short-circuits before touching
inequality bits unless all equalities hold, reproducing the behaviour the
paper describes in Section 6.2.1.

A :class:`ClusterList` groups the clusters of one access predicate by
size (the paper's per-access-predicate "collection of predicate arrays").
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ClusteringError

#: Initial number of columns allocated per cluster.
_INITIAL_COLUMNS = 8


class Cluster:
    """All subscriptions with one access predicate and one residual size."""

    __slots__ = ("size", "_refs", "_ids", "_col_of", "_count", "owner")

    def __init__(self, size: int, owner: Any = None) -> None:
        if size < 0:
            raise ClusteringError(f"cluster size must be >= 0, got {size}")
        self.size = size
        #: The owning ClusterList.  An engine keeps ``id → Cluster`` and
        #: nothing else about placement: removal and ``placement_of``
        #: reach the list — and through its ``key`` the table entry —
        #: from here.
        self.owner = owner
        cols = _INITIAL_COLUMNS
        self._refs = np.zeros((size, cols), dtype=np.int32) if size else None
        self._ids: List[Any] = []
        self._col_of: Dict[Any, int] = {}
        self._count = 0

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def add(self, sub_id: Any, bit_refs: Sequence[int]) -> None:
        """Append a subscription column.

        *bit_refs* must hold exactly :attr:`size` bit indexes, equality
        bits first.
        """
        if len(bit_refs) != self.size:
            raise ClusteringError(
                f"expected {self.size} bit refs, got {len(bit_refs)}"
            )
        if sub_id in self._col_of:
            raise ClusteringError(f"subscription {sub_id!r} already in cluster")
        j = self._count
        if self.size:
            if j == self._refs.shape[1]:
                grown = np.zeros((self.size, self._refs.shape[1] * 2), dtype=np.int32)
                grown[:, : self._refs.shape[1]] = self._refs
                self._refs = grown
            self._refs[:, j] = bit_refs
        self._ids.append(sub_id)
        self._col_of[sub_id] = j
        self._count += 1

    def remove(self, sub_id: Any) -> np.ndarray:
        """Remove a subscription column (swap-with-last); returns its refs."""
        j = self._col_of.pop(sub_id, None)
        if j is None:
            raise ClusteringError(f"subscription {sub_id!r} not in cluster")
        last = self._count - 1
        refs = self._refs[:, j].copy() if self.size else np.empty(0, dtype=np.int32)
        if j != last:
            moved = self._ids[last]
            self._ids[j] = moved
            self._col_of[moved] = j
            if self.size:
                self._refs[:, j] = self._refs[:, last]
        self._ids.pop()
        self._count -= 1
        return refs

    def refs_of(self, sub_id: Any) -> np.ndarray:
        """Residual bit refs of one member (copy)."""
        j = self._col_of[sub_id]
        if not self.size:
            return np.empty(0, dtype=np.int32)
        return self._refs[:, j].copy()

    def __contains__(self, sub_id: Any) -> bool:
        return sub_id in self._col_of

    def __len__(self) -> int:
        return self._count

    def ids(self) -> Tuple[Any, ...]:
        """Snapshot of member ids."""
        return tuple(self._ids)

    # ------------------------------------------------------------------
    # check kernels
    # ------------------------------------------------------------------
    def match_scalar(self, bits: np.ndarray, out: List[Any]) -> int:
        """Row-by-row short-circuit check (the non-prefetch kernel).

        Appends matching ids to *out*; returns the number of
        subscriptions checked (the paper's unit of phase-2 work).

        Mirrors the paper's implementation strategy: "a collection of
        similar methods specialized for small numbers of predicates …
        one generic method to deal with subscriptions having more" —
        sizes 1–3 dispatch to unrolled loops (no inner loop, like the
        paper's specialized C functions), larger sizes take the generic
        nested loop.
        """
        m = self._count
        if m == 0:
            return 0
        size = self.size
        if size == 0:
            out.extend(self._ids)
            return m
        if size <= 3:
            return self._match_scalar_specialized(bits, out)
        refs = self._refs
        ids = self._ids
        for j in range(m):
            ok = True
            for i in range(size):
                if not bits[refs[i, j]]:
                    ok = False
                    break
            if ok:
                out.append(ids[j])
        return m

    def _match_scalar_specialized(self, bits: np.ndarray, out: List[Any]) -> int:
        """Unrolled scalar kernels for residual sizes 1–3."""
        m = self._count
        refs = self._refs
        ids = self._ids
        if self.size == 1:
            row0 = refs[0]
            for j in range(m):
                if bits[row0[j]]:
                    out.append(ids[j])
        elif self.size == 2:
            row0, row1 = refs[0], refs[1]
            for j in range(m):
                if bits[row0[j]] and bits[row1[j]]:
                    out.append(ids[j])
        else:
            row0, row1, row2 = refs[0], refs[1], refs[2]
            for j in range(m):
                if bits[row0[j]] and bits[row1[j]] and bits[row2[j]]:
                    out.append(ids[j])
        return m

    def match_vector(self, bits: np.ndarray, out: List[Any]) -> int:
        """Columnar gather + AND-reduce (the prefetch-analogue kernel).

        Returns the number of subscriptions checked, like
        :meth:`match_scalar`.
        """
        m = self._count
        if m == 0:
            return 0
        if self.size == 0:
            out.extend(self._ids)
            return m
        active = self._refs[:, :m]
        truth = bits[active]
        hits = np.nonzero(truth.all(axis=0))[0]
        ids = self._ids
        for j in hits:
            out.append(ids[j])
        return m

    def match_rows(
        self, truth: np.ndarray, rows: np.ndarray, out: List[List[Any]]
    ) -> int:
        """Batched columnar check: many events against every member.

        *truth* is the batch truth matrix ``(events, slots)``; *rows*
        the event rows whose access predicate reached this cluster.  A
        single gather pulls the ``(rows × size × members)`` cells, and
        an AND-reduce over the residual axis yields every (event,
        subscription) hit at once — the batch analogue of
        :meth:`match_vector`.  Returns subscriptions checked, counted
        once per (event, subscription) pair like the scalar kernels.
        """
        m = self._count
        n_rows = len(rows)
        if m == 0 or n_rows == 0:
            return 0
        ids = self._ids
        if self.size == 0:
            for r in rows:
                out[r].extend(ids)
            return m * n_rows
        active = self._refs[:, :m]
        cells = truth[np.ix_(rows, active.ravel())]
        hits = cells.reshape(n_rows, self.size, m).all(axis=1)
        for r, j in zip(*np.nonzero(hits)):
            out[rows[r]].append(ids[j])
        return m * n_rows

    # ------------------------------------------------------------------
    # layout introspection (for the cache-simulator substrate)
    # ------------------------------------------------------------------
    @property
    def refs_matrix(self) -> Optional[np.ndarray]:
        """Active (size, count) view of the refs matrix, or None if size 0."""
        if not self.size:
            return None
        return self._refs[:, : self._count]

    def memory_bytes(self) -> int:
        """Approximate resident bytes of this cluster's arrays."""
        n = 0
        if self.size:
            n += self._refs.nbytes
        n += len(self._ids) * 8
        return n

    def __repr__(self) -> str:
        return f"Cluster(size={self.size}, members={self._count})"


class ClusterList:
    """Per-access-predicate collection of clusters, grouped by size."""

    __slots__ = ("key", "_by_size", "_count")

    def __init__(self, key: Any = None) -> None:
        #: The access predicate (or other identity) this list serves.
        self.key = key
        self._by_size: Dict[int, Cluster] = {}
        self._count = 0

    def add(self, sub_id: Any, bit_refs: Sequence[int]) -> Cluster:
        """Insert into the size-appropriate cluster, creating it on demand."""
        size = len(bit_refs)
        cluster = self._by_size.get(size)
        if cluster is None:
            cluster = self._by_size[size] = Cluster(size, owner=self)
        cluster.add(sub_id, bit_refs)
        self._count += 1
        return cluster

    def remove(self, sub_id: Any, home: Cluster) -> np.ndarray:
        """Remove from *home*, the member cluster that holds *sub_id*."""
        if home.owner is not self:
            raise ClusteringError(f"{home!r} is not a cluster of {self!r}")
        refs = home.remove(sub_id)
        self._count -= 1
        if not len(home):
            del self._by_size[home.size]
        return refs

    def match(self, bits: np.ndarray, out: List[Any], vectorized: bool) -> int:
        """Check every member cluster; returns subscriptions checked."""
        reads = 0
        if vectorized:
            for cluster in self._by_size.values():
                reads += cluster.match_vector(bits, out)
        else:
            for cluster in self._by_size.values():
                reads += cluster.match_scalar(bits, out)
        return reads

    def match_rows(
        self, truth: np.ndarray, rows: np.ndarray, out: List[List[Any]]
    ) -> int:
        """Batched check of every member cluster for the given event rows."""
        reads = 0
        for cluster in self._by_size.values():
            reads += cluster.match_rows(truth, rows, out)
        return reads

    def clusters(self) -> Iterator[Cluster]:
        """Iterate member clusters (ascending size for determinism)."""
        for size in sorted(self._by_size):
            yield self._by_size[size]

    @property
    def cluster_count(self) -> int:
        """Number of size-grouped clusters in this list (for tracing)."""
        return len(self._by_size)

    def __len__(self) -> int:
        """Total subscriptions across all size groups."""
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def memory_bytes(self) -> int:
        """Approximate resident bytes across member clusters."""
        return sum(c.memory_bytes() for c in self._by_size.values())

    def __repr__(self) -> str:
        sizes = {s: len(c) for s, c in sorted(self._by_size.items())}
        return f"ClusterList(key={self.key!r}, sizes={sizes})"
