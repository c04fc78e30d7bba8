"""Subscription clusters: columnar phase-2 storage (paper Section 2.2).

A :class:`Cluster` holds every subscription sharing one *access predicate*
and one *residual size* (number of predicates left to check once the
access predicate is known true).  Storage is **column-wise**: one
``(1 + size, capacity)`` int32 matrix whose row 0 is the paper's
*subscription line* of member handles (:mod:`repro.core.handles`) and
whose column ``j`` below it lists subscription ``j``'s residual bit
refs; it matches iff all of them are set.  The kernels emit handles.

An insert does not write the matrix: it appends its column to a flat
int32 *pending* buffer, and the first reader after a run of inserts
(a kernel, a removal, a snapshot) folds the whole run in with one block
write, :meth:`Cluster.extend`.  A load of many subscriptions into one
cluster is then one matrix write, not one per subscription.

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
size (the paper's per-access-predicate "collection of predicate arrays");
:class:`Homes` holds every handle's cluster and column.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.core.errors import ClusteringError


class Cluster:
    """All subscriptions with one access predicate and one residual size."""

    __slots__ = ("size", "_columns", "_count", "_pending", "owner")

    def __init__(self, size: int, owner: Any = None) -> None:
        if size < 0:
            raise ClusteringError(f"cluster size must be >= 0, got {size}")
        self.size = size
        #: The owning ClusterList.  An engine keeps each handle's home
        #: cluster (:class:`Homes`) and nothing else about placement:
        #: removal and ``placement_of`` reach the list — and through its
        #: ``key`` the table entry — from here.
        self.owner = owner
        #: Row 0: the subscription line (member handles); rows 1…size:
        #: the members' residual bit refs.  Sized by the first fold.
        self._columns = np.zeros((1 + size, 0), dtype=np.int32)
        #: Members, pending ones included.
        self._count = 0
        #: The last members' columns while they are not in the matrix yet,
        #: each ``handle, refs…`` back to back (None when there are none).
        self._pending: Optional[array] = None

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def add(self, handle: int, bit_refs: List[int]) -> None:
        """Append a subscription column (the new last one).

        *bit_refs* must be a list of exactly :attr:`size` bit indexes,
        equality bits first.  The column stays pending until a reader
        folds it into the matrix.
        """
        if len(bit_refs) != self.size:
            raise ClusteringError(
                f"expected {self.size} bit refs, got {len(bit_refs)}"
            )
        pending = self._pending
        if pending is None:
            pending = self._pending = array("i")
        pending.append(handle)
        pending.fromlist(bit_refs)
        self._count += 1

    def extend(self, block: np.ndarray) -> None:
        """Append the ``(1 + size, k)`` column *block* — row 0 the
        handles, below each its residual refs — after every member, in
        one write (a matrix too narrow grows to at least twice its width)."""
        if self._pending:
            self._fold()
        start = self._count
        end = start + block.shape[1]
        columns = self._columns
        if end > columns.shape[1]:
            grown = np.zeros((1 + self.size, max(end, 2 * columns.shape[1])), dtype=np.int32)
            grown[:, :start] = columns[:, :start]
            columns = self._columns = grown
        columns[:, start:end] = block
        self._count = end

    def _fold(self) -> None:
        """Write the pending columns into the matrix with one
        :meth:`extend`; every reader of the matrix calls this first."""
        pending, self._pending = self._pending, None
        block = np.frombuffer(pending, dtype=np.intc).reshape(-1, 1 + self.size).T
        self._count -= block.shape[1]
        self.extend(block)

    def remove(self, column: int) -> Optional[int]:
        """Remove the member at *column* by swap-with-last; returns the
        handle moved into *column* (None if it was the last)."""
        if self._pending:
            self._fold()
        last = self._count - 1
        if not 0 <= column <= last:
            raise ClusteringError(f"no column {column} in {self!r}")
        moved = None
        if column != last:
            columns = self._columns
            columns[:, column] = columns[:, last]
            moved = int(columns[0, column])
        self._count = last
        return moved

    def __len__(self) -> int:
        return self._count

    def handles(self) -> List[int]:
        """Snapshot of member handles, in column order."""
        if self._pending:
            self._fold()
        return self._columns[0, : self._count].tolist()

    # ------------------------------------------------------------------
    # check kernels
    # ------------------------------------------------------------------
    def match_scalar(self, bits: np.ndarray, out: List[int]) -> int:
        """Row-by-row short-circuit check (the non-prefetch kernel).

        Appends matching handles to *out*; returns the number of
        subscriptions checked (the paper's unit of phase-2 work).

        Mirrors the paper's implementation strategy: "a collection of
        similar methods specialized for small numbers of predicates …
        one generic method to deal with subscriptions having more" —
        sizes 1–3 dispatch to unrolled loops (no inner loop, like the
        paper's specialized C functions), larger sizes take the generic
        nested loop.
        """
        if self._pending:
            self._fold()
        m = self._count
        size = self.size
        columns = self._columns
        if size == 0:
            hits = range(m)
        elif size == 1:
            row1 = columns[1]
            hits = [j for j in range(m) if bits[row1[j]]]
        elif size == 2:
            row1, row2 = columns[1], columns[2]
            hits = [j for j in range(m) if bits[row1[j]] and bits[row2[j]]]
        elif size == 3:
            row1, row2, row3 = columns[1], columns[2], columns[3]
            hits = [
                j for j in range(m) if bits[row1[j]] and bits[row2[j]] and bits[row3[j]]
            ]
        else:
            hits = []
            for j in range(m):
                for i in range(1, size + 1):
                    if not bits[columns[i, j]]:
                        break
                else:
                    hits.append(j)
        if hits:
            out.extend(columns[0, hits].tolist())
        return m

    def match_vector(self, bits: np.ndarray, out: List[int]) -> int:
        """Columnar gather + AND-reduce (the prefetch-analogue kernel).

        Returns the number of subscriptions checked, like
        :meth:`match_scalar`.
        """
        if self._pending:
            self._fold()
        m = self._count
        truth = bits[self._columns[1:, :m]]
        hits = np.nonzero(truth.all(axis=0))[0]
        out.extend(self._columns[0, hits].tolist())
        return m

    def match_rows(
        self, truth: np.ndarray, rows: np.ndarray, out: List[List[int]]
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
        if self._pending:
            self._fold()
        m = self._count
        n_rows = len(rows)
        if m == 0 or n_rows == 0:
            return 0
        active = self._columns[1:, :m]
        cells = truth[np.ix_(rows, active.ravel())]
        hits = cells.reshape(n_rows, self.size, m).all(axis=1)
        hit_rows, hit_cols = np.nonzero(hits)
        handles = self._columns[0, hit_cols].tolist()
        for r, handle in zip(rows[hit_rows].tolist(), handles):
            out[r].append(handle)
        return m * n_rows

    # ------------------------------------------------------------------
    # layout introspection (for the cache-simulator substrate)
    # ------------------------------------------------------------------
    @property
    def refs_matrix(self) -> Optional[np.ndarray]:
        """Active (size, count) view of the refs matrix, or None if size 0."""
        if self._pending:
            self._fold()
        if not self.size:
            return None
        return self._columns[1:, : self._count]

    def memory_bytes(self) -> int:
        """Approximate resident bytes of this cluster's matrix."""
        if self._pending:
            self._fold()
        return self._columns.nbytes

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

    def add(self, handle: int, bit_refs: List[int]) -> Cluster:
        """Insert into the size-appropriate cluster, creating it on demand."""
        size = len(bit_refs)
        cluster = self._by_size.get(size)
        if cluster is None:
            cluster = self._by_size[size] = Cluster(size, owner=self)
        cluster.add(handle, bit_refs)
        self._count += 1
        return cluster

    def remove(self, home: Cluster, column: int) -> Optional[int]:
        """Remove *home*'s member at *column*; returns the handle moved there."""
        if home.owner is not self:
            raise ClusteringError(f"{home!r} is not a cluster of {self!r}")
        moved = home.remove(column)
        self._count -= 1
        if not len(home):
            del self._by_size[home.size]
        return moved

    def match(self, bits: np.ndarray, out: List[int], vectorized: bool) -> int:
        """Check every member cluster; returns subscriptions checked."""
        kernel = Cluster.match_vector if vectorized else Cluster.match_scalar
        return sum(kernel(cluster, bits, out) for cluster in self._by_size.values())

    def match_rows(
        self, truth: np.ndarray, rows: np.ndarray, out: List[List[int]]
    ) -> int:
        """Batched check of every member cluster for the given event rows."""
        return sum(cluster.match_rows(truth, rows, out) for cluster in self._by_size.values())

    def handles(self) -> List[int]:
        """Snapshot of member handles (ascending size, then column)."""
        return [handle for cluster in self.clusters() for handle in cluster.handles()]

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


class Homes:
    """Every placed handle's cluster and column: the engine-wide half of
    the subscription line, so a removal is an O(1) swap-with-last."""

    __slots__ = ("_cluster", "_column")

    def __init__(self) -> None:
        self._cluster: List[Optional[Cluster]] = []
        self._column = array("i")

    def __getitem__(self, handle: int) -> Optional[Cluster]:
        """The cluster holding *handle* (None while it is unplaced)."""
        return self._cluster[handle]

    def settle(self, handle: int, home: Cluster) -> None:
        """Record that *handle* was just appended to *home* (handles are
        dense: a new one is the next past the end)."""
        column = home._count - 1
        if handle == len(self._cluster):
            self._cluster.append(home)
            self._column.append(column)
        else:
            self._cluster[handle] = home
            self._column[handle] = column

    def evict(self, handle: int, holder: Any) -> None:
        """Remove *handle* from its home through *holder*, the list or
        table that owns the home."""
        column = self._column[handle]
        moved = holder.remove(self._cluster[handle], column)
        if moved is not None:
            self._column[moved] = column
        self._cluster[handle] = None

    def members(self, lists: Iterable[ClusterList], live: Iterable[int]) -> Dict[int, Cluster]:
        """Assert every member of *lists* is homed at its own column,
        once, and exactly the *live* handles are placed; returns
        ``handle → cluster`` for the engine's own checks."""
        found: Dict[int, Cluster] = {}
        for lst in lists:
            for cluster in lst.clusters():
                assert cluster.owner is lst, "cluster owned by another list"
                for column, handle in enumerate(cluster.handles()):
                    assert handle not in found, f"handle {handle} stored twice"
                    found[handle] = cluster
                    assert self._cluster[handle] is cluster, f"home drift for {handle}"
                    assert self._column[handle] == column, f"column drift for {handle}"
        placed = {h for h, home in enumerate(self._cluster) if home is not None}
        assert set(found) == set(live) == placed, "membership drift"
        return found
