"""An in-memory B-tree keyed by numeric predicate values.

The paper (Section 2.3) guarantees linear index space "by using hash
indexes for equality predicates and simple B-Trees for inequalities".
This module provides that B-tree: keys are predicate constants, values are
bit-vector slots, and the operations the matcher needs are point
insert/delete plus *one-sided range scans* ("all keys strictly greater
than x", etc.), which is exactly how an inequality predicate set is
evaluated against an event value.

Classic algorithm: order-``t`` nodes hold between ``t-1`` and ``2t-1``
keys (root exempt below), split on the way down for inserts, merge/borrow
on the way up for deletes.  Duplicate keys are rejected — the predicate
registry guarantees one bit per distinct ``(attr, op, value)`` triple, and
each ``(op ,value)`` pair gets its own tree, so keys here are unique.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.core.errors import id_repr


class _Node:
    """One B-tree node: sorted keys, parallel payloads, children."""

    __slots__ = ("keys", "vals", "children")

    def __init__(self, leaf: bool) -> None:
        self.keys: List[Any] = []
        self.vals: List[Any] = []
        self.children: List["_Node"] = [] if leaf else []
        if not leaf:
            self.children = []

    @property
    def leaf(self) -> bool:
        return not self.children


def _find(keys: List[Any], key: Any) -> int:
    """Index of the first element >= key (linear within a node is fine:
    nodes are small and Python-level bisect on tiny lists is a wash)."""
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


class BTree:
    """Unique-key B-tree with one-sided range scans."""

    def __init__(self, order: int = 16) -> None:
        if order < 2:
            raise ValueError("B-tree order must be >= 2")
        self._t = order
        self._root = _Node(leaf=True)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        """Payload stored under *key*, or *default*."""
        node = self._root
        while True:
            i = _find(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                return node.vals[i]
            if node.leaf:
                return default
            node = node.children[i]

    def __contains__(self, key: Any) -> bool:
        _missing = object()
        return self.get(key, _missing) is not _missing

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        """Insert a unique key (KeyError on duplicates)."""
        root = self._root
        if len(root.keys) == 2 * self._t - 1:
            new_root = _Node(leaf=False)
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self._root = new_root
            root = new_root
        self._insert_nonfull(root, key, value)
        self._len += 1

    def _split_child(self, parent: _Node, i: int) -> None:
        t = self._t
        child = parent.children[i]
        sibling = _Node(leaf=child.leaf)
        mid_key = child.keys[t - 1]
        mid_val = child.vals[t - 1]
        sibling.keys = child.keys[t:]
        sibling.vals = child.vals[t:]
        child.keys = child.keys[: t - 1]
        child.vals = child.vals[: t - 1]
        if not child.leaf:
            sibling.children = child.children[t:]
            child.children = child.children[:t]
        parent.keys.insert(i, mid_key)
        parent.vals.insert(i, mid_val)
        parent.children.insert(i + 1, sibling)

    def _insert_nonfull(self, node: _Node, key: Any, value: Any) -> None:
        while True:
            i = _find(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                raise KeyError(f"duplicate key {id_repr(key)}")
            if node.leaf:
                node.keys.insert(i, key)
                node.vals.insert(i, value)
                return
            child = node.children[i]
            if len(child.keys) == 2 * self._t - 1:
                self._split_child(node, i)
                if key == node.keys[i]:
                    raise KeyError(f"duplicate key {id_repr(key)}")
                if key > node.keys[i]:
                    i += 1
            node = node.children[i]

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------
    def delete(self, key: Any) -> Any:
        """Remove *key* and return its payload (KeyError if absent)."""
        val = self._delete(self._root, key)
        if not self._root.leaf and not self._root.keys:
            self._root = self._root.children[0]
        self._len -= 1
        return val

    def _delete(self, node: _Node, key: Any) -> Any:
        t = self._t
        i = _find(node.keys, key)
        if i < len(node.keys) and node.keys[i] == key:
            if node.leaf:
                node.keys.pop(i)
                return node.vals.pop(i)
            return self._delete_internal(node, i)
        if node.leaf:
            raise KeyError(key)
        child = node.children[i]
        if len(child.keys) == t - 1:
            i = self._fill(node, i)
            return self._delete(node, key)  # structure changed; redo from node
        return self._delete(child, key)

    def _delete_internal(self, node: _Node, i: int) -> Any:
        t = self._t
        key, val = node.keys[i], node.vals[i]
        left, right = node.children[i], node.children[i + 1]
        if len(left.keys) >= t:
            pk, pv = self._max_entry(left)
            node.keys[i], node.vals[i] = pk, pv
            self._delete_with_fill(node, i, pk)
            return val
        if len(right.keys) >= t:
            sk, sv = self._min_entry(right)
            node.keys[i], node.vals[i] = sk, sv
            self._delete_with_fill(node, i + 1, sk)
            return val
        self._merge(node, i)
        self._delete(node.children[i], key)
        return val

    def _delete_with_fill(self, node: _Node, child_idx: int, key: Any) -> None:
        child = node.children[child_idx]
        if len(child.keys) == self._t - 1:
            child_idx = self._fill(node, child_idx)
            self._delete(node, key)
        else:
            self._delete(child, key)

    def _max_entry(self, node: _Node) -> Tuple[Any, Any]:
        while not node.leaf:
            node = node.children[-1]
        return node.keys[-1], node.vals[-1]

    def _min_entry(self, node: _Node) -> Tuple[Any, Any]:
        while not node.leaf:
            node = node.children[0]
        return node.keys[0], node.vals[0]

    def _fill(self, node: _Node, i: int) -> int:
        """Ensure child i has >= t keys by borrowing or merging.

        Returns the (possibly shifted) child index that now covers the
        key range of the original child.
        """
        t = self._t
        if i > 0 and len(node.children[i - 1].keys) >= t:
            self._borrow_prev(node, i)
            return i
        if i < len(node.children) - 1 and len(node.children[i + 1].keys) >= t:
            self._borrow_next(node, i)
            return i
        if i < len(node.children) - 1:
            self._merge(node, i)
            return i
        self._merge(node, i - 1)
        return i - 1

    def _borrow_prev(self, node: _Node, i: int) -> None:
        child, left = node.children[i], node.children[i - 1]
        child.keys.insert(0, node.keys[i - 1])
        child.vals.insert(0, node.vals[i - 1])
        node.keys[i - 1] = left.keys.pop()
        node.vals[i - 1] = left.vals.pop()
        if not left.leaf:
            child.children.insert(0, left.children.pop())

    def _borrow_next(self, node: _Node, i: int) -> None:
        child, right = node.children[i], node.children[i + 1]
        child.keys.append(node.keys[i])
        child.vals.append(node.vals[i])
        node.keys[i] = right.keys.pop(0)
        node.vals[i] = right.vals.pop(0)
        if not right.leaf:
            child.children.append(right.children.pop(0))

    def _merge(self, node: _Node, i: int) -> None:
        child, right = node.children[i], node.children[i + 1]
        child.keys.append(node.keys.pop(i))
        child.vals.append(node.vals.pop(i))
        child.keys.extend(right.keys)
        child.vals.extend(right.vals)
        if not child.leaf:
            child.children.extend(right.children)
        node.children.pop(i + 1)

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[Any, Any]]:
        """All entries in key order."""
        yield from self._iter(self._root, None, False)

    def items_greater(self, key: Any, inclusive: bool = False) -> Iterator[Tuple[Any, Any]]:
        """Entries with k > key (or k >= key when inclusive)."""
        yield from self._iter(self._root, key, inclusive)

    def items_less(self, key: Any, inclusive: bool = False) -> Iterator[Tuple[Any, Any]]:
        """Entries with k < key (or k <= key when inclusive)."""
        for k, v in self._iter(self._root, None, False):
            if k < key or (inclusive and k == key):
                yield k, v
            else:
                return

    def _iter(
        self, node: _Node, lower: Optional[Any], inclusive: bool
    ) -> Iterator[Tuple[Any, Any]]:
        if lower is None:
            start = 0
        else:
            start = _find(node.keys, lower)
        if node.leaf:
            for j in range(start, len(node.keys)):
                k = node.keys[j]
                if lower is None or k > lower or (inclusive and k == lower):
                    yield k, node.vals[j]
            return
        for j in range(start, len(node.keys)):
            yield from self._iter(node.children[j], lower, inclusive)
            k = node.keys[j]
            if lower is None or k > lower or (inclusive and k == lower):
                yield k, node.vals[j]
            # Past the bound, deeper children need no filtering.
            lower = None
            inclusive = False
        yield from self._iter(node.children[len(node.keys)], lower, inclusive)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if any B-tree invariant is violated."""
        if self._root.keys:
            self._check(self._root, None, None, is_root=True)
        depths = {d for d in self._leaf_depths(self._root, 0)}
        assert len(depths) <= 1, f"leaves at different depths: {depths}"

    def _check(self, node: _Node, lo: Any, hi: Any, is_root: bool = False) -> None:
        t = self._t
        assert node.keys == sorted(node.keys), "unsorted node"
        assert len(node.keys) == len(node.vals)
        if not is_root:
            assert t - 1 <= len(node.keys) <= 2 * t - 1, "key-count bounds"
        for k in node.keys:
            if lo is not None:
                assert k > lo
            if hi is not None:
                assert k < hi
        if not node.leaf:
            assert len(node.children) == len(node.keys) + 1
            bounds = [lo] + node.keys + [hi]
            for idx, child in enumerate(node.children):
                self._check(child, bounds[idx], bounds[idx + 1])

    def _leaf_depths(self, node: _Node, depth: int) -> Iterator[int]:
        if node.leaf:
            yield depth
        else:
            for child in node.children:
                yield from self._leaf_depths(child, depth + 1)
