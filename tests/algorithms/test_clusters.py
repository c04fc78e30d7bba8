"""Cluster storage and the two check kernels.

A cluster's subscription line holds int handles (what an engine's
``HandleTable`` hands out); the engine, not the cluster, turns them
into ids.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.algorithms import Cluster, ClusterList
from repro.algorithms.clusters import Homes
from repro.core.errors import ClusteringError


#: Handles of the kernel fixtures' members.
BOTH, FIRST, NONE = 0, 1, 2
ONE, TWO, ZERO = 0, 1, 2


def bits_with(set_indexes, size=32):
    arr = np.zeros(size, dtype=np.uint8)
    arr[list(set_indexes)] = 1
    return arr


class TestClusterMaintenance:
    def test_add_and_len(self):
        c = Cluster(size=2)
        c.add(4, [0, 1])
        c.add(9, [2, 3])
        assert len(c) == 2
        assert c.handles() == [4, 9]
        assert c.refs_matrix.tolist() == [[0, 2], [1, 3]]

    def test_wrong_ref_count_rejected(self):
        c = Cluster(size=2)
        with pytest.raises(ClusteringError):
            c.add(1, [0])
        assert len(c) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ClusteringError):
            Cluster(size=-1)

    def test_remove_swaps_with_last(self):
        c = Cluster(size=1)
        for i in range(4):
            c.add(10 + i, [i])
        # the last member takes column 1 and is reported as moved
        assert c.remove(1) == 13
        assert len(c) == 3
        assert c.handles() == [10, 13, 12]
        assert c.refs_matrix.tolist() == [[0, 3, 2]]
        # removing the last column moves nobody
        assert c.remove(2) is None
        assert c.handles() == [10, 13]

    def test_remove_unknown_raises(self):
        c = Cluster(size=1)
        c.add(0, [0])
        for column in (-1, 1):
            with pytest.raises(ClusteringError):
                c.remove(column)
        assert c.handles() == [0]

    def test_growth_beyond_initial_capacity(self):
        c = Cluster(size=3)
        for i in range(100):
            c.add(i, [i % 5, (i + 1) % 5, (i + 2) % 5])
        assert len(c) == 100
        assert c.handles() == list(range(100))
        assert c.refs_matrix[:, 73].tolist() == [73 % 5, 74 % 5, 75 % 5]

    def test_ids_snapshot(self):
        c = Cluster(size=0)
        c.add(7, [])
        c.add(3, [])
        snapshot = c.handles()
        assert snapshot == [7, 3]
        c.remove(0)
        assert snapshot == [7, 3] and c.handles() == [3]

    def test_memory_bytes_positive(self):
        c = Cluster(size=2)
        c.add(0, [0, 1])
        assert c.memory_bytes() > 0


class TestKernels:
    @pytest.fixture
    def cluster(self):
        c = Cluster(size=2)
        c.add(BOTH, [0, 1])     # needs bits 0 and 1
        c.add(FIRST, [0, 5])    # needs bits 0 and 5
        c.add(NONE, [6, 7])     # needs bits 6 and 7
        return c

    def test_scalar_matches(self, cluster):
        bits = bits_with({0, 1, 5})
        out = []
        cluster.match_scalar(bits, out)
        assert out == [BOTH, FIRST]

    def test_vector_matches(self, cluster):
        bits = bits_with({0, 1, 5})
        out = []
        cluster.match_vector(bits, out)
        assert out == [BOTH, FIRST]

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7])
    def test_kernels_agree_on_random_data(self, size):
        """Sizes 1–3 exercise the specialized unrolled kernels, larger
        sizes the generic nested loop; all must agree with the vector
        kernel."""
        rng = np.random.default_rng(size)
        c = Cluster(size=size)
        for i in range(200):
            c.add(i, rng.integers(0, 64, size=size).tolist())
        bits = (rng.random(64) < 0.5).astype(np.uint8)
        a, b = [], []
        assert c.match_scalar(bits, a) == c.match_vector(bits, b)
        assert sorted(a) == sorted(b)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_specialized_kernels_match_brute_force(self, size):
        rng = np.random.default_rng(10 + size)
        c = Cluster(size=size)
        refs = {}
        for i in range(50):
            r = rng.integers(0, 32, size=size).tolist()
            refs[i] = r
            c.add(i, r)
        bits = (rng.random(32) < 0.4).astype(np.uint8)
        out = []
        c.match_scalar(bits, out)
        expected = [i for i, r in refs.items() if all(bits[b] for b in r)]
        assert sorted(out) == sorted(expected)

    def test_scalar_counts_checks(self, cluster):
        bits = bits_with(set())
        out = []
        checks = cluster.match_scalar(bits, out)
        assert out == [] and checks == 3  # every member is one check

    def test_vector_counts_checks(self, cluster):
        bits = bits_with(set())
        out = []
        checks = cluster.match_vector(bits, out)
        assert out == [] and checks == 3

    def test_size_zero_cluster_always_matches(self):
        c = Cluster(size=0)
        c.add(5, [])
        out = []
        c.match_scalar(bits_with(set()), out)
        assert out == [5]
        out2 = []
        c.match_vector(bits_with(set()), out2)
        assert out2 == [5]

    def test_empty_cluster(self):
        c = Cluster(size=2)
        out = []
        assert c.match_scalar(bits_with({0}), out) == 0
        assert c.match_vector(bits_with({0}), out) == 0
        assert out == []


class TestClusterList:
    def test_groups_by_size(self):
        lst = ClusterList("key")
        lst.add(0, [0])
        lst.add(1, [0, 1])
        lst.add(2, [2])
        sizes = [c.size for c in lst.clusters()]
        assert sizes == [1, 2]
        assert len(lst) == 3

    def test_remove_prunes_empty_cluster(self):
        lst = ClusterList()
        home = lst.add(0, [0])
        assert home.owner is lst
        assert lst.remove(home, 0) is None
        assert len(lst) == 0 and not lst
        assert list(lst.clusters()) == []

    def test_remove_from_another_lists_cluster_raises(self):
        lst = ClusterList()
        lst.add(0, [0])
        foreign = ClusterList().add(0, [0])
        with pytest.raises(ClusteringError):
            lst.remove(foreign, 0)
        assert len(lst) == 1 and len(foreign) == 1

    def test_match_across_size_groups(self):
        lst = ClusterList()
        lst.add(ONE, [0])
        lst.add(TWO, [0, 1])
        lst.add(ZERO, [])
        bits = bits_with({0})
        out = []
        lst.match(bits, out, vectorized=False)
        assert sorted(out) == [ONE, ZERO]
        out2 = []
        lst.match(bits, out2, vectorized=True)
        assert sorted(out2) == [ONE, ZERO]

    def test_memory_bytes(self):
        lst = ClusterList()
        lst.add(0, [0, 1, 2])
        assert lst.memory_bytes() > 0


class TestHomes:
    """The engine-wide half of the subscription line: every handle's
    cluster and column, kept right across swap-with-last removals."""

    def test_evict_updates_the_moved_handles_column(self):
        lst, homes = ClusterList(), Homes()
        for handle in range(4):
            homes.settle(handle, lst.add(handle, [handle]))
        home = homes[1]
        assert homes.members([lst], range(4)) == dict.fromkeys(range(4), home)
        homes.evict(1, lst)
        assert homes[1] is None
        assert home.handles() == [0, 3, 2]
        assert homes.members([lst], [0, 2, 3]) == dict.fromkeys([0, 3, 2], home)
        homes._column[3] = 2
        with pytest.raises(AssertionError, match="column drift"):
            homes.members([lst], [0, 2, 3])

    def test_a_freed_handle_is_settled_again(self):
        lst, homes = ClusterList(), Homes()
        for handle in range(20):
            homes.settle(handle, lst.add(handle, [0, 1][: handle % 2]))
        homes.evict(5, lst)
        with pytest.raises(AssertionError, match="membership drift"):
            homes.members([lst], range(20))
        homes.settle(5, lst.add(5, []))
        assert sorted(homes.members([lst], range(20))) == list(range(20))


class ClusterModel(RuleBasedStateMachine):
    """A cluster's pending columns against a plain list of columns.

    Adds go to the pending buffer and every reader folds it in first,
    so any interleaving of adds, block extends, removes and reads must
    look exactly like appending to and swapping in a list."""

    @initialize(size=st.integers(0, 4))
    def start(self, size):
        self.cluster = Cluster(size)
        self.size = size
        self.model = []  # (handle, refs) per column

    refs = st.lists(st.integers(0, 31), min_size=0, max_size=4)

    @rule(handle=st.integers(0, 10**6), refs=refs)
    def add(self, handle, refs):
        refs = (refs * 4)[: self.size] if refs else [0] * self.size
        self.cluster.add(handle, refs)
        self.model.append((handle, refs))

    @rule(columns=st.lists(st.tuples(st.integers(0, 10**6), refs), max_size=5))
    def extend(self, columns):
        columns = [(h, ((r * 4)[: self.size] if r else [0] * self.size)) for h, r in columns]
        block = np.array(
            [[h for h, _ in columns]] + [[r[i] for _, r in columns] for i in range(self.size)],
            dtype=np.int32,
        ).reshape(1 + self.size, len(columns))
        self.cluster.extend(block)
        self.model.extend(columns)

    @rule(data=st.data())
    def remove(self, data):
        if not self.model:
            with pytest.raises(ClusteringError):
                self.cluster.remove(0)
            return
        column = data.draw(st.integers(0, len(self.model) - 1))
        last = self.model.pop()
        moved = None
        if column < len(self.model):
            self.model[column] = last
            moved = last[0]
        assert self.cluster.remove(column) == moved

    @rule(bits=st.lists(st.booleans(), min_size=32, max_size=32))
    def match(self, bits):
        bits = np.array(bits, dtype=np.uint8)
        expected = [h for h, refs in self.model if all(bits[b] for b in refs)]
        scalar, vector = [], []
        assert self.cluster.match_scalar(bits, scalar) == len(self.model)
        assert self.cluster.match_vector(bits, vector) == len(self.model)
        assert scalar == vector == expected

    @rule(rows=st.lists(st.lists(st.booleans(), min_size=32, max_size=32), min_size=1, max_size=3))
    def match_rows(self, rows):
        truth = np.array(rows, dtype=bool)
        out = [[] for _ in rows]
        checked = self.cluster.match_rows(truth, np.arange(len(rows)), out)
        assert checked == len(self.model) * len(rows)
        for row, got in zip(truth, out):
            assert got == [h for h, refs in self.model if all(row[b] for b in refs)]

    @rule()
    def read(self):
        assert self.cluster.handles() == [h for h, _ in self.model]
        matrix = self.cluster.refs_matrix
        if self.size:
            assert matrix.T.tolist() == [refs for _, refs in self.model]
        else:
            assert matrix is None
        assert self.cluster.memory_bytes() >= 4 * (1 + self.size) * len(self.model)

    @invariant()
    def length(self):
        if hasattr(self, "cluster"):
            assert len(self.cluster) == len(self.model)


TestClusterModel = ClusterModel.TestCase
TestClusterModel.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)


def test_a_load_writes_the_matrix_once():
    """Inserts stay pending; the first reader folds them in one block."""
    c = Cluster(size=2)
    for i in range(100):
        c.add(i, [i, i + 1])
    assert c._columns.shape[1] == 0 and len(c) == 100
    assert c.handles() == list(range(100))
    assert c._columns.shape[1] == 100 and c._pending is None
    c.add(100, [0, 0])
    assert c._columns.shape[1] == 100 and len(c) == 101
    assert c.remove(0) == 100
    assert c._columns.shape[1] == 200 and c.handles()[:2] == [100, 1]
