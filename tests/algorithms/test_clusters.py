"""Cluster storage and the two check kernels.

A cluster's subscription line holds int handles (what an engine's
``HandleTable`` hands out); the engine, not the cluster, turns them
into ids.
"""

import numpy as np
import pytest

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
