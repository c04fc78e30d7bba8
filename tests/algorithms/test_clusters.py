"""Cluster storage and the two check kernels."""

import numpy as np
import pytest

from repro.algorithms import Cluster, ClusterList
from repro.core.errors import ClusteringError


def bits_with(set_indexes, size=32):
    arr = np.zeros(size, dtype=np.uint8)
    arr[list(set_indexes)] = 1
    return arr


class TestClusterMaintenance:
    def test_add_and_len(self):
        c = Cluster(size=2)
        c.add("s1", [0, 1])
        c.add("s2", [2, 3])
        assert len(c) == 2
        assert "s1" in c and "s3" not in c

    def test_wrong_ref_count_rejected(self):
        c = Cluster(size=2)
        with pytest.raises(ClusteringError):
            c.add("s1", [0])

    def test_duplicate_member_rejected(self):
        c = Cluster(size=1)
        c.add("s1", [0])
        with pytest.raises(ClusteringError):
            c.add("s1", [1])

    def test_negative_size_rejected(self):
        with pytest.raises(ClusteringError):
            Cluster(size=-1)

    def test_remove_swaps_with_last(self):
        c = Cluster(size=1)
        for i in range(4):
            c.add(f"s{i}", [i])
        refs = c.remove("s1")
        assert refs.tolist() == [1]
        assert len(c) == 3
        # the last member took s1's column; refs must still be correct
        assert c.refs_of("s3").tolist() == [3]

    def test_remove_unknown_raises(self):
        c = Cluster(size=1)
        with pytest.raises(ClusteringError):
            c.remove("nope")

    def test_growth_beyond_initial_capacity(self):
        c = Cluster(size=3)
        for i in range(100):
            c.add(f"s{i}", [i % 5, (i + 1) % 5, (i + 2) % 5])
        assert len(c) == 100
        assert c.refs_of("s73").tolist() == [73 % 5, 74 % 5, 75 % 5]

    def test_ids_snapshot(self):
        c = Cluster(size=0)
        c.add("a", [])
        c.add("b", [])
        assert c.ids() == ("a", "b")

    def test_memory_bytes_positive(self):
        c = Cluster(size=2)
        c.add("s", [0, 1])
        assert c.memory_bytes() > 0


class TestKernels:
    @pytest.fixture
    def cluster(self):
        c = Cluster(size=2)
        c.add("both", [0, 1])     # needs bits 0 and 1
        c.add("first", [0, 5])    # needs bits 0 and 5
        c.add("none", [6, 7])     # needs bits 6 and 7
        return c

    def test_scalar_matches(self, cluster):
        bits = bits_with({0, 1, 5})
        out = []
        cluster.match_scalar(bits, out)
        assert sorted(out) == ["both", "first"]

    def test_vector_matches(self, cluster):
        bits = bits_with({0, 1, 5})
        out = []
        cluster.match_vector(bits, out)
        assert sorted(out) == ["both", "first"]

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
        c.add("s1", [])
        out = []
        c.match_scalar(bits_with(set()), out)
        assert out == ["s1"]
        out2 = []
        c.match_vector(bits_with(set()), out2)
        assert out2 == ["s1"]

    def test_empty_cluster(self):
        c = Cluster(size=2)
        out = []
        assert c.match_scalar(bits_with({0}), out) == 0
        assert c.match_vector(bits_with({0}), out) == 0
        assert out == []


class TestClusterList:
    def test_groups_by_size(self):
        lst = ClusterList("key")
        lst.add("a", [0])
        lst.add("b", [0, 1])
        lst.add("c", [2])
        sizes = [c.size for c in lst.clusters()]
        assert sizes == [1, 2]
        assert len(lst) == 3

    def test_remove_prunes_empty_cluster(self):
        lst = ClusterList()
        home = lst.add("a", [0])
        assert home.owner is lst
        lst.remove("a", home)
        assert len(lst) == 0 and not lst
        assert list(lst.clusters()) == []

    def test_remove_from_another_lists_cluster_raises(self):
        lst = ClusterList()
        lst.add("a", [0])
        foreign = ClusterList().add("a", [0])
        with pytest.raises(ClusteringError):
            lst.remove("a", foreign)
        assert len(lst) == 1

    def test_match_across_size_groups(self):
        lst = ClusterList()
        lst.add("one", [0])
        lst.add("two", [0, 1])
        lst.add("zero", [])
        bits = bits_with({0})
        out = []
        lst.match(bits, out, vectorized=False)
        assert sorted(out) == ["one", "zero"]
        out2 = []
        lst.match(bits, out2, vectorized=True)
        assert sorted(out2) == ["one", "zero"]

    def test_memory_bytes(self):
        lst = ClusterList()
        lst.add("a", [0, 1, 2])
        assert lst.memory_bytes() > 0
