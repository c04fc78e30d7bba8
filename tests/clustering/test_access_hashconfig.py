"""Access predicates and multi-attribute hash tables."""

import pytest

from repro.clustering import (
    HashingConfiguration,
    MultiAttrHashTable,
    key_for_schema,
    normalize_schema,
)
from repro.core import Event, Subscription, eq, le
from repro.core.errors import ClusteringError

# The validated object form of an access predicate is the placement
# differential's reference model; src/ keeps only ``key_for_schema``.
from tests.properties.test_prop_placement import AccessPredicate, access_for_schema


class TestAccessPredicate:
    def test_schema_and_key_sorted_by_attribute(self):
        ap = AccessPredicate([eq("b", 2), eq("a", 1)])
        assert ap.schema == ("a", "b")
        assert ap.key == (1, 2)

    def test_rejects_non_equality(self):
        with pytest.raises(ClusteringError):
            AccessPredicate([le("a", 1)])

    def test_rejects_duplicate_attribute(self):
        with pytest.raises(ClusteringError):
            AccessPredicate([eq("a", 1), eq("a", 2)])

    def test_rejects_empty(self):
        with pytest.raises(ClusteringError):
            AccessPredicate([])

    def test_equality_and_hash(self):
        assert AccessPredicate([eq("a", 1)]) == AccessPredicate([eq("a", 1)])
        assert hash(AccessPredicate([eq("a", 1)])) == hash(AccessPredicate([eq("a", 1)]))

    def test_immutable(self):
        ap = AccessPredicate([eq("a", 1)])
        with pytest.raises(AttributeError):
            ap.key = (9,)


class TestSchemaHelpers:
    def test_normalize_schema(self):
        assert normalize_schema(["b", "a", "b"]) == ("a", "b")

    def test_access_for_schema(self):
        sub = Subscription("s", [le("p", 9), eq("b", 2), eq("a", 1)])
        ap = access_for_schema(sub, ("a", "b"))
        assert ap.key == (1, 2)

    def test_access_for_schema_missing_attr_raises(self):
        sub = Subscription("s", [eq("a", 1)])
        with pytest.raises(ClusteringError):
            access_for_schema(sub, ("a", "b"))

    def test_key_for_schema(self):
        sub = Subscription("s", [eq("b", 2), eq("a", 1)])
        assert key_for_schema(sub, ("a", "b")) == (1, 2)

    def test_key_for_schema_missing_raises(self):
        with pytest.raises(ClusteringError):
            key_for_schema(Subscription("s", [eq("a", 1)]), ("a", "z"))

    def test_key_for_schema_names_an_id_without_a_repr(self):
        with pytest.raises(ClusteringError, match=r"subscription <int of \d+ bits> lacks"):
            key_for_schema(Subscription(10**5000, [eq("a", 1)]), ("a", "z"))

    def test_key_uses_first_equality_per_attribute(self):
        # Contradictory but legal: two equalities on one attribute.
        sub = Subscription("s", [eq("a", 1), eq("a", 2)])
        ap = access_for_schema(sub, ("a",))
        assert ap.key == (1,)
        assert key_for_schema(sub, ("a",)) == (1,)


class TestMultiAttrHashTable:
    def test_schema_validation(self):
        with pytest.raises(ValueError):
            MultiAttrHashTable(("b", "a"))
        with pytest.raises(ValueError):
            MultiAttrHashTable(())

    def test_add_probe(self):
        t = MultiAttrHashTable(("a", "b"))
        t.add(0, (1, 2), [7])
        lst = t.probe(Event({"a": 1, "b": 2, "c": 9}))
        assert lst is not None and len(lst) == 1

    def test_probe_missing_attribute_is_none(self):
        t = MultiAttrHashTable(("a", "b"))
        t.add(0, (1, 2), [7])
        assert t.probe(Event({"a": 1})) is None

    def test_probe_unknown_combination_is_none(self):
        t = MultiAttrHashTable(("a",))
        t.add(0, (1,), [])
        assert t.probe(Event({"a": 99})) is None

    def test_remove_prunes_entry(self):
        t = MultiAttrHashTable(("a",))
        home = t.add(0, (1,), [5])
        assert home.owner.key == (("a",), (1,)) and home.size == 1
        assert t.remove(home, 0) is None
        assert t.entry_count == 0 and len(t) == 0

    def test_remove_from_another_tables_cluster_raises(self):
        t = MultiAttrHashTable(("a",))
        t.add(0, (1,), [5])
        foreign = MultiAttrHashTable(("a",)).add(0, (1,), [5])
        with pytest.raises(ClusteringError):
            t.remove(foreign, 0)
        assert len(t) == 1

    def test_counts(self):
        t = MultiAttrHashTable(("a",))
        t.add(0, (1,), [5])
        t.add(1, (1,), [6])
        t.add(2, (2,), [7])
        assert len(t) == 3 and t.entry_count == 2

    def test_memory_bytes(self):
        t = MultiAttrHashTable(("a",))
        t.add(0, (1,), [5])
        assert t.memory_bytes() > 0


class TestHashingConfiguration:
    def test_ensure_and_drop(self):
        cfg = HashingConfiguration()
        t = cfg.ensure_table(("a",))
        assert cfg.ensure_table(("a",)) is t
        assert ("a",) in cfg and len(cfg) == 1
        cfg.drop_table(("a",))
        assert ("a",) not in cfg

    def test_drop_missing_raises(self):
        with pytest.raises(KeyError):
            HashingConfiguration().drop_table(("a",))

    def test_version_moves_with_the_table_set_only(self):
        cfg = HashingConfiguration()
        seen = [cfg.version]
        cfg.ensure_table(("a",))
        seen.append(cfg.version)
        cfg.ensure_table(("a",)).add(0, (1,), [5])  # no new table
        assert cfg.version == seen[-1]
        cfg.drop_table(("a",))
        seen.append(cfg.version)
        with pytest.raises(KeyError):
            cfg.drop_table(("a",))
        assert cfg.version == seen[-1]
        assert len(set(seen)) == 3
        with pytest.raises(AttributeError):
            cfg.version = 0

    def test_eligible_schemas(self):
        cfg = HashingConfiguration()
        cfg.ensure_table(("a",))
        cfg.ensure_table(("a", "b"))
        cfg.ensure_table(("c",))
        eligible = cfg.eligible_schemas(frozenset({"a", "b"}))
        assert sorted(eligible) == [("a",), ("a", "b")]

    def test_schemas_and_tables(self):
        cfg = HashingConfiguration()
        cfg.ensure_table(("a",))
        cfg.ensure_table(("b",))
        assert set(cfg.schemas()) == {("a",), ("b",)}
        assert len(list(cfg.tables())) == 2
