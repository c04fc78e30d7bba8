"""API quality gates: public surface is documented and importable."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import textwrap

import pytest

import repro
from repro.core.matcher import Matcher, MatcherWrapper

PACKAGES = [
    "repro",
    "repro.core",
    "repro.indexes",
    "repro.algorithms",
    "repro.clustering",
    "repro.matchers",
    "repro.obs",
    "repro.cache",
    "repro.workload",
    "repro.system",
    "repro.lang",
    "repro.sqltrigger",
    "repro.analysis",
    "repro.bench",
]


def public_modules():
    """Every repro module (recursively), import-checked.

    ``repro.__main__`` is excluded: importing it runs the CLI.
    """
    out = []
    for modinfo in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if modinfo.name.endswith("__main__"):
            continue
        out.append(modinfo.name)
    return out


class TestImportability:
    @pytest.mark.parametrize("name", public_modules())
    def test_every_module_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        mod = importlib.import_module(package)
        exported = getattr(mod, "__all__", [])
        for name in exported:
            assert hasattr(mod, name), f"{package}.__all__ lists missing {name!r}"

    def test_top_level_all_sorted_unique(self):
        names = [n for n in repro.__all__]
        assert len(names) == len(set(names))


class TestDocstrings:
    @pytest.mark.parametrize("name", public_modules())
    def test_module_docstrings(self, name):
        mod = importlib.import_module(name)
        assert inspect.getdoc(mod), f"{name} lacks a module docstring"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_exported_objects_documented(self, package):
        mod = importlib.import_module(package)
        undocumented = []
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(name)
        assert not undocumented, f"{package}: undocumented exports {undocumented}"

    def test_public_methods_of_core_classes_documented(self):
        from repro.core import BitVector, Event, Matcher, Predicate, Subscription
        from repro.matchers import DynamicMatcher, StaticMatcher

        undocumented = []
        for cls in (Predicate, Subscription, Event, BitVector, Matcher,
                    DynamicMatcher, StaticMatcher):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                if not inspect.getdoc(member):
                    undocumented.append(f"{cls.__name__}.{name}")
        assert not undocumented, undocumented


def _matcher_subclasses():
    """Every ``Matcher`` subclass any imported module defines."""
    for name in public_modules():
        importlib.import_module(name)  # so __subclasses__ sees them all

    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    return set(walk(Matcher))


class TestMatchSurface:
    def test_match_entry_points_are_exactly_match_and_match_batch(self):
        """One scalar entry point, one batch entry point — on the
        interface and on every engine and wrapper that implements it."""
        offenders = {}
        for cls in {Matcher, *_matcher_subclasses()}:
            surface = {
                name
                for name in dir(cls)
                if name.startswith("match") and callable(getattr(cls, name))
            }
            if surface != {"match", "match_batch"}:
                offenders[f"{cls.__module__}.{cls.__name__}"] = sorted(surface)
        assert not offenders, offenders


def _functions_where(test, skip=None):
    """``path:qualified.function`` of every function in ``src/repro``
    (one named *skip* aside) whose body holds a node *test* accepts."""
    src = pathlib.Path(repro.__file__).parent
    found = []

    def visit(node, qualname, path):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                continue
            inner = f"{qualname}.{child.name}" if qualname else child.name
            if (
                isinstance(child, ast.FunctionDef)
                and child.name != skip
                and any(test(n) for n in ast.walk(child))
            ):
                found.append(f"{path}:{inner}")
            visit(child, inner, path)

    for file in sorted(src.rglob("*.py")):
        visit(ast.parse(file.read_text(encoding="utf-8")), "", file.relative_to(src).as_posix())
    return found


def _functions_referencing(name, attribute_of=None):
    """``path:qualified.function`` of every function in ``src/repro``
    whose body mentions *name* (as ``<attribute_of>.<name>`` if given),
    the definition of *name* itself aside."""

    def mentions(node):
        if attribute_of is None:
            return isinstance(node, ast.Name) and node.id == name
        return (
            isinstance(node, ast.Attribute)
            and node.attr == name
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == attribute_of
        )

    return _functions_where(mentions, skip=name)


class TestDurableSurface:
    """One durable file, one reader; and the process layer's settable
    values stay the ones something sets."""

    @staticmethod
    def params(func):
        return [
            (p.name, p.default)
            for p in inspect.signature(func).parameters.values()
            if p.name != "self"
        ]

    def test_a_snapshot_is_a_compacted_wal(self):
        import repro.system as system

        assert not [n for n in system.__all__ if "snapshot" in n.lower()]
        broker = ("broker", inspect.Parameter.empty)
        assert self.params(system.recover) == [broker, ("wal_fp", None), ("metrics", None)]
        assert self.params(system.recover_files) == [broker, ("wal_path", None), ("metrics", None)]
        assert self.params(system.WriteAheadLog.compact) == []
        assert not [k for k in system.RecoveryReport().as_dict() if "snapshot" in k]

    def test_one_function_parses_wal_lines(self):
        """``_parse_line`` / ``_check_header`` — what a line means and
        what a log's first line must be — have one caller in ``src/``:
        the streaming reader every other reader folds over."""
        assert _functions_referencing("_parse_line") == ["system/wal.py:WalReader.__iter__"]
        assert _functions_referencing("_check_header") == ["system/wal.py:WalReader.__iter__"]
        # ... and the folds do no line handling of their own.
        import repro.cli as cli
        import repro.system.recovery as recovery
        import repro.system.wal as wal

        for func in (wal.scan_valid_prefix, wal.read_wal, recovery.recover, cli._read_ledger):
            source = inspect.getsource(func)
            assert "WalReader(" in source, func
            for banned in ("json.loads", ".split(", ".readline(", ".read()", "in RECORD_TYPES"):
                assert banned not in source, (func, banned)

    def test_a_server_takes_a_ready_broker_for_its_wal_and_delivery(self):
        from repro.system import BatchServer

        assert [n for n, _ in self.params(BatchServer.__init__)] == [
            "matcher", "workers", "metrics", "queue_limit", "admission",
        ]  # fmt: skip

    def test_process_layer_constructor_surface(self):
        from repro.system.procpool import CODECS, ProcessPool
        from repro.system.sharding import ShardedMatcher

        assert CODECS == ("auto", "shm")
        assert [n for n, _ in self.params(ShardedMatcher.__init__)] == [
            "shards", "router", "inner", "parallel", "breaker",
            "slow_match_seconds", "executor", "worker_timeout", "codec",
        ]  # fmt: skip
        assert [n for n, _ in self.params(ProcessPool.__init__)] == [
            "factories", "request_timeout", "codec", "metrics",
        ]  # fmt: skip


class TestWorkerWire:
    """One form per direction between parent and shard workers: events
    go out as a ``ColumnarBatch`` (through the arena's slot ring under
    ``shm``), replies come back over the pipe as sparse hit indices.
    The arena has no reply direction to size, fill or fall back from."""

    def test_the_arena_is_an_event_slot_ring_only(self):
        from repro.system import shm
        from repro.system.procpool import SHM_FALLBACK_REASONS

        assert SHM_FALLBACK_REASONS == ("oddpath", "slot_wait", "slot_full")
        names = [n for n in dir(shm) + dir(shm.ShmArena) if "result" in n.lower()]
        assert not names, names
        assert list(inspect.signature(shm.ShmArena.create).parameters) == ["slots", "slot_bytes"]

    def test_replies_have_one_form(self):
        from repro.core.handles import HandleTable
        from repro.system.procpool import decode_results, encode_results

        table = HandleTable()
        for sub_id in ("gone", "a", ("b", 1), 7):
            table.put(repro.core.Subscription(sub_id, [repro.core.eq("x", 1)]))
        table.drop("gone")  # handle 0 is a hole
        handle_of = {sub_id: table.handle_of(sub_id) for sub_id in ("a", ("b", 1), 7)}
        cases = [[], [[]], [["a"], [7, "a", ("b", 1)], []], [list(handle_of)] * 3]
        assert {encode_results(lists, handle_of)[0] for lists in cases} == {"hits"}
        assert decode_results(encode_results(cases[2], handle_of), table) == [
            ["a"], ["a", ("b", 1), 7], []
        ]
        with pytest.raises(KeyError):  # an engine inventing ids is a worker error
            encode_results([["a"], ["stranger"]], handle_of)
        assert encode_results([], {})[0] == "hits"  # an empty table is no special case

    def test_one_event_is_a_batch_of_one_on_the_pipe(self):
        from repro.system import procpool

        assert procpool._IPC_OPS == ("mutate", "batch", "control")

    def test_a_live_shm_pool_owns_exactly_one_segment(self):
        from repro.system.procpool import ProcessPool
        from tests.conftest import shm_entries

        before = shm_entries()
        with ProcessPool([repro.core.OracleMatcher] * 3, codec="shm") as pool:
            created = shm_entries() - before
            assert len(created) == 1
            assert pool.stats()["shm"]["segments"] == sorted(created)
            assert set(pool.stats()["shm"]["bytes"]) == {"publish"}
        assert shm_entries() == before


class TestLeaseLifecycle:
    """``system/delivery.py``: a lease has one way into a channel's
    window (``_open``) and one way out (``_close``), so the bookkeeping
    around them is written once."""

    @staticmethod
    def sites(test):
        """The function (``Class.method``) around every node *test*
        accepts, one entry per node, sorted."""
        path = pathlib.Path(repro.__file__).parent / "system" / "delivery.py"
        found = []
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef):
                for func in cls.body:
                    if isinstance(func, ast.FunctionDef):
                        hits = sum(1 for node in ast.walk(func) if test(node))
                        found += [f"{cls.name}.{func.name}"] * hits
        return sorted(found)

    @staticmethod
    def calls(name):
        def test(node):
            func = getattr(node, "func", None)
            return isinstance(node, ast.Call) and name in (
                getattr(func, "id", None),
                getattr(func, "attr", None),
            )

        return test

    def test_the_running_count_moves_in_open_and_close_only(self):
        def assigns(node):
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            return isinstance(node, (ast.Assign, ast.AugAssign)) and any(
                getattr(t, "attr", None) == "_outstanding_total" for t in targets
            )

        assert self.sites(assigns) == [
            "DeliveryManager.__init__", "DeliveryManager._close", "DeliveryManager._open",
        ]  # fmt: skip

    def test_a_settle_is_journaled_by_the_close_step(self):
        # ... redrive (the dead letter's old seq) and the auto-ack fast
        # path (no lease ever rests) being the two documented others.
        assert self.sites(self.calls("append_settle")) == ["DeliveryManager._journal_settle"]
        assert self.sites(self.calls("_journal_settle")) == [
            "DeliveryManager._close", "DeliveryManager._dispatch_one", "DeliveryManager.redrive",
        ]  # fmt: skip

    def test_one_constructor_one_window_one_drain_one_lease_out(self):
        assert self.sites(self.calls("Lease")) == ["DeliveryManager._open"]
        import repro.system.delivery as delivery

        assert not hasattr(delivery, "deque")

        def window_store(node):
            return (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and getattr(node.value, "attr", None) == "_window"
            )

        assert self.sites(window_store) == ["DeliveryManager._close", "SubscriberChannel._rest"]
        assert set(self.sites(self.calls("_drain"))) == {
            "DeliveryManager.disconnect", "DeliveryManager.unregister",
        }  # fmt: skip
        assert self.sites(self.calls("_lease_out")) == [
            "DeliveryManager._send", "DeliveryManager.poll",
        ]  # fmt: skip



class TestOneCountPerFact:
    """A number its owner keeps (a size, a lifetime count) reaches the
    registry through a reader bound once in ``_bind_metrics``; nothing
    copies it in at mutation sites, so the two cannot drift apart."""

    #: The one gauge still set by hand, and why.
    SET_ALLOWED = {
        # ``repro_breaker_state``: reading ``CircuitBreaker.state``
        # advances open -> half-open, and a metrics read must not
        # change state, so the breaker's transition hook pushes it.
        "system/sharding.py:ShardedMatcher._bind_metrics",
        "system/sharding.py:ShardedMatcher._on_breaker_transition",
    }

    def test_nothing_refreshes_gauges(self):
        def mentions(node):  # a definition, a call or any other reference
            name = getattr(node, "name", None) or getattr(node, "attr", None)
            return isinstance(name, str) and "refresh_gauges" in name

        assert _functions_where(mentions) == []

    def test_no_gauge_is_set_outside_obs_but_the_breaker_state(self):
        def sets(node):
            func = getattr(node, "func", None)
            return (
                isinstance(node, ast.Call)
                and getattr(func, "attr", None) == "set"
                and len(node.args) == 1
            )

        found = {f for f in _functions_where(sets) if not f.startswith("obs/")}
        assert found == self.SET_ALLOWED

    def test_the_auto_ack_fast_path_counts_in_the_channel_only(self):
        touched = TestLeaseLifecycle.sites(
            lambda node: isinstance(node, ast.Attribute) and node.attr == "_m_acks"
        )
        assert touched == []  # _dispatch_one bumped it beside channel.acks


class TestFlatDeliveryState:
    """``system/delivery.py``: an idle subscriber costs bytes, not
    objects.  Channels, leases and the shared channel policy are slotted;
    a channel's counters are int slots and ``counters`` is a snapshot, so
    a write through it would vanish; the dead manager back-reference
    stays gone."""

    def test_channels_leases_and_policies_are_slotted(self):
        from repro.system.delivery import Lease, SubscriberChannel, _ChannelPolicy

        for cls in (SubscriberChannel, Lease, _ChannelPolicy):
            assert "__slots__" in vars(cls), cls
            assert not [k for k in cls.__mro__ if "__dict__" in vars(k)], cls

    def test_nothing_writes_through_a_counters_snapshot(self):
        def writes_counters(node, foreign_only):
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            return isinstance(node, (ast.Assign, ast.AugAssign)) and any(
                isinstance(t, ast.Subscript)
                and getattr(t.value, "attr", None) == "counters"
                and not (foreign_only and getattr(t.value.value, "id", None) == "self")
                for t in targets
            )

        foreign = _functions_where(lambda n: writes_counters(n, foreign_only=True))
        assert not [w for w in foreign if w.startswith("system/")], foreign
        own = _functions_where(lambda n: writes_counters(n, foreign_only=False))
        assert not [w for w in own if w.startswith("system/delivery.py")], own

    def test_nothing_holds_a_manager_back_reference(self):
        assert not _functions_where(lambda n: getattr(n, "attr", None) == "_manager")


class TestOneSubscriptionTable:
    """``system/broker.py``: a subscription's deadline and formula live
    in one ``SubscriptionTable``, written by one way in and one way out,
    and recovery replays into the same class."""

    TABLE_STATE = ("_sub_expires", "_sub_expiry_heap", "_expiry_tie", "_formula_disjuncts")

    def test_only_the_table_touches_its_maps_and_heap(self):
        def inside(found):
            return [f for f in found if not f.startswith("system/broker.py:SubscriptionTable.")]

        touching = _functions_where(
            lambda n: isinstance(n, ast.Attribute) and n.attr in self.TABLE_STATE
        )
        assert touching and not inside(touching), touching
        # ``logical_of`` is read once per publish batch, written nowhere else.
        readers = _functions_where(
            lambda n: isinstance(n, ast.Attribute) and n.attr == "logical_of"
        )
        assert inside(readers) == ["system/broker.py:PubSubBroker.publish_batch"], readers

        def writes_logical_of(node):
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                return False
            for target in getattr(node, "targets", None) or [node.target]:
                owner = getattr(target, "value", None)  # ``x.logical_of[k] = v``
                if "logical_of" in (getattr(target, "attr", None), getattr(owner, "attr", None)):
                    return True
            return False

        assert not inside(_functions_where(writes_logical_of))

    def test_the_matcher_is_written_only_by_install_and_uninstall(self):
        for op, writer in (("add", "_install"), ("remove", "_uninstall")):
            found = _functions_referencing(op, attribute_of="matcher")
            assert [f for f in found if f.startswith("system/broker.py:")] == [
                f"system/broker.py:PubSubBroker.{writer}"
            ], found

    def test_recovery_keeps_no_table_of_its_own(self):
        import repro.system.recovery as recovery

        tree = ast.parse(inspect.getsource(recovery))
        classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
        assert not classes & {"_Table", "_Entry"}, classes
        assert "SubscriptionTable()" in inspect.getsource(recovery.fold_log)

    def test_formulas_and_restores_journal_nothing_to_suppress(self):
        from repro.system import PubSubBroker

        assert not hasattr(PubSubBroker, "wal_suppressed")
        for method in (PubSubBroker.subscribe_formula, PubSubBroker.restore_subscription):
            assert "wal_suppressed" not in inspect.getsource(method), method


class TestOneWritePath:
    """``system/broker.py``: ``subscribe_batch`` / ``unsubscribe_batch``
    are the bodies and the single calls are batches of one; a retained
    event reaches a new subscriber through the pair index and the same
    dispatch step as a published one."""

    @staticmethod
    def _body(method):
        return ast.parse(textwrap.dedent(inspect.getsource(method))).body[0]

    def _self_calls(self, method):
        return {
            node.func.attr
            for node in ast.walk(self._body(method))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and getattr(node.func.value, "id", None) == "self"
        }

    def test_the_retired_paths_are_gone(self):
        from repro.system import EventStore, PubSubBroker

        assert not hasattr(PubSubBroker, "_notify")
        assert not hasattr(EventStore, "valid_events")
        assert not hasattr(PubSubBroker, "_wal_batch")

    def test_the_single_calls_are_batches_of_one(self):
        from repro.system import PubSubBroker as B

        loops = (ast.For, ast.While, ast.comprehension)
        pairs = ((B.subscribe, "_subscribe_batch"), (B.unsubscribe, "unsubscribe_batch"))
        for single, batch in pairs:
            assert not [n for n in ast.walk(self._body(single)) if isinstance(n, loops)], single
            assert self._self_calls(single) == {batch}, single
        assert self._self_calls(B.subscribe_batch) == {"_subscribe_batch"}
        assert "subscribe" not in self._self_calls(B._subscribe_batch)
        assert "unsubscribe" not in self._self_calls(B.unsubscribe_batch)

    def test_one_admit_one_retro_match_one_dispatch(self):
        from repro.system import PubSubBroker as B

        for entry in (B._subscribe_batch, B.subscribe_formula):
            assert "_admit" in self._self_calls(entry), entry
        assert _functions_referencing("retro_match", attribute_of="_events") == [
            "system/broker.py:PubSubBroker._admit"
        ]
        for sends in (
            lambda n: getattr(n, "attr", None) in ("dispatch_matches", "dispatch"),
            lambda n: getattr(n, "id", None) == "Notification",
        ):
            found = [f for f in _functions_where(sends) if f.startswith("system/broker.py:")]
            assert found == ["system/broker.py:PubSubBroker._dispatch"], found
        assert {"_dispatch"} <= self._self_calls(B.publish_batch) & self._self_calls(B._admit)


class TestTheLogCompactsItself:
    """``WriteAheadLog.compact`` runs recovery's fold over the log and
    writes the result back: it reads no broker or delivery-manager
    state, so a compacted log recovers to what the log as written does."""

    def test_the_log_module_imports_neither_broker_nor_delivery(self):
        import repro.system.wal as wal

        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(wal))):  # TYPE_CHECKING blocks too
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        assert imported and not [
            name for name in imported if {"broker", "delivery"} & set(name.split("."))
        ], sorted(imported)

    def test_compact_takes_no_broker(self):
        from repro.system import WriteAheadLog

        assert list(inspect.signature(WriteAheadLog.compact).parameters) == ["self"]

    def test_the_live_state_writers_are_gone(self):
        import repro.system as system
        import repro.system.wal as wal
        from repro.system import PubSubBroker

        assert not hasattr(wal, "write_compacted") and not hasattr(system, "write_compacted")
        assert "write_compacted" not in system.__all__
        assert not hasattr(PubSubBroker, "durable_subscriptions")

    def test_one_fold_for_recovery_and_compaction(self, tmp_path, monkeypatch):
        import repro.system.recovery as recovery
        from repro.core import Subscription, eq
        from repro.system import PubSubBroker, VirtualClock, WriteAheadLog, recover_files

        assert _functions_referencing("fold_log") == [
            "cli.py:_read_ledger",  # ``repro deliveries`` / ``repro dlq``
            "system/recovery.py:recover",
            "system/wal.py:WriteAheadLog.compact",
        ]
        folds, fold = [], recovery.fold_log
        monkeypatch.setattr(recovery, "fold_log", lambda reader: folds.append(1) or fold(reader))
        clock = VirtualClock()
        with WriteAheadLog(tmp_path / "a.wal", clock=clock) as wal:
            PubSubBroker(clock=clock, wal=wal).subscribe(Subscription("a", [eq("x", 1)]))
            assert wal.compact() == 1
        assert len(folds) == 1
        assert recover_files(PubSubBroker(), wal_path=tmp_path / "a.wal").restored == 1
        assert len(folds) == 2


class TestOneObjectPerDistinctPredicate:
    """``core/types.py``: ``Predicate.__new__`` is the one construction
    path (it hands out the canonical instance), and a subscription's hash
    is its id's — no cached hash that could disagree with ``__eq__``."""

    def test_predicate_has_one_construction_path(self):
        from repro.core.types import Predicate

        assert "__init__" not in vars(Predicate)
        assert "__new__" in vars(Predicate)

    def test_nothing_bypasses_the_predicate_constructor(self):
        def bypasses(node):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__"):
                return False
            receiver = getattr(node.func.value, "id", None)
            first = getattr(node.args[0], "id", None) if node.args else None
            return receiver == "Predicate" or first == "Predicate"

        assert [w for w in _functions_where(bypasses) if not w.startswith("core/types.py:")] == []

    def test_a_subscription_caches_no_hash(self):
        from repro.core.types import Subscription

        assert "_hash" not in Subscription.__slots__


class TestEventIsAShapePlusValues:
    """``core/types.py``: an event holds its shared shape and its value
    tuple and nothing else, and code under ``src/repro`` reads it through
    positions (``shape.position(s)``, ``values``, ``items()``, ``get``)
    — never through ``pairs``, which builds a dict per call."""

    def test_an_event_holds_two_slots(self):
        from repro.core.types import Event, EventShape

        assert Event.__slots__ == ("shape", "values")
        assert "__weakref__" in EventShape.__slots__

    def test_nothing_in_src_reads_pairs(self):
        readers = _functions_where(
            lambda n: isinstance(n, ast.Attribute) and n.attr == "pairs" and isinstance(n.ctx, ast.Load)
        )
        assert [r for r in readers if not r.startswith("core/types.py:Event.")] == []


def _matcher_classes_in_src():
    """The ``Matcher`` subclasses defined under ``src/repro``."""
    return sorted(
        (c for c in _matcher_subclasses() if c.__module__.startswith("repro.")),
        key=lambda c: (c.__module__, c.__name__),
    )


class TestOneScalarBody:
    def test_the_predicate_phase_has_one_caller(self):
        """``indexes.evaluate`` — phase 1 of the scalar algorithm — runs
        from ``TwoPhaseMatcher.match`` only: no observed twin, and the
        bench harness reads the timings that body records."""
        assert _functions_referencing("evaluate", attribute_of="indexes") == [
            "algorithms/base.py:TwoPhaseMatcher.match"
        ]
        from repro.algorithms.base import TwoPhaseMatcher

        assert "_match_observed" not in TwoPhaseMatcher.__dict__

    def test_the_server_asks_matchers_plainly(self):
        """``system/server.py`` finds the shard layer by walking
        ``inner_matchers()``; it probes no matcher with ``getattr``."""
        import repro.system.server as server

        tree = ast.parse(inspect.getsource(server))
        probes = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
        ]
        assert not probes, probes


class TestOneCopyOfEachEngineFact:
    """Where a subscription lives is the cluster that holds it, and the
    batch kernel's exact path is the scalar index: the per-placement
    tuples, the per-group re-implemented probes and the matcher-level
    evaluator cache have no second life under another spelling."""

    RETIRED = ("_placement", "apply_odd", "_batch_eval")

    def test_nothing_defines_or_reads_the_retired_names(self):
        src = pathlib.Path(repro.__file__).parent
        found = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                spellings = [getattr(node, f, None) for f in ("id", "attr", "name", "arg")]
                if isinstance(node, ast.Constant):  # __slots__ entries, getattr probes
                    spellings.append(node.value)
                for text in spellings:
                    if (
                        isinstance(text, str)
                        and text.isidentifier()
                        and any(retired in text for retired in self.RETIRED)
                    ):
                        found.append(f"{path.relative_to(src)}:{node.lineno}: {text}")
        assert not found, found

    def test_one_body_routes_a_value_to_operator_classes(self):
        """Which indexes a string or a NaN probes is decided in
        ``PredicateIndexSet.probe`` — the scalar algorithm and the batch
        kernel's exact path both call it."""
        engine = ("indexes/", "batch/")
        routing = _functions_where(lambda n: getattr(n, "attr", None) == "is_range")
        assert [w for w in routing if w.startswith(engine)] == [
            "indexes/composite.py:PredicateIndexSet.probe",
            "indexes/ordered.py:_require_range",
        ]
        callers = _functions_where(
            lambda n: isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "probe"
        )
        assert sorted(w for w in callers if w.startswith(engine)) == [
            "batch/evaluator.py:BatchPredicateEvaluator._exact",
            "indexes/composite.py:PredicateIndexSet.evaluate",
        ]

    def test_phase_one_has_one_entry_for_both_batch_forms(self):
        """An event list and a ``ColumnarBatch`` take the same scan."""
        from repro.batch import BatchPredicateEvaluator

        public = {n for n in dir(BatchPredicateEvaluator) if not n.startswith("_")}
        assert public == {"evaluate"}

    def test_the_home_cluster_is_read_through_its_owner(self):
        readers = _functions_where(
            lambda n: isinstance(n, ast.Attribute)
            and n.attr == "owner"
            and isinstance(n.ctx, ast.Load)
        )
        assert {
            "algorithms/propagation.py:PropagationMatcher._displace",
            "clustering/hashconfig.py:MultiAttrHashTable.remove",
            "matchers/clustered.py:ClusteredMatcher._displace",
            "matchers/clustered.py:ClusteredMatcher.placement_of",
        } <= set(readers)


class TestOneNumbering:
    """One ``HandleTable`` numbers the subscriptions: clusters, counting's
    association arrays and the process-shard codec read its handles and
    keep no id ↔ position map of their own."""

    TWO_PHASE = ("counting", "dynamic", "propagation", "propagation-wp", "static")

    def test_a_cluster_keeps_no_id_map(self):
        from repro.algorithms.clusters import Cluster

        assert not {"_ids", "_col_of"} & set(Cluster.__slots__)
        assert not [n for n in dir(Cluster) if n in ("_ids", "_col_of", "ids", "refs_of")]

    def test_no_two_phase_engine_has_a_home_dict(self):
        from repro.algorithms.base import TwoPhaseMatcher
        from repro.core.handles import HandleTable
        from tests.matchers.test_batch_conformance import build

        for engine in self.TWO_PHASE:
            matcher = build(engine)
            assert isinstance(matcher, TwoPhaseMatcher)
            assert isinstance(matcher._subs, HandleTable), engine
            assert not isinstance(getattr(matcher, "_home", None), dict), engine

    def test_the_process_codec_rebuilds_no_position_map(self):
        import repro.system.procpool as procpool

        tree = ast.parse(inspect.getsource(procpool))
        spellings = set()
        for node in ast.walk(tree):
            for field in ("id", "attr", "name", "arg"):
                spellings.add(getattr(node, field, None))
        assert not {"index_of", "_id_table", "_table", "live"} & spellings

    def test_counting_builds_its_association_from_handles(self):
        from repro.algorithms.counting import CountingMatcher

        tree = ast.parse(inspect.getsource(CountingMatcher._assoc_arrays).lstrip())
        dicts = [
            n
            for n in ast.walk(tree)
            if isinstance(n, (ast.Dict, ast.DictComp))
            or (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "dict")
        ]
        assert not dicts

    def test_the_handle_table_is_the_only_allocator(self):
        makers = _functions_where(
            lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", None) == "HandleTable"
        )
        assert sorted(makers) == [
            "algorithms/base.py:TwoPhaseMatcher.__init__",
            "system/procpool.py:ProcessShard.__init__",
        ]
        # The registry's free list numbers predicates (bit slots), not
        # subscriptions.
        free_lists = [
            f
            for f in _functions_where(lambda n: getattr(n, "attr", None) == "_free")
            if not f.startswith("core/registry.py:PredicateRegistry.")
        ]
        assert free_lists and all(f.startswith("core/handles.py:HandleTable.") for f in free_lists)
        putters = _functions_where(
            lambda n: isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "put"
        )
        assert [p for p in putters if "Matcher" in p or "Shard" in p] == [
            "algorithms/base.py:TwoPhaseMatcher.add",
            "system/procpool.py:ProcessShard.add",
        ]


class TestMatcherContract:
    """The composition contract is stated once, in ``core/matcher.py``:
    nothing probes for it and nothing forwards it by hand."""

    CONTRACT = {"close", "rebuild", "use_metrics", "use_tracer"}
    #: What a MatcherWrapper subclass may define besides its hook.
    WRAPPER_MAY_DEFINE = {"_around", "__init__", "stats"}
    FORWARDED = {
        "add", "remove", "match", "match_batch", "get", "iter_subscriptions",
        "__len__", "name", "inner_matchers", "rebuild", "close",
        "use_metrics", "use_tracer",
    }  # fmt: skip

    def test_nothing_probes_for_the_contract(self):
        probes = []
        src = pathlib.Path(repro.__file__).parent
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in self.CONTRACT
                ):
                    probes.append(f"{path.relative_to(src)}:{node.lineno}")
        assert not probes, probes

    def test_a_stored_matcher_is_a_named_part(self):
        # A class whose __init__ stores a matcher under one of the usual
        # names must return it from inner_matchers().
        offenders = []
        for cls in _matcher_classes_in_src():
            init = cls.__dict__.get("__init__")
            if init is None:
                continue
            stores = {
                node.attr
                for node in ast.walk(ast.parse(inspect.getsource(cls).lstrip()))
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and node.attr in ("inner", "_inner", "_shards")
            }
            if stores and cls.inner_matchers is Matcher.inner_matchers:
                offenders.append(f"{cls.__module__}.{cls.__name__}: {sorted(stores)}")
        assert not offenders, offenders

    def test_one_forwarding_wrapper(self):
        import repro.testing.faults as faults

        # No second wrapper base beside the one in core: every matcher
        # the fault toolkit defines subclasses MatcherWrapper directly.
        indirect = [
            c.__name__
            for c in _matcher_classes_in_src()
            if c.__module__ == faults.__name__ and MatcherWrapper not in c.__bases__
        ]
        assert not indirect, indirect
        wrappers = [
            c
            for c in _matcher_classes_in_src()
            if issubclass(c, MatcherWrapper) and c is not MatcherWrapper
        ]
        assert {c.__name__ for c in wrappers} >= {
            "ThreadSafeMatcher", "FlakyMatcher", "SlowMatcher", "KillableWorker",
        }  # fmt: skip
        for cls in wrappers:
            assert "_around" in cls.__dict__, cls
            own = {n for n, v in cls.__dict__.items() if callable(v) or n == "name"}
            assert not own & self.FORWARDED, (cls, sorted(own & self.FORWARDED))
            dunder = {n for n in own if n.startswith("__")}
            assert dunder <= self.WRAPPER_MAY_DEFINE, (cls, sorted(dunder))

    def test_composites_declare_parts_instead_of_forwarding(self):
        from repro.aggregation import AggregatingMatcher
        from repro.system import ShardedMatcher

        for cls in (AggregatingMatcher, ShardedMatcher):
            assert "inner_matchers" in cls.__dict__
            assert "use_tracer" not in cls.__dict__
        assert "close" not in AggregatingMatcher.__dict__
        assert "rebuild" not in AggregatingMatcher.__dict__


class _Spy(MatcherWrapper):
    """A call-counting oracle engine (one per shard)."""

    def __init__(self):
        super().__init__(repro.core.OracleMatcher())
        self.calls = {"match": 0, "match_batch": 0}

    def _around(self, op, call, *args):
        if op == "match":
            self.calls[call.__name__] += 1
        return call(*args)


class TestOneFanOut:
    """``ShardedMatcher`` has one fan-out and it is the batch one: neither
    breakers nor a tracer may turn a batch into per-event shard calls."""

    @pytest.mark.parametrize("router", ["roundrobin", "affinity"])
    @pytest.mark.parametrize("mode", ["plain", "breaker", "tracer"])
    def test_a_batch_is_one_match_batch_call_per_probed_shard(self, router, mode):
        from repro.core import Event, OracleMatcher, Subscription, eq
        from repro.obs import Tracer
        from repro.system import ShardedMatcher

        spies = []
        sharded = ShardedMatcher(
            shards=3,
            router=router,
            inner=lambda: spies.append(_Spy()) or spies[-1],
            parallel=False,
            breaker=True if mode == "breaker" else None,
        )
        tracer = sharded.use_tracer(Tracer()) if mode == "tracer" else None
        oracle = OracleMatcher()
        for i in range(24):
            sub = Subscription(f"s{i}", [eq("k", i % 6), eq("x", i % 2)])
            sharded.add(sub)
            oracle.add(sub)
        events = [Event({"k": i % 6, "x": i % 2}) for i in range(8)]
        assert sharded.router.prunes() == (router == "affinity")
        before = sharded.stats()["per_shard_events_routed"]
        results = sharded.match_batch(events)
        routed = [
            after - was
            for after, was in zip(sharded.stats()["per_shard_events_routed"], before)
        ]
        assert [sorted(ids) for ids in results] == [
            sorted(oracle.match(e)) for e in events
        ]
        assert sum(1 for n in routed if n) >= 2
        if router == "affinity":
            assert sum(routed) < 3 * len(events)  # it did prune
        for spy, n in zip(spies, routed):
            assert spy.calls == {"match": 0, "match_batch": 1 if n else 0}
        if tracer is not None:
            (span,) = [s for s in tracer.spans() if s.name == "fanout"]
            assert span.fields["events"] == len(events)
            assert span.fields["matched"] == sum(map(len, results))
            assert [(c.fields["index"], c.fields["events"]) for c in span.children] == [
                (s, n) for s, n in enumerate(routed) if n
            ]
        sharded.close()

    @pytest.mark.parametrize(
        "executor",
        [
            {"executor": "thread"},
            {"executor": "process", "codec": "auto"},
            {"executor": "process", "codec": "shm"},
        ],
        ids=["thread", "process-auto", "process-shm"],
    )
    def test_healthy_breakers_change_nothing_and_overflow_stays_matched(self, executor):
        from repro.core import Event, Subscription, eq, le
        from repro.system import PartialResults, ShardedMatcher

        subs = [
            Subscription(f"s{i}", [eq("k", i % 5), le("p", 10 * (i % 7))])
            for i in range(60)
        ]
        events = [Event({"k": i % 5, "p": (13 * i) % 70}) for i in range(40)]
        kwargs = dict(
            shards=2, router="affinity", inner="counting", worker_timeout=60.0, **executor
        )
        breaker = {"failure_threshold": 1, "reset_timeout": 1000.0}
        with ShardedMatcher(**kwargs) as plain, ShardedMatcher(
            breaker=breaker, **kwargs
        ) as guarded:
            for sub in subs:
                plain.add(sub)
                guarded.add(sub)
            want = plain.match_batch(events)
            got = guarded.match_batch(events)
            assert any(want)
            assert [list(row) for row in got] == want
            assert all(type(row) is PartialResults and not row.degraded for row in got)
            assert [type(row) for row in want] == [list] * len(events)
            if executor.get("codec") == "shm":
                shm = guarded.executor_health()["shm"]
                assert shm["bytes"]["publish"] > 0
                assert sum(shm["fallbacks"].values()) == 0
            # Overflow placement: added while its preferred shard was
            # open, so the router does not know where it lives — a
            # pruning router's batch must probe the overflow shard anyway.
            pathfinder = Subscription("pathfinder", [eq("k", "hot")])
            home = guarded.router.shard_for(pathfinder)  # records, then remove
            guarded.router.on_remove(pathfinder, home)
            guarded.breaker(home).force_open()
            guarded.add(pathfinder)
            assert guarded.stats()["overflow_per_shard"][1 - home] == 1
            guarded.breaker(home).reset()
            rows = guarded.match_batch([Event({"k": "hot"}), Event({"k": 1, "p": 0})])
            assert list(rows[0]) == ["pathfinder"] and "pathfinder" not in rows[1]
            assert not rows[0].degraded
