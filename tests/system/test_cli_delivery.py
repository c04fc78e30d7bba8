"""The delivery CLI surface: ``repro deliveries`` and ``repro dlq``.

Both commands replay the delivery ledger straight from a WAL file, so
each test journals a small workload first and then inspects it the way
an operator would.
"""

from __future__ import annotations

import io
import json
import random

import pytest

from repro.cli import main
from repro.core.types import Event
from repro.system import DeliveryManager, RetryPolicy, VirtualClock, WriteAheadLog


def _run(argv):
    out = io.StringIO()
    rc = main(argv, out=out)
    return rc, out.getvalue()


@pytest.fixture
def wal_with_deliveries(tmp_path):
    """A WAL holding 3 deliveries for s1 (1 acked, 1 dead, 1 unacked)
    and 1 acked delivery for s2."""
    clock = VirtualClock()
    wal = WriteAheadLog(tmp_path / "wal.jsonl", clock=clock, fsync="never")
    manager = DeliveryManager(
        clock=clock,
        # Far past the pump loop below: the deliberately-unacked lease
        # must stay leased, not burn its own budget via ack timeouts.
        ack_timeout=300.0,
        retry=RetryPolicy(max_attempts=2, base_delay=1.0, rng=random.Random(3)),
        wal=wal,
    )
    manager.register("s1", sink=lambda n: None)
    manager.register("s2", sink=lambda n: None)
    acked = manager.dispatch("s1", Event({"n": 0}))
    doomed = manager.dispatch("s1", Event({"n": 1}))
    manager.dispatch("s1", Event({"n": 2}))  # left unacked, still leased
    other = manager.dispatch("s2", Event({"n": 3}))
    manager.ack("s1", acked)
    manager.ack("s2", other)
    # Burn the 2-attempt budget: nack, let the backoff elapse so the
    # redelivery goes back in flight, nack again → dead-letter.
    manager.nack("s1", doomed)
    for _ in range(10):
        clock.advance(1.0)
        manager.pump()
        if manager.nack("s1", doomed):
            break
    wal.close()
    return str(tmp_path / "wal.jsonl")


class TestDeliveriesCommand:
    def test_summary_shape(self, wal_with_deliveries):
        rc, text = _run(["deliveries", "--wal", wal_with_deliveries])
        assert rc == 0
        summary = json.loads(text)
        totals = summary["totals"]
        # 4 initial sends + 1 redelivery journaled after the first nack
        assert totals["delivers"] >= 4
        assert totals["acked"] == 2
        assert totals["unacked"] == 1
        assert totals["dead_lettered"] == 1
        channels = summary["channels"]
        assert channels["s1"]["unacked"] == 1
        assert channels["s1"]["dead_lettered"] == 1
        assert channels["s1"]["oldest_seq"] is not None
        # Fully-acked subscribers carry no debt: they don't appear.
        assert "s2" not in channels

    def test_empty_wal(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "empty.jsonl", fsync="never")
        wal.close()
        rc, text = _run(["deliveries", "--wal", str(tmp_path / "empty.jsonl")])
        assert rc == 0
        summary = json.loads(text)
        assert summary["totals"]["delivers"] == 0
        assert summary["totals"]["unacked"] == 0
        assert summary["channels"] == {}


class TestDlqCommand:
    def test_lists_dead_letters(self, wal_with_deliveries):
        rc, text = _run(["dlq", "--wal", wal_with_deliveries])
        assert rc == 0
        payload = json.loads(text)
        assert payload["total"] == 1
        (entry,) = payload["dead_letters"]
        assert entry["sub"] == "s1"
        assert entry["reason"] == "budget"
        assert entry["attempts"] == 2
        assert entry["event"] == {"pairs": {"n": 1}}

    def test_sub_filter(self, wal_with_deliveries):
        rc, text = _run(["dlq", "--wal", wal_with_deliveries, "--sub", "s2"])
        assert rc == 0
        payload = json.loads(text)
        assert payload["total"] == 0
        assert payload["dead_letters"] == []

    def test_limit(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "wal.jsonl", clock=clock, fsync="never")
        manager = DeliveryManager(
            clock=clock,
            ack_timeout=2.0,
            retry=RetryPolicy(max_attempts=1, base_delay=1.0, rng=random.Random(3)),
            wal=wal,
        )
        manager.register("s1", sink=lambda n: None)
        for i in range(5):
            seq = manager.dispatch("s1", Event({"n": i}))
            manager.nack("s1", seq)  # 1-attempt budget: instant dead-letter
        wal.close()
        rc, text = _run(["dlq", "--wal", str(tmp_path / "wal.jsonl"), "--limit", "2"])
        assert rc == 0
        payload = json.loads(text)
        assert payload["total"] == 5
        assert len(payload["dead_letters"]) == 2

    def test_redrives_leave_the_rest_in_log_order(self, tmp_path):
        """Every other dead letter is re-driven (and dead-lettered again
        under its fresh sequence): what ``repro dlq`` lists is what is
        still dead, oldest settle first."""
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "wal.jsonl", clock=clock, fsync="never")
        manager = DeliveryManager(
            clock=clock,
            retry=RetryPolicy(max_attempts=1, base_delay=1.0, rng=random.Random(3)),
            wal=wal,
        )
        for sub in ("s1", "s2"):
            manager.register(sub, sink=lambda n: None)
        for i in range(40):
            sub = "s1" if i % 2 else "s2"
            manager.nack(sub, manager.dispatch(sub, Event({"n": i})))
        assert manager.redrive("s1") == 20  # fresh seqs 20..39 on s1
        for seq in range(20, 40, 2):
            manager.nack("s1", seq)
        wal.close()
        rc, text = _run(["dlq", "--wal", str(tmp_path / "wal.jsonl")])
        assert rc == 0
        payload = json.loads(text)
        listed = [(d["sub"], d["seq"], d["event"]["pairs"]["n"]) for d in payload["dead_letters"]]
        assert listed == [("s2", k, 2 * k) for k in range(20)] + [
            ("s1", 20 + 2 * k, 4 * k + 1) for k in range(10)
        ]
        rc, text = _run(["deliveries", "--wal", str(tmp_path / "wal.jsonl")])
        totals = json.loads(text)["totals"]
        assert (totals["dead_lettered"], totals["unacked"]) == (30, 10)

    def test_a_record_the_ledger_cannot_key_ends_the_fold(self, tmp_path):
        """JSON gives a tuple channel id back as a list: both commands
        fold up to that record, where recovery stops trusting the log,
        instead of raising."""
        path = tmp_path / "wal.jsonl"
        records = [
            {"type": "repro-broker-wal", "version": 1, "clock": 0.0},
            {"type": "deliver", "at": 1.0, "sub": "s1", "seq": 0, "event": {"pairs": {"n": 0}}},
            {"type": "deliver", "at": 2.0, "sub": ["t", 1], "seq": 0, "event": {"pairs": {}}},
            {"type": "settle", "at": 3.0, "sub": "s1", "seq": 0, "outcome": "dead-letter"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        rc, text = _run(["deliveries", "--wal", str(path)])
        assert rc == 0
        assert json.loads(text)["totals"]["unacked"] == 1
        rc, text = _run(["dlq", "--wal", str(path)])
        assert rc == 0
        assert json.loads(text)["total"] == 0
