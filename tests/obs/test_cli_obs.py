"""The observability CLI surface: stats, explain --trace, --metrics-out.

Also the in-process equivalent of ``make metrics-smoke``: generate →
stats --metrics-out → validate against the checked-in schema.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.obs.check import validate_file

SCHEMA_PATH = "schemas/metrics_snapshot.schema.json"


@pytest.fixture
def workload_files(tmp_path):
    """A tiny subscription/event pair on disk."""
    subs = tmp_path / "subs.jsonl"
    subs.write_text(
        '{"id": "s1", "predicates": [["movie", "=", "gd"], ["price", "<=", 10]]}\n'
        '{"id": "s2", "predicates": [["movie", "=", "other"]]}\n'
        '{"id": "s3", "predicates": [["price", ">", 3]]}\n'
    )
    events = tmp_path / "events.jsonl"
    events.write_text(
        '{"pairs": {"movie": "gd", "price": 8}}\n'
        '{"pairs": {"movie": "gd", "price": 50}}\n'
    )
    return str(subs), str(events)


def _run(argv):
    out = io.StringIO()
    rc = main(argv, out=out)
    return rc, out.getvalue()


class TestStatsCommand:
    @pytest.mark.parametrize("engine", ["static", "dynamic"])
    def test_prometheus_output(self, workload_files, engine):
        subs, events = workload_files
        rc, text = _run(
            ["stats", "--subscriptions", subs, "--events", events, "--engine", engine]
        )
        assert rc == 0
        assert f'repro_events_total{{engine="{engine}",shard=""}} 2' in text
        assert "# TYPE repro_match_phase_seconds histogram" in text

    def test_sharded_prometheus_output(self, workload_files):
        subs, events = workload_files
        rc, text = _run(
            ["stats", "--subscriptions", subs, "--events", events,
             "--engine", "dynamic", "--shards", "2"]
        )
        assert rc == 0
        assert "repro_sharded_events_total 2" in text
        assert 'repro_sharded_shard_visits_total{shard="0"}' in text
        # Inner engines report under per-shard labels in the same registry.
        assert 'repro_events_total{engine="dynamic",shard="0"}' in text

    def test_json_format(self, workload_files):
        subs, events = workload_files
        rc, text = _run(
            ["stats", "--subscriptions", subs, "--events", events, "--format", "json"]
        )
        assert rc == 0
        snap = json.loads(text)
        assert snap["version"] == 1
        assert snap["context"]["engine"] == "dynamic"
        assert snap["context"]["events"] == 2
        assert {m["name"] for m in snap["metrics"]} >= {"repro_events_total"}

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_json_counts_equal_the_workload(self, workload_files, shards):
        subs, events = workload_files
        rc, text = _run(
            ["stats", "--subscriptions", subs, "--events", events,
             "--format", "json", "--shards", shards]
        )
        assert rc == 0
        values = {
            m["name"]: {s["labels"].get("shard", ""): s["value"] for s in m["samples"]}
            for m in json.loads(text)["metrics"]
            if m["type"] != "histogram"
        }
        assert sum(values["repro_subscriptions"].values()) == 3
        if shards == "1":
            assert values["repro_events_total"] == {"": 2}
        else:
            # Each shard's engine matched exactly the events routed to it.
            assert values["repro_sharded_events_total"] == {"": 2}
            assert values["repro_events_total"] == values["repro_sharded_shard_visits_total"]

    def test_metrics_out_passes_schema(self, workload_files, tmp_path):
        subs, events = workload_files
        snapshot = tmp_path / "snap.json"
        rc, _ = _run(
            ["stats", "--subscriptions", subs, "--events", events,
             "--shards", "2", "--metrics-out", str(snapshot)]
        )
        assert rc == 0
        assert validate_file(str(snapshot), SCHEMA_PATH) == []


class TestMatchMetricsOut:
    def test_snapshot_written_and_valid(self, workload_files, tmp_path):
        subs, events = workload_files
        snapshot = tmp_path / "snap.json"
        rc, text = _run(
            ["match", "--subscriptions", subs, "--events", events,
             "--metrics-out", str(snapshot)]
        )
        assert rc == 0
        # Matching output is unchanged...
        lines = [json.loads(l) for l in text.splitlines() if l]
        assert sorted(lines[0]["matched"]) == ["s1", "s3"]
        # ...and the snapshot validates and reflects the run.
        assert validate_file(str(snapshot), SCHEMA_PATH) == []
        snap = json.loads(snapshot.read_text())
        assert snap["context"]["command"] == "match"

    def test_no_snapshot_without_flag(self, workload_files, tmp_path):
        subs, events = workload_files
        rc, _ = _run(["match", "--subscriptions", subs, "--events", events])
        assert rc == 0
        assert list(tmp_path.glob("*.json")) == []


class TestExplainCommand:
    def test_explain_prints_phases(self, workload_files):
        subs, events = workload_files
        rc, text = _run(
            ["explain", "--subscriptions", subs, "--events", events]
        )
        assert rc == 0
        assert "phase 1:" in text and "phase 2:" in text
        assert "matched: ['s1', 's3']" in text

    def test_explain_trace_prints_span_tree(self, workload_files):
        subs, events = workload_files
        rc, text = _run(
            ["explain", "--subscriptions", subs, "--events", events, "--trace"]
        )
        assert rc == 0
        assert "trace:" in text
        assert "match engine=dynamic" in text
        assert "predicate_ns=" in text and "subscription_ns=" in text

    def test_explain_sharded_trace(self, workload_files):
        subs, events = workload_files
        rc, text = _run(
            ["explain", "--subscriptions", subs, "--events", events,
             "--shards", "2", "--trace"]
        )
        assert rc == 0
        assert "fanout engine=sharded" in text

    def test_event_index_selects_event(self, workload_files):
        subs, events = workload_files
        rc, text = _run(
            ["explain", "--subscriptions", subs, "--events", events,
             "--event-index", "1"]
        )
        assert rc == 0
        # Second event has price 50: only the price > 3 subscription fires.
        assert "matched: ['s3']" in text

    def test_event_index_out_of_range(self, workload_files):
        subs, events = workload_files
        rc, text = _run(
            ["explain", "--subscriptions", subs, "--events", events,
             "--event-index", "9"]
        )
        assert rc == 1
        assert "out of range" in text


class TestMetricsSmoke:
    def test_generate_stats_validate_pipeline(self, tmp_path):
        """The make metrics-smoke pipeline, in-process."""
        subs = tmp_path / "subs.jsonl"
        events = tmp_path / "events.jsonl"
        with open(subs, "w") as fp:
            assert main(
                ["generate", "--kind", "subscriptions", "--count", "50",
                 "--seed", "7"], out=fp) == 0
        with open(events, "w") as fp:
            assert main(
                ["generate", "--kind", "events", "--count", "10", "--seed", "8"],
                out=fp) == 0
        snapshot = tmp_path / "snapshot.json"
        rc, text = _run(
            ["stats", "--subscriptions", str(subs), "--events", str(events),
             "--engine", "dynamic", "--shards", "2",
             "--metrics-out", str(snapshot)]
        )
        assert rc == 0
        assert text.startswith("# HELP")
        assert validate_file(str(snapshot), SCHEMA_PATH) == []
