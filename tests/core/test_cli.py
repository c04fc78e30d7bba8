"""The command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["match", "--subscriptions", "s", "--events", "e", "--engine", "warp"]
            )

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "repro" in capsys.readouterr().out

    def test_codec_flag_is_gone(self):
        """Process shards have one data plane, so there is no transport
        to pick: ``--codec`` is an unknown option."""
        for codec in ("shm", "auto"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["match", "--subscriptions", "s", "--events", "e",
                     "--codec", codec]
                )

    def test_executor_knobs_parse_on_match_stats_health(self):
        for command in ("match", "stats", "health"):
            args = build_parser().parse_args(
                [command, "--subscriptions", "s", "--events", "e",
                 "--executor", "process", "--worker-timeout", "2.5"]
            )
            assert args.executor == "process"
            assert args.worker_timeout == 2.5


class TestDemo:
    def test_demo_runs(self):
        out = io.StringIO()
        assert main(["demo"], out=out) == 0
        assert "matched" in out.getvalue() and "s1" in out.getvalue()


class TestGenerate:
    def test_generate_subscriptions(self):
        out = io.StringIO()
        rc = main(
            ["generate", "--kind", "subscriptions", "--count", "7", "--workload", "W0"],
            out=out,
        )
        assert rc == 0
        lines = [l for l in out.getvalue().splitlines() if l]
        assert len(lines) == 7
        record = json.loads(lines[0])
        assert "id" in record and "predicates" in record

    def test_generate_events(self):
        out = io.StringIO()
        assert main(["generate", "--kind", "events", "--count", "3"], out=out) == 0
        lines = [l for l in out.getvalue().splitlines() if l]
        assert len(lines) == 3
        assert "pairs" in json.loads(lines[0])

    def test_generate_deterministic_by_seed(self):
        a, b = io.StringIO(), io.StringIO()
        main(["generate", "--kind", "events", "--count", "2", "--seed", "9"], out=a)
        main(["generate", "--kind", "events", "--count", "2", "--seed", "9"], out=b)
        assert a.getvalue() == b.getvalue()


class TestMatch:
    @pytest.mark.parametrize("engine", ["oracle", "dynamic", "static"])
    def test_match_files(self, tmp_path, engine):
        subs_file = tmp_path / "subs.jsonl"
        subs_file.write_text(
            '{"id": "s1", "predicates": [["movie", "=", "gd"], ["price", "<=", 10]]}\n'
            '{"id": "s2", "predicates": [["movie", "=", "other"]]}\n'
        )
        events_file = tmp_path / "events.jsonl"
        events_file.write_text(
            '{"pairs": {"movie": "gd", "price": 8}}\n'
            '{"pairs": {"movie": "gd", "price": 50}}\n'
        )
        out = io.StringIO()
        rc = main(
            [
                "match",
                "--subscriptions", str(subs_file),
                "--events", str(events_file),
                "--engine", engine,
            ],
            out=out,
        )
        assert rc == 0
        lines = [json.loads(l) for l in out.getvalue().splitlines() if l]
        assert lines[0]["matched"] == ["s1"]
        assert lines[1]["matched"] == []

    def test_match_sharded_process(self, tmp_path):
        """End-to-end: the process shards' arena behind the CLI flags."""
        subs_file = tmp_path / "subs.jsonl"
        subs_file.write_text(
            '{"id": "s1", "predicates": [["price", "<=", 10]]}\n'
            '{"id": "s2", "predicates": [["price", ">=", 40]]}\n'
        )
        events_file = tmp_path / "events.jsonl"
        events_file.write_text(
            '{"pairs": {"price": 8}}\n{"pairs": {"price": 50}}\n'
        )
        out = io.StringIO()
        rc = main(
            [
                "match",
                "--subscriptions", str(subs_file),
                "--events", str(events_file),
                "--engine", "counting",
                "--shards", "2",
                "--executor", "process",
                "--worker-timeout", "60",
            ],
            out=out,
        )
        assert rc == 0
        lines = [json.loads(l) for l in out.getvalue().splitlines() if l]
        assert lines[0]["matched"] == ["s1"]
        assert lines[1]["matched"] == ["s2"]


    def test_health_process_shm_reports_arena_traffic(self, tmp_path):
        """`repro health` always runs with breakers on; the arena must
        carry its batches anyway, and the report must show that it did."""
        subs_file = tmp_path / "subs.jsonl"
        subs_file.write_text(
            "".join(
                '{"id": "s%d", "predicates": [["price", "<=", %d]]}\n' % (i, i)
                for i in range(40)
            )
        )
        events_file = tmp_path / "events.jsonl"
        events_file.write_text(
            "".join('{"pairs": {"price": %d}}\n' % (i % 40) for i in range(200))
        )
        out = io.StringIO()
        rc = main(
            [
                "health",
                "--subscriptions", str(subs_file),
                "--events", str(events_file),
                "--engine", "counting",
                "--shards", "2",
                "--executor", "process",
                "--worker-timeout", "60",
                "--batch-size", "64",
            ],
            out=out,
        )
        assert rc == 0
        report = json.loads(out.getvalue())
        assert report["status"] == "ok"
        shm = report["executor"]["shm"]
        assert shm["bytes"]["publish"] > 0 and shm["bytes_total"] == shm["slots"] * shm["slot_bytes"]
        assert sum(shm["fallbacks"].values()) == 0
        assert shm["slots_in_flight"] == 0


class TestBenchCommand:
    def test_bench_example31(self):
        out = io.StringIO()
        assert main(["bench", "example3.1"], out=out) == 0
        assert "Example 3.1" in out.getvalue()


class TestSnapshotCommand:
    def test_snapshot_overwrites_out_and_recovers_exactly_the_input(self, tmp_path):
        log = tmp_path / "broker.wal"

        def snapshot(count, seed):
            subs = tmp_path / f"subs-{seed}.jsonl"
            with open(subs, "w") as fp:
                main(
                    ["generate", "--kind", "subscriptions", "--count", str(count),
                     "--workload", "W0", "--seed", str(seed)],
                    out=fp,
                )  # fmt: skip
            out = io.StringIO()
            assert main(["snapshot", "--subscriptions", str(subs), "--out", str(log)], out=out) == 0
            assert json.loads(out.getvalue()) == {"subscriptions": count, "out": str(log)}
            return sorted(line for line in subs.read_text().splitlines() if line)

        snapshot(40, seed=1)  # ids overlap: appending would leave ten behind
        wanted = snapshot(30, seed=2)
        dump = tmp_path / "recovered.jsonl"
        out = io.StringIO()
        assert main(["recover", "--wal", str(log), "--out", str(dump)], out=out) == 0
        assert json.loads(out.getvalue())["restored"] == 30
        assert sorted(dump.read_text().splitlines()) == wanted
