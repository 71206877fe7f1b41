"""The append-only event journal: ordering, schema, rotation, replay."""

import ast
import json
import threading
from pathlib import Path

import pytest

from repro.obs import (
    EVENT_SCHEMA_VERSION,
    Journal,
    disable_journal,
    enable_journal,
    enable_observability,
    get_journal,
    get_registry,
    set_journal,
    validate_event,
)
from repro.obs import journal as journal_module
from repro.obs.journal import EVENT_REQUIRED_KEYS, MAX_BYTES, replay

SRC = Path(__file__).resolve().parents[2] / "src"


class TestEmit:
    def test_seq_is_monotonic_and_dense(self):
        journal = Journal()
        events = [journal.emit("a"), journal.emit("b"), journal.emit("a")]
        assert [e.seq for e in events] == [0, 1, 2]
        assert journal.events == 3

    def test_two_clocks(self):
        journal = Journal()
        first = journal.emit("tick")
        second = journal.emit("tick")
        assert second.mono_s >= first.mono_s >= 0.0
        assert first.ts_unix_s > 0

    def test_fields_ride_along(self):
        event = Journal().emit("serve.timeout", op="get", retries=2)
        assert event.fields == {"op": "get", "retries": 2}
        assert event.as_dict()["fields"] == {"op": "get", "retries": 2}

    def test_disabled_emit_is_noop(self):
        journal = Journal(enabled=False)
        assert journal.emit("anything") is None
        assert journal.events == 0
        assert journal.tail() == []

    def test_emit_counts_on_registry_when_enabled(self):
        enable_observability()
        journal = Journal()
        journal.emit("x")
        journal.emit("y")
        assert get_registry().counter("journal.events").value == 2

    def test_clear_keeps_seq_rising(self):
        journal = Journal()
        journal.emit("before")
        journal.clear()
        assert journal.tail() == []
        assert journal.emit("after").seq == 1

    def test_thread_safety_unique_seq(self):
        journal = Journal(tail_events=4096)
        def worker():
            for _ in range(200):
                journal.emit("t")
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [e.seq for e in journal.tail()]
        assert len(seqs) == len(set(seqs)) == 800


class TestSchema:
    def test_as_dict_is_valid_and_versioned(self):
        event = Journal().emit("k", a=1).as_dict()
        validate_event(event)  # must not raise
        assert event["schema_version"] == EVENT_SCHEMA_VERSION
        assert set(EVENT_REQUIRED_KEYS) <= set(event)

    @pytest.mark.parametrize("mutate,match", [
        (lambda e: e.pop("seq"), "missing"),
        (lambda e: e.update(schema_version=99), "schema"),
        (lambda e: e.update(seq=-1), "seq"),
        (lambda e: e.update(kind=""), "kind"),
        (lambda e: e.update(fields=[1, 2]), "fields"),
    ])
    def test_validate_rejects_malformed(self, mutate, match):
        event = Journal().emit("k").as_dict()
        mutate(event)
        with pytest.raises(ValueError, match=match):
            validate_event(event)

    def test_known_kind_vocabulary_is_opt_in(self):
        """Default validation accepts ad-hoc kinds; strict mode
        (``require_known_kind``) pins the documented vocabulary."""
        from repro.obs.journal import KNOWN_EVENT_KINDS

        event = Journal().emit("totally.ad_hoc").as_dict()
        validate_event(event)  # lax mode: fine
        with pytest.raises(ValueError, match="vocabulary"):
            validate_event(event, require_known_kind=True)
        for kind in ("cluster.node_down", "cluster.node_up",
                     "cluster.quorum_miss", "cluster.rereplicate"):
            assert kind in KNOWN_EVENT_KINDS
            known = Journal().emit(kind).as_dict()
            validate_event(known, require_known_kind=True)

    def test_emitted_kinds_stay_in_vocabulary(self):
        """Every kind the cluster tier journals during a drill is part
        of the versioned vocabulary — replaying the drill's journal in
        strict mode must not raise."""
        from repro.cluster import Cluster, ReplicationConfig

        journal = Journal()
        set_journal(journal)
        try:
            cluster = Cluster(
                n_nodes=5, node_scheme="pmod", shard_scheme="pmod",
                shards_per_node=8,
                replication=ReplicationConfig(replicas=2))
            for i in range(32):
                cluster.put(i, i)
            cluster.fail_node(2)
            cluster.recover_node(2)
        finally:
            disable_journal()
        kinds = {e.kind for e in journal.tail()}
        assert {"cluster.node_down", "cluster.node_up",
                "cluster.rereplicate"} <= kinds
        for event in journal.tail():
            validate_event(event.as_dict(), require_known_kind=True)

    def test_vocabulary_is_exactly_the_emitted_kinds(self):
        """Source scan: every kind ``src/`` emits as a literal is in
        the vocabulary, and every vocabulary entry has an emitter — a
        kind whose producer was deleted must leave the vocabulary
        too."""
        from repro.obs.journal import KNOWN_EVENT_KINDS

        emitted = set()
        for path in SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "emit" and node.args
                        and isinstance(node.args[0], ast.Constant)):
                    emitted.add(node.args[0].value)
        assert emitted == KNOWN_EVENT_KINDS

    def test_unserializable_fields_are_stringified(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path=path)
        journal.emit("odd", obj=object())
        (line,) = path.read_text().splitlines()
        decoded = json.loads(line)
        assert "object object" in decoded["fields"]["obj"]


class TestTailAndFind:
    def test_tail_is_bounded(self):
        journal = Journal(tail_events=3)
        for i in range(5):
            journal.emit("k", i=i)
        assert [e.fields["i"] for e in journal.tail()] == [2, 3, 4]
        assert [e.fields["i"] for e in journal.tail(2)] == [3, 4]

    def test_find_matches_exact_and_dotted_prefix(self):
        journal = Journal()
        journal.emit("serve.fault.stall")
        journal.emit("serve.faulty")  # not a dotted child of serve.fault
        journal.emit("serve.fault.delay")
        kinds = [e.kind for e in journal.find("serve.fault")]
        assert kinds == ["serve.fault.stall", "serve.fault.delay"]
        assert [e.kind for e in journal.find("serve.fault.stall")] == [
            "serve.fault.stall"]


class TestSinkAndRotation:
    def test_jsonl_lines_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = Journal(path=path)
        journal.emit("one", n=1)
        journal.emit("two", n=2)
        events = list(replay(path))
        assert [e["kind"] for e in events] == ["one", "two"]
        assert [e["seq"] for e in events] == [0, 1]

    def test_rotation_bounds_disk_and_keeps_one_backup(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = Journal(path=path)
        pad = "x" * (64 << 10)  # ~64 events fill MAX_BYTES
        for i in range(150):
            journal.emit("fill", i=i, pad=pad)
        assert journal.rotations >= 2
        assert path.with_name("events.jsonl.1").exists()
        assert not path.with_name("events.jsonl.2").exists()
        assert path.stat().st_size <= MAX_BYTES
        assert path.with_name("events.jsonl.1").stat().st_size <= MAX_BYTES

    def test_replay_reads_rotated_segment_first(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(journal_module, "MAX_BYTES", 300)
        path = tmp_path / "events.jsonl"
        journal = Journal(path=path)
        for i in range(40):
            journal.emit("fill", i=i)
        seqs = [e["seq"] for e in replay(path)]
        assert seqs == sorted(seqs)
        assert seqs[-1] == 39

    def test_replay_strict_raises_tolerant_skips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = Journal(path=path)
        journal.emit("good")
        with open(path, "a") as stream:
            stream.write("not json\n")
        journal.emit("also-good")
        with pytest.raises(ValueError, match="bad journal line"):
            list(replay(path))
        kinds = [e["kind"] for e in replay(path, strict=False)]
        assert kinds == ["good", "also-good"]

    def test_rotation_increments_registry_counter(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(journal_module, "MAX_BYTES", 200)
        enable_observability()
        journal = Journal(path=tmp_path / "j.jsonl")
        for i in range(20):
            journal.emit("fill", i=i)
        assert get_registry().counter("journal.rotations").value >= 1


class TestGlobals:
    def test_global_starts_disabled(self):
        assert get_journal().enabled is False

    def test_enable_journal_installs_enabled_instance(self, tmp_path):
        journal = enable_journal(tmp_path / "j.jsonl")
        assert get_journal() is journal
        assert journal.enabled
        journal.emit("experiment.start")
        assert (tmp_path / "j.jsonl").exists()
        disable_journal()
        assert get_journal().enabled is False

    def test_set_journal_returns_previous(self):
        mine = Journal()
        previous = set_journal(mine)
        assert get_journal() is mine
        assert previous is not mine
        set_journal(previous)
