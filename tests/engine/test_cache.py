"""ResultCache: persistence, verification, payload entries."""

import dataclasses
import json

from repro.cpu import ExecutionResult
from repro.engine import (
    RESULT_SCHEMA_VERSION,
    ResultCache,
    RunConfig,
    SimulationKey,
)


def make_result(**overrides):
    fields = dict(
        workload="tree", scheme="pmod", busy=400.0, other_stalls=100.0,
        memory_stall=734.5, l1_misses=50, l2_accesses=80, l2_misses=10,
        dram_row_hits=6, dram_row_misses=4,
    )
    fields.update(overrides)
    return ExecutionResult(**fields)


KEY = SimulationKey.for_run("tree", "pmod", RunConfig(scale=0.1))


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        original = make_result()
        cache.put(KEY, original)
        assert cache.writes == 1
        loaded = ResultCache(tmp_path).get(KEY)
        assert loaded == original

    def test_miss_on_absent(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(KEY) is None
        assert cache.misses == 1

    def test_schema_versioned_directory(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, make_result())
        assert path.parent.name == f"v{RESULT_SCHEMA_VERSION}"

    def test_stored_key_verified_on_load(self, tmp_path):
        """A same-named entry whose embedded key disagrees is a miss."""
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, make_result())
        payload = json.loads(path.read_text())
        payload["key"]["seed"] = 999
        path.write_text(json.dumps(payload))
        assert ResultCache(tmp_path).get(KEY) is None

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, make_result())
        path.write_text("{not json")
        assert ResultCache(tmp_path).get(KEY) is None

    def test_corrupt_entry_is_discarded(self, tmp_path):
        """Unreadable JSON is deleted so the next run rewrites it."""
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, make_result())
        path.write_text("{not json")
        ResultCache(tmp_path).get(KEY)
        assert not path.exists()

    def test_truncated_entry_is_miss_and_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, make_result())
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        fresh = ResultCache(tmp_path)
        assert fresh.get(KEY) is None
        assert fresh.misses == 1
        assert not path.exists()

    def test_wrong_result_shape_is_miss_and_discarded(self, tmp_path):
        """Valid JSON whose result fields don't match ExecutionResult."""
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, make_result())
        payload = json.loads(path.read_text())
        payload["result"] = {"busy": 1.0, "bogus_field": 2.0}
        path.write_text(json.dumps(payload))
        assert ResultCache(tmp_path).get(KEY) is None
        assert not path.exists()

    def test_non_dict_entry_is_miss_and_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, make_result())
        path.write_text(json.dumps([1, 2, 3]))
        assert ResultCache(tmp_path).get(KEY) is None
        assert not path.exists()

    def test_mismatched_key_entry_is_kept(self, tmp_path):
        """A well-formed entry for a *different* key must survive."""
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, make_result())
        payload = json.loads(path.read_text())
        payload["key"]["seed"] = 999
        path.write_text(json.dumps(payload))
        assert ResultCache(tmp_path).get(KEY) is None
        assert path.exists()

    def test_config_change_separates_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        other = SimulationKey.for_run("tree", "pmod", RunConfig(scale=0.2))
        cache.put(KEY, make_result())
        cache.put(other, make_result(busy=9.0))
        assert len(list(cache.root.glob("*.json"))) == 2
        assert cache.get(KEY).busy != cache.get(other).busy

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, make_result())
        assert not list(cache.root.glob("*.tmp*"))


class TestPayloadEntries:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_payload(KEY, {"balance": 1.5, "shards": [3, 2, 1]})
        loaded = ResultCache(tmp_path).get_payload(KEY)
        assert loaded == {"balance": 1.5, "shards": [3, 2, 1]}

    def test_absent_is_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_payload(KEY) is None
        assert cache.misses == 1

    def test_does_not_collide_with_result_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, make_result())
        cache.put_payload(KEY, {"kind": "payload"})
        fresh = ResultCache(tmp_path)
        assert fresh.get(KEY) == make_result()
        assert fresh.get_payload(KEY) == {"kind": "payload"}

    def test_corrupt_payload_is_miss_and_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put_payload(KEY, {"ok": True})
        path.write_text("!!")
        assert ResultCache(tmp_path).get_payload(KEY) is None
        assert not path.exists()

    def test_stored_key_verified(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put_payload(KEY, {"ok": True})
        payload = json.loads(path.read_text())
        payload["key"]["scale"] = 123.0
        path.write_text(json.dumps(payload))
        assert ResultCache(tmp_path).get_payload(KEY) is None

