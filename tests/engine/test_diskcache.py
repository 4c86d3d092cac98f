"""The on-disk compilation cache: round-trips, corruption, layering."""

import json
import os

import pytest

from repro.csp.events import AlphabetTable, Event
from repro.csp.lts import StateSpaceLimitExceeded, compile_lts
from repro.csp.process import Environment, Prefix, ProcessRef, Stop
from repro.engine import (
    CompilationCache,
    DISKCACHE_FORMAT_VERSION,
    DiskCache,
    VerificationPipeline,
    structural_key,
)
from repro.exec.keys import lts_key_digest

A, B, C = Event("a"), Event("b"), Event("c")


def looping_process():
    return Prefix(A, Prefix(B, ProcessRef("LOOP")))


def looping_env():
    env = Environment()
    env.bind("LOOP", looping_process())
    return env


def compiled():
    env = looping_env()
    process = ProcessRef("LOOP")
    table = AlphabetTable()
    return structural_key(process, env), compile_lts(process, env, table=table)


def read_entry(path):
    """Split a v2 entry into its JSON header and raw array body."""
    with open(path, "rb") as handle:
        raw = handle.read()
    newline = raw.index(b"\n")
    return json.loads(raw[:newline].decode("utf-8")), raw[newline + 1 :]


def write_entry(path, header, body):
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
        handle.write(b"\n")
        handle.write(body)


class TestRoundTrip:
    def test_put_then_get_reproduces_the_automaton(self, tmp_path):
        key, lts = compiled()
        disk = DiskCache(str(tmp_path))
        assert disk.put_lts(key, lts)
        table = AlphabetTable()
        loaded = disk.get_lts(key, table=table)
        assert loaded is not None
        assert loaded.state_count == lts.state_count
        assert loaded.transition_count == lts.transition_count
        assert loaded.initial == lts.initial
        # identical per-state successors, compared on event *names* (ids
        # are table-local); order must match exactly for deterministic BFS
        for state in range(lts.state_count):
            original = [
                (str(lts.table.event_of(eid)), target)
                for eid, target in lts.successors_ids(state)
            ]
            reread = [
                (str(loaded.table.event_of(eid)), target)
                for eid, target in loaded.successors_ids(state)
            ]
            assert original == reread

    def test_tuple_valued_fields_round_trip(self, tmp_path):
        event = Event("req", (("nested", 1), "flat"))
        process = Prefix(event, Stop())
        env = Environment()
        key = structural_key(process, env)
        lts = compile_lts(process, env)
        disk = DiskCache(str(tmp_path))
        disk.put_lts(key, lts)
        loaded = disk.get_lts(key)
        (eid, _target), = loaded.successors_ids(loaded.initial)
        assert loaded.table.event_of(eid) == event

    def test_entries_are_binary_kernel_dumps(self, tmp_path):
        key, lts = compiled()
        disk = DiskCache(str(tmp_path))
        disk.put_lts(key, lts)
        path = disk.path_of(key)
        assert path.endswith(".ltsb")
        header, body = read_entry(path)
        assert header["format"] == DISKCACHE_FORMAT_VERSION
        assert header["states"] == lts.state_count
        assert header["transitions"] == lts.transition_count
        # the body is exactly the three int64 arrays, nothing interpreted
        item = 8
        expected = (header["states"] + 1 + 2 * header["transitions"]) * item
        assert len(body) == expected

    def test_miss_on_absent_key(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        key, _lts = compiled()
        assert disk.get_lts(key) is None
        assert disk.stats()["disk_misses"] == 1

    def test_distinct_pass_configs_get_distinct_entries(self, tmp_path):
        key, lts = compiled()
        disk = DiskCache(str(tmp_path))
        disk.put_lts(key, lts, passes=("sbisim",))
        assert disk.get_lts(key) is None
        assert disk.get_lts(key, passes=("sbisim",)) is not None
        assert lts_key_digest(key) != lts_key_digest(key, ("sbisim",))


class TestCorruptionTolerance:
    def test_garbage_file_is_a_miss_and_quarantined(self, tmp_path):
        key, lts = compiled()
        disk = DiskCache(str(tmp_path))
        disk.put_lts(key, lts)
        path = disk.path_of(key)
        with open(path, "w") as handle:
            handle.write("{not json at all")
        assert disk.get_lts(key) is None
        assert disk.stats()["disk_corrupt"] == 1
        assert not os.path.exists(path)
        # the store recovers: a fresh write serves reads again
        disk.put_lts(key, lts)
        assert disk.get_lts(key) is not None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        key, lts = compiled()
        disk = DiskCache(str(tmp_path))
        disk.put_lts(key, lts)
        path = disk.path_of(key)
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        assert disk.get_lts(key) is None
        assert disk.stats()["disk_corrupt"] == 1

    def test_truncated_body_is_a_miss(self, tmp_path):
        # the header parses fine but the arrays are short one edge
        key, lts = compiled()
        disk = DiskCache(str(tmp_path))
        disk.put_lts(key, lts)
        path = disk.path_of(key)
        header, body = read_entry(path)
        write_entry(path, header, body[:-8])
        assert disk.get_lts(key) is None
        assert disk.stats()["disk_corrupt"] == 1

    def test_version_skew_is_a_miss(self, tmp_path):
        key, lts = compiled()
        disk = DiskCache(str(tmp_path))
        disk.put_lts(key, lts)
        path = disk.path_of(key)
        header, body = read_entry(path)
        header["format"] = DISKCACHE_FORMAT_VERSION + 1
        write_entry(path, header, body)
        assert disk.get_lts(key) is None
        assert disk.stats()["disk_corrupt"] == 1

    def test_stored_key_mismatch_is_a_miss(self, tmp_path):
        # simulate a digest collision: entry bytes present under the right
        # path but recording a different structural key
        key, lts = compiled()
        other = structural_key(Prefix(C, Stop()), Environment())
        disk = DiskCache(str(tmp_path))
        disk.put_lts(other, lts)
        os.replace(disk.path_of(other), disk.path_of(key))
        assert disk.get_lts(key) is None

    def test_structural_garbage_is_a_miss(self, tmp_path):
        # valid bytes, nonsense arrays: targets pointing past state_count
        key, lts = compiled()
        disk = DiskCache(str(tmp_path))
        disk.put_lts(key, lts)
        path = disk.path_of(key)
        header, body = read_entry(path)
        from array import array

        arr = array("q")
        arr.frombytes(body)
        arr[-1] = header["states"] + 7
        write_entry(path, header, arr.tobytes())
        assert disk.get_lts(key) is None

    def test_legacy_v1_entries_are_swept_on_open(self, tmp_path):
        # a v1 .json entry left by an older build must not linger: its
        # digest namespace is dead (lts_key_digest folds in the version), so
        # opening the directory removes it and reports it as stale
        legacy = tmp_path / ("a" * 64 + ".json")
        legacy.write_text('{"format": 1}')
        disk = DiskCache(str(tmp_path))
        assert not legacy.exists()
        assert disk.stats()["disk_stale"] == 1
        assert len(disk) == 0


class TestHousekeeping:
    def test_clear_and_len(self, tmp_path):
        key, lts = compiled()
        disk = DiskCache(str(tmp_path))
        disk.put_lts(key, lts)
        assert len(disk) == 1
        disk.clear()
        assert len(disk) == 0

    def test_stats_shape(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        stats = disk.stats()
        assert set(stats) == {
            "disk_entries",
            "disk_hits",
            "disk_misses",
            "disk_corrupt",
            "disk_writes",
            "disk_stale",
        }


class TestCompilationCacheLayering:
    def test_memory_miss_promotes_from_disk(self, tmp_path):
        key, lts = compiled()
        writer = CompilationCache(disk=DiskCache(str(tmp_path)))
        writer.put_lts(key, lts)
        reader = CompilationCache(disk=DiskCache(str(tmp_path)))
        table = AlphabetTable()
        hit = reader.get_lts(key, 10_000, table=table)
        assert hit is not None
        assert reader.disk_hits == 1
        # promoted: the second lookup is served from memory
        assert reader.get_lts(key, 10_000, table=table) is hit
        assert reader.disk_hits == 1

    def test_budget_applies_to_disk_hits(self, tmp_path):
        key, lts = compiled()
        writer = CompilationCache(disk=DiskCache(str(tmp_path)))
        writer.put_lts(key, lts)
        reader = CompilationCache(disk=DiskCache(str(tmp_path)))
        with pytest.raises(StateSpaceLimitExceeded):
            reader.get_lts(key, lts.state_count - 1, table=AlphabetTable())

    def test_stats_include_the_disk_layer(self, tmp_path):
        cache = CompilationCache(disk=DiskCache(str(tmp_path)))
        stats = cache.stats()
        assert "disk_promotions" in stats
        assert "disk_entries" in stats
        assert "disk_promotions" not in CompilationCache().stats()


class TestPipelineIntegration:
    def test_warm_pipeline_reproduces_cold_verdict(self, tmp_path):
        env = looping_env()
        spec = ProcessRef("LOOP")
        impl = Prefix(A, Prefix(C, Stop()))

        def run():
            cache = CompilationCache(disk=DiskCache(str(tmp_path)))
            pipeline = VerificationPipeline(looping_env(), cache=cache)
            return pipeline.refinement(spec, impl, "T"), cache

        cold, cold_cache = run()
        assert cold_cache.disk_hits == 0
        warm, warm_cache = run()
        assert warm_cache.disk_hits > 0
        assert cold.passed == warm.passed
        assert [str(e) for e in cold.counterexample.trace] == [
            str(e) for e in warm.counterexample.trace
        ]
        assert cold.states_explored == warm.states_explored
        assert cold.counterexample.describe() == warm.counterexample.describe()
