"""Tests for the persistent disk cache tier (``REPRO_DISK_CACHE``)."""

import os
import pickle

import numpy as np
import pytest

from repro.experiments import cache, cache_disk
from repro.experiments.cache_disk import (
    DISK_KINDS,
    FORMAT_VERSION,
    MAGIC,
    SCHEMA_VERSION,
    DiskCacheError,
    cache_dir,
    enabled_for,
    entry_path,
    key_digest,
)


@pytest.fixture()
def disk_root(tmp_path, monkeypatch):
    root = tmp_path / "disk-cache"
    monkeypatch.setenv("REPRO_DISK_CACHE", str(root))
    cache_disk.reset_stats()
    cache.clear()
    yield root
    cache.clear()
    cache_disk.reset_stats()


def sample_value(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "matrix": rng.integers(0, 2**63, size=(17, 3), dtype=np.uint64),
        "name": f"entry-{seed}",
        "nested": [1, 2.5, ("a", rng.standard_normal(5))],
    }


class TestConfiguration:
    def test_disabled_when_env_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        assert cache_dir() is None
        assert not enabled_for("workload")

    def test_enabled_only_for_persisted_kinds(self, disk_root):
        assert enabled_for("workload")
        assert enabled_for("partitions")
        assert not enabled_for("sessions")  # derived, cheap, not persisted

    def test_digest_depends_on_kind_key_and_schema(self):
        key = ("s953", 1.0, 128, 7, 400)
        assert key_digest("workload", key) != key_digest("partitions", key)
        assert key_digest("workload", key) != key_digest("workload", key + (1,))
        assert len(key_digest("workload", key)) == 40

    def test_digest_depends_on_producer_source(self, monkeypatch):
        key = ("s953", 1.0, 128, 7, 400)
        before = key_digest("workload", key)
        monkeypatch.setattr(cache_disk, "source_digest", lambda: "changed")
        assert key_digest("workload", key) != before

    def test_source_digest_is_stable_within_a_process(self):
        assert cache_disk.source_digest() == cache_disk.source_digest()
        assert len(cache_disk.source_digest()) == 16


class TestStaleSource:
    """An entry built by different ``repro`` source never comes back."""

    def test_changed_producer_source_makes_old_entry_miss(
            self, disk_root, monkeypatch):
        key = ("s27", 1.0, 64, 0, 21)
        assert cache_disk.store("workload", key, sample_value())
        assert cache_disk.load("workload", key)[1]
        monkeypatch.setattr(cache_disk, "source_digest", lambda: "newer-code")
        value, hit = cache_disk.load("workload", key)
        assert not hit and value is None
        assert cache_disk.stats()["misses"] == 1

    def test_memoized_rebuilds_instead_of_serving_stale(
            self, disk_root, monkeypatch):
        key = ("s27", 1.0, 64, 0, 22)
        cache.memoized("workload", key, lambda: "old")
        cache.clear()
        monkeypatch.setattr(cache_disk, "source_digest", lambda: "newer-code")
        assert cache.memoized("workload", key, lambda: "new") == "new"

    def test_warm_from_disk_skips_entries_of_other_source(
            self, disk_root, monkeypatch):
        cache_disk.store("workload", ("s27", 1.0, 64, 0, 23), sample_value())
        cache.clear()
        monkeypatch.setattr(cache_disk, "source_digest", lambda: "newer-code")
        assert cache.warm_from_disk() == 0
        cache_disk.store("workload", ("s27", 1.0, 64, 0, 24), sample_value())
        cache.clear()
        assert cache.warm_from_disk() == 1

    def test_store_after_source_change_removes_old_entries(
            self, disk_root, monkeypatch):
        """A source change replaces the directory's entries instead of
        adding a second set beside them."""
        keys = [("s27", 1.0, 64, 0, k) for k in (25, 26)]
        for key in keys:
            cache_disk.store("workload", key, sample_value())
        before = sorted(path.name for path in disk_root.iterdir())
        assert len(before) == 2
        monkeypatch.setattr(cache_disk, "source_digest", lambda: "newer-code")
        for key in keys:
            cache_disk.store("workload", key, sample_value())
        after = sorted(path.name for path in disk_root.iterdir())
        assert len(after) == 2 and not set(after) & set(before)

    def test_warm_from_disk_removes_entries_of_other_source(
            self, disk_root, monkeypatch):
        cache_disk.store("workload", ("s27", 1.0, 64, 0, 27), sample_value())
        monkeypatch.setattr(cache_disk, "source_digest", lambda: "newer-code")
        cache.clear()
        assert cache.warm_from_disk() == 0
        assert list(disk_root.iterdir()) == []


class TestRoundTrip:
    def test_store_then_load(self, disk_root):
        key = ("s953", 1.0, 128, 7, 400)
        value = sample_value(3)
        assert cache_disk.store("workload", key, value)
        loaded, hit = cache_disk.load("workload", key)
        assert hit
        assert loaded["name"] == value["name"]
        assert np.array_equal(loaded["matrix"], value["matrix"])
        assert np.array_equal(loaded["nested"][2][1], value["nested"][2][1])

    def test_load_survives_pickle_round_trip_of_arrays(self, disk_root):
        # Arrays come back as mmap-backed copy-on-write views; they must
        # still behave like normal writable-after-copy arrays.
        key = ("s27", 1.0, 64, 0, 10)
        cache_disk.store("workload", key, sample_value(5))
        loaded, hit = cache_disk.load("workload", key)
        assert hit
        copied = loaded["matrix"].copy()
        copied[0, 0] = np.uint64(42)
        assert copied[0, 0] == 42

    def test_missing_entry_is_miss(self, disk_root):
        value, hit = cache_disk.load("workload", ("absent", 1.0, 64, 0, 1))
        assert not hit and value is None
        assert cache_disk.stats()["misses"] == 1

    def test_atomic_write_leaves_no_temp_files(self, disk_root):
        cache_disk.store("workload", ("k", 1), sample_value())
        leftovers = [p for p in disk_root.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []


class TestCorruption:
    def test_truncated_entry_quarantined(self, disk_root):
        key = ("s27", 1.0, 64, 0, 10)
        cache_disk.store("workload", key, sample_value())
        path = entry_path(disk_root, "workload", key)
        path.write_bytes(path.read_bytes()[:20])
        value, hit = cache_disk.load("workload", key)
        assert not hit and value is None
        assert cache_disk.stats()["errors"] == 1
        assert not path.exists()  # quarantined, costs one attempt only

    def test_bad_magic_quarantined(self, disk_root):
        key = ("s27", 1.0, 64, 0, 11)
        cache_disk.store("workload", key, sample_value())
        path = entry_path(disk_root, "workload", key)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        _, hit = cache_disk.load("workload", key)
        assert not hit
        assert not path.exists()

    def test_stale_format_version_is_miss(self, disk_root):
        import struct

        key = ("s27", 1.0, 64, 0, 12)
        cache_disk.store("workload", key, sample_value())
        path = entry_path(disk_root, "workload", key)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 4, FORMAT_VERSION + 1)
        path.write_bytes(bytes(raw))
        _, hit = cache_disk.load("workload", key)
        assert not hit

    def test_unwritable_dir_degrades_to_no_store(self, disk_root, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", str(disk_root / "file-in-the-way"))
        (disk_root / "file-in-the-way").parent.mkdir(parents=True, exist_ok=True)
        (disk_root / "file-in-the-way").write_text("not a directory")
        assert not cache_disk.store("workload", ("k", 2), sample_value())


class TestConcurrentWriters:
    def test_lost_write_race_is_benign_hit(self, disk_root):
        key = ("s27", 1.0, 64, 0, 77)
        assert cache_disk.store("workload", key, sample_value(1))
        # Second writer of the same content-addressed entry loses the
        # race: no rewrite, success reported, race counted.
        assert cache_disk.store("workload", key, sample_value(1))
        stats = cache_disk.stats()
        assert stats["races"] == 1
        loaded, hit = cache_disk.load("workload", key)
        assert hit and loaded["name"] == "entry-1"

    def test_temp_names_carry_pid(self, disk_root, monkeypatch):
        captured = {}
        real_mkstemp = cache_disk.tempfile.mkstemp

        def spy(**kwargs):
            captured.update(kwargs)
            return real_mkstemp(**kwargs)

        monkeypatch.setattr(cache_disk.tempfile, "mkstemp", spy)
        cache_disk.store("workload", ("pid-check", 1), sample_value())
        assert f"-{os.getpid()}-" in captured["prefix"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_many_processes_store_same_key(self, disk_root):
        key = ("s953", 1.0, 128, 7, 400)
        value = sample_value(9)
        pids = []
        for _ in range(4):
            pid = os.fork()
            if pid == 0:
                ok = False
                try:
                    ok = cache_disk.store("workload", key, value)
                finally:
                    os._exit(0 if ok else 1)
            pids.append(pid)
        for pid in pids:
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
        # Exactly one entry, intact, and no leaked temp files.
        entries = [p for p in disk_root.iterdir()
                   if not p.name.startswith(".tmp-")]
        assert len(entries) == 1
        leftovers = [p for p in disk_root.iterdir()
                     if p.name.startswith(".tmp-")]
        assert leftovers == []
        loaded, hit = cache_disk.load("workload", key)
        assert hit
        assert np.array_equal(loaded["matrix"], value["matrix"])


class TestScan:
    def test_missing_dir_raises_clear_error(self, tmp_path):
        with pytest.raises(DiskCacheError, match="does not exist"):
            cache_disk.scan(tmp_path / "nope")

    def test_unset_env_raises_clear_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        with pytest.raises(DiskCacheError, match="no disk cache configured"):
            cache_disk.scan()

    def test_path_not_a_directory(self, tmp_path):
        target = tmp_path / "plain-file"
        target.write_text("hello")
        with pytest.raises(DiskCacheError, match="not a directory"):
            cache_disk.scan(target)

    def test_summary_counts_kinds_and_corrupt(self, disk_root):
        cache_disk.store("workload", ("a", 1), sample_value(1))
        cache_disk.store("workload", ("b", 2), sample_value(2))
        cache_disk.store("partitions", ("c", 3), [1, 2, 3])
        (disk_root / "workload-deadbeef.rpdc").write_bytes(b"garbage!")
        summary = cache_disk.scan(disk_root)
        assert summary["kinds"]["workload"]["entries"] == 2
        assert summary["kinds"]["partitions"]["entries"] == 1
        assert summary["entries"] == 3
        assert summary["corrupt"] == 1
        assert summary["bytes"] > 0


class TestMemoizedIntegration:
    def test_disk_hit_skips_builder(self, disk_root):
        key = ("s27", 1.0, 64, 0, 13)
        calls = []

        def builder():
            calls.append(1)
            return sample_value(8)

        first = cache.memoized("workload", key, builder)
        assert calls == [1]
        cache.clear()  # drop memory tier; disk tier persists
        second = cache.memoized("workload", key, builder)
        assert calls == [1]  # builder not re-run: served from disk
        assert np.array_equal(first["matrix"], second["matrix"])
        assert cache_disk.stats()["hits"] == 1

    def test_unpersisted_kind_always_builds(self, disk_root):
        calls = []
        cache.memoized("sessions", ("x",), lambda: calls.append(1) or 1)
        cache.clear()
        cache.memoized("sessions", ("x",), lambda: calls.append(1) or 2)
        assert len(calls) == 2
        assert not list(disk_root.glob("sessions-*"))

    def test_stats_reports_disk_counters(self, disk_root):
        key = ("s27", 1.0, 64, 0, 14)
        cache.memoized("workload", key, lambda: sample_value())
        cache.clear()
        cache.memoized("workload", key, lambda: sample_value())
        snapshot = cache.stats()
        assert snapshot.disk["hits"] == 1
        assert snapshot.disk["bytes_written"] > 0


class TestWarmFromDisk:
    def test_warm_seeds_memo_store(self, disk_root):
        keys = [("s27", 1.0, 64, 0, i) for i in range(3)]
        for i, key in enumerate(keys):
            cache_disk.store("workload", key, sample_value(i))
        cache.clear()
        loaded = cache.warm_from_disk()
        assert loaded == 3
        # A subsequent memoized() is a pure memory hit: builder untouched.
        sentinel = []
        cache.memoized("workload", keys[0], lambda: sentinel.append(1))
        assert sentinel == []

    def test_warm_respects_byte_budget(self, disk_root):
        for i in range(4):
            cache_disk.store("workload", ("big", i), sample_value(i))
        cache.clear()
        loaded = cache.warm_from_disk(max_bytes=1)
        assert loaded <= 1  # budget hit after the first entry at most

    def test_warm_skips_corrupt_entries(self, disk_root):
        cache_disk.store("workload", ("good", 1), sample_value())
        (disk_root / "workload-0000000000.rpdc").write_bytes(b"junk")
        cache.clear()
        assert cache.warm_from_disk() == 1

    def test_warm_with_no_disk_cache_is_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        assert cache.warm_from_disk() == 0


class TestEngineWarm:
    def test_engine_warm_from_disk(self, disk_root):
        from repro.service.engine import DiagnosisEngine

        cache_disk.store("workload", ("s27", 1.0, 64, 0, 15), sample_value())
        cache.clear()
        engine = DiagnosisEngine(workers=0)
        assert engine.warm_from_disk() == 1

    def test_engine_warm_degrades_on_empty_dir(self, disk_root):
        from repro.service.engine import DiagnosisEngine

        disk_root.mkdir(parents=True, exist_ok=True)
        engine = DiagnosisEngine(workers=0)
        assert engine.warm_from_disk() == 0
