"""Process-wide memoized store for workloads and partition sets.

Every experiment module used to rebuild its circuit, golden simulation and
fault responses from scratch (``run_table1``, the ablations and the
extensions all call ``build_circuit_workload`` independently), so a full
reproduction run compiled and fault-simulated each benchmark many times
over.  Workloads are pure functions of their configuration — circuit name,
scale, pattern count, fault seed and fault count — and partition sets are
pure functions of the partitioner signature, so both can be memoized for
the lifetime of the process without changing a single number.

Keys must capture *every* input that influences the value:

* workloads: ``(circuit, scale, num_patterns, fault_seed, fault_count)``
* SOC workloads: the SOC fingerprint (name, per-core shapes, the exact
  meta-chain stitching) plus the fault seed and per-core fault counts
* partition sets: the full partitioner signature ``(scheme, length,
  num_groups, num_partitions, lfsr_degree, seed,
  num_interval_partitions)``
* SoA gate schedules: ``(circuit name, structural digest)`` — the digest
  hashes the compiled ops, so any netlist or compiler change misses

The store **never evicts on its own** — workload counts are small (dozens
per run) and values are shared, so the default policy is "keep
everything".  Long-lived processes (the diagnosis *service*) can bound
resident memory explicitly with :func:`evict`, which drops one entry and
counts into ``stats().evictions``; batch experiment runs never call it, so
for them the counter stays 0.  Hits and misses are also reported per kind
into :data:`repro.telemetry.METRICS` as ``cache.hits{kind=...}`` /
``cache.misses{kind=...}``, and the resident footprint as the
``cache.bytes`` gauge (estimated recursively: numpy buffers dominate, so
the estimate is accurate where it matters).

Below the in-memory store sits an optional **disk tier**
(:mod:`repro.experiments.cache_disk`, enabled by pointing
``REPRO_DISK_CACHE`` at a directory): memory misses consult it before
running the builder, fresh builds are persisted to it, and
:func:`warm_from_disk` bulk-loads it into the memo store (the diagnosis
service does this at startup so cold starts skip recompilation).

Set ``REPRO_CACHE=0`` to disable (every lookup misses); ``clear()``
empties the in-memory store, e.g. between benchmark timing passes (the
disk tier is never cleared implicitly).
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, Optional, Tuple

from ..telemetry import METRICS, log
from . import cache_disk

_LOCK = threading.RLock()
_STORE: Dict[Tuple[str, Hashable], Any] = {}
#: Estimated resident bytes per entry (same keys as ``_STORE``).
_SIZES: Dict[Tuple[str, Hashable], int] = {}
_EVICTIONS = 0


@dataclass
class CacheStats:
    """Hit/miss counters per cache kind, plus store-wide gauges."""

    hits: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)
    #: Live entries in the store (all kinds).
    entries: int = 0
    #: Entries dropped via :func:`evict` (0 unless a caller bounds memory).
    evictions: int = 0
    #: Estimated resident bytes of all live entries.
    bytes: int = 0
    #: Disk-tier counters (hits/misses/errors/bytes_read/bytes_written);
    #: all zero when ``REPRO_DISK_CACHE`` is unset.
    disk: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, hit: bool) -> None:
        table = self.hits if hit else self.misses
        table[kind] = table.get(kind, 0) + 1

    def hit_rate(self, kind: str) -> float:
        """Hit fraction for one kind (0.0 when the kind was never seen)."""
        hits = self.hits.get(kind, 0)
        total = hits + self.misses.get(kind, 0)
        return hits / total if total else 0.0

    def kinds(self):
        return sorted(set(self.hits) | set(self.misses))


_STATS = CacheStats()


def cache_enabled() -> bool:
    """The cache honours ``REPRO_CACHE`` (default on; ``0`` disables)."""
    return os.environ.get("REPRO_CACHE", "1").strip() != "0"


def _record(kind: str, hit: bool) -> None:
    _STATS.record(kind, hit)
    METRICS.incr("cache.hits" if hit else "cache.misses", 1, labels={"kind": kind})


def memoized(kind: str, key: Hashable, builder: Callable[[], Any]) -> Any:
    """Return the cached value for ``(kind, key)``, building it on a miss.

    A memory miss first consults the disk tier (when ``REPRO_DISK_CACHE``
    points somewhere); only a miss on both tiers runs the builder, and a
    fresh build is persisted so every later process hits.  With the cache
    disabled the builder runs unconditionally and nothing is stored — the
    call is then exactly the uncached code path.
    """
    if not cache_enabled():
        with _LOCK:
            _record(kind, hit=False)
        return builder()
    full_key = (kind, key)
    with _LOCK:
        if full_key in _STORE:
            _record(kind, hit=True)
            return _STORE[full_key]
    # Build outside the lock: workload construction is expensive and two
    # threads racing on the same key deterministically build equal values.
    from_disk = False
    value = None
    if cache_disk.enabled_for(kind):
        value, from_disk = cache_disk.load(kind, key)
    if not from_disk:
        value = builder()
    with _LOCK:
        _record(kind, hit=False)
        value = _STORE.setdefault(full_key, value)
        if full_key not in _SIZES:
            _SIZES[full_key] = estimate_bytes(value)
        METRICS.gauge("cache.entries", len(_STORE))
        METRICS.gauge("cache.bytes", sum(_SIZES.values()))
    if not from_disk and cache_disk.enabled_for(kind):
        # Persist outside the lock; best-effort by contract.
        cache_disk.store(kind, key, value)
    return value


def seed(kind: str, key: Hashable, value: Any) -> bool:
    """Insert a pre-built value without touching the hit/miss counters
    (used by disk warm-up).  Returns False if the key was already live."""
    full_key = (kind, key)
    with _LOCK:
        if full_key in _STORE:
            return False
        _STORE[full_key] = value
        _SIZES[full_key] = estimate_bytes(value)
        METRICS.gauge("cache.entries", len(_STORE))
        METRICS.gauge("cache.bytes", sum(_SIZES.values()))
        return True


def warm_from_disk(
    kinds: Optional[Iterable[str]] = None,
    max_bytes: Optional[int] = None,
) -> int:
    """Bulk-load disk-tier entries into the memo store.

    Drops the entries other source wrote
    (:func:`~repro.experiments.cache_disk.evict_stale`), then loads every
    readable entry of the requested kinds (default: all persisted
    kinds) that this source tree produced, stopping once
    ``max_bytes`` of estimated resident memory is reached.  Returns the
    number of entries seeded.  Unreadable entries and unparsable keys are
    skipped with a log line — a corrupt cache directory degrades to a cold
    start, never an error.
    """
    if not cache_enabled():
        return 0
    wanted = set(kinds) if kinds is not None else set(cache_disk.DISK_KINDS)
    cache_disk.evict_stale()
    loaded = 0
    for path, meta in cache_disk.iter_entries():
        kind = meta.get("kind")
        if kind not in wanted or meta.get("source") != cache_disk.source_digest():
            continue
        if max_bytes is not None and total_bytes() >= max_bytes:
            log(f"cache: disk warm-up stopped at {total_bytes()} B "
                f"(budget {max_bytes} B)")
            break
        try:
            key = cache_disk.parse_key(meta)
        except (KeyError, SyntaxError, ValueError) as exc:
            log(f"cache: skipping disk entry {path.name} with "
                f"unparsable key: {exc!r}")
            continue
        value, ok = cache_disk.load(kind, key)
        if ok and seed(kind, key, value):
            loaded += 1
    return loaded


def evict(kind: str, key: Hashable) -> bool:
    """Drop one entry (True if it was resident).

    The only eviction path: the memo store itself never ages anything out.
    Long-lived servers call this to bound resident memory (see
    :class:`repro.service.engine.DiagnosisEngine`); re-requesting an
    evicted key simply rebuilds it (a miss), so eviction is always safe.
    """
    global _EVICTIONS
    full_key = (kind, key)
    with _LOCK:
        if full_key not in _STORE:
            return False
        del _STORE[full_key]
        _SIZES.pop(full_key, None)
        _EVICTIONS += 1
        METRICS.incr("cache.evictions", 1, labels={"kind": kind})
        METRICS.gauge("cache.entries", len(_STORE))
        METRICS.gauge("cache.bytes", sum(_SIZES.values()))
        return True


def clear() -> None:
    """Empty the store and reset the counters."""
    global _EVICTIONS
    with _LOCK:
        _STORE.clear()
        _SIZES.clear()
        _STATS.hits.clear()
        _STATS.misses.clear()
        _EVICTIONS = 0
        METRICS.gauge("cache.entries", 0)
        METRICS.gauge("cache.bytes", 0)


def stats() -> CacheStats:
    """A snapshot of the hit/miss counters and store gauges."""
    with _LOCK:
        return CacheStats(
            hits=dict(_STATS.hits),
            misses=dict(_STATS.misses),
            entries=len(_STORE),
            evictions=_EVICTIONS,
            bytes=sum(_SIZES.values()),
            disk=cache_disk.stats(),
        )


def total_bytes() -> int:
    """Estimated resident bytes of the whole store."""
    with _LOCK:
        return sum(_SIZES.values())


def estimate_bytes(value: Any, _seen: Any = None, _depth: int = 0) -> int:
    """Recursive size estimate biased toward what actually costs memory.

    numpy buffers report ``nbytes`` exactly; containers and dataclasses
    recurse (cycle-safe, depth-capped); everything else falls back to
    ``sys.getsizeof``.  Shared sub-objects are counted once.
    """
    if _seen is None:
        _seen = set()
    if _depth > 12 or id(value) in _seen:
        return 0
    _seen.add(id(value))
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        # numpy arrays (and anything else exposing a buffer size).
        return nbytes + 96
    try:
        size = sys.getsizeof(value)
    except TypeError:  # pragma: no cover - exotic objects
        size = 64
    if isinstance(value, dict):
        for k, v in value.items():
            size += estimate_bytes(k, _seen, _depth + 1)
            size += estimate_bytes(v, _seen, _depth + 1)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            size += estimate_bytes(item, _seen, _depth + 1)
    elif hasattr(value, "__dict__"):
        size += estimate_bytes(vars(value), _seen, _depth + 1)
    elif hasattr(value, "__slots__"):
        for slot in value.__slots__:
            size += estimate_bytes(getattr(value, slot, None), _seen, _depth + 1)
    return size


def cache_size() -> int:
    with _LOCK:
        return len(_STORE)


#: Back-compat aliases (PR 1 public names).
clear_caches = clear
cache_stats = stats


def soc_fingerprint(soc) -> Hashable:
    """A hashable identity for a stitched SOC: which cores, their shapes,
    and the exact cell-to-meta-chain stitching (the lifted responses depend
    on all of it)."""
    return (
        soc.name,
        tuple(
            (core.name, core.num_cells, core.num_patterns) for core in soc.cores
        ),
        tuple(tuple(chain) for chain in soc.scan_config.chains),
    )
