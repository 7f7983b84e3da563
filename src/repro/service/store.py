"""Sharded persistent plan store: the on-disk half of the plan cache.

The in-memory :class:`~repro.backend.plancache.PlanCache` dies with its
process, so every fresh worker / daemon restart re-prices every pattern
from scratch. :class:`PlanStore` spills priced summaries to versioned
on-disk shards that any number of processes can share:

- **Keys** are the exact hashable keys the lowering seams already build —
  ``(pattern_key, config fingerprint, bytes_per_elem)``, where the pattern
  key is the step's sorted transfer rows as bytes
  (:meth:`~repro.collectives.base.CommStep.pattern_key`), and the
  delta-salted ``("delta", base, diff)`` keys of incremental repair — so a
  repaired plan can never alias a from-scratch one on disk either. Keys are
  digested with SHA-256 over their ``repr`` (the frozen config dataclasses
  normalize their fields, so equal keys repr identically in every process).
- **Shards**: a key's digest selects one of ``n_shards`` shard slots, and
  each *writer process* owns its own file per slot
  (``shard-<slot>.<pid>.pkl``). Writers only ever rewrite their own files
  (write-to-temp + :func:`os.replace`, so readers never observe a partial
  file) and readers merge every writer's file for a slot — concurrent
  processes share the store without any cross-process locking and can
  never clobber each other's entries.
- **Corruption tolerance**: a truncated, garbled or wrong-version shard
  file is counted (:attr:`StoreCounters.corrupt_files` /
  :attr:`StoreCounters.stale_files`) and skipped — it degrades to a cache
  miss, never a crash.
- **Fork safety**: the writer identity is the *current* pid, checked on
  every access, so a sweep worker forked from a warmed parent writes to
  its own per-process shard files instead of silently clobbering the
  parent's (the pre-service behaviour this module replaces). The
  :func:`ensure_worker_store` hook is called by
  :func:`repro.runner.sweep.sweep` workers to cover the spawn start method
  too.

:class:`PersistentPlanCache` composes the store with the bounded in-memory
LRU: lookups try memory first, then disk (promoting hits), and writes go
through to both. Handing one to a backend's ``plan_cache=`` argument is
all it takes — the lowering seams are unchanged.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Hashable

from repro.backend.plancache import (
    PlanCache,
    default_plan_cache,
    set_default_plan_cache,
)

#: On-disk format version; bumped on any incompatible change. Files with a
#: different version are ignored (counted in ``stale_files``, not crashed
#: on). Version 2: pattern keys became bytes instead of tuples of
#: ``(src, dst, n_elems, op)`` tuples, so a version-1 store is skipped as
#: stale (it could never hit, never wrongly).
STORE_VERSION = 2

#: Environment variable naming the store root. When set, sweep workers
#: (and anything else calling :func:`ensure_worker_store`) install a
#: persistent cache rooted there as the process default.
STORE_ENV = "WRHT_PLAN_STORE"

_DEFAULT_SHARDS = 16


def key_digest(key: Hashable) -> str:
    """Stable cross-process digest of a plan-cache key.

    SHA-256 over ``repr(key)``: the keys are tuples of frozen dataclasses,
    bytes, strings and numbers whose reprs are normalized, so equal keys digest
    identically in every process (the same property
    :func:`repro.obs.manifest.fingerprint` relies on).
    """
    return hashlib.sha256(repr(key).encode()).hexdigest()


@dataclass
class StoreCounters:
    """Lifetime tallies of one :class:`PlanStore` instance.

    Attributes:
        hits: Lookups served from a shard file.
        misses: Lookups not present on disk.
        writes: Entries buffered for persistence.
        flushes: Shard files atomically rewritten.
        corrupt_files: Shard files skipped as unreadable/garbled.
        stale_files: Shard files skipped on a version mismatch.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    flushes: int = 0
    corrupt_files: int = 0
    stale_files: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (service ``stats`` responses embed it)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "flushes": self.flushes,
            "corrupt_files": self.corrupt_files,
            "stale_files": self.stale_files,
        }


class PlanStore:
    """Sharded, versioned, multi-process-safe on-disk plan store.

    Args:
        root: Directory holding the shard files (created if missing).
        n_shards: Shard slots keys are spread over.
        flush_every: Buffered writes that trigger an automatic
            :meth:`flush` (1 = write-through; larger values batch shard
            rewrites for high-churn callers like the daemon).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        n_shards: int = _DEFAULT_SHARDS,
        flush_every: int = 1,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.n_shards = n_shards
        self.flush_every = flush_every
        self.stats = StoreCounters()
        self._lock = threading.RLock()
        # Merged view of every writer's files, loaded lazily per slot.
        self._snapshot: dict[int, dict[str, Any]] = {}
        # This process's own (digest -> value) entries per slot; rewritten
        # wholesale into this pid's shard file on flush.
        self._own: dict[int, dict[str, Any]] = {}
        self._dirty: set[int] = set()
        self._pending = 0
        self._owner_pid = os.getpid()

    # -- fork / process identity ---------------------------------------
    def _check_owner(self) -> None:
        """Re-key the writer identity after a fork.

        A forked child inherits the parent's buffers; writing them under
        the parent's pid would clobber the parent's shard files — the
        silent-sharing bug ``sweep(workers>1)`` used to have. The child
        instead drops the inherited buffers (the parent still owns and
        flushes them) and starts fresh files under its own pid.
        """
        pid = os.getpid()
        if pid == self._owner_pid:
            return
        self._owner_pid = pid
        self._own.clear()
        self._dirty.clear()
        self._pending = 0
        self._snapshot.clear()  # reload lazily: pick up the parent's files

    # -- key / file layout ---------------------------------------------
    def _slot_of(self, digest: str) -> int:
        return int(digest[:8], 16) % self.n_shards

    def _own_file(self, slot: int) -> Path:
        return self.root / f"shard-{slot:03d}.{self._owner_pid}.pkl"

    def _slot_files(self, slot: int) -> list[Path]:
        return sorted(self.root.glob(f"shard-{slot:03d}.*.pkl"))

    # -- load / persist -------------------------------------------------
    def _load_slot(self, slot: int) -> dict[str, Any]:
        """Merge every writer's file for ``slot``, skipping bad ones."""
        merged: dict[str, Any] = {}
        for path in self._slot_files(slot):
            try:
                data = pickle.loads(path.read_bytes())
            except Exception:  # noqa: BLE001 — any unreadable file is a miss
                self.stats.corrupt_files += 1
                continue
            if not isinstance(data, dict) or "entries" not in data:
                self.stats.corrupt_files += 1
                continue
            if data.get("version") != STORE_VERSION:
                self.stats.stale_files += 1
                continue
            entries = data["entries"]
            if not isinstance(entries, dict):
                self.stats.corrupt_files += 1
                continue
            merged.update(entries)
        return merged

    def _flush_locked(self) -> None:
        for slot in sorted(self._dirty):
            target = self._own_file(slot)
            tmp = target.with_name(f"{target.name}.tmp")
            payload = {
                "version": STORE_VERSION,
                "entries": dict(self._own.get(slot, {})),
            }
            tmp.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
            os.replace(tmp, target)
            self.stats.flushes += 1
        self._dirty.clear()
        self._pending = 0

    # -- public API -----------------------------------------------------
    def get(self, key: Hashable) -> Any | None:
        """The stored value for ``key``, or ``None`` (a miss)."""
        digest = key_digest(key)
        slot = self._slot_of(digest)
        with self._lock:
            self._check_owner()
            own = self._own.get(slot)
            if own is not None and digest in own:
                self.stats.hits += 1
                return own[digest]
            if slot not in self._snapshot:
                self._snapshot[slot] = self._load_slot(slot)
            value = self._snapshot[slot].get(digest)
        if value is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Buffer ``value`` under ``key``; flushes per ``flush_every``."""
        digest = key_digest(key)
        slot = self._slot_of(digest)
        with self._lock:
            self._check_owner()
            self._own.setdefault(slot, {})[digest] = value
            # Keep the merged view coherent for this process's own reads.
            if slot in self._snapshot:
                self._snapshot[slot][digest] = value
            self._dirty.add(slot)
            self._pending += 1
            self.stats.writes += 1
            if self._pending >= self.flush_every:
                self._flush_locked()

    def flush(self) -> None:
        """Atomically rewrite every dirty shard file of this process."""
        with self._lock:
            self._check_owner()
            self._flush_locked()

    def refresh(self) -> None:
        """Drop the merged snapshots so other writers' flushes are seen."""
        with self._lock:
            self._check_owner()
            self._snapshot.clear()

    def __len__(self) -> int:
        """Distinct entries visible to this process (loads every slot)."""
        with self._lock:
            self._check_owner()
            seen: set[str] = set()
            for slot in range(self.n_shards):
                if slot not in self._snapshot:
                    self._snapshot[slot] = self._load_slot(slot)
                seen.update(self._snapshot[slot])
                seen.update(self._own.get(slot, ()))
            return len(seen)


class PersistentPlanCache(PlanCache):
    """A :class:`PlanCache` backed by a shared :class:`PlanStore`.

    Lookups try the bounded in-memory LRU first, then the store (promoting
    disk hits into memory without re-writing them); writes go through to
    both. The counters keep their PlanCache meaning — a disk hit still
    counts as a cache hit, and the split is visible on
    ``store.stats``.

    Drop-in at every ``plan_cache=`` seam: the lowering code calls plain
    ``get``/``put`` and transparently gains persistence.
    """

    def __init__(self, store: PlanStore, maxsize: int = 4096) -> None:
        super().__init__(maxsize=maxsize)
        self.store = store

    def get(self, key: Hashable) -> Any | None:
        """Memory first, then the shared store (promoting disk hits)."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry
        value = self.store.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        if self.enabled:
            # Promote into memory only — the entry is already on disk.
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> int:
        """Write through: the in-memory LRU and the shared store."""
        evicted = super().put(key, value)
        self.store.put(key, value)
        return evicted

    def flush(self) -> None:
        """Persist buffered store writes (see :meth:`PlanStore.flush`)."""
        self.store.flush()


def install_persistent_cache(
    root: str | Path,
    *,
    maxsize: int = 4096,
    n_shards: int = _DEFAULT_SHARDS,
    flush_every: int = 1,
) -> PersistentPlanCache:
    """Make a store-backed cache the process-wide default plan cache.

    Backends constructed *after* this call (without an explicit
    ``plan_cache=``) lower through the persistent cache. Returns the
    installed cache.
    """
    cache = PersistentPlanCache(
        PlanStore(root, n_shards=n_shards, flush_every=flush_every),
        maxsize=maxsize,
    )
    set_default_plan_cache(cache)
    return cache


def ensure_worker_store() -> PersistentPlanCache | None:
    """Bind a sweep worker process to its own store shard files.

    Called by :func:`repro.runner.sweep.sweep` at the top of every worker
    chunk. Three cases:

    - the default cache is already persistent (fork start method inherited
      it): refresh it so the worker re-keys its writer files to its own
      pid and sees entries other workers have flushed;
    - :data:`STORE_ENV` names a store root (spawn start method, or the
      parent never installed one): install a fresh persistent cache there;
    - neither: leave the plain in-memory default untouched.
    """
    cache = default_plan_cache()
    if isinstance(cache, PersistentPlanCache):
        cache.store.refresh()
        return cache
    root = os.environ.get(STORE_ENV)
    if root:
        return install_persistent_cache(root)
    return None
