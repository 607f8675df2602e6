"""Content-addressed on-disk store of trace realizations.

The in-process world cache (:class:`~repro.experiments.harness.
TraceCache`, an LRU of assembled realizations) dies with its process,
so every campaign shard — the executor shards by ``(trace, seed)``
precisely so each worker materializes a given environment once — still
paid the dominant regeneration cost the first time it touched a
realization.  This module is the tier below it: every materialized
realization is archived as one
``.npz`` file next to the campaign result store, keyed by a SHA-256
digest of ``(trace, seed-stream, cap, horizon)`` plus a *generator
fingerprint* (a hash of the trace-generation modules), so shards,
processes and CI runs share realizations instead of regenerating them,
and any edit to trace-generation code automatically orphans stale
entries — exactly the invalidation discipline of the result store.

Load path: the ``.npz`` members are written uncompressed (``np.savez``
uses ``ZIP_STORED``), so the big ``starts``/``ends`` arrays are
*memory-mapped* straight out of the archive — a 10⁴-node realization
comes back as zero-copy read-only views in milliseconds instead of the
seconds of renewal/gantt synthesis.  If the zip layout ever defeats the
mmap fast path the loader falls back to a plain (still read-only)
``np.load``; an archive neither can read (truncated, corrupt) is
quarantined and reads as a miss, so the realization is regenerated.

Storage layout per entry (one realization of N nodes):

* ``starts`` / ``ends`` — all nodes' intervals concatenated (float64);
* ``bounds`` — int64 offsets of length N+1 (node ``i`` owns
  ``starts[bounds[i]:bounds[i+1]]``);
* ``powers`` — per-node computing power (float64, length N);
* ``tags`` — per-node tag strings.

``REPRO_TRACE_STORE`` overrides the directory; ``REPRO_NO_CACHE=1``
disables the tier entirely (the same kill switch as the result store).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import zipfile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["TraceStore", "default_trace_store", "default_trace_store_path",
           "generator_fingerprint", "set_default_trace_store"]

#: cache key: (trace, seed-stream, cap, horizon)
TraceKey = Tuple[str, Tuple[int, ...], int, float]

#: manual escape hatch mirroring the result store's CODE_VERSION
TRACE_STORE_VERSION = "traces-v1"

#: the trace generators: ``repro.infra.catalog`` and the ``repro.infra``
#: modules it imports, transitively (``tests/test_trace_store.py`` walks
#: catalog's imports and checks this list against them)
GENERATOR_MODULES = ("catalog", "gantt", "intervals", "quantile", "renewal",
                     "spot")

_fingerprint: Optional[str] = None


def generator_fingerprint() -> str:
    """Hash of the trace-generation source (cached per process).

    Covers :data:`GENERATOR_MODULES`, so an edit to any generator makes
    old on-disk realizations unreachable without a manual bump.  The
    modules that only consume realizations (the pool, columns, stats,
    FTA) are left out: editing them keeps every stored trace valid.
    """
    global _fingerprint
    if _fingerprint is None:
        infra = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "infra")
        digest = hashlib.sha256(TRACE_STORE_VERSION.encode())
        for name in GENERATOR_MODULES:
            digest.update(f"{name}.py".encode())
            with open(os.path.join(infra, f"{name}.py"), "rb") as fh:
                digest.update(fh.read())
        _fingerprint = digest.hexdigest()[:12]
    return _fingerprint


def _key_digest(key: TraceKey, fingerprint: str) -> str:
    trace, stream, cap, horizon = key
    body = json.dumps({"trace": trace, "stream": list(stream),
                       "cap": cap, "horizon": horizon,
                       "generator": fingerprint}, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()[:24]


# ---------------------------------------------------------------------------
# npz memory-mapping
# ---------------------------------------------------------------------------
def _mmap_npz(path: str, names: Sequence[str]) -> Dict[str, np.ndarray]:
    """Memory-map selected members of an *uncompressed* ``.npz``.

    A stored (non-deflated) zip member is a verbatim ``.npy`` file at a
    known offset, so its array data can be mapped read-only without
    decompressing or copying.  Raises on any layout surprise — the
    caller falls back to a plain load.
    """
    wanted = set(names)
    out: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as zf:
        infos = {i.filename: i for i in zf.infolist()}
        for name in names:
            info = infos[name + ".npy"]
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError("compressed member cannot be mapped")
            with open(path, "rb") as fh:
                fh.seek(info.header_offset)
                local = fh.read(30)
                if local[:4] != b"PK\x03\x04":
                    raise ValueError("bad local file header")
                n_name, n_extra = struct.unpack("<HH", local[26:30])
                fh.seek(info.header_offset + 30 + n_name + n_extra)
                version = np.lib.format.read_magic(fh)
                if version == (1, 0):
                    shape, fortran, dtype = \
                        np.lib.format.read_array_header_1_0(fh)
                else:
                    shape, fortran, dtype = \
                        np.lib.format.read_array_header_2_0(fh)
                if dtype.hasobject:
                    raise ValueError("object arrays cannot be mapped")
                out[name] = np.memmap(path, dtype=dtype, mode="r",
                                      offset=fh.tell(), shape=shape,
                                      order="F" if fortran else "C")
        missing = wanted - set(out)
        if missing:
            raise KeyError(f"missing members: {sorted(missing)}")
    return out


# ---------------------------------------------------------------------------
class TraceStore:
    """On-disk content-addressed archive of trace realizations."""

    _ARRAYS = ("starts", "ends", "bounds", "powers", "tags")

    def __init__(self, root: Optional[str] = None):
        self.root = root or default_trace_store_path()
        os.makedirs(self.root, exist_ok=True)
        self.fingerprint = generator_fingerprint()
        # per-process-lifetime counters (mirrors StoreStats)
        self.loads = 0          # realizations served from disk
        self.misses = 0         # lookups that found no file
        self.saves = 0          # realizations written
        self.mmap_fallbacks = 0  # loads that fell back to np.load
        self.corrupt = 0        # unreadable archives quarantined

    # ------------------------------------------------------------------
    def path_for(self, key: TraceKey) -> str:
        digest = _key_digest(key, self.fingerprint)
        return os.path.join(self.root,
                            f"{key[0]}-{digest}-{self.fingerprint}.npz")

    def load_flat(self, key: TraceKey) -> Optional[Tuple]:
        """The stored realization in its on-disk flat layout, or None.

        Returns ``(starts, ends, bounds, powers, tags)`` — the interval
        arrays memory-mapped read-only, tags as a plain str tuple.
        This is the zero-loop fast path for columnar consumers
        (:meth:`~repro.infra.columns.NodeColumns.from_flat`); a 10^5
        -host load is five array handles instead of 10^5 per-node
        view constructions.  An unreadable archive (truncated or
        corrupt) is quarantined and counted, and reads as a miss so the
        caller regenerates and re-archives the realization.
        """
        path = self.path_for(key)
        if not os.path.exists(path):
            self.misses += 1
            return None
        try:
            flat = self._read(path)
        except (OSError, ValueError, EOFError, KeyError,
                zipfile.BadZipFile):
            self._quarantine(path)
            return None
        self.loads += 1
        return flat

    def _read(self, path: str) -> Tuple:
        try:
            arrays = _mmap_npz(path, ("starts", "ends", "bounds"))
        except Exception:
            self.mmap_fallbacks += 1
            with np.load(path, allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in ("starts", "ends",
                                                       "bounds")}
            for arr in arrays.values():
                arr.setflags(write=False)
        with np.load(path, allow_pickle=False) as npz:
            powers = npz["powers"]
            tags = npz["tags"]
        # one str per distinct tag, shared by every host that carries
        # it, not one str per host
        names, inverse = np.unique(tags, return_inverse=True)
        names = names.tolist()
        return (arrays["starts"], arrays["ends"], arrays["bounds"],
                powers, tuple(map(names.__getitem__, inverse.tolist())))

    def _quarantine(self, path: str) -> None:
        """Move an unreadable archive aside (``.corrupt``, reclaimed by
        :meth:`gc`) so the next :meth:`save` writes a fresh one."""
        self.corrupt += 1
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            pass  # still unreadable next time: regenerated again

    def save(self, key: TraceKey, flat: Tuple) -> str:
        """Archive one realization atomically; returns its path.

        ``flat`` is ``(starts, ends, bounds, powers, tags)``, the layout
        :meth:`load_flat` returns.
        """
        path = self.path_for(key)
        if os.path.exists(path):
            return path
        starts, ends, bounds, powers, tags = flat
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, starts=np.ascontiguousarray(starts, dtype=float),
                         ends=np.ascontiguousarray(ends, dtype=float),
                         bounds=np.asarray(bounds, dtype=np.int64),
                         powers=np.asarray(powers, dtype=float),
                         tags=np.array(tags))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.saves += 1
        return path

    # ------------------------------------------------------------------
    # accounting / maintenance
    # ------------------------------------------------------------------
    def _files(self) -> List[str]:
        try:
            return sorted(name for name in os.listdir(self.root)
                          if name.endswith((".npz", ".npz.corrupt")))
        except OSError:
            return []

    def _is_current(self, name: str) -> bool:
        return name.endswith(f"-{self.fingerprint}.npz")

    def entries(self) -> Tuple[int, int]:
        """(current, stale) entry counts by generator fingerprint."""
        files = self._files()
        current = sum(1 for name in files if self._is_current(name))
        return current, len(files) - current

    def file_bytes(self) -> int:
        """Total on-disk size of every archived realization."""
        total = 0
        for name in self._files():
            try:
                total += os.path.getsize(os.path.join(self.root, name))
            except OSError:
                pass
        return total

    def gc(self) -> Tuple[int, int]:
        """Drop realizations whose generator fingerprint is stale.

        Stale files — and quarantined ``.corrupt`` ones, which count as
        stale — are unreachable anyway (every lookup path embeds the
        current fingerprint); GC reclaims the disk.  Returns
        ``(files, bytes)`` removed.
        """
        removed = 0
        nbytes = 0
        for name in self._files():
            if self._is_current(name):
                continue
            path = os.path.join(self.root, name)
            try:
                size = os.path.getsize(path)
                os.unlink(path)
            except OSError:
                continue
            removed += 1
            nbytes += size
        return removed, nbytes

    def summary(self) -> str:
        current, stale = self.entries()
        text = (f"{self.loads} disk hits, {self.misses} disk misses, "
                f"{self.saves} saved; {current} current "
                f"+ {stale} stale entries, {self.file_bytes()} bytes")
        if self.mmap_fallbacks:
            text += f", {self.mmap_fallbacks} mmap fallbacks"
        if self.corrupt:
            text += f", {self.corrupt} corrupt files quarantined"
        return text


# ---------------------------------------------------------------------------
# process-wide default store
# ---------------------------------------------------------------------------
_default_trace_store: Optional[TraceStore] = None
_disabled = os.environ.get("REPRO_NO_CACHE", "").lower() \
    not in ("", "0", "false")


def default_trace_store_path() -> str:
    """``REPRO_TRACE_STORE`` or
    ``<repo>/benchmarks/.campaign_store/traces`` (beside the result
    store, so CI's ``actions/cache`` of that directory covers both)."""
    env = os.environ.get("REPRO_TRACE_STORE")
    if env:
        return env
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    return os.path.join(root, "benchmarks", ".campaign_store", "traces")


def default_trace_store() -> Optional[TraceStore]:
    """The process-wide trace store (lazily opened), or None when
    caching is off (``REPRO_NO_CACHE=1``)."""
    global _default_trace_store
    if _disabled:
        return None
    if _default_trace_store is None:
        _default_trace_store = TraceStore()
    return _default_trace_store


def set_default_trace_store(store: Optional[TraceStore]
                            ) -> Optional[TraceStore]:
    """Swap the process-wide trace store; returns the previous one.

    Passing an explicit store also re-enables the tier for the process
    (tests point it at tmp directories regardless of the env)."""
    global _default_trace_store, _disabled
    previous, _default_trace_store = _default_trace_store, store
    if store is not None:
        _disabled = False
    return previous
