"""Per-host reference for the pool's batched probes (test oracle).

``NodePool`` files each probe's due hosts in array passes.  This module
keeps the per-host path those passes replaced, as a ``NodePool``
subclass, so tests can drive both side by side and compare every
structure after every step:

* :meth:`ScalarProbePool._promote` — the epoch cut filed front to back
  (:meth:`~ScalarProbePool._bulk_promote`), or merged scalar-wise
  against the overflow heap on ``(start, id)``
  (:meth:`~ScalarProbePool._promote_merge`);
* :meth:`ScalarProbePool._sweep_stale` — the same for the stale store
  on ``(end, id)`` (:meth:`~ScalarProbePool._sweep_merge`), refiling
  each expired host through ``_enqueue`` one at a time;
* :meth:`ScalarProbePool._compact_ghosts` — the per-entry
  first-copy-per-indexed-id filter.

The methods are the historical code, verbatim; only their home moved.
"""

import heapq

import numpy as np

from repro.infra.pool import NodePool


class ScalarProbePool(NodePool):
    """A ``NodePool`` whose probes refile due hosts one at a time."""

    def _promote(self, t: float) -> None:
        """Move nodes whose next interval has started into ready.

        Fast path: when the overflow heap holds nothing due, the due
        slice of the future epoch is one ``searchsorted`` cut, filed
        front-to-back — the epoch is sorted by ``(start, id)``, the
        exact order the historical heap popped the same keys in.  When
        both the epoch head and the heap head are due they are merged
        scalar-wise on that key (:meth:`_promote_merge`).
        """
        fs = self._fut_start
        pos = self._fut_pos
        heap = self._future
        if pos < fs.shape[0] and fs[pos] <= t:
            if not heap or heap[0][0] > t:
                hi = int(np.searchsorted(fs, t, side="right"))
                self._bulk_promote(pos, hi)
                self._fut_pos = hi
            else:
                self._promote_merge(t)
            return
        members = self._members
        while heap and heap[0][0] <= t:
            _, nid, entry, end = heapq.heappop(heap)
            if nid not in members:
                continue
            self._file_ready(entry, end)

    def _bulk_promote(self, lo: int, hi: int) -> None:
        """File epoch entries ``[lo, hi)`` ready, in epoch order.

        Epoch entries are always columnar ids (never cloud).  The stale
        pushes may be batched as ``extend + heapify``: heapq's pop
        sequence over a key multiset is layout-independent, so the
        sweep order is unchanged (see the module docstring).
        """
        ids = self._fut_id[lo:hi].tolist()
        ends = self._fut_end[lo:hi].tolist()
        members = self._members
        index = self._ready_end_of
        reg = self._ready_reg
        stale = self._stale
        pairs = []
        for i, end in zip(ids, ends):
            if i not in members:
                continue
            index[i] = (end, i)
            reg.append(i)
            pairs.append((end, i))
        if len(pairs) > 8 and 4 * len(pairs) > len(stale):
            stale.extend(pairs)
            heapq.heapify(stale)
        else:
            for pair in pairs:
                heapq.heappush(stale, pair)

    def _promote_merge(self, t: float) -> None:
        """Promotion merging epoch entries vs heap entries on
        ``(start, id)`` — the historical all-heap pop order.

        The due epoch slice is cut once (``searchsorted`` + `tolist`)
        rather than read element-wise through numpy scalars, and its
        filings (always columnar ids, never cloud) are inlined with
        the stale pushes batched — exact for the same reason as
        :meth:`_bulk_promote`: ready-list append order follows the
        merge order, and the stale heap's pop sequence over a key
        multiset does not depend on its internal layout.
        """
        fs = self._fut_start
        pos = self._fut_pos
        hi = int(np.searchsorted(fs, t, side="right"))
        starts = fs[pos:hi].tolist()
        ids = self._fut_id[pos:hi].tolist()
        ends = self._fut_end[pos:hi].tolist()
        self._fut_pos = hi
        heap = self._future
        members = self._members
        index = self._ready_end_of
        reg = self._ready_reg
        stale = self._stale
        heappop = heapq.heappop
        pairs = []
        i = 0
        n = len(starts)
        while True:
            take_arr = i < n
            take_heap = bool(heap) and heap[0][0] <= t
            if take_arr and take_heap:
                take_arr = ((starts[i], ids[i])
                            <= (heap[0][0], heap[0][1]))
                take_heap = not take_arr
            if take_arr:
                nid = ids[i]
                end = ends[i]
                i += 1
                if nid in members:
                    index[nid] = (end, nid)
                    reg.append(nid)
                    pairs.append((end, nid))
            elif take_heap:
                _, nid, entry, end = heappop(heap)
                if nid in members:
                    self._file_ready(entry, end)
            else:
                break
        if len(pairs) > 8 and 4 * len(pairs) > len(stale):
            stale.extend(pairs)
            heapq.heapify(stale)
        else:
            for pair in pairs:
                heapq.heappush(stale, pair)

    def _sweep_stale(self, t: float) -> None:
        """Refile every ready entry whose interval has already ended.

        Only the probes call this — :meth:`acquire` keeps the
        historical lazy validation so its RNG draw sequence is
        unchanged.  Mirrors :meth:`_promote`: one cut of the stale
        epoch when the overflow heap holds nothing due, a scalar
        ``(end, id)`` merge otherwise.  Refiles performed here file
        intervals with ``end > t`` only, so they never extend the cut
        being processed.  Refiled nodes leave ghosts in the draw
        lists; compact those away once they dominate (never triggers
        in runs that only acquire, so fixed-seed traces are
        unaffected).
        """
        se = self._stale_end
        pos = self._stale_pos
        heap = self._stale
        index = self._ready_end_of
        if pos < se.shape[0] and se[pos] <= t:
            if not heap or heap[0][0] > t:
                hi = int(np.searchsorted(se, t, side="right"))
                ends = se[pos:hi].tolist()
                nids = self._stale_id[pos:hi].tolist()
                self._stale_pos = hi
                for end, nid in zip(ends, nids):
                    entry = index.get(nid)
                    if entry is None or entry[0] != end:
                        continue
                    del index[nid]
                    self._enqueue(entry[1], t)
            else:
                self._sweep_merge(t)
        else:
            while heap and heap[0][0] <= t:
                end, nid = heapq.heappop(heap)
                entry = index.get(nid)
                if entry is None or entry[0] != end:
                    continue
                del index[nid]
                self._enqueue(entry[1], t)
        ghosts = (len(self._ready_reg) + len(self._ready_cloud)
                  - len(index))
        if ghosts > 8 and ghosts > len(index):
            self._compact_ghosts()

    def _sweep_merge(self, t: float) -> None:
        """Scalar sweep merging epoch head vs heap head on
        ``(end, id)`` — the historical all-heap pop order.  A key
        duplicated across epoch and heap (a node released back within
        its filing interval) processes epoch-first; the loser fails
        the index-end validation exactly like the historical second
        heap copy did."""
        se, sid = self._stale_end, self._stale_id
        n = se.shape[0]
        heap = self._stale
        index = self._ready_end_of
        pos = self._stale_pos
        while True:
            take_arr = pos < n and se[pos] <= t
            take_heap = bool(heap) and heap[0][0] <= t
            if take_arr and take_heap:
                take_arr = ((se[pos], sid[pos])
                            <= (heap[0][0], heap[0][1]))
                take_heap = not take_arr
            if take_arr:
                end = float(se[pos])
                nid = int(sid[pos])
                pos += 1
            elif take_heap:
                end, nid = heapq.heappop(heap)
            else:
                break
            entry = index.get(nid)
            if entry is None or entry[0] != end:
                continue
            del index[nid]
            self._enqueue(entry[1], t)
        self._stale_pos = pos

    def _compact_ghosts(self) -> None:
        """Drop draw-list entries whose id left the ready index, and
        all-but-one copies of ids that were sweep-refiled back in (the
        refile appends a fresh copy without removing the old one, so
        an id can hold several list slots while the index holds one —
        keeping only the first copy restores list length == index
        size and stops the compaction trigger from re-firing)."""
        index = self._ready_end_of
        for attr in ("_ready_reg", "_ready_cloud"):
            lst = getattr(self, attr)
            if not lst:
                continue
            seen: set[int] = set()
            out = []
            for entry in lst:
                nid = entry if type(entry) is int else entry.node_id
                if nid in index and nid not in seen:
                    seen.add(nid)
                    out.append(entry)
            setattr(self, attr, out)
