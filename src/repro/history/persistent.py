"""Cross-run persistent history archive.

The paper's Information module archives *every* QoS execution so the
Oracle's α-calibrated predictions improve with use (§3.2, §3.4); the
in-memory store forgets everything between processes, so every
simulated deployment used to start cold.  This backend persists the
archive in SQLite next to the campaign result store
(``benchmarks/.campaign_store/history.sqlite``, override with
``REPRO_HISTORY``) and shares its staleness machinery:

* **code-fingerprint salting** — every record carries the
  :func:`repro.campaign.store.code_fingerprint` salt of the code that
  produced it; :meth:`fetch` only returns records whose salt matches
  the current code, so editing simulation semantics silently orphans
  stale history exactly like it orphans stale campaign results.
  :meth:`gc` reclaims the orphaned rows (``repro history gc``).
* **content-digest idempotence** — re-archiving an identical record
  (same env, salt and payload) is a no-op, so reports that replay a
  cached campaign into the archive do not grow it without bound.
* **pruning policies** beyond salt GC — :meth:`PersistentHistoryStore.
  prune` enforces per-environment record caps (keep the newest N) and
  age-out (drop records older than D days); surfaced as ``repro
  history gc --max-per-env N --max-age-days D``.
* **corrupt-file quarantine** — an archive SQLite cannot read is
  renamed ``*.corrupt`` at open and replaced by an empty one (the
  campaign store's :func:`~repro.campaign.store.open_sqlite_store`).

Imports of the campaign store happen at call time: the campaign
package sits *above* the core/history layers in the import graph, so
importing it at module load would be circular.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.history.records import (
    ExecutionRecord,
    decode_grid,
    encode_grid,
    migrate_provider_column,
)

__all__ = ["PersistentHistoryStore", "default_history_path"]


def default_history_path() -> str:
    """``REPRO_HISTORY`` or ``history.sqlite`` next to the campaign
    result store (gitignored; CI persists the directory between runs)."""
    env = os.environ.get("REPRO_HISTORY")
    if env:
        return env
    from repro.campaign.store import default_store_path
    return os.path.join(os.path.dirname(default_store_path()),
                        "history.sqlite")


def _current_salt() -> str:
    from repro.campaign.store import _code_salt
    return _code_salt()


def _record_digest(rec: ExecutionRecord, salt: str) -> str:
    body = "|".join((rec.env_key, salt, str(rec.n_tasks),
                     repr(rec.makespan), encode_grid(rec.grid),
                     repr(rec.credits_spent), rec.provider))
    return hashlib.sha256(body.encode()).hexdigest()


class PersistentHistoryStore:
    """Salted, idempotent SQLite archive shared across processes."""

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS executions (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        digest TEXT NOT NULL UNIQUE,
        env_key TEXT NOT NULL,
        salt TEXT NOT NULL,
        n_tasks INTEGER NOT NULL,
        makespan REAL NOT NULL,
        grid TEXT NOT NULL,
        credits_spent REAL NOT NULL DEFAULT 0.0,
        provider TEXT NOT NULL DEFAULT '',
        created_at REAL NOT NULL
    );
    CREATE INDEX IF NOT EXISTS idx_hist_env ON executions (env_key, salt);
    """

    def __init__(self, path: Optional[str] = None,
                 salt: Optional[str] = None):
        self.path = path or default_history_path()
        parent = os.path.dirname(self.path)
        if self.path != ":memory:" and parent:
            os.makedirs(parent, exist_ok=True)
        self._salt = salt or _current_salt()
        from repro.campaign.store import open_sqlite_store
        #: 1 when the file at ``path`` was corrupt and set aside
        self._conn, self.quarantined = open_sqlite_store(
            self.path, self._SCHEMA, migrate_provider_column)

    # -------------------------------------------------- HistoryStore API
    def add(self, rec: ExecutionRecord) -> None:
        self._conn.execute(
            "INSERT OR IGNORE INTO executions "
            "(digest, env_key, salt, n_tasks, makespan, grid, "
            "credits_spent, provider, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (_record_digest(rec, self._salt), rec.env_key, self._salt,
             rec.n_tasks, rec.makespan, encode_grid(rec.grid),
             rec.credits_spent, rec.provider, time.time()))
        self._conn.commit()

    def fetch(self, env_key: str) -> List[ExecutionRecord]:
        rows = self._conn.execute(
            "SELECT env_key, n_tasks, makespan, grid, credits_spent, "
            "provider FROM executions WHERE env_key = ? AND salt = ? "
            "ORDER BY id",
            (env_key, self._salt)).fetchall()
        return [ExecutionRecord(env, n, mk, decode_grid(grid_json),
                                spent, provider)
                for env, n, mk, grid_json, spent, provider in rows]

    def fetch_rates(self, env_key: str) -> List[Tuple[int, float]]:
        """(n_tasks, makespan) pairs without decoding the grids — the
        routing probes call this once per target per decision."""
        rows = self._conn.execute(
            "SELECT n_tasks, makespan FROM executions "
            "WHERE env_key = ? AND salt = ? ORDER BY id",
            (env_key, self._salt)).fetchall()
        return [(int(n), float(mk)) for n, mk in rows]

    def env_keys(self) -> List[str]:
        rows = self._conn.execute(
            "SELECT DISTINCT env_key FROM executions WHERE salt = ? "
            "ORDER BY env_key", (self._salt,))
        return [r[0] for r in rows.fetchall()]

    def __len__(self) -> int:
        (n,) = self._conn.execute(
            "SELECT COUNT(*) FROM executions WHERE salt = ?",
            (self._salt,)).fetchone()
        return int(n)

    # ------------------------------------------------------- maintenance
    def gc(self, vacuum: bool = True) -> Tuple[int, int]:
        """Drop records whose salt no longer matches the current code.

        Stale records are unreachable anyway (every fetch filters on
        the current salt); GC reclaims their space.  Returns
        ``(rows, grid_bytes)`` reclaimed.
        """
        (rows, nbytes) = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(LENGTH(grid)), 0) "
            "FROM executions WHERE salt != ?", (self._salt,)).fetchone()
        if rows:
            self._conn.execute("DELETE FROM executions WHERE salt != ?",
                               (self._salt,))
            self._conn.commit()
            if vacuum:
                self._conn.execute("VACUUM")
        return int(rows), int(nbytes)

    def prune(self, max_per_env: Optional[int] = None,
              max_age_days: Optional[float] = None,
              now: Optional[float] = None,
              vacuum: bool = True) -> Tuple[int, int]:
        """Archive pruning beyond salt GC: per-env caps and age-out.

        ``max_per_env`` keeps only the *newest* N current-salt records
        of every environment (the EWMA throughput and α calibrations
        weight recent records anyway, so dropping the oldest loses the
        least information); ``max_age_days`` drops current-salt records
        archived more than D days ago (wall-clock ``created_at``).
        Stale-salt records are untouched — :meth:`gc` owns those.
        Returns ``(rows, grid_bytes)`` reclaimed.
        """
        if max_per_env is not None and max_per_env < 1:
            raise ValueError("max_per_env must be >= 1 or None")
        if max_age_days is not None and max_age_days <= 0:
            raise ValueError("max_age_days must be positive or None")
        # one WHERE clause shared by the accounting SELECT and the
        # DELETE — condition subqueries, not materialized id lists,
        # so a large prune never hits SQLite's host-parameter limit
        conditions = []
        params: list = []
        if max_age_days is not None:
            cutoff = (now if now is not None else time.time()) \
                - max_age_days * 86400.0
            conditions.append("(salt = ? AND created_at < ?)")
            params += [self._salt, cutoff]
        if max_per_env is not None:
            conditions.append(
                "id IN (SELECT id FROM ("
                "  SELECT id, ROW_NUMBER() OVER ("
                "    PARTITION BY env_key ORDER BY id DESC) AS rn "
                "  FROM executions WHERE salt = ?) WHERE rn > ?)")
            params += [self._salt, max_per_env]
        if not conditions:
            return 0, 0
        where = " OR ".join(conditions)
        (rows, nbytes) = self._conn.execute(
            f"SELECT COUNT(*), COALESCE(SUM(LENGTH(grid)), 0) "
            f"FROM executions WHERE {where}", params).fetchone()
        if not rows:
            return 0, 0
        self._conn.execute(
            f"DELETE FROM executions WHERE {where}", params)
        self._conn.commit()
        if vacuum:
            self._conn.execute("VACUUM")
        return int(rows), int(nbytes)

    def breakdown(self) -> Dict[str, Dict[str, int]]:
        """Record counts per environment key, split current/stale salt."""
        out: Dict[str, Dict[str, int]] = {}
        rows = self._conn.execute(
            "SELECT env_key, salt = ?, COUNT(*) FROM executions "
            "GROUP BY env_key, salt = ? ORDER BY env_key",
            (self._salt, self._salt)).fetchall()
        for env, current, count in rows:
            bucket = out.setdefault(env, {"current": 0, "stale": 0})
            bucket["current" if current else "stale"] += int(count)
        return out

    def stale_count(self) -> int:
        (n,) = self._conn.execute(
            "SELECT COUNT(*) FROM executions WHERE salt != ?",
            (self._salt,)).fetchone()
        return int(n)

    def file_bytes(self) -> int:
        """On-disk size of the database (0 for in-memory stores)."""
        if self.path == ":memory:" or not os.path.exists(self.path):
            return 0
        return os.path.getsize(self.path)

    def close(self) -> None:
        self._conn.close()
