"""The SQLite-backed, content-addressed evaluation-result store.

Schema (version 3)
------------------
``meta``
    ``key TEXT PRIMARY KEY, value TEXT`` — carries ``schema_version``.
``outcomes``
    One row per decided evaluation, primary-keyed by
    ``(workload, key)``::

        workload  TEXT   -- workload_id(): name.class@sha256-prefix
        key       TEXT   -- policy_digest(): sha256 of the resolved
                         -- per-instruction policy map
        passed    INTEGER
        cycles    INTEGER  -- of the default (lean) build
        trap      TEXT
        reason    TEXT   -- "" | trap | timeout | verify | worker_crash
        wall_s    REAL   -- wall time of the original evaluation
        created   REAL   -- unix timestamp of the first put

Rows are immutable: a second ``put`` of the identical outcome is a
no-op, a second ``put`` with a *different* outcome under the same key
raises :class:`StoreCollisionError` — evaluations are deterministic, so
a disagreement means the key no longer identifies the executable
(corrupted store, or a program change without a workload-id change) and
must never be silently overwritten.

The JSONL export is canonical — rows sorted by ``(workload, key)``,
object keys sorted — so ``store → reload → export`` is bit-exact
(property-tested) and exports diff cleanly across campaigns.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import struct
import threading
import time
from typing import Iterator, NamedTuple

from repro.search.results import EvalOutcome

#: bump when the key semantics, the meaning of a row or the table shape
#: change.  v2 (the precision lattice) extended ``policy_digest`` keys:
#: flag characters include the narrow widths ``b``/``h``, and non-binary
#: lattices salt the digest with a canonical lattice descriptor.  v3 rows
#: carry the cycles of lean builds, which v1 and v2 rows (plain builds)
#: do not, under unchanged digests.  Any version mismatch raises
#: StoreSchemaError rather than replaying another build's cycles.
SCHEMA_VERSION = 3


class StoreSchemaError(RuntimeError):
    """The database exists but carries an incompatible schema version."""


class StoreCollisionError(RuntimeError):
    """A put() disagreed with the outcome already recorded for its key."""


class StoredOutcome(NamedTuple):
    """One durable row (the outcome plus its provenance columns)."""

    workload: str
    key: str
    outcome: EvalOutcome
    wall_s: float
    created: float


def workload_id(workload) -> str:
    """Stable identity of *workload* for store keying.

    ``name.class@<sha256 prefix>`` where the digest covers the original
    program's code bytes, data image, entry point, and module list — the
    inputs that determine every evaluation verdict.  Recompiling the
    same source yields the same id; any change to the executable (new
    compiler flags, different problem class data) changes it, so stale
    outcomes can never leak across program versions.
    """
    program = workload.program
    digest = hashlib.sha256()
    digest.update(program.name.encode())
    digest.update(struct.pack("<q", program.entry))
    digest.update(program.text)
    digest.update(struct.pack(f"<{len(program.data_image)}Q", *program.data_image))
    digest.update("|".join(program.modules).encode())
    name = getattr(workload, "name", program.name)
    klass = getattr(workload, "klass", "-")
    return f"{name}.{klass}@{digest.hexdigest()[:16]}"


def policy_digest(policies: dict, lattice=None) -> str:
    """Content address of a resolved per-instruction policy map.

    The input is :meth:`repro.config.model.Config.instruction_policies`
    — address → :class:`~repro.config.model.Policy`.  Two configs whose
    flag maps differ but whose resolved maps coincide produce the same
    digest (they denote the same executable), mirroring the evaluators'
    semantic cache.

    *lattice* (a :class:`repro.lattice.Lattice` or spec string) names the
    precision lattice the policies refer to.  The binary f64->f32 lattice
    — and None — leave the digest unsalted, as it was before lattices
    existed; any other lattice salts the digest with its canonical
    descriptor, so the same flag map searched over two different width
    chains can never dedup to one row.
    """
    digest = hashlib.sha256()
    if lattice is not None:
        from repro.lattice import parse_lattice

        lattice = parse_lattice(lattice)
        if not lattice.is_binary:
            digest.update(b"lattice:" + lattice.descriptor().encode() + b"\n")
    for addr in sorted(policies):
        digest.update(struct.pack("<q", addr))
        digest.update(policies[addr].value.encode())
    return digest.hexdigest()


class ResultStore:
    """Durable ``(workload id, semantic config key) -> EvalOutcome`` map.

    ``path`` may be a filesystem path or ``":memory:"`` (tests).  The
    store is also a context manager; :meth:`close` is idempotent and
    safe to call from ``finally`` blocks and interrupt handlers — every
    write is committed eagerly, so there is never buffered state to
    lose.

    One store may be shared across threads (the job service hands a
    single service-wide store to every concurrent campaign so outcomes
    dedup across tenants): the connection is opened with
    ``check_same_thread=False`` and every operation serialises on an
    internal lock, which also keeps the get-compare-insert sequence in
    :meth:`put` atomic against sibling threads.

    ``timeout`` is SQLite's busy timeout in seconds — how long to wait
    on a database locked by *another process* before giving up with
    ``sqlite3.OperationalError`` (the CLI uses a short timeout so a
    locked store is a prompt, documented exit code instead of a stall).
    """

    def __init__(self, path: str = ":memory:", timeout: float = 30.0) -> None:
        self.path = str(path)
        if self.path != ":memory:":
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
        self._db = sqlite3.connect(
            self.path, timeout=timeout, check_same_thread=False
        )
        self._lock = threading.RLock()
        self._closed = False
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._init_schema()

    # -- schema ---------------------------------------------------------------

    def _init_schema(self) -> None:
        db = self._db
        db.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        db.execute(
            "CREATE TABLE IF NOT EXISTS outcomes ("
            " workload TEXT NOT NULL,"
            " key TEXT NOT NULL,"
            " passed INTEGER NOT NULL,"
            " cycles INTEGER NOT NULL,"
            " trap TEXT NOT NULL,"
            " reason TEXT NOT NULL,"
            " wall_s REAL NOT NULL,"
            " created REAL NOT NULL,"
            " PRIMARY KEY (workload, key))"
        )
        row = db.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            db.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            db.commit()
        elif int(row[0]) != SCHEMA_VERSION:
            version = row[0]
            db.close()
            self._closed = True
            raise StoreSchemaError(
                f"{self.path}: store schema v{version}, expected v{SCHEMA_VERSION}"
            )

    # -- core map -------------------------------------------------------------

    def get(self, workload: str, key: str) -> EvalOutcome | None:
        """The decided outcome for (workload, key), or None."""
        with self._lock:
            row = self._db.execute(
                "SELECT passed, cycles, trap, reason FROM outcomes"
                " WHERE workload = ? AND key = ?",
                (workload, key),
            ).fetchone()
            if row is None:
                self.misses += 1
                return None
            self.hits += 1
            return EvalOutcome(bool(row[0]), row[1], row[2], row[3])

    def put(
        self,
        workload: str,
        key: str,
        outcome: EvalOutcome,
        wall_s: float = 0.0,
        created: float | None = None,
    ) -> None:
        """Record a decided outcome; identical re-puts are no-ops.

        Raises :class:`StoreCollisionError` when the key already maps to
        a *different* outcome (wall time and timestamps are provenance,
        not identity, and do not participate in the comparison).
        ``created`` defaults to now; :meth:`import_jsonl` passes the
        original timestamp through so merged rows keep their provenance.
        """
        with self._lock:
            existing = self._db.execute(
                "SELECT passed, cycles, trap, reason FROM outcomes"
                " WHERE workload = ? AND key = ?",
                (workload, key),
            ).fetchone()
            if existing is not None:
                recorded = EvalOutcome(
                    bool(existing[0]), existing[1], existing[2], existing[3]
                )
                if recorded != outcome:
                    raise StoreCollisionError(
                        f"{workload}/{key[:12]}: recorded {recorded} != new {outcome}"
                    )
                return
            self._db.execute(
                "INSERT INTO outcomes"
                " (workload, key, passed, cycles, trap, reason, wall_s, created)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    workload,
                    key,
                    int(outcome.passed),
                    int(outcome.cycles),
                    outcome.trap,
                    outcome.reason,
                    float(wall_s),
                    time.time() if created is None else float(created),
                ),
            )
            self._db.commit()
            self.puts += 1

    def count(self, workload: str | None = None) -> int:
        with self._lock:
            if workload is None:
                row = self._db.execute("SELECT COUNT(*) FROM outcomes").fetchone()
            else:
                row = self._db.execute(
                    "SELECT COUNT(*) FROM outcomes WHERE workload = ?", (workload,)
                ).fetchone()
            return int(row[0])

    def rows(self, workload: str | None = None) -> Iterator[StoredOutcome]:
        """All rows in canonical (workload, key) order."""
        sql = (
            "SELECT workload, key, passed, cycles, trap, reason, wall_s, created"
            " FROM outcomes"
        )
        params: tuple = ()
        if workload is not None:
            sql += " WHERE workload = ?"
            params = (workload,)
        sql += " ORDER BY workload, key"
        # Materialise under the lock so iteration never interleaves with
        # a sibling thread's writes on the shared connection.
        with self._lock:
            fetched = self._db.execute(sql, params).fetchall()
        for row in fetched:
            yield StoredOutcome(
                row[0],
                row[1],
                EvalOutcome(bool(row[2]), row[3], row[4], row[5]),
                row[6],
                row[7],
            )

    # -- JSONL exchange ---------------------------------------------------------

    def export_jsonl(self, path: str, workload: str | None = None) -> int:
        """Write every row as one canonical JSON line; returns the count."""
        count = 0
        with open(path, "w") as handle:
            for line in self.export_lines(workload):
                handle.write(line + "\n")
                count += 1
        return count

    def export_lines(self, workload: str | None = None) -> Iterator[str]:
        for row in self.rows(workload):
            yield json.dumps(
                {
                    "workload": row.workload,
                    "key": row.key,
                    "passed": row.outcome.passed,
                    "cycles": row.outcome.cycles,
                    "trap": row.outcome.trap,
                    "reason": row.outcome.reason,
                    "wall_s": row.wall_s,
                    "created": row.created,
                },
                sort_keys=True,
            )

    def import_jsonl(self, path: str) -> int:
        """Merge an exported JSONL file; collisions raise, repeats no-op."""
        count = 0
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                self.put(
                    rec["workload"],
                    rec["key"],
                    EvalOutcome(
                        bool(rec["passed"]),
                        int(rec["cycles"]),
                        rec["trap"],
                        rec["reason"],
                    ),
                    wall_s=float(rec.get("wall_s", 0.0)),
                    created=rec.get("created"),
                )
                count += 1
        return count

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._db.commit()
                self._db.close()
                self._closed = True

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultStore {self.path} rows={self.count()}>"
