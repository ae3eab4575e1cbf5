"""The SQLite-backed result database: :class:`DbResultStore`.

Implements the same ``append`` / ``extend`` / ``load`` / iterate interface
as the flat-file :class:`repro.api.ResultStore`, so everything that takes
a store (``Campaign.run(store=...)``, the CLI's ``--store`` / ``--from``)
works against a database unchanged — plus what a real database adds:

* **indexed reads** — rows keyed by ``(experiment, config_digest, seed)``
  so the campaign server and the run cache read exactly the rows they
  need instead of scanning a file; filtered reads and grouped reductions
  (:meth:`DbResultStore.query`, ``repro-caem query``) are compiled to SQL
  by the one query engine, :mod:`repro.service.query`, and run on this
  file's connection;
* **WAL mode** — concurrent readers see a consistent snapshot while a
  campaign is appending (the server's query endpoints run during jobs);
* **schema migrations** — the file records its schema version and older
  files upgrade in place (see :mod:`repro.service.migrations`);
* **import/export** — one call (or ``repro-caem migrate``) moves an
  existing JSONL/CSV store into a database and back.

Full fidelity is preserved: each row stores the complete
:meth:`RunResult.to_dict` JSON payload (time series included), byte-equal
to what the JSONL store would hold, so ``--from`` re-rendering out of a
database is byte-identical to re-rendering out of the source JSONL.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..api.result import RunResult
from ..api.store import STORE_FORMAT_VERSION, ResultStore
from ..errors import ExperimentError
from .migrations import ensure_schema
from .query import aggregate_runs, decode_row, query_runs

__all__ = ["DbResultStore", "open_store", "DB_SUFFIXES"]

#: File suffixes routed to the SQLite backend by :func:`open_store`.
DB_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def open_store(path: Union[str, Path]) -> Union[ResultStore, "DbResultStore"]:
    """Open the right store backend for ``path`` by suffix.

    ``.sqlite`` / ``.sqlite3`` / ``.db`` → :class:`DbResultStore`;
    ``.jsonl`` / ``.csv`` → :class:`repro.api.ResultStore`.
    """
    if Path(path).suffix.lower() in DB_SUFFIXES:
        return DbResultStore(path)
    return ResultStore(path)


class DbResultStore:
    """Append-only, indexed store of :class:`RunResult` rows in SQLite."""

    format = "sqlite"

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        if self.path.suffix.lower() not in DB_SUFFIXES:
            raise ExperimentError(
                f"unsupported result-database suffix {self.path.suffix!r} "
                f"(use one of {', '.join(DB_SUFFIXES)})"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Migrate eagerly so version problems surface at open, not midway
        # through a campaign append.
        with self._connect():
            pass

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """One short-lived connection per operation.

        Per-operation connections keep the store safely usable from the
        campaign server's handler and worker threads without juggling
        ``check_same_thread`` or thread-local pools; WAL mode makes the
        concurrent reader/writer interleaving consistent.  Autocommit
        (``isolation_level=None``) with explicit transactions where
        atomicity matters.
        """
        conn = sqlite3.connect(str(self.path), timeout=30.0, isolation_level=None)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            ensure_schema(conn, source=str(self.path))
            yield conn
        finally:
            conn.close()

    # -- writing ---------------------------------------------------------------

    def append(self, run: RunResult) -> None:
        """Append one run."""
        self.extend([run])

    def extend(self, runs: Sequence[RunResult]) -> None:
        """Append many runs in one transaction.

        The whole batch commits atomically: a crash (or an injected
        fault — see :mod:`repro.service.faults`) between the INSERTs and
        the COMMIT rolls back cleanly under WAL, so readers never see a
        torn batch.
        """
        if not runs:
            return
        from .faults import InjectedFault, active_faults

        faults = active_faults()
        rows = []
        for run in runs:
            payload = json.dumps(run.to_dict())
            rows.append((
                run.experiment,
                run.config_digest,
                run.seed,
                run.protocol,
                run.load_pps,
                run.horizon_s,
                run.n_nodes,
                STORE_FORMAT_VERSION,
                payload,
            ))
        fault_key = (
            f"{runs[0].config_digest}|{runs[0].protocol}|"
            f"{runs[0].load_pps!r}|{runs[0].seed}|{len(runs)}"
        )
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.executemany(
                    "INSERT INTO runs (experiment, config_digest, seed, "
                    "protocol, load_pps, horizon_s, n_nodes, "
                    "format_version, payload) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    rows,
                )
                if faults is not None and faults.torn_write(fault_key):
                    # Die after the writes, before the COMMIT — the
                    # batch must vanish on rollback, not half-appear.
                    raise InjectedFault(
                        f"injected torn write before COMMIT "
                        f"(site=store.torn_write key={fault_key})"
                    )
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")
        if faults is not None:
            faults.check_fsync(fault_key)

    # -- manifests (checkpoint/resume ledgers) ---------------------------------

    def save_manifest(self, fingerprint: str, experiment: Optional[str],
                      payload: str) -> None:
        """Upsert one campaign manifest ledger (atomic row replace)."""
        import time as _time

        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO manifests "
                "(fingerprint, experiment, updated_at, payload) "
                "VALUES (?, ?, ?, ?)",
                (fingerprint, experiment, _time.time(), payload),
            )

    def load_manifest(self, fingerprint: str) -> Optional[str]:
        """The stored ledger JSON for ``fingerprint``, or ``None``."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT payload FROM manifests WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
        return None if row is None else row[0]

    def list_manifests(self) -> List[dict]:
        """Summaries of every stored manifest, newest update last."""
        out: List[dict] = []
        with self._connect() as conn:
            for fingerprint, experiment, updated_at, payload in conn.execute(
                "SELECT fingerprint, experiment, updated_at, payload "
                "FROM manifests ORDER BY updated_at"
            ):
                data = json.loads(payload)
                cells = data.get("cells", [])
                out.append(
                    {
                        "fingerprint": fingerprint,
                        "experiment": experiment,
                        "updated_at": updated_at,
                        "total": len(cells),
                        "done": sum(1 for c in cells if c.get("status") == "done"),
                        "quarantined": sum(
                            1 for c in cells if c.get("status") == "quarantined"
                        ),
                    }
                )
        return out

    # -- reading ---------------------------------------------------------------

    def load(self) -> List[RunResult]:
        """Read every stored run back, in insertion order."""
        return list(self)

    def __iter__(self) -> Iterator[RunResult]:
        with self._connect() as conn:
            cursor = conn.execute(
                "SELECT format_version, payload FROM runs ORDER BY id"
            )
            for format_version, payload in cursor:
                yield decode_row(format_version, payload, self.path)

    def __len__(self) -> int:
        with self._connect() as conn:
            return int(conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    def query(
        self,
        experiment: Optional[str] = None,
        config_digest: Optional[str] = None,
        seed: Optional[int] = None,
        protocol: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[RunResult]:
        """Indexed read: rows matching every given key, in insertion order."""
        return query_runs(
            self,
            experiment=experiment,
            config_digest=config_digest,
            seed=seed,
            protocol=protocol,
            limit=limit,
        )

    def aggregate(
        self, group_by: Sequence[str], metrics: Sequence[str], agg: str = "mean", **keys
    ) -> List[dict]:
        """Grouped reduction: :func:`~repro.service.query.aggregate_runs`
        with the same key filters.  Kept by name for the benchmark's
        traced run, which wraps it."""
        return aggregate_runs(self, group_by, agg=agg, metrics=metrics, **keys)

    def rows_for_digests(
        self, digests: Iterable[str]
    ) -> List[Tuple[RunResult, int]]:
        """Cache read path: ``(run, payload_bytes)`` for these digests.

        Only the candidate rows travel out of SQLite (indexed by
        ``idx_runs_digest``); the byte size feeds
        :class:`~repro.service.cache.CacheStats.bytes_saved`.
        """
        digests = sorted(set(digests))
        if not digests:
            return []
        out: List[Tuple[RunResult, int]] = []
        with self._connect() as conn:
            # SQLite caps bound parameters (999 historically); chunk.
            for start in range(0, len(digests), 500):
                chunk = digests[start : start + 500]
                marks = ",".join("?" * len(chunk))
                cursor = conn.execute(
                    f"SELECT format_version, payload FROM runs "
                    f"WHERE config_digest IN ({marks}) ORDER BY id",
                    chunk,
                )
                for fv, payload in cursor:
                    run = decode_row(fv, payload, self.path)
                    out.append((run, len(payload.encode())))
        return out

    # -- import / export -------------------------------------------------------

    def import_from(self, store: Union[str, Path, ResultStore]) -> int:
        """Bulk-load every row of a JSONL/CSV store; returns the count."""
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        runs = store.load()
        self.extend(runs)
        return len(runs)

    def export_to(self, store: Union[str, Path, ResultStore]) -> int:
        """Write every row out to a JSONL/CSV store; returns the count."""
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        runs = self.load()
        store.extend(runs)
        return len(runs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DbResultStore({str(self.path)!r})"
