"""The one query engine: ``repro-caem query``, ``--agg`` and ``/runs``.

Every read compiles to one SQL statement over the ``runs`` table: key
filters (experiment / digest / seed / protocol) on the indexed columns,
metric predicates (``--where delivery_rate>0.9``) as
``json_extract(payload, '$.field') OP ?``, and for ``--agg`` the
reduction with its ``GROUP BY``, ``ORDER BY`` and ``LIMIT``.  The
statement runs on a :class:`~repro.service.DbResultStore`'s own
connection, or on an in-memory SQLite database with the same schema,
loaded from a JSONL/CSV store or a plain list of :class:`RunResult`.  So
every backend answers with the same rows and the same values.

Needs SQLite with the JSON1 functions (built in since SQLite 3.38).
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass
from dataclasses import fields as dc_fields
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..api.result import SERIES_FIELDS, RunResult
from ..api.store import (
    _STRING_FIELDS,
    STORE_FORMAT_VERSION,
    ResultStore,
    check_format_version,
)
from ..errors import ExperimentError
from .migrations import ensure_schema

__all__ = [
    "Predicate",
    "parse_predicate",
    "query_runs",
    "aggregate_runs",
    "DEFAULT_COLUMNS",
    "DEFAULT_AGG_METRICS",
    "GROUP_ALIASES",
]

#: What ``repro-caem query`` prints when no --columns are given.
DEFAULT_COLUMNS = (
    "experiment",
    "protocol",
    "load_pps",
    "seed",
    "n_nodes",
    "horizon_s",
    "delivery_rate",
    "energy_per_packet_j",
    "lifetime_s",
    "config_digest",
)

#: What ``--agg`` reduces when no --columns are given.
DEFAULT_AGG_METRICS = (
    "delivery_rate",
    "throughput_bps",
    "mean_delay_s",
    "energy_per_packet_j",
    "total_consumed_j",
)

#: CLI shorthand for group keys: ``--group-by protocol,load``.
GROUP_ALIASES = {"load": "load_pps", "nodes": "n_nodes"}

#: Group keys: the scalar key columns of the ``runs`` table.
_GROUP_COLUMNS = (
    "experiment",
    "protocol",
    "load_pps",
    "seed",
    "horizon_s",
    "n_nodes",
    "config_digest",
)

#: Key filters of :func:`query_runs`/:func:`aggregate_runs`: indexed
#: columns compared for equality.
_KEY_FILTERS = ("experiment", "config_digest", "seed", "protocol")

#: ``--agg`` name -> SQL aggregate.  All of them skip NULL (None) values.
_AGG_SQL = {"mean": "AVG", "min": "MIN", "max": "MAX", "sum": "SUM"}

#: Two-char operators first so ``>=`` never parses as ``>`` + ``=0.9``.
_OPS = ("<=", ">=", "==", "!=", "<", ">", "=")
_ORDERING_OPS = ("<=", ">=", "<", ">")

_RESULT_FIELDS = {f.name for f in dc_fields(RunResult)}
#: Fields that hold one number per run: what predicates order and
#: aggregates reduce.
_NUMERIC_FIELDS = _RESULT_FIELDS - set(SERIES_FIELDS) - _STRING_FIELDS

_INSERT = (
    "INSERT INTO runs (experiment, config_digest, seed, protocol, load_pps, "
    "horizon_s, n_nodes, format_version, payload) VALUES (:experiment, "
    ":config_digest, :seed, :protocol, :load_pps, :horizon_s, :n_nodes, "
    f"{STORE_FORMAT_VERSION}, :payload)"
)
#: Key columns an old row may lack, at their :class:`RunResult` defaults.
_KEY_DEFAULTS = {"experiment": None, "config_digest": "", "n_nodes": 0}


def _check_field(field: str, context: str) -> None:
    """Refuse unknown and series fields: queries compare one value per run."""
    if field not in _RESULT_FIELDS:
        raise ExperimentError(
            f"unknown RunResult field {field!r}{context}; known fields: "
            f"{', '.join(sorted(_RESULT_FIELDS))}"
        )
    if field in SERIES_FIELDS:
        raise ExperimentError(
            f"{field!r} is a series field{context}; queries take scalar "
            f"fields (series: {', '.join(SERIES_FIELDS)})"
        )


@dataclass(frozen=True)
class Predicate:
    """One ``field OP value`` filter over :class:`RunResult` attributes."""

    field: str
    op_text: str
    value: Any

    def sql(self) -> Tuple[str, List[Any]]:
        """This predicate as a WHERE term over the row's JSON payload.

        A None metric (e.g. lifetime on a fixed-window run) matches
        nothing except ``=None``; ``!=None`` keeps the rows that have one.
        """
        column = f"json_extract(payload, '$.{self.field}')"
        if self.value is None:
            negate = "NOT " if self.op_text == "!=" else ""
            return f"{column} IS {negate}NULL", []
        return f"{column} {self.op_text} ?", [self.value]


def parse_predicate(text: str) -> Predicate:
    """Parse ``"delivery_rate>0.9"`` / ``"protocol=scheme1"`` forms."""
    for op_text in _OPS:
        if op_text in text:
            field, _, raw = text.partition(op_text)
            field = field.strip()
            raw = raw.strip()
            if not field or not raw:
                break
            _check_field(field, f" in predicate {text!r}")
            value: Any
            if raw == "None":
                value = None
            elif field in _STRING_FIELDS:
                value = raw
            else:
                try:
                    value = int(raw)
                    if abs(value) >= 1 << 63:  # past SQLite's INTEGER range
                        value = float(value)
                except ValueError:
                    try:
                        value = float(raw)
                    except ValueError:
                        value = raw
            if op_text in _ORDERING_OPS and (
                field not in _NUMERIC_FIELDS or not isinstance(value, (int, float))
            ):
                raise ExperimentError(
                    f"predicate {text!r} orders with {op_text!r}: that needs "
                    f"a numeric field and a number (use = or != for "
                    f"strings and None)"
                )
            return Predicate(field=field, op_text=op_text, value=value)
    raise ExperimentError(
        f"malformed predicate {text!r}: expected FIELD OP VALUE with OP "
        f"one of {', '.join(_OPS)} (e.g. delivery_rate>0.9)"
    )


def _compile(
    columns: str, tail: str, keys: tuple, where: Sequence, limit: Optional[int]
) -> Tuple[str, List[Any]]:
    """One statement over ``runs``: SELECT ``columns``, WHERE, ``tail``, LIMIT.

    Builds every filtered read's WHERE clause: the ``keys`` values (in
    :data:`_KEY_FILTERS` order; None skips) compare the indexed columns,
    the :class:`Predicate` list ``where`` the JSON payload.
    """
    terms: List[str] = []
    params: List[Any] = []
    for column, value in zip(_KEY_FILTERS, keys):
        if value is not None:
            terms.append(f"{column} = ?")
            params.append(value)
    for predicate in where:
        term, args = predicate.sql()
        terms.append(term)
        params += args
    sql = f"SELECT {columns} FROM runs"
    if terms:
        sql += " WHERE " + " AND ".join(terms)
    sql += tail
    if limit is not None:
        if limit < 0:
            raise ExperimentError(f"limit must be >= 0 (got {limit})")
        sql += " LIMIT ?"
        params.append(int(limit))
    return sql, params


def _rows(store) -> Iterator[dict]:
    """Insert parameters for every row of a flat-file store or row list.
    A JSONL row's payload is the line it was read from, not re-encoded."""
    if isinstance(store, ResultStore) and store.format == "jsonl":
        records = store._iter_jsonl() if store.path.exists() else iter(())
    else:
        records = ((run.to_dict(), None) for run in store)
    for data, line in records:
        yield {**_KEY_DEFAULTS, **data, "payload": line or json.dumps(data)}


@contextmanager
def _connect(store) -> Iterator[sqlite3.Connection]:
    """A connection whose ``runs`` table holds ``store``'s rows."""
    from .db import DbResultStore

    if isinstance(store, DbResultStore):
        with store._connect() as conn:
            yield conn
        return
    conn = sqlite3.connect(":memory:", isolation_level=None)
    try:
        ensure_schema(conn, source=":memory:")
        conn.execute("BEGIN")
        conn.executemany(_INSERT, _rows(store))
        conn.execute("COMMIT")
        yield conn
    finally:
        conn.close()


def decode_row(format_version: Any, payload: str, source: Any) -> RunResult:
    """One stored row back as a :class:`RunResult` (version-checked)."""
    check_format_version(format_version, source)
    return RunResult.from_dict(json.loads(payload))


def query_runs(
    store,
    experiment: Optional[str] = None,
    config_digest: Optional[str] = None,
    seed: Optional[int] = None,
    protocol: Optional[str] = None,
    where: Sequence[Predicate] = (),
    limit: Optional[int] = None,
) -> List[RunResult]:
    """Filtered rows from any store backend, in insertion order.

    ``store`` is a :class:`~repro.service.DbResultStore`, a JSONL/CSV
    :class:`~repro.api.ResultStore` or a list of :class:`RunResult`;
    ``limit`` caps the rows that pass every filter.
    """
    keys = (experiment, config_digest, seed, protocol)
    sql, params = _compile(
        "format_version, payload", " ORDER BY id", keys, where, limit
    )
    source = getattr(store, "path", "<rows>")
    with _connect(store) as conn:
        rows = conn.execute(sql, params).fetchall()
    return [decode_row(fv, payload, source) for fv, payload in rows]


def resolve_group_key(key: str) -> str:
    """Expand CLI shorthand and validate one ``--group-by`` key."""
    key = GROUP_ALIASES.get(key, key)
    if key not in _GROUP_COLUMNS:
        raise ExperimentError(
            f"cannot group by {key!r}; group keys: "
            f"{', '.join(_GROUP_COLUMNS)} "
            f"(aliases: {', '.join(f'{a}={b}' for a, b in GROUP_ALIASES.items())})"
        )
    return key


def aggregate_runs(
    store,
    group_by: Sequence[str],
    agg: str = "mean",
    metrics: Optional[Sequence[str]] = None,
    experiment: Optional[str] = None,
    config_digest: Optional[str] = None,
    seed: Optional[int] = None,
    protocol: Optional[str] = None,
    where: Sequence[Predicate] = (),
    limit: Optional[int] = None,
) -> List[dict]:
    """Grouped reduction over a result store: ``query --agg``.

    Returns one dict per group, ordered by group key (None first): the
    group-key values, ``n`` (rows in the group), and one reduced value
    per metric (``None`` when every row's metric is None — e.g. lifetime
    on runs nothing died in; None metrics are skipped, not zero-filled).
    ``sum``/``min``/``max`` of an integer field are integers; ``mean``
    is always a float.  ``limit`` caps the number of groups.  Only the
    reduced rows leave SQLite.
    """
    if agg not in _AGG_SQL:
        raise ExperimentError(
            f"unknown aggregate {agg!r} (know {', '.join(_AGG_SQL)})"
        )
    group_by = [resolve_group_key(k) for k in group_by]
    if metrics is None:
        metrics = DEFAULT_AGG_METRICS
    for field in metrics:
        _check_field(field, "")
        if field not in _NUMERIC_FIELDS:
            raise ExperimentError(
                f"cannot aggregate {field!r}: it is not numeric (group by "
                f"it instead, or pick a numeric field)"
            )
    reduce = _AGG_SQL[agg]
    reductions = [f"{reduce}(json_extract(payload, '$.{f}'))" for f in metrics]
    select = ", ".join([*group_by, "COUNT(*)", *reductions])
    keys = ", ".join(group_by)
    # GROUP BY NULL: one group over all rows, and none over no rows.
    tail = f" GROUP BY {keys} ORDER BY {keys}" if group_by else " GROUP BY NULL"
    keys = (experiment, config_digest, seed, protocol)
    sql, params = _compile(select, tail, keys, where, limit)
    with _connect(store) as conn:
        rows = conn.execute(sql, params).fetchall()
    width = len(group_by)
    out: List[dict] = []
    for row in rows:
        record = dict(zip(group_by, row))
        record["n"] = row[width]
        record.update(zip(metrics, row[width + 1 :]))
        out.append(record)
    return out
