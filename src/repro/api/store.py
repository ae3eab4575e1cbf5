"""Result persistence: append :class:`RunResult` rows, reload them later.

A :class:`ResultStore` lets a campaign's raw runs outlive the process so
figures and tables can be re-rendered without re-simulating::

    store = ResultStore("results/fig10.jsonl")
    campaign.run(executor="pool:8", store=store)
    ...                                  # later / elsewhere
    runs = ResultStore("results/fig10.jsonl").load()

Two flat-file formats, chosen by file suffix:

* ``.jsonl`` — one JSON object per line, full fidelity (time series
  included); round-trips exactly through
  :meth:`RunResult.to_dict`/:meth:`RunResult.from_dict`.
* ``.csv`` — scalar columns only (time series are dropped), for
  spreadsheet-style analysis.  Loading restores the scalars and leaves
  the series empty.

(The SQLite-backed :class:`repro.service.DbResultStore` implements the
same append/extend/load/iterate interface with indexed reads; use
:func:`repro.service.open_store` to pick the backend by suffix.)

Durability: JSONL appends are write-then-flush-then-fsync, and the reader
tolerates a torn trailing record (a writer killed mid-append leaves a
partial last line with no newline — it is skipped, every completed row
before it loads).  A corrupt record *inside* the file still fails loudly.

Every written row carries ``format_version`` (see
:data:`STORE_FORMAT_VERSION`); reading a store written by an incompatible
(newer) version raises an :class:`~repro.errors.ExperimentError` with an
upgrade hint instead of a ``KeyError`` deep in re-rendering.  Rows with no
version field are pre-versioning stores (format 1 layout) and load fine.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple, Union

from ..errors import ExperimentError
from .result import RunResult, SERIES_FIELDS

__all__ = ["ResultStore", "STORE_FORMAT_VERSION", "check_format_version"]

#: Version stamped into every row this build writes.  Bump when the row
#: layout changes incompatibly (renamed/retyped fields); readers refuse
#: rows from a *newer* format loudly.
STORE_FORMAT_VERSION = 1

#: RunResult fields exported to CSV (scalars only, in declaration order).
_SCALAR_FIELDS = [
    f.name
    for f in dataclasses.fields(RunResult)
    if f.name not in SERIES_FIELDS
]

_INT_FIELDS = {
    f.name for f in dataclasses.fields(RunResult)
    if f.type in ("int", int)
}
_STRING_FIELDS = {"protocol", "experiment", "config_digest"}
_FLOAT_FIELDS = {
    f.name for f in dataclasses.fields(RunResult)
    if f.name in _SCALAR_FIELDS and f.name not in _INT_FIELDS
    and f.name not in _STRING_FIELDS
}


def _active_faults():
    """The ambient fault injector (chaos tests), or ``None``.

    Imported lazily so the api layer only touches the service tier when
    a fault plan is actually active-able; the production path is one
    environment lookup.
    """
    from ..service.faults import active_faults

    return active_faults()


def check_format_version(value: Any, source: Union[str, Path]) -> None:
    """Refuse rows written by an incompatible store format, loudly.

    ``None`` (no ``format_version`` field) means a pre-versioning store,
    whose layout is format 1 — accepted.  Anything newer than this build's
    :data:`STORE_FORMAT_VERSION` gets the upgrade hint instead of a
    ``KeyError`` when re-rendering reaches a field that moved.
    """
    if value is None:
        return
    try:
        version = int(value)
    except (TypeError, ValueError):
        raise ExperimentError(
            f"store {source} carries a malformed format_version "
            f"{value!r} (expected an integer)"
        ) from None
    if version < 1 or version > STORE_FORMAT_VERSION:
        raise ExperimentError(
            f"store {source} was written with format version {version}, "
            f"but this build reads versions 1..{STORE_FORMAT_VERSION} — "
            f"upgrade repro (pip install -U) to read it, or re-run the "
            f"campaign with this build to regenerate the store"
        )


class ResultStore:
    """Append-only store of :class:`RunResult` rows at one path."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        suffix = self.path.suffix.lower()
        if suffix not in (".jsonl", ".csv"):
            raise ExperimentError(
                f"unsupported store format {suffix!r} (use .jsonl or .csv, "
                f"or .sqlite via repro.service.open_store)"
            )
        self.format = suffix[1:]

    # -- writing ---------------------------------------------------------------

    def append(self, run: RunResult) -> None:
        """Append one run (creates the file, and for CSV the header)."""
        self.extend([run])

    def extend(self, runs: Sequence[RunResult]) -> None:
        """Append many runs with a single open/write/fsync.

        The fsync makes the append crash-safe: once ``extend`` returns,
        the rows survive a killed process or a power cut, and a crash
        *during* the write leaves at most one torn trailing line, which
        the reader skips (earlier rows stay loadable).
        """
        if not runs:
            return
        faults = _active_faults()
        fault_key = (
            f"{runs[0].config_digest}|{runs[0].protocol}|"
            f"{runs[0].load_pps!r}|{runs[0].seed}|{len(runs)}"
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.format == "jsonl":
            with self.path.open("a") as fh:
                lines = []
                for run in runs:
                    row = run.to_dict()
                    row["format_version"] = STORE_FORMAT_VERSION
                    lines.append(json.dumps(row) + "\n")
                if faults is not None and faults.torn_write(fault_key):
                    # Injected power-cut: all but the last record land,
                    # the last stops mid-line with no newline — exactly
                    # the torn tail the reader knows how to skip.
                    fh.write("".join(lines[:-1]))
                    fh.write(lines[-1][: max(1, len(lines[-1]) // 2)])
                    fh.flush()
                    os.fsync(fh.fileno())
                    from ..service.faults import InjectedFault

                    raise InjectedFault(
                        f"injected torn JSONL append "
                        f"(site=store.torn_write key={fault_key})"
                    )
                fh.write("".join(lines))
                fh.flush()
                if faults is not None:
                    faults.check_fsync(fault_key)
                os.fsync(fh.fileno())
        else:
            new_file = not self.path.exists() or self.path.stat().st_size == 0
            with self.path.open("a", newline="") as fh:
                writer = csv.writer(fh)
                if new_file:
                    writer.writerow(_SCALAR_FIELDS + ["format_version"])
                for run in runs:
                    row = run.to_dict()
                    writer.writerow(
                        ["" if row[name] is None else row[name]
                         for name in _SCALAR_FIELDS]
                        + [STORE_FORMAT_VERSION]
                    )
                fh.flush()
                os.fsync(fh.fileno())

    # -- reading ---------------------------------------------------------------

    def load(self) -> List[RunResult]:
        """Read every stored run back (empty list if the file is absent)."""
        return list(self)

    def __iter__(self) -> Iterator[RunResult]:
        if not self.path.exists():
            return
        if self.format == "jsonl":
            for data, _ in self._iter_jsonl():
                yield RunResult.from_dict(data)
        else:
            yield from self._iter_csv()

    def _iter_jsonl(self) -> Iterator[Tuple[Dict[str, Any], str]]:
        """Every record as ``(fields, line)``: the decoded, version-checked
        fields (``format_version`` removed) and the JSON text they came
        from, which the query engine stores verbatim as the row payload."""
        with self.path.open() as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    data = json.loads(stripped)
                except ValueError:
                    if not line.endswith("\n"):
                        # Torn trailing record: the writer died mid-append
                        # (extend() only completes lines).  Every finished
                        # row before it is good — serve those.
                        return
                    raise ExperimentError(
                        f"corrupt record at {self.path}:{lineno} — the "
                        f"store is damaged mid-file (not a torn tail); "
                        f"re-run the campaign or trim the file manually"
                    ) from None
                check_format_version(
                    data.pop("format_version", None), self.path
                )
                yield data, stripped

    def _iter_csv(self) -> Iterator[RunResult]:
        with self.path.open(newline="") as fh:
            for row in csv.DictReader(fh):
                check_format_version(
                    (row.pop("format_version", None) or None), self.path
                )
                data: Dict[str, Any] = {}
                for name, raw in row.items():
                    if raw == "" or raw is None:
                        continue
                    if name in _INT_FIELDS:
                        data[name] = int(raw)
                    elif name in _FLOAT_FIELDS:
                        data[name] = float(raw)
                    else:
                        data[name] = raw
                yield RunResult.from_dict(data)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.path)!r}, format={self.format!r})"
