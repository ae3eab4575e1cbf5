"""The campaign server: a stdlib JSON-over-HTTP front on the service tier.

``repro-caem serve`` binds a :class:`ThreadingHTTPServer` whose handlers
talk to a shared :class:`~repro.service.db.DbResultStore` and
:class:`~repro.service.jobs.JobManager`.  No third-party web framework —
the paper repo stays dependency-light — just the endpoints a campaign
workflow needs:

==================================  ========================================
``GET  /health``                    liveness + row count + schema version
``GET  /experiments``               the experiment registry, as JSON
``POST /campaigns``                 submit a campaign spec → ``job_id``
``GET  /campaigns``                 all jobs, newest last
``GET  /campaigns/<id>``            one job's status snapshot
``GET  /campaigns/<id>/events``     NDJSON progress stream (long-poll)
``GET  /campaigns/<id>/figure``     rendered figure; ``?rerender=1``
                                    re-renders from the stored DB rows
``GET  /campaigns/<id>/agg``        grouped reduction over the job's
                                    stored rows: ``?agg=mean&group_by=
                                    protocol,load`` (+ ``metrics=``)
``POST /work/lease`` etc.           distributed-executor work endpoints
                                    (``serve --distributed`` only; see
                                    :mod:`repro.exec.coordinator`)
``GET  /runs``                      browse rows: ``experiment`` /
                                    ``digest`` / ``seed`` / ``protocol`` /
                                    repeated ``where=`` predicates /
                                    ``limit`` / ``full=1`` for series
==================================  ========================================

The ``/work/*`` routes alone are served by :class:`WorkServer`, which
the distributed executor self-hosts for ``--executor distributed``; the
campaign server is a :class:`WorkServer` with the campaign routes added.
Both run the one handler below: one body reader (413 oversized, 400
malformed), one JSON writer and one 400/500 error mapping.

Concurrency: WAL mode on the database means the read endpoints serve
consistent snapshots while worker threads append mid-campaign.
"""

from __future__ import annotations

import json
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..api import get_experiment, list_experiments
from ..errors import ExperimentError, ReproError
from ..exec.coordinator import handle_work
from .db import DbResultStore
from .jobs import JobManager
from .migrations import SCHEMA_VERSION
from .query import aggregate_runs, parse_predicate, query_runs

__all__ = ["CampaignServer", "WorkServer", "build_server"]

_MAX_BODY_BYTES = 1 << 20  # specs and results are small; refuse megabyte bodies


class _HttpError(Exception):
    """An error with a specific HTTP status (413, 404, ...)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class WorkServer(ThreadingHTTPServer):
    """HTTP server for the ``/work/*`` routes of a lease board.

    ``board`` is the :class:`~repro.exec.board.LeaseBoard` that remote
    ``repro-caem worker`` processes lease from; ``None`` 404s the
    routes (a campaign server started without ``--distributed``).
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], board=None, quiet: bool = True):
        super().__init__(address, _Handler)
        self.board = board
        self.quiet = quiet
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "WorkServer":
        """Serve from a daemon thread until :meth:`close`."""
        self._thread = threading.Thread(
            target=self.serve_forever,
            # close() waits out one poll; the stdlib 0.5 s would add
            # that much to every self-hosted distributed campaign.
            kwargs={"poll_interval": 0.1},
            name="repro-work-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving (the caller's or :meth:`start`'s thread)."""
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


class CampaignServer(WorkServer):
    """HTTP server owning the shared result database and job manager."""

    def __init__(
        self,
        address: Tuple[str, int],
        db: DbResultStore,
        manager: JobManager,
        quiet: bool = False,
        board=None,
    ):
        super().__init__(address, board=board, quiet=quiet)
        self.db = db
        self.manager = manager

    def close(self) -> None:
        """Stop serving and drain the worker pool (tests, SIGINT path)."""
        super().close()
        self.manager.shutdown()


def build_server(
    db_path,
    host: str = "127.0.0.1",
    port: int = 8351,
    workers: int = 1,
    quiet: bool = False,
    distributed: bool = False,
    lease_timeout_s: float = 30.0,
) -> CampaignServer:
    """Wire db + job manager + HTTP server (port 0 picks a free port).

    ``distributed=True`` attaches a shared
    :class:`~repro.exec.board.LeaseBoard`: jobs submitted with
    ``{"executor": "distributed"}`` queue their cells on it, and remote
    ``repro-caem worker --connect`` processes lease them through the
    ``/work/*`` endpoints of this same server.
    """
    db = DbResultStore(db_path)
    board = None
    if distributed:
        from ..exec.board import LeaseBoard

        board = LeaseBoard(lease_timeout_s=lease_timeout_s)
    manager = JobManager(db, workers=workers, board=board)
    return CampaignServer((host, port), db, manager, quiet=quiet, board=board)


class _Handler(BaseHTTPRequestHandler):
    server: WorkServer

    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        if not self.server.quiet:
            super().log_message(fmt, *args)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, status: int = 200,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ExperimentError(
                "malformed Content-Length header (expected an integer)"
            ) from None
        if length <= 0:
            raise ExperimentError("request body required (a JSON object)")
        if length > _MAX_BODY_BYTES:
            raise _HttpError(
                413,
                f"request body too large ({length} bytes; the limit is "
                f"{_MAX_BODY_BYTES}) — specs and results are small JSON "
                f"objects",
            )
        raw = self.rfile.read(length)
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise ExperimentError(f"request body is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ExperimentError("request body must be a JSON object")
        return data

    # -- routing ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        """Route one request; map every failure to a JSON error."""
        try:
            self._route(method, urlparse(self.path))
        except _HttpError as exc:
            self._error(exc.status, str(exc))
        except (ReproError, ValueError) as exc:
            self._error(400, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass  # streaming client went away — nothing to answer
        except Exception as exc:  # noqa: BLE001 - no tracebacks to clients
            self._internal_error(exc)

    def _route(self, method: str, url) -> None:
        parts = [p for p in url.path.split("/") if p]
        if parts[:1] == ["work"]:
            return self._work(method, parts)
        campaigns = isinstance(self.server, CampaignServer)
        if campaigns and method == "POST" and parts == ["campaigns"]:
            record = self.server.manager.submit(self._read_body())
            return self._send_json(record.snapshot(), status=202)
        if campaigns and method == "GET":
            params = parse_qs(url.query)
            if parts == ["health"]:
                return self._get_health()
            if parts == ["experiments"]:
                return self._get_experiments()
            if parts == ["runs"]:
                return self._get_runs(params)
            if parts[:1] == ["campaigns"]:
                if len(parts) == 1:
                    return self._get_campaigns()
                job = self.server.manager.get(parts[1])
                if len(parts) == 2:
                    return self._send_json(job.snapshot())
                if len(parts) == 3 and parts[2] == "events":
                    return self._get_events(job, params)
                if len(parts) == 3 and parts[2] == "figure":
                    return self._get_figure(job, params)
                if len(parts) == 3 and parts[2] == "agg":
                    return self._get_agg(job, params)
        self._error(404, f"no such endpoint: {url.path}")

    def _internal_error(self, exc: Exception) -> None:
        """A 500 as structured JSON — never an unhandled traceback.

        The traceback goes to the server log (unless quiet); the client
        gets the exception type and message only.
        """
        if not self.server.quiet:
            traceback.print_exc()
        try:
            self._error(500, f"internal error: {type(exc).__name__}: {exc}")
        except (BrokenPipeError, ConnectionResetError):
            pass  # headers already sent or client gone — nothing to add

    # -- endpoints -------------------------------------------------------------

    def _get_health(self) -> None:
        self._send_json(
            {
                "ok": True,
                "db": str(self.server.db.path),
                "rows": len(self.server.db),
                "schema_version": SCHEMA_VERSION,
                "jobs": len(self.server.manager.list()),
            }
        )

    def _get_experiments(self) -> None:
        self._send_json(
            {
                "experiments": [spec.to_dict() for spec in list_experiments()],
            }
        )

    def _get_campaigns(self) -> None:
        self._send_json(
            {
                "jobs": [job.snapshot() for job in self.server.manager.list()],
            }
        )

    def _get_events(self, job, params: Dict[str, List[str]]) -> None:
        """NDJSON progress stream: replay from ``after``, then follow.

        Chunked so a client can iterate lines live; the stream closes once
        the job is terminal and everything was flushed (or ``timeout``
        seconds pass with no news — reconnect with ``after=<seq>``).
        """
        after = int(params.get("after", ["0"])[0])
        timeout = min(120.0, float(params.get("timeout", ["30"])[0]))
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def write_chunk(data: bytes) -> None:
            self.wfile.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")

        seq = after
        while True:
            events = job.wait_events(seq, timeout=timeout)
            for event in events:
                write_chunk((json.dumps(event) + "\n").encode())
            self.wfile.flush()
            if events:
                seq = events[-1]["seq"] + 1
            if job.finished and len(job.events) <= seq:
                break
            if not events:
                break  # timed out quietly; client reconnects with after=
        self.wfile.write(b"0\r\n\r\n")

    def _get_figure(self, job, params: Dict[str, List[str]]) -> None:
        spec = job.spec
        if "experiment" not in spec:
            raise ExperimentError(
                "figures exist only for experiment jobs (grid jobs store "
                "raw rows — browse them via /runs)"
            )
        rerender = params.get("rerender", ["0"])[0] not in ("0", "", "false")
        if rerender:
            if not job.finished:
                return self._error(409, "job still running; poll until done")
            # Re-render purely from the stored rows — the service-tier
            # equivalent of `repro-caem run <exp> --from results.sqlite`.
            exp = get_experiment(spec["experiment"])
            rows = self.server.db.query(experiment=spec["experiment"])
            figure = exp.run(
                preset=spec.get("preset", "smoke"),
                seeds=tuple(int(s) for s in spec.get("seeds", (1,))),
                loads_pps=(
                    tuple(float(v) for v in spec["loads"])
                    if spec.get("loads") else None
                ),
                runs=rows,
            )
            return self._send_text(figure.render())
        if job.figure_text is None:
            return self._error(409, "figure not rendered yet; poll until done")
        self._send_text(job.figure_text)

    def _work(self, method: str, parts: List[str]) -> None:
        """Serve ``/work/*`` from the distributed coordinator routes."""
        board = self.server.board
        if board is None:
            return self._error(
                404,
                "this server has no distributed lease board — start it "
                "with 'repro-caem serve --distributed'",
            )
        body = self._read_body() if method == "POST" else None
        routed = handle_work(board, method, parts, body)
        if routed is None:
            return self._error(404, f"no such endpoint: {self.path}")
        status, payload = routed
        self._send_json(payload, status=status)

    def _get_agg(self, job, params: Dict[str, List[str]]) -> None:
        """Grouped reduction over the rows this job put in the database.

        ``GET /campaigns/<id>/agg?agg=mean&group_by=protocol,load`` —
        the server-side equivalent of ``repro-caem query --agg``, run by
        :func:`~repro.service.query.aggregate_runs` as one SQL statement:
        experiment jobs reduce on the database itself; grid jobs read the
        rows of the job's own config digests (recorded at submit time)
        and reduce them in an in-memory SQLite database.
        """
        def one(name: str, default: Optional[str] = None) -> Optional[str]:
            values = params.get(name)
            return values[0] if values else default

        agg = one("agg", "mean")
        group_by = [
            key.strip()
            for key in one("group_by", "protocol").split(",")
            if key.strip()
        ]
        metrics_raw = one("metrics")
        metrics = (
            [m.strip() for m in metrics_raw.split(",") if m.strip()]
            if metrics_raw else None
        )
        spec = job.spec
        if "experiment" in spec:
            groups = aggregate_runs(
                self.server.db, group_by, agg=agg, metrics=metrics,
                experiment=spec["experiment"],
            )
        else:
            if job._digests is None:
                raise ExperimentError(
                    "this job has no recorded grid cells to aggregate"
                )
            rows = [run for run, _ in self.server.db.rows_for_digests(job._digests)]
            groups = aggregate_runs(rows, group_by, agg=agg, metrics=metrics)
        self._send_json(
            {
                "job_id": job.job_id,
                "agg": agg,
                "group_by": group_by,
                "count": len(groups),
                "groups": groups,
            }
        )

    def _get_runs(self, params: Dict[str, List[str]]) -> None:
        def one(name: str) -> Optional[str]:
            values = params.get(name)
            return values[0] if values else None

        seed = one("seed")
        limit = one("limit")
        where = [parse_predicate(text) for text in params.get("where", [])]
        rows = query_runs(
            self.server.db,
            experiment=one("experiment"),
            config_digest=one("digest"),
            seed=int(seed) if seed is not None else None,
            protocol=one("protocol"),
            where=where,
            limit=int(limit) if limit is not None else None,
        )
        full = one("full") in ("1", "true")
        self._send_json(
            {
                "count": len(rows),
                "rows": [
                    run.to_dict() if full else run.scalar_summary() for run in rows
                ],
            }
        )
