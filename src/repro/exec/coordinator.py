"""The distributed executor's work routes.

The wire protocol is four stdlib-only JSON endpoints in front of a
:class:`~repro.exec.board.LeaseBoard`:

* ``POST /work/lease``      ``{"worker": id}`` → ``{"lease": {...}|null}``
* ``POST /work/result``     ``{"lease_id", "worker", "run"|"error"}``
  → ``{"accepted": bool}``
* ``POST /work/heartbeat``  ``{"worker": id}`` → ``{"ok", "leases"}``
* ``GET  /work/status``     → board counts + per-worker stats

:func:`handle_work` implements the routes as a transport-independent
``(status, payload)`` function.  The HTTP side lives in
:mod:`repro.service.http`: its handler serves them both from the
:class:`~repro.service.http.WorkServer` that ``--executor distributed``
self-hosts and from the campaign server (``repro-caem serve
--distributed``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from .board import LeaseBoard

__all__ = ["handle_work"]


def handle_work(
    board: LeaseBoard,
    method: str,
    parts: Sequence[str],
    body: Optional[Dict[str, Any]],
) -> Optional[Tuple[int, Dict[str, Any]]]:
    """Route one ``/work/*`` request against ``board``.

    ``parts`` is the split request path (``["work", "lease"]``).  Returns
    ``(http_status, json_payload)``, or ``None`` when the path is not a
    work route (the caller 404s).
    """
    if not parts or parts[0] != "work" or len(parts) != 2:
        return None
    action = parts[1]

    if method == "GET":
        if action != "status":
            return None
        return 200, {
            "counts": board.counts(),
            "workers": board.workers(),
            "lease_timeout_s": board.lease_timeout_s,
        }
    if method != "POST":
        return None
    body = body or {}

    if action == "lease":
        worker = str(body.get("worker") or "anonymous")
        return 200, {"lease": board.lease(worker)}

    if action == "heartbeat":
        worker = str(body.get("worker") or "anonymous")
        return 200, {"ok": True, "leases": board.heartbeat(worker)}

    if action == "result":
        lease_id = body.get("lease_id")
        if not lease_id:
            return 400, {"error": "result requires a lease_id"}
        if "run" in body:
            accepted = board.complete(str(lease_id), body["run"])
        else:
            error = str(body.get("error") or "worker reported failure")
            accepted = board.fail(str(lease_id), error)
        return 200, {"accepted": accepted}

    return None
