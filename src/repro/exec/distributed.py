"""The distributed executor: a campaign fanned out over HTTP workers.

The coordinator (this process) submits every grid cell to a
:class:`~repro.exec.board.LeaseBoard` and then *observes*: remote
workers pull leases over HTTP (see :mod:`repro.exec.worker`), simulate,
and post results back; crashed workers are absorbed by lease expiry and
the cells re-queue for whoever is still alive.  The executor never
pushes work — idle workers steal it.

Two properties make the output indistinguishable from a serial run:

* **determinism** — every cell's result is a pure function of its
  scenario, so *which* worker ran it (and how many attempts it took)
  cannot change a byte of the result;
* **write-behind settled-prefix flush** — results settle on the board
  in whatever order workers finish, but a background flusher thread
  applies ``store.append`` / ``manifest.record_done`` / ``progress``
  strictly in grid order as the completed prefix grows.  The flush is
  asynchronous (the observe loop never blocks on store I/O) yet the
  on-disk order is exactly the serial one.

Cells are submitted by pairing key, so two campaigns sharing a board
dedup at lease time: a cell both need is simulated once and both
campaigns' flushers write the settled result (each from its own
:class:`RunResult` copy — provenance stamps don't bleed across).

With no ``board`` argument the executor **self-hosts**: it starts a
:class:`~repro.service.http.WorkServer` on ``spec.bind`` and
optionally spawns ``spec.local_workers`` worker subprocesses — which is
how ``repro-caem run --executor distributed:local=2`` works with no
other process involved.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from typing import Any, List, Optional, Sequence, Tuple

from .base import CampaignExecutor, CellFailure, ExecutionHooks
from .board import DONE, QUARANTINED, LeaseBoard
from .spec import ExecutorSpec
from .wire import result_from_wire, scenario_to_wire

__all__ = ["DistributedExecutor"]


class DistributedExecutor(CampaignExecutor):
    """Observe a lease board until every submitted cell settles."""

    kind = "distributed"

    def __init__(self, spec: ExecutorSpec, board: Optional[LeaseBoard] = None):
        self.spec = spec
        self.board = board
        self._owns_board = board is None
        self._server = None
        self._local_procs: List[subprocess.Popen] = []
        if self._owns_board:
            self.board = LeaseBoard(lease_timeout_s=spec.lease_timeout_s)

    @property
    def allow_partial(self) -> bool:
        return self.spec.allow_partial

    # -- self-hosting --------------------------------------------------

    @property
    def url(self) -> Optional[str]:
        """The coordinator URL workers connect to (self-hosted only)."""
        return self._server.url if self._server is not None else None

    def _ensure_server(self) -> None:
        if not self._owns_board or self._server is not None:
            return
        from ..service.http import WorkServer

        self._server = WorkServer(self.spec.bind_address(), self.board).start()
        for i in range(self.spec.local_workers):
            self._local_procs.append(self._spawn_local_worker(i))

    def _spawn_local_worker(self, index: int) -> subprocess.Popen:
        env = dict(os.environ)
        # Workers import repro; make sure they resolve the same tree.
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", self.url,
                "--id", f"local-{index}",
                "--idle-exit", "60",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    # -- execution -----------------------------------------------------

    def execute(
        self,
        scenarios: Sequence,
        hooks: Optional[ExecutionHooks] = None,
    ) -> Tuple[List[Optional[Any]], List[CellFailure]]:
        from ..api.pairing import scenario_key

        hooks = hooks or ExecutionHooks()
        self._ensure_server()
        board = self.board
        scenarios = list(scenarios)
        total = len(scenarios)
        results: List[Optional[Any]] = [None] * total
        failures: List[CellFailure] = []

        items = []
        shared_flags = []
        for sc in scenarios:
            item, shared = board.submit(
                scenario_key(sc),
                scenario_to_wire(sc),
                max_attempts=self.spec.max_attempts,
                describe=sc.describe(),
            )
            items.append(item)
            shared_flags.append(shared)

        # Write-behind flusher: applies store/manifest/progress side
        # effects strictly in grid order as the settled prefix grows,
        # without ever blocking the observe loop on store I/O.
        settled = [False] * total
        flush_cond = threading.Condition()
        aborted = False

        def flusher() -> None:
            flushed = 0
            while flushed < total:
                with flush_cond:
                    while not settled[flushed]:
                        if aborted:
                            return
                        flush_cond.wait(0.2)
                hooks.flush_done(
                    flushed, total, scenarios[flushed], results[flushed]
                )
                flushed += 1

        flush_thread = threading.Thread(
            target=flusher, name="repro-dist-flusher", daemon=True
        )
        flush_thread.start()

        observed_attempts = [0] * total
        remaining = set(range(total))
        try:
            while remaining:
                board.sweep()
                for index in sorted(remaining):
                    item = items[index]
                    attempts = item.attempts
                    status = item.status
                    if status not in (DONE, QUARANTINED):
                        # Surface retries as they happen: attempts grew
                        # past what we reported but the cell isn't
                        # settled, so an earlier attempt failed.
                        while observed_attempts[index] < attempts - 1:
                            observed_attempts[index] += 1
                            hooks.emit({
                                "type": "retry",
                                "index": index,
                                "total": total,
                                "attempt": observed_attempts[index],
                                "max_attempts": item.max_attempts,
                                "kind": "lease",
                                "error": item.error,
                            })
                        continue
                    remaining.discard(index)
                    observed_attempts[index] = attempts
                    if status == DONE:
                        # A fresh RunResult per observer: campaigns
                        # sharing this cell must not share the mutable
                        # object (each stamps its own provenance).
                        results[index] = result_from_wire(item.result)
                        hooks.emit({
                            "type": "cell",
                            "index": index,
                            "total": total,
                            "source": "sim",
                            "attempts": attempts,
                            "worker": item.worker,
                            "shared": shared_flags[index],
                            "scenario": scenarios[index].describe(),
                        })
                    else:
                        error = item.error or "quarantined"
                        failures.append(CellFailure(
                            index=index,
                            scenario=scenarios[index],
                            attempts=attempts,
                            error=error,
                        ))
                        hooks.record_quarantine(scenarios[index], error)
                        hooks.emit({
                            "type": "quarantine",
                            "index": index,
                            "total": total,
                            "attempts": attempts,
                            "error": error,
                        })
                    with flush_cond:
                        settled[index] = True
                        flush_cond.notify_all()
                if remaining:
                    board.wait(0.1)
        except BaseException:
            with flush_cond:
                aborted = True
                flush_cond.notify_all()
            flush_thread.join(timeout=5)
            raise
        finally:
            for item in items:
                board.retire(item)

        flush_thread.join()
        return results, failures

    def close(self) -> None:
        for proc in self._local_procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._local_procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
        self._local_procs = []
        if self._server is not None:
            self._server.close()
            self._server = None
