"""The benchmark's workloads, by name.

Each workload module defines one :class:`Workload` subclass.  The
benchmark drives them all the same way: :meth:`prepare` (the imports and
first-call set-up that ``setup_s`` covers), :meth:`fixture` (inputs the
benchmark generates, untimed), then :meth:`unit` repeatedly for the run's
time budget, each call followed by :meth:`verify` outside the timing.
"""

from __future__ import annotations

import contextlib
import importlib
from typing import Any, Dict, List, Optional

from harness import Checker, Tracer

#: workload name -> module defining it.
MODULES = {
    "paper-campaign": "workloads.paper_campaign",
    "vector-scale": "workloads.vector_scale",
    "store-mix": "workloads.store_mix",
    "dispatch": "workloads.dispatch",
}


class Workload:
    """One named workload.  Subclasses fill in the five hooks."""

    name = ""
    #: Worker processes the workload runs concurrently (peak memory
    #: counts them).
    worker_processes = 0

    def __init__(self, seed: int, tiny: bool, checker: Checker, tmpdir: str):
        self.seed = seed
        self.tiny = tiny
        self.check = checker
        self.tmpdir = tmpdir
        #: Set by the benchmark for the traced run.
        self.tracer: Optional[Tracer] = None

    def span(self, name: str, traced: bool):
        """A span of the benchmark's own around a step of a traced unit."""
        if traced and self.tracer is not None:
            return self.tracer.span(name)
        return contextlib.nullcontext()

    def prepare(self) -> None:
        """Imports and lazy set-up before the first timed operation."""

    def fixture(self) -> None:
        """Generate the workload's inputs (not timed)."""

    def unit(self, index: int, traced: bool) -> Any:
        """Run one unit of work; returns what :meth:`verify` checks, with
        the seconds spent in the program (checks excluded) as
        ``"wall_s"``, and the ``(start, end)`` ``perf_counter``
        intervals of each of the unit's named operations as
        ``"parts"``."""
        raise NotImplementedError

    def verify(self, index: int, outcome: Any) -> None:
        """Check one unit's outputs, recording every operation."""
        raise NotImplementedError

    def layer_metrics(self, outcomes: List[Any], traced: List[bool]) -> Dict[str, float]:
        """This workload's own per-layer metrics from the traced run."""
        return {}

    def expected_labels(self, outcome: Any) -> Dict[str, str]:
        """Fingerprints of one unit, keyed as in ``expected.json``."""
        return {}


def load(name: str, seed: int, tiny: bool, checker: Checker, tmpdir: str) -> Workload:
    module = importlib.import_module(MODULES[name])
    return module.WORKLOAD(seed, tiny, checker, tmpdir)
