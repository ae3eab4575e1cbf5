"""dispatch: one small grid through every executor.

Nine smoke-preset cells (3 protocols x 3 loads, the run's seed) with the
horizon cut to 3 s, so simulation is a small share of the work and
per-cell dispatch cost dominates: process start-up, the import each
spawned worker repeats, lease round-trips over loopback HTTP and the
write-behind flush.  The grid runs serially in-process as the reference,
then through ``pool:2``, ``supervised:jobs=2`` and
``distributed:local=2``; every executor's results must equal serial's.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List

import repro.cli  # noqa: F401  (the entry point users launch)
import repro.exec.coordinator  # noqa: F401  (imported lazily by the distributed executor)
from repro.api import CampaignIncompleteError, RunOptions, Scenario, run_scenarios
from repro.config import Protocol
from repro.experiments.presets import get_preset

from harness import fingerprint
from workloads import Workload

#: (metric label, executor spec, worker processes).
LEGS = (
    ("serial", "serial", 1),
    ("pool", "pool:2", 2),
    ("supervised", "supervised:jobs=2", 2),
    ("distributed", "distributed:local=2", 2),
)
PROTOCOLS = (Protocol.PURE_LEACH, Protocol.CAEM_ADAPTIVE, Protocol.CAEM_FIXED)


class Dispatch(Workload):
    name = "dispatch"
    worker_processes = 2

    def prepare(self) -> None:
        Scenario.from_preset("smoke").with_runtime(horizon_s=1.0).run()

    def fixture(self) -> None:
        tier = get_preset("smoke")
        loads = (5.0, 25.0) if self.tiny else (5.0, 15.0, 25.0)
        self.grid = [
            Scenario(
                config=tier.config(proto, load, self.seed),
                options=RunOptions(horizon_s=3.0, sample_interval_s=tier.sample_interval_s),
            )
            for proto in PROTOCOLS
            for load in loads
        ]

    def unit(self, index: int, traced: bool) -> Any:
        legs: Dict[str, Dict[str, Any]] = {}
        for label, spec, workers in LEGS:
            events: List[dict] = []
            t0 = time.perf_counter()
            try:
                runs = run_scenarios(self.grid, executor=spec, on_cell_event=events.append)
            except CampaignIncompleteError as exc:  # quarantined cells fail below
                runs = exc.results
            t1 = time.perf_counter()
            legs[label] = {
                "interval": (t0, t1),
                "wall_s": t1 - t0,
                "workers": workers,
                "sim_s": sum(r.wall_time_s for r in runs if r is not None),
                "retries": sum(1 for e in events if e.get("type") == "retry"),
                "runs": runs,
            }
        parts = {label: [leg["interval"]] for label, leg in legs.items()}
        return {"wall_s": sum(leg["wall_s"] for leg in legs.values()), "parts": parts,
                "legs": legs}

    def verify(self, index: int, outcome: Any) -> None:
        reference = None
        for label, _spec, _workers in LEGS:
            leg = outcome["legs"][label]
            fps = [fingerprint(r) if r is not None else None for r in leg.pop("runs")]
            reference = reference or fps
            for i, fp in enumerate(fps):
                self.check.record(
                    fp is not None and fp == reference[i]
                    and self.check.against_expected(f"cell{i}", fp),
                    f"{label} cell {i} at unit {index}",
                )
            if len(fps) != len(self.grid):
                self.check.fail(f"{label} returned {len(fps)} of {len(self.grid)} cells")
            leg["fps"] = fps

    def expected_labels(self, outcome: Any) -> Dict[str, str]:
        return {f"cell{i}": fp for i, fp in enumerate(outcome["legs"]["serial"]["fps"])}

    def layer_metrics(self, outcomes: List[Any], traced: List[bool]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        cells = len(self.grid)
        busy = sim = 0.0
        for label, _spec, workers in LEGS:
            legs = [o["legs"][label] for o in outcomes]
            out[f"exec.{label}.wall_s"] = statistics.median([leg["wall_s"] for leg in legs])
            out[f"exec.{label}.overhead_ms_per_cell"] = statistics.median(
                [(leg["wall_s"] * workers - leg["sim_s"]) / cells * 1e3 for leg in legs]
            )
            out[f"exec.{label}.retries"] = sum(leg["retries"] for leg in legs) / len(legs)
            busy += sum(leg["wall_s"] * workers for leg in legs)
            sim += sum(leg["sim_s"] for leg in legs)
        out["exec.sim_share"] = sim / busy if busy else 0.0
        return out


WORKLOAD = Dispatch
