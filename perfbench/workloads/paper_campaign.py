"""paper-campaign: the fig11 quick-preset grid, serial, into SQLite, rendered.

3 protocols x 6 loads at the run's seed, through ``run_scenarios`` into
a fresh ``DbResultStore``; the figure is then rendered from the stored
rows, as ``repro-caem run fig11 --from`` would.  Nearly all the time is
in the event kernel, so this is the mechanism workload for kernel
changes and the bypass workload for vector, dispatch and store changes.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Any, Dict, List

import repro.cli  # noqa: F401  (the entry point users launch)
from repro.api import RunOptions, Scenario, get_experiment, run_scenarios
from repro.config import Protocol
from repro.experiments.figures import DEFAULT_LOADS_PPS
from repro.experiments.presets import get_preset
from repro.service import DbResultStore

from harness import fingerprint
from workloads import Workload

#: Modules whose self time the profiler pass reports; everything else
#: (interpreter, numpy, other repro modules) is ``module.other_s``.
MODULE_GROUPS = (
    "mac", "channel", "phy", "energy", "traffic", "cluster", "policy",
    "routing", "metrics", "rng", "sim", "network",
)

PROTOCOLS = (Protocol.PURE_LEACH, Protocol.CAEM_ADAPTIVE, Protocol.CAEM_FIXED)


def _repro_module(filename: str):
    """``mac`` for ``.../repro/mac/caem.py``, ``rng`` for ``.../repro/rng.py``."""
    parts = filename.replace("\\", "/").split("/")
    if "repro" not in parts[:-1]:
        return None
    first = parts[len(parts) - parts[::-1].index("repro")]
    return first[:-3] if first.endswith(".py") else first


def module_shares(stats: pstats.Stats) -> Dict[str, float]:
    """Share of profiled self time per ``repro.<module>`` group.

    Time in builtins and third-party functions is charged to the repro
    module that called them, so ``heapq`` pushes count for the kernel
    and numpy calls for the model that made them.
    """
    totals = dict.fromkeys(MODULE_GROUPS + ("other",), 0.0)

    def group(filename: str) -> str:
        module = _repro_module(filename)
        return module if module in MODULE_GROUPS else "other"

    for func, (_cc, _nc, tottime, _ct, callers) in stats.stats.items():
        if _repro_module(func[0]) is not None:
            totals[group(func[0])] += tottime
            continue
        charged = 0.0
        for caller, entry in callers.items():
            totals[group(caller[0])] += entry[2]
            charged += entry[2]
        totals["other"] += max(0.0, tottime - charged)
    whole = sum(totals.values()) or 1.0
    return {g: t / whole for g, t in totals.items()}


class PaperCampaign(Workload):
    name = "paper-campaign"

    def prepare(self) -> None:
        self.fig11 = get_experiment("fig11")
        Scenario.from_preset("smoke").with_runtime(horizon_s=1.0).run()

    def fixture(self) -> None:
        self.preset = "smoke" if self.tiny else "quick"
        tier = get_preset(self.preset)
        self.loads = (5.0, 15.0) if self.tiny else DEFAULT_LOADS_PPS
        # fig11's own cell order: load-major, then protocol.
        self.scenarios = [
            Scenario(
                config=tier.config(proto, load, self.seed),
                options=RunOptions(
                    horizon_s=tier.rate_horizon_s,
                    sample_interval_s=tier.sample_interval_s,
                ),
                tags={"protocol": proto.value, "load_pps": load, "seed": self.seed},
            )
            for load in self.loads
            for proto in PROTOCOLS
        ]
        self.labels = [
            f"{sc.config.protocol.value}@{sc.config.traffic.packets_per_second:g}"
            for sc in self.scenarios
        ]
        self.first: List[str] = []

    def unit(self, index: int, traced: bool) -> Any:
        path = os.path.join(self.tmpdir, f"campaign-{index}.sqlite")
        # The serial executor reports progress just before each cell, so
        # the stamps split the campaign into its cells.
        stamps: List[float] = []
        t0 = time.perf_counter()
        store = DbResultStore(path)
        runs = run_scenarios(self.scenarios, store=store, experiment="fig11",
                             executor="serial",
                             progress=lambda *_: stamps.append(time.perf_counter()))
        stamps.append(time.perf_counter())
        with self.span("experiments.render", traced):
            stored = store.load()
            figure = self.fig11.run(preset=self.preset, seeds=(self.seed,),
                                     loads_pps=self.loads, runs=stored)
            text = figure.render()
        t1 = time.perf_counter()
        wall = t1 - t0
        parts = {label: [(a, b)] for label, a, b in zip(self.labels, stamps, stamps[1:])}
        parts["open+render"] = [(t0, stamps[0]), (stamps[-1], t1)]
        return {"wall_s": wall, "parts": parts, "runs": runs, "stored": stored,
                "rows": figure.rows, "text": text, "path": path}

    def verify(self, index: int, outcome: Any) -> None:
        runs, stored = outcome.pop("runs"), outcome.pop("stored")
        fps = [fingerprint(r) for r in runs]
        stored_fps = [fingerprint(r) for r in stored]
        for i, label in enumerate(self.labels):
            fp = fps[i] if i < len(fps) else None
            ok = (
                fp is not None
                and i < len(stored_fps) and stored_fps[i] == fp
                and self.check.against_expected(label, fp)
                and (not self.first or self.first[i] == fp)
                and 0 <= runs[i].total_delivered <= runs[i].generated
            )
            self.check.record(ok, f"cell {label} at unit {index}")
        self.first = self.first or fps
        rows = outcome.pop("rows")
        table_ok = (
            len(rows) == len(self.loads)
            and all(row[1] is not None and row[2] is not None for row in rows)
            and "fig11" in outcome.pop("text")
        )
        self.check.record(table_ok, f"fig11 table at unit {index}")
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(outcome["path"] + suffix):
                os.unlink(outcome["path"] + suffix)
        outcome["fps"] = fps

    def expected_labels(self, outcome: Any) -> Dict[str, str]:
        return dict(zip(self.labels, outcome["fps"]))

    def layer_metrics(self, outcomes: List[Any], traced: List[bool]) -> Dict[str, float]:
        """Per-module self time: a profiler pass over one load column
        (3 cells) gives each module's share, which apportions the traced
        units' mean time inside ``simulate``."""
        subset = self.scenarios[:3] if self.tiny else self.scenarios[6:9]
        profiler = cProfile.Profile()
        profiler.enable()
        run_scenarios(subset, executor="serial")
        profiler.disable()
        shares = module_shares(pstats.Stats(profiler))
        simulate_s = self.tracer.totals("api.engine.simulate") / max(1, sum(traced))
        return {f"module.{g}_s": share * simulate_s for g, share in shares.items()}


WORKLOAD = PaperCampaign
