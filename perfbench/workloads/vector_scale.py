"""vector-scale: ``simulate`` on the vector engine at N=10^4 and 3*10^4.

Two constant-density ``scale_config`` cells (Scheme 1, the run's seed),
each over two LEACH rounds.  No event kernel, executor or store runs;
the MAC phase dominates, and the two sizes show how cost grows with N.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List

import repro.cli  # noqa: F401  (the entry point users launch)
from repro.api import RunOptions, simulate
from repro.config import Protocol
from repro.experiments.scale import scale_config
from repro.vector import simulate_vector  # noqa: F401  (lazy in simulate)
from repro.vector.profile import PHASES

from harness import fingerprint
from speed import seconds
from workloads import Workload

#: Metric slots and the sizes that fill them (tiny mode: stand-ins).
SLOTS = ("n10000", "n30000")
SIZES = (10_000, 30_000)
TINY_SIZES = (200, 600)
#: The phases ``profile_rounds/v1`` reports for a run without uplink.
REPORTED_PHASES = tuple(p for p in PHASES if p != "uplink")


class VectorScale(Workload):
    name = "vector-scale"

    def prepare(self) -> None:
        warm = scale_config(200, Protocol.CAEM_ADAPTIVE, 1, backend="vector")
        simulate(warm, RunOptions(horizon_s=1.0, sample_interval_s=0.5))

    def fixture(self) -> None:
        self.cells = []
        for slot, n in zip(SLOTS, TINY_SIZES if self.tiny else SIZES):
            cfg = scale_config(n, Protocol.CAEM_ADAPTIVE, self.seed, backend="vector")
            round_s = cfg.leach.round_duration_s
            horizon = 2.0 * round_s
            # The engine advances in channel-coherence steps; the work
            # counter is nodes x steps, computed here rather than read
            # back from the run.
            steps = round(horizon / cfg.channel.fading_coherence_s)
            self.cells.append((slot, n, cfg, horizon, round_s / 4.0, steps))
        self.first: Dict[str, str] = {}

    def _options(self, slot: str, horizon: float, interval: float, traced: bool):
        profile = os.path.join(self.tmpdir, f"rounds-{slot}.json") if traced else None
        return RunOptions(horizon_s=horizon, sample_interval_s=interval,
                          max_series_samples=64, profile_rounds=profile)

    def unit(self, index: int, traced: bool) -> Any:
        runs, parts = {}, {}
        for slot, _n, cfg, horizon, interval, _steps in self.cells:
            opts = self._options(slot, horizon, interval, traced)
            t0 = time.perf_counter()
            runs[slot] = simulate(cfg, opts)
            parts[slot] = [(t0, time.perf_counter())]
        profiles = {}
        if traced:
            for slot in runs:
                path = os.path.join(self.tmpdir, f"rounds-{slot}.json")
                with open(path, encoding="utf-8") as fh:
                    profiles[slot] = json.load(fh)
                os.unlink(path)
        return {"wall_s": sum(seconds(p) for p in parts.values()), "parts": parts,
                "runs": runs, "profiles": profiles}

    def verify(self, index: int, outcome: Any) -> None:
        runs = outcome.pop("runs")
        fps = {}
        for slot, n, _cfg, _h, _i, steps in self.cells:
            run = runs[slot]
            fp = fingerprint(run)
            fps[slot] = fp
            ok = (
                self.check.against_expected(slot, fp)
                and self.first.get(slot, fp) == fp
                and run.events_processed == steps
                and run.n_nodes == n
                and run.delivery_rate is not None
                and 0.0 < run.delivery_rate <= 1.0
            )
            self.check.record(ok, f"vector {slot} at unit {index}")
        self.first = self.first or fps
        outcome["fps"] = fps
        outcome["delivery"] = {s: runs[s].delivery_rate for s in runs}

    def expected_labels(self, outcome: Any) -> Dict[str, str]:
        return dict(outcome["fps"])

    def layer_metrics(self, outcomes: List[Any], traced: List[bool]) -> Dict[str, float]:
        picked = [o for o, t in zip(outcomes, traced) if t]
        # One simulate_vector span per cell, in cell order, per traced unit.
        spans = [s.duration for s in self.tracer.spans if s.name == "vector.simulate"]
        out: Dict[str, float] = {}
        for k, (slot, n, _cfg, _h, _i, steps) in enumerate(self.cells):
            engine_s = sum(spans[k::len(self.cells)]) / len(picked)
            phases = {
                p: sum(o["profiles"][slot]["phase_totals_s"].get(p, 0.0) for o in picked)
                / len(picked)
                for p in REPORTED_PHASES
            }
            node_steps = n * steps
            for p, phase_s in phases.items():
                out[f"vector.{slot}.{p}_s"] = phase_s
            out[f"vector.{slot}.setup_s"] = engine_s - sum(phases.values())
            out[f"vector.{slot}.node_steps"] = node_steps
            out[f"vector.{slot}.mac_ns_per_node_step"] = phases["mac"] / node_steps * 1e9
            out[f"vector.{slot}.delivery_ratio"] = picked[0]["delivery"][slot]
        return out


WORKLOAD = VectorScale
