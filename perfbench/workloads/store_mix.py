"""store-mix: a one-client closed loop of result-service operations.

The SQLite ``DbResultStore`` is pre-populated with ~20k synthetic rows
cloned from real smoke-cell results (plus the 18 real rows a cached
re-run reads); a smaller JSONL ``ResultStore`` sits beside it.  One pass
of the loop issues one operation of each kind, back to back:

* a batched ``extend`` write of 20 fresh rows;
* a point read by config digest;
* ``query_runs`` with a ``where`` predicate;
* pushed-down ``aggregate_runs``;
* a warm ``RunCache`` re-run of the 18-cell grid (every cell hits);
* the same query and aggregate on the JSONL store (the Python path).

The kinds are weighted equally: no measured call pattern of the service
gives their real proportions, so the mix claims none.  Nothing is
simulated inside the loop, so JSON decoding, SQL and the Python fallback
dominate.  The stores and the expected answers are built in a separate
process, so the measuring process's peak memory is the service's, and
every answer is checked against values computed from the generated rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import random
import statistics
import time
from typing import Any, Dict, List

import repro.cli  # noqa: F401  (the entry point users launch)
from repro.api import ResultStore, RunOptions, Scenario, run_scenarios
from repro.config import Protocol
from repro.experiments.presets import get_preset
from repro.service import DbResultStore, RunCache, aggregate_runs, parse_predicate, query_runs

from harness import fingerprint, percentile
from speed import seconds
from workloads import Workload

#: Op kinds, in pass order; each names its latency metrics.
KINDS = (
    "service.db.extend",
    "service.db.point_read",
    "service.query.filter",
    "service.query.aggregate",
    "service.cache.execute",
    "api.store.jsonl_query",
    "api.store.jsonl_aggregate",
)
PROTOCOLS = (Protocol.PURE_LEACH, Protocol.CAEM_ADAPTIVE, Protocol.CAEM_FIXED)
LOADS = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
EXPERIMENTS = tuple(f"mix-{i}" for i in range(16))
THRESHOLDS = (0.6, 0.7, 0.8, 0.9)
METRICS = ("delivery_rate", "energy_per_packet_j", "throughput_bps")
GROUP_BY = ("protocol", "load_pps")
WRITE_BATCH = 20


def _digest(*parts: Any) -> str:
    return hashlib.sha256(":".join(map(str, parts)).encode()).hexdigest()


def _expected_filter(rows, experiment: str, protocol: str, threshold: float) -> List[str]:
    return [
        r.config_digest for r in rows
        if r.experiment == experiment and r.protocol == protocol
        and r.delivery_rate is not None and r.delivery_rate > threshold
    ]


def _expected_aggregate(rows, experiment: str) -> List[dict]:
    groups: Dict[tuple, list] = {}
    for r in rows:
        if r.experiment == experiment:
            groups.setdefault((r.protocol, r.load_pps), []).append(r)
    out = []
    for key in sorted(groups):
        members = groups[key]
        record = dict(zip(GROUP_BY, key), n=len(members))
        for m in METRICS:
            vals = [getattr(r, m) for r in members if getattr(r, m) is not None]
            record[m] = sum(vals) / len(vals) if vals else None
        out.append(record)
    return out


def _same_aggregate(got: List[dict], want: List[dict]) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if any(g.get(k) != w[k] for k in GROUP_BY + ("n",)):
            return False
        for m in METRICS:
            if (g.get(m) is None) != (w[m] is None):
                return False
            if w[m] is not None and not math.isclose(g[m], w[m], rel_tol=1e-9):
                return False
    return True


def _digest_list(digests: List[str]) -> str:
    """One hash for an ordered list of config digests."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def _grid(seed: int) -> List[Scenario]:
    tier = get_preset("smoke")
    return [
        Scenario(
            config=tier.config(proto, load, seed),
            options=RunOptions(horizon_s=5.0, sample_interval_s=tier.sample_interval_s),
        )
        for proto in PROTOCOLS
        for load in LOADS
    ]


def _clone(base, rng: random.Random, i: int, seed: int, experiment: str, digest: str):
    """A synthetic row: a real result with fresh identity and metrics."""
    return dataclasses.replace(
        base,
        experiment=experiment,
        seed=seed * 1_000_000 + i,
        config_digest=digest,
        delivery_rate=round(rng.uniform(0.5, 1.0), 6),
        energy_per_packet_j=rng.uniform(1e-3, 6e-3),
        throughput_bps=rng.uniform(1e3, 1e5),
    )


def build_fixture(seed: int, tiny: bool, tmpdir: str) -> None:
    """Write the stores and the expected answers into ``tmpdir``.

    Runs in a process of its own, so generating ~20k rows and the
    answers does not set the measuring process's peak memory.
    """
    n_rows, n_jsonl = (300, 50) if tiny else (20_000, 200)
    real = run_scenarios(_grid(seed), experiment="cache-grid", executor="serial")
    rng = random.Random(seed)
    rows = [
        _clone(real[i % len(real)], rng, i, seed, EXPERIMENTS[i % len(EXPERIMENTS)],
               _digest(seed, i))
        for i in range(n_rows)
    ]
    db = DbResultStore(os.path.join(tmpdir, "mix.sqlite"))
    db.extend(real)
    for start in range(0, n_rows, 1000):
        db.extend(rows[start:start + 1000])
    jsonl_rows = rows[:n_jsonl]
    ResultStore(os.path.join(tmpdir, "mix.jsonl")).extend(jsonl_rows)

    points = [rng.randrange(n_rows) for _ in range(997)]
    db_agg = {exp: _expected_aggregate(rows, exp) for exp in EXPERIMENTS}
    jsonl_agg = {exp: _expected_aggregate(jsonl_rows, exp) for exp in EXPERIMENTS}
    queries = []
    # One entry per phase of the (experiment, protocol, threshold) cycle.
    for k in range(math.lcm(len(EXPERIMENTS), len(PROTOCOLS), len(THRESHOLDS))):
        exp = EXPERIMENTS[k % len(EXPERIMENTS)]
        proto = PROTOCOLS[k % len(PROTOCOLS)].value
        threshold = THRESHOLDS[k % len(THRESHOLDS)]
        queries.append({
            "experiment": exp,
            "protocol": proto,
            "threshold": threshold,
            "db_filter": _digest_list(_expected_filter(rows, exp, proto, threshold)),
            "jsonl_filter": _digest_list(_expected_filter(jsonl_rows, exp, proto, threshold)),
            "db_agg": db_agg[exp],
            "jsonl_agg": jsonl_agg[exp],
        })
    answers = {
        "rows": len(real) + n_rows,
        "grid_fps": [fingerprint(r) for r in real],
        "points": [(rows[i].config_digest, fingerprint(rows[i])) for i in points],
        "queries": queries,
    }
    with open(os.path.join(tmpdir, "mix-answers.json"), "w", encoding="utf-8") as fh:
        json.dump(answers, fh)


class StoreMix(Workload):
    name = "store-mix"

    def prepare(self) -> None:
        warm = DbResultStore(os.path.join(self.tmpdir, f"warm-{os.getpid()}.sqlite"))
        query_runs(warm, config_digest="0")
        aggregate_runs(warm, GROUP_BY, metrics=METRICS)

    def fixture(self) -> None:
        builder = multiprocessing.get_context("spawn").Process(
            target=build_fixture, args=(self.seed, self.tiny, self.tmpdir), daemon=True)
        builder.start()
        builder.join()
        if builder.exitcode != 0:
            raise RuntimeError(f"store-mix fixture builder exited {builder.exitcode}")
        with open(os.path.join(self.tmpdir, "mix-answers.json"), encoding="utf-8") as fh:
            answers = json.load(fh)
        self.rows_written = answers["rows"]
        self.grid_fps = answers["grid_fps"]
        self.points = answers["points"]
        self.queries = answers["queries"]
        for q in self.queries:
            q["where"] = [parse_predicate(f"delivery_rate>{q['threshold']}")]
        self.grid = _grid(self.seed)
        self.db = DbResultStore(os.path.join(self.tmpdir, "mix.sqlite"))
        self.jsonl = ResultStore(os.path.join(self.tmpdir, "mix.jsonl"))
        self.cache = RunCache(self.db)
        # Written rows are clones of the 18 real results.
        self.bases = self.db.query(experiment="cache-grid")
        self.write_rng = random.Random(self.seed + 1)
        self.write_serial = 0

    def unit(self, index: int, traced: bool) -> Any:
        q = self.queries[index % len(self.queries)]
        batch = []
        for _ in range(WRITE_BATCH):
            self.write_serial += 1
            batch.append(_clone(self.bases[self.write_serial % len(self.bases)],
                                self.write_rng, self.write_serial, self.seed, "mix-writes",
                                _digest(self.seed, "w", self.write_serial)))
        digest, point_fp = self.points[index % len(self.points)]
        parts: Dict[str, list] = {}
        answers: Dict[str, Any] = {}
        hits_before = self.cache.stats.hits

        def timed(kind: str, fn, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            parts[kind] = [(t0, time.perf_counter())]
            return out

        timed("service.db.extend", self.db.extend, batch)
        answers["point"] = timed("service.db.point_read", self.db.query, config_digest=digest)
        answers["filter"] = timed("service.query.filter", query_runs, self.db,
                                  experiment=q["experiment"], protocol=q["protocol"],
                                  where=q["where"])
        answers["agg"] = timed("service.query.aggregate", aggregate_runs, self.db,
                               GROUP_BY, metrics=METRICS, experiment=q["experiment"])
        answers["cache"] = timed("service.cache.execute", self.cache.execute, self.grid,
                                 experiment="cache-grid", executor="serial")
        answers["jsonl_filter"] = timed("api.store.jsonl_query", query_runs, self.jsonl,
                                        experiment=q["experiment"], protocol=q["protocol"],
                                        where=q["where"])
        answers["jsonl_agg"] = timed("api.store.jsonl_aggregate", aggregate_runs, self.jsonl,
                                     GROUP_BY, metrics=METRICS, experiment=q["experiment"])
        self.rows_written += len(batch)
        return {
            "wall_s": sum(seconds(p) for p in parts.values()),
            "parts": parts,
            "answers": answers,
            "point_fp": point_fp,
            "query": q,
            "cache_hits": self.cache.stats.hits - hits_before,
            "rows_written": len(batch),
        }

    def verify(self, index: int, outcome: Any) -> None:
        a, q = outcome.pop("answers"), outcome.pop("query")
        rec = self.check.record
        rec(len(self.db) == self.rows_written, f"row count after the write at pass {index}")
        got = a["point"]
        rec(len(got) == 1 and fingerprint(got[0]) == outcome.pop("point_fp"),
            f"point read at pass {index}")
        rec(_digest_list([r.config_digest for r in a["filter"]]) == q["db_filter"],
            f"db filter query at pass {index}")
        rec(_same_aggregate(a["agg"], q["db_agg"]), f"db aggregate at pass {index}")
        cache_fps = [fingerprint(r) for r in a["cache"]]
        rec(outcome["cache_hits"] == len(self.grid) and cache_fps == self.grid_fps
            and all(self.check.against_expected(f"grid{i}", fp)
                    for i, fp in enumerate(cache_fps)),
            f"cached re-run at pass {index}")
        rec(_digest_list([r.config_digest for r in a["jsonl_filter"]]) == q["jsonl_filter"],
            f"jsonl filter query at pass {index}")
        rec(_same_aggregate(a["jsonl_agg"], q["jsonl_agg"]), f"jsonl aggregate at pass {index}")

    def expected_labels(self, outcome: Any) -> Dict[str, str]:
        return {f"grid{i}": fp for i, fp in enumerate(self.grid_fps)}

    def layer_metrics(self, outcomes: List[Any], traced: List[bool]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        every: List[float] = []
        for kind in KINDS:
            samples = [seconds(o["parts"][kind]) * 1e3 for o in outcomes]
            every += samples
            out[f"{kind}_p50_ms"] = statistics.median(samples)
            out[f"{kind}_p90_ms"] = percentile(samples, 90)
            out[f"{kind}_n"] = len(samples)
        out["op_p50_ms"] = statistics.median(every)
        out["op_p99_ms"] = percentile(every, 99)
        out["op_samples"] = len(every)
        written = sum(o["rows_written"] for o in outcomes)
        extend_s = sum(seconds(o["parts"]["service.db.extend"]) for o in outcomes)
        out["service.db.rows_per_s"] = written / extend_s if extend_s else 0.0
        out["service.cache.hit_ratio"] = self.cache.stats.hit_rate
        return out


WORKLOAD = StoreMix
