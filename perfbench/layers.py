"""The layer boundaries the traced run records, and their metric names.

Each span wraps one public entry point of a ``repro`` layer.  A span's
self time (its duration minus its child spans) is reported under the
metric name in :data:`SPAN_METRICS`; the self time of the benchmark's
own per-unit root span is ``trace.other_s``.  Together they sum to the
traced wall time of a unit by construction (one span stack), so the run
reports instead the share of that wall the named layer spans cover
(``trace.accounted_frac``).
"""

from __future__ import annotations

from typing import Any, Dict, List

from harness import Target

#: Root span opened by the benchmark around each traced unit of work.
ROOT = "workload.unit"

#: span name -> per-layer metric carrying its self time (seconds/unit).
SPAN_METRICS: Dict[str, str] = {
    "api.campaign": "api.campaign.self_s",
    "exec.execute": "exec.execute.self_s",
    "api.engine.simulate": "api.engine.simulate_s",
    "network.build": "network.build_s",
    "sim.run": "sim.run_s",
    "vector.simulate": "vector.simulate_s",
    "service.db.extend": "service.db.extend_s",
    "service.db.read": "service.db.read_s",
    "service.query": "service.query.self_s",
    "service.cache": "service.cache.self_s",
    "api.store.jsonl": "api.store.jsonl_s",
    "experiments.render": "experiments.render_s",
}

#: Counters taken from the records the event kernel returns.
SIM_COUNTS = (
    "sim.events",
    "traffic.generated",
    "traffic.delivered",
    "mac.collisions",
    "mac.dropped_retry",
    "channel.lost",
)


def _count_simulate(args, kwargs, run) -> Dict[str, float]:
    """Work counters of one ``simulate`` call on the event kernel.

    Vector runs are skipped: their ``events_processed`` is a step count,
    not a number of kernel events.
    """
    from repro.vector.support import resolve_backend

    cfg = args[0] if args else kwargs["cfg"]
    if resolve_backend(cfg) == "vector":
        return {}
    return {
        "sim.events": run.events_processed,
        "traffic.generated": run.generated,
        "traffic.delivered": run.total_delivered,
        "mac.collisions": run.collisions,
        "mac.dropped_retry": run.dropped_retry,
        "channel.lost": run.lost_channel,
    }


def _count_rows(args, kwargs, out) -> Dict[str, float]:
    return {"service.db.rows_decoded": len(out)}


def targets() -> List[Target]:
    """Every traced call site, across all workloads."""
    import repro.api.campaign as campaign
    import repro.api.engine as engine
    import repro.service.query as query
    import repro.vector.engine as vector_engine
    from repro.api.store import ResultStore
    from repro.exec.distributed import DistributedExecutor
    from repro.exec.local import PoolExecutor, SerialExecutor
    from repro.exec.supervised import SupervisedExecutor
    from repro.network import SensorNetwork
    from repro.service import DbResultStore, RunCache

    out: List[Any] = [
        (campaign, "run_scenarios", "api.campaign", None),
        (engine, "simulate", "api.engine.simulate", _count_simulate),
        (SensorNetwork, "__init__", "network.build", None),
        (SensorNetwork, "run_until", "sim.run", None),
        (vector_engine, "simulate_vector", "vector.simulate", None),
        (DbResultStore, "extend", "service.db.extend", None),
        (DbResultStore, "query", "service.db.read", _count_rows),
        (DbResultStore, "load", "service.db.read", _count_rows),
        (DbResultStore, "rows_for_digests", "service.db.read", _count_rows),
        (DbResultStore, "aggregate", "service.db.read", None),
        (query, "query_runs", "service.query", None),
        (query, "aggregate_runs", "service.query", None),
        (RunCache, "execute", "service.cache", None),
        (ResultStore, "load", "api.store.jsonl", None),
        (ResultStore, "extend", "api.store.jsonl", None),
    ]
    for cls in (SerialExecutor, PoolExecutor, SupervisedExecutor, DistributedExecutor):
        out.append((cls, "execute", "exec.execute", None))
    return out
