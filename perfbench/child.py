"""The workload process: set up, signal readiness, run the timed loop.

Launched by ``run.py`` in a fresh interpreter, so the time from launch
to the ``READY`` line it prints is the workload's set-up time.  With
``--probe`` it exits right there; otherwise it generates the workload's
inputs, runs units of work until the time budget is spent, and prints
one JSON line with the measurements.

A :class:`speed.SpeedProbe` samples the host's speed from the first
line on, so set-up and every untraced unit's operations are reported in
reference seconds as well as raw ones.  A traced run stops it once set
up, so the traced units run unprobed.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import time
import traceback

import speed

T_START = time.perf_counter()
PROBE = speed.SpeedProbe()
if __name__ == "__main__":  # not in a spawned process re-importing this file
    PROBE.start()

IMPORT_T0 = time.perf_counter()
import repro.cli  # noqa: E402,F401  (first, so its cost is measured alone)

IMPORT_CLI_S = time.perf_counter() - IMPORT_T0

import harness  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.MODULES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmpdir", required=True)
    p.add_argument("--expected", default=None,
                   help="expected.json, whose fingerprints this run must match")
    p.add_argument("--spans", default=None,
                   help="traced run: write the spans here as JSON lines")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--probe", action="store_true")
    return p.parse_args(argv)


def run_loop(wl, seconds: float, trace: bool):
    """Units until the budget is spent; in a traced run, odd units are
    traced and even ones not, so both tracing states are measured."""
    targets = []
    if trace:
        import layers

        targets = layers.targets()
    outcomes, traced_flags = [], []
    t_loop = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        restore = root = None
        if traced:
            restore = harness.instrument(wl.tracer, targets)
            root = wl.tracer.open("workload.unit")
        try:
            outcome = wl.unit(index, traced)
        except Exception as exc:  # a failed operation; keep measuring
            traceback.print_exc()
            wl.check.fail(f"unit {index} raised {exc!r}")
            outcome = None
        finally:
            if traced:
                wl.tracer.close(root)
                restore()
        index += 1
        if outcome is not None:
            wl.verify(index - 1, outcome)
            outcomes.append(outcome)
            traced_flags.append(traced)
        elapsed = time.perf_counter() - t_loop
        # A traced run needs a successful unit in each tracing state.
        complete = {True, False} <= set(traced_flags) if trace else bool(outcomes)
        if complete and elapsed + elapsed / index > seconds:
            return outcomes, traced_flags
        if elapsed > 3 * seconds:
            raise RuntimeError("no usable units of work within three times the budget")


def trace_metrics(wl, outcomes, traced) -> dict:
    import layers

    tracer = wl.tracer
    n = max(1, sum(traced))
    selfs = tracer.self_times()
    out = {metric: selfs.get(span, 0.0) / n for span, metric in layers.SPAN_METRICS.items()}
    out["trace.other_s"] = selfs.get(layers.ROOT, 0.0) / n
    out["trace.wall_s"] = tracer.totals(layers.ROOT) / n
    # Self times plus ``other`` sum to the traced wall by construction
    # (one span stack), so report the share named layer spans cover.
    out["trace.accounted_frac"] = 1.0 - out["trace.other_s"] / out["trace.wall_s"]
    walls_on = [o["wall_s"] for o, t in zip(outcomes, traced) if t]
    walls_off = [o["wall_s"] for o, t in zip(outcomes, traced) if not t]
    out["trace.overhead_frac"] = statistics.median(walls_on) / statistics.median(walls_off) - 1.0
    counts = {k: v / n for k, v in tracer.counts.items()}
    for key in layers.SIM_COUNTS:
        out[key] = counts.get(key, 0.0)
    out["service.db.rows_decoded"] = counts.get("service.db.rows_decoded", 0.0)
    generated = out["traffic.generated"]
    out["traffic.delivery_ratio"] = out["traffic.delivered"] / generated if generated else 0.0
    events = out["sim.events"]
    out["sim.ns_per_event"] = out["sim.run_s"] / events * 1e9 if events else 0.0
    out.update(wl.layer_metrics(outcomes, traced))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # Terminated by run.py: unwind, so executors close their workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    expected = None
    if args.expected:
        with open(args.expected, encoding="utf-8") as fh:
            recorded = json.load(fh)
        expected = recorded.get("tiny" if args.tiny else "full", {}).get(args.workload, {})
    checker = harness.Checker(expected)
    wl = workloads.load(args.workload, args.seed, args.tiny, checker, args.tmpdir)
    wl.tracer = harness.Tracer()
    wl.prepare()
    # Set-up's probe time and mean speed, for run.py to normalise the
    # launch-to-READY time it measures.
    ready = time.perf_counter()
    print(f"READY {IMPORT_CLI_S:.6f} {sum(PROBE.durations):.6f} "
          f"{PROBE.speed(T_START, ready):.6f}", flush=True)
    if args.probe or args.trace:
        PROBE.stop()
    if args.probe:
        return 0

    wl.fixture()
    outcomes, traced = run_loop(wl, args.seconds, bool(args.trace))
    result = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "units": len(outcomes),
        # Per operation, its reference seconds in each untraced unit,
        # and its raw seconds.
        "parts": {},
        "raw_parts": {},
        "peak_rss_mb": harness.peak_rss_mb(wl.worker_processes),
        "fingerprints": wl.expected_labels(outcomes[0]),
        "layers": {},
    }
    PROBE.stop()
    for outcome, was_traced in zip(outcomes, traced):
        if not was_traced:
            for name, intervals in outcome["parts"].items():
                result["parts"].setdefault(name, []).append(PROBE.normalise(intervals))
                result["raw_parts"].setdefault(name, []).append(speed.seconds(intervals))
    if args.trace:
        result["layers"] = trace_metrics(wl, outcomes, traced)
        result["layers"]["error_rate"] = checker.error_rate
        if args.spans:
            wl.tracer.dump(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
