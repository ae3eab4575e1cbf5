"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with span tracing on alternate
units and prints every per-layer metric instead.  The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

This process only orchestrates: it times fresh workload interpreters
(``child.py``) from launch to readiness for ``setup_s``, runs one
measuring interpreter of the workload, and assembles the result.  Times
are in reference seconds (``speed.py``).  See ``README.md`` in this
directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import calibrate_ms  # noqa: E402

WORKLOADS = ("paper-campaign", "vector-scale", "store-mix", "dispatch")
#: Seed whose result fingerprints ``expected.json`` records.
DEFAULT_SEED = 1
#: Set-up-only launches per run; the median of their set-up times is
#: reported.
SETUP_PROBES = 4
#: Hard limit on a whole run, children included.
TIME_LIMIT_S = 170


def _over_time(*_) -> None:
    raise RuntimeError(f"run exceeded {TIME_LIMIT_S} s")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(root: str, tmpdir: str) -> Dict[str, str]:
    """The children's environment: the program from ``src/``, and
    temporary files (Python's and SQLite's) inside the checkout."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = env["SQLITE_TMPDIR"] = tmpdir
    return env


def launch(cmd: List[str], env: Dict[str, str]) -> Tuple[float, List[str]]:
    """Run a child; returns (reference seconds from launch to its READY
    line, its stdout lines).  Raises on failure."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        stop(proc)
    lines = checked_output(proc, [first] + rest.splitlines())
    # READY <import_cli_s> <probe_s> <speed>: the child's own probe time
    # comes out, and its mean speed over set-up scales the rest.
    _, _, probe_s, speed = lines[0].split()
    return (ready_s - float(probe_s)) * float(speed), lines


def checked_output(proc: subprocess.Popen, lines: List[str]) -> List[str]:
    if not lines or not lines[0].startswith("READY"):
        raise RuntimeError(f"child did not become ready: {lines[:1]!r}")
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return lines


def stop(proc: subprocess.Popen) -> None:
    """End ``proc`` if it still runs: terminate (it closes its worker
    processes), then kill after a grace period; always wait for it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def importtime_cumulative_s(module: str, statement: str, env: Dict[str, str]) -> float:
    """Cumulative import time ``-X importtime`` reports for ``module``
    when a fresh interpreter runs ``statement``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", statement],
                          env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
    pattern = re.compile(r"^import time:\s*\d+ \|\s*(\d+) \|\s*" + re.escape(module) + r"$")
    for line in proc.stderr.splitlines():
        match = pattern.match(line.rstrip())
        if match:
            return int(match.group(1)) / 1e6
    raise RuntimeError(f"-X importtime reported no line for {module}")


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measurement budget (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes: smoke cells, N=200 vector, a few hundred rows")
    p.add_argument("--tamper", action="store_true",
                   help="corrupt one expected fingerprint (self-test of the check)")
    p.add_argument("--record-expected", action="store_true",
                   help=f"write this run's fingerprints (seed {DEFAULT_SEED}) to expected.json")
    args = p.parse_args(argv)
    # Terminated from outside, or over the time limit: unwind, so the
    # running child is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    signal.signal(signal.SIGALRM, _over_time)
    signal.alarm(TIME_LIMIT_S)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        return fail("run from the repository root: src/repro is missing")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.record_expected and args.seed != DEFAULT_SEED:
        return fail(f"--record-expected needs --seed {DEFAULT_SEED}")

    tmpdir = os.path.join(root, ".perfbench-tmp", str(os.getpid()))
    os.makedirs(tmpdir, exist_ok=True)
    try:
        return measure(args, spec, seconds, root, tmpdir)
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmpdir))
        except OSError:
            pass


def measure(args, spec, seconds: float, root: str, tmpdir: str) -> int:
    env = child_env(root, tmpdir)
    calib_ms = calibrate_ms()
    print(f"# host.calib_ms={calib_ms:.3f} (metadata; not gated)", flush=True)

    expected_path = os.path.join(HERE, "expected.json")
    if args.tamper:
        with open(expected_path, encoding="utf-8") as fh:
            recorded = json.load(fh)
        entry = recorded["tiny" if args.tiny else "full"][args.workload]
        first = sorted(entry)[0]
        entry[first] = "0" * 64
        expected_path = os.path.join(tmpdir, "expected-tampered.json")
        with open(expected_path, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh)

    base = [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.tiny:
        base.append("--tiny")
    if args.seed == DEFAULT_SEED and not args.record_expected:
        base += ["--expected", expected_path]
    if args.trace:
        spans_dir = os.path.join(root, ".perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        base += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]

    setup, import_cli = [], []
    for _ in range(SETUP_PROBES):
        ready_s, lines = launch(base + ["--probe", "--tmpdir", tmpdir], env)
        setup.append(ready_s)
        import_cli.append(float(lines[0].split()[1]))
    _, lines = launch(base + ["--tmpdir", tmpdir], env)
    result = json.loads(lines[-1])

    for err in result["errors"]:
        print(f"# check failed: {err}", file=sys.stderr)
    if args.record_expected:
        record_expected(args, result["fingerprints"])

    if args.trace:
        values = dict(result["layers"])
        values["host.calib_ms"] = calib_ms
        values["setup.import_cli_s"] = statistics.median(import_cli)
        values["setup.import_scipy_stats_s"] = importtime_cumulative_s(
            "scipy.stats", "import scipy.stats", env)
        values["setup.import_metrics_summary_s"] = importtime_cumulative_s(
            "repro.metrics.summary", "import repro.cli", env)
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": unit_time(result["parts"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
        print(f"# raw seconds: wall {unit_time(result['raw_parts']):.4f}", flush=True)
        wanted = spec["end_to_end"]
    # Metrics of layers this workload never calls read 0.
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print(f"# {args.workload}: {result['units']} units, setup samples "
          + ", ".join(f"{s:.3f}" for s in setup), flush=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0


def unit_time(parts: Dict[str, List[float]]) -> float:
    """The time of one unit: the sum over its operations of each one's
    median over the run's units."""
    return sum(statistics.median(samples) for samples in parts.values())


def record_expected(args, fingerprints: Dict[str, str]) -> None:
    path = os.path.join(HERE, "expected.json")
    recorded = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            recorded = json.load(fh)
    recorded.setdefault("tiny" if args.tiny else "full", {})[args.workload] = fingerprints
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
