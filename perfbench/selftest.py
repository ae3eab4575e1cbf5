"""Self-test of the benchmark at tiny sizes.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs every workload at its tiny size (smoke cells, vector at N=200, a
few hundred store rows) untraced and traced, and asserts that every
metric ``BENCHMARK.json`` names is emitted with its unit and that the
outputs check correct.  Then it corrupts one recorded fingerprint per
workload and asserts the run reports failures and a non-zero
``error_rate``, and finally that the benchmark refuses to run without the
program's sources.  Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-campaign", "vector-scale", "store-mix", "dispatch")


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seconds", "2", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, wanted: list, what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, f"{what}: metric names differ"
    for m in wanted:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], f"{what}: {m['name']} unit {entry['unit']}"
        assert isinstance(entry["value"], float), f"{what}: {m['name']} not a number"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for name in WORKLOADS:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            what = f"{name} --trace {trace}"
            result = result_of(bench("--workload", name, "--trace", trace, "--tiny"))
            check_metrics(result, wanted, what)
            assert result["correct"] and result["failed"] == 0, f"{what}: {result['failed']} failed"
            if trace == "0":
                assert all(v["value"] > 0 for v in result["metrics"].values()), what
            else:
                layers = result["metrics"]
                assert layers["error_rate"]["value"] == 0.0, what
                # Named layer spans cover most of every workload's unit.
                assert 0.8 < layers["trace.accounted_frac"]["value"] <= 1.0, what
            print(f"ok   {what}: {result['attempted']} operations checked")
        tampered = result_of(bench("--workload", name, "--trace", "1", "--tiny", "--tamper"))
        assert not tampered["correct"] and tampered["failed"] > 0, f"{name}: tamper unseen"
        assert tampered["metrics"]["error_rate"]["value"] > 0, f"{name}: error_rate stayed 0"
        print(f"ok   {name} --tamper: {tampered['failed']} of "
              f"{tampered['attempted']} operations failed")

    # Without the program's sources the benchmark must refuse to run.
    bare = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-selftest-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "dispatch", "--trace", "0", cwd=bare)
        assert proc.returncode != 0, "ran without the program's sources"
        assert not proc.stdout.strip(), "printed a result without the program's sources"
        print("ok   refuses to run without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
