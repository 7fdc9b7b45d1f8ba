"""Self-test of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

Runs every workload untraced and twice traced through ``run.py --size
tiny`` and checks that:

- each run exits 0 and ends with the result line the contract asks for,
  with every metric of BENCHMARK.json printed under its declared unit;
- traced and untraced runs report the same quality metrics and digests;
- the exact counts repeat across the two traced runs, and the traced sweep
  count equals the untraced one;
- a wrapped name that does not exist fails the tracer loudly;
- in a directory holding only BENCHMARK.json and the benchmark, run.py
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

QUALITY = {
    "alpha-scan-header": {"final_nmse", "test_accuracy"},
    "compare-digit": {"final_nmse", "test_accuracy.boolean_on", "test_accuracy.ternary_on",
                      "test_accuracy.ternary_off", "test_accuracy.ridge"},
    "stability-digit": {"consistency_p50", "stability_nmse_mean"},
}

class SelfTestError(AssertionError):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SelfTestError(msg)


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace),
                           "--size", "tiny"], cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    expect(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    details, result = json.loads(lines[-2])["details"], json.loads(lines[-1])
    return details, result


def _check_result(result: dict, declared: dict, label: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, label)
    expect(result["correct"] is True and result["failed"] == 0, f"{label}: {result}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, label)
    metrics = result["metrics"]
    expect(set(metrics) == set(declared), f"{label}: {set(metrics) ^ set(declared)}")
    for name, m in metrics.items():
        expect(m["unit"] == declared[name], f"{label}: {name} unit {m['unit']}")
        expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
               f"{label}: {name}={m['value']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in (wl["name"] for wl in spec["workloads"]):
        d0, r0 = _run(w, 0)
        _check_result(r0, e2e, f"{w} untraced")
        expect(all(m["value"] > 0 for m in r0["metrics"].values()), f"{w}: a metric reads 0")
        expect(set(d0["quality"]) == QUALITY[w], f"{w}: quality {sorted(d0['quality'])}")
        traced = []
        for _ in range(2):
            d1, r1 = _run(w, 1)
            _check_result(r1, per_layer, f"{w} traced")
            expect(d1["quality"] == d0["quality"], f"{w}: traced quality {d1['quality']}")
            expect(d1["digests"] == d0["digests"], f"{w}: traced outputs differ")
            traced.append({k: r1["metrics"][k]["value"] for k in tracer.EXACT})
        expect(traced[0] == traced[1], f"{w}: counts differ between traced runs {traced}")
        expect(traced[0]["harness.BatchReadout.measure.sweeps"]
               == r0["metrics"]["detector_sweeps"]["value"],
               f"{w}: traced and untraced sweeps differ")
        print(f"ok {w}: {d1['largest_layer']} largest, quality {d0['quality']}")

    try:
        tracer._resolve("ternrc.harness", "no_such_layer")
        expect(False, "a missing wrapped name must raise TraceError")
    except tracer.TraceError:
        pass

    (ROOT / ".bench_state").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_state") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "compare-digit", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok: bare directory exits", proc.returncode, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
