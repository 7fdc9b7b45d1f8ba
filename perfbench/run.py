"""ternrc benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload compare-digit --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer metrics. Each workload process is a fresh
interpreter (``worker.py``) with the BLAS thread count fixed, so set-up time
and peak memory are those of one protocol run. Scratch files live under
``.bench_state/`` in the checkout and are removed on exit, except the digest
ledger that holds every seed's output digests, so that all runs of one seed
in one checkout must produce identical bytes, before and after a change to
``src/``. A change that means to move the numbers deletes
``.bench_state/digests.json`` and says so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_state"
LEDGER = STATE / "digests.json"

#: BLAS threads of every workload process (at most nproc); one thread keeps
#: timings steady and output bits independent of the core count
BLAS_THREADS = 1

#: seed reserved for confirming a claimed gain; never used while tuning
HELD_OUT_SEED = 7919

#: a run must end within 180 s; leave room to clean up
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _worker(args, mode: str, workdir: Path, deadline: float) -> tuple[float, dict]:
    """Start one workload process and wait for it; returns (start time,
    report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--size", args.size, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--workdir", str(workdir)]
    workdir.mkdir(parents=True)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the {DEADLINE_S:.0f} s limit") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    try:
        return start, json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{mode} process printed no report: {lines[-1]!r}") from exc


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """Commit of the checkout when it is itself a git work tree."""
    # the ceiling keeps git from looking for a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _check_calls(calls: list[dict], key: str) -> list[str]:
    """Mark calls whose digests, sweep count or (traced) exact counts differ
    from the first good call of this run or from the ledger entry of this
    seed, whatever the source tree. Returns the failure messages, one per failed
    call."""
    ledger = json.loads(LEDGER.read_text()) if LEDGER.is_file() else {}
    for c in calls:
        if c["error"] is not None:
            continue
        seen = {"digests": c["digests"], "detector_sweeps": c["extra"]["sweeps"]}
        ref = ledger.setdefault(key, seen)
        if seen != ref:
            diff = sorted(k for k in set(ref["digests"]) | set(c["digests"])
                          if ref["digests"].get(k) != c["digests"].get(k))
            c["error"] = (f"outputs differ from an earlier run of this seed: files {diff}, "
                          f"sweeps {c['extra']['sweeps']} vs {ref['detector_sweeps']}")
        elif "counts" in c["extra"]:
            ref = ledger.setdefault(key + "|traced", c["extra"]["counts"])
            if c["extra"]["counts"] != ref:
                c["error"] = (f"exact counts differ from an earlier traced run of this "
                              f"seed: {c['extra']['counts']} vs {ref}")
    tmp = LEDGER.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, LEDGER)
    return [c["error"] for c in calls if c["error"] is not None]


def measure(args, declared: dict) -> tuple[dict, dict]:
    """Run the workload; returns (result line, details)."""
    import workloads

    w = workloads.SIZES[args.size][args.workload]
    deadline = time.monotonic() + DEADLINE_S
    work = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        setups = []
        for i in range(w.setup_reps - 1 if not args.trace else 0):
            start, rep = _worker(args, "setup", work / f"setup-{i}", deadline)
            setups.append(rep["ready"] - start)
        start, rep = _worker(args, "run", work / "run", deadline)
        setups.append(rep["ready"] - start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = rep["calls"]
    key = f"{args.workload}|{args.size}|seed={args.seed}|blas_threads={BLAS_THREADS}"
    failures = _check_calls(calls, key)
    # a call that returned was timed even when its outputs then failed a check
    done = [c for c in calls if "run_s" in c]
    if not done:
        raise BenchError(f"every driver call raised: {failures}")

    if args.trace:
        if "layers" not in rep:
            raise BenchError(f"the traced run raised: {calls[-1]['error']}")
        values = rep["layers"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.median(c["run_s"] for c in done),
                  "peak_rss_mb": rep["rss_mb"],
                  "detector_sweeps": done[0]["extra"]["sweeps"]}
    missing = sorted(set(declared) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result = {"correct": not failures, "attempted": len(calls), "failed": len(failures),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in declared.items()}}
    details = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
        "env": {**rep["env"], "git_commit": git_commit(), "src_sha256": source_digest()},
        "setup_s_samples": setups, "run_s_samples": [c.get("run_s") for c in calls],
        "quality": done[0].get("quality"), "digests": done[0].get("digests"),
        "failures": failures,
    }
    if args.trace:
        details["largest_layer"] = rep["largest_layer"]
        details["untraced_sweeps"] = calls[0].get("extra", {}).get("sweeps")
    return result, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="driver time to measure; every run calls the driver at least once")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("stock", "tiny"), default="stock",
                   help="tiny shrinks every workload for the self-test")
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ternrc" / "__init__.py").is_file() or not spec_path.is_file():
        print("run.py: needs a ternrc source checkout (src/ternrc) and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {wl["name"] for wl in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("run.py: --seed must be >= 0", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # set before numpy is first imported, here and in every workload process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    STATE.mkdir(exist_ok=True)
    try:
        result, details = measure(args, declared)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
