"""One workload process: set up, then (unless ``--mode setup``) call the
protocol driver and check its outputs. ``run.py`` starts it; it prints one
JSON report as its last stdout line.

A run is traced (``--trace 1``) or not. An untraced process calls the driver
until ``--seconds`` of driver time have passed, at least once, with only the
detector-sweep sites traced. A traced process sets up under the
tracer, calls the driver once untraced, then once traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine()}


def attempt(w, cfg, out: Path, call) -> dict:
    """One driver call through ``call(fn, *args) -> (wall s, extra)``; a
    raise or a failed output check marks the call failed."""
    record = {"error": None}
    try:
        record["run_s"], record["extra"] = call(workloads.run, w, cfg, out)
    except Exception:  # any failure of the program under test is a failed run
        traceback.print_exc()
        record["error"] = "driver raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        return record
    try:
        record["quality"] = workloads.check_outputs(w, out)
        record["digests"] = workloads.digests(out)
    except (workloads.CheckError, OSError, ValueError, KeyError) as exc:
        record["error"] = f"output check failed: {exc}"
    return record


def untraced_call(fn, *args):
    with tracer.Tracer(tracer.MEASURE_SITES) as counter:
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
    return dt, {"sweeps": counter.counts["harness.BatchReadout.measure.sweeps"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)
    w = workloads.SIZES[args.size][args.workload]
    work = Path(args.workdir)

    if args.trace:
        with tracer.Tracer() as t_setup:
            cfg = workloads.setup(w, args.seed, work)
    else:
        cfg = workloads.setup(w, args.seed, work)
    report = {"ready": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    calls = []
    if not args.trace:
        spent = 0.0
        while not calls or spent < args.seconds:
            calls.append(attempt(w, cfg, work / f"out-{len(calls)}", untraced_call))
            spent += calls[-1].get("run_s", 0.0)
    else:
        calls.append(attempt(w, cfg, work / "out-untraced", untraced_call))
        t_run = tracer.Tracer()

        def traced_call(fn, *a):
            with t_run:
                _, dt, self_s = t_run.root(fn, *a)
            return dt, {"sweeps": t_run.counts["harness.BatchReadout.measure.sweeps"],
                        "self_s": self_s}

        out = work / "out-traced"
        calls.append(attempt(w, cfg, out, traced_call))
        if "run_s" in calls[-1]:
            traced, untraced = calls[-1], calls[0]
            layers = tracer.layer_metrics([t_setup, t_run], traced["run_s"],
                                          traced["extra"]["self_s"])
            layers["harness.output_bytes"] = sum(f.stat().st_size for f in out.iterdir())
            layers["trace.run_s"] = traced["run_s"]
            if "run_s" in untraced:
                layers["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
            unexercised = [name for name in w.exercised if layers[f"{name}.calls"] == 0]
            if unexercised:
                raise tracer.TraceError(
                    f"{w.name}: exercised layers recorded no calls: {unexercised}")
            report["layers"] = layers
            traced["extra"]["counts"] = {k: layers[k] for k in tracer.EXACT}
            named = {k[:-2]: v for k, v in layers.items()
                     if k.endswith(".s") and k != "tasks.make_glyph_dataset.s"}
            report["largest_layer"] = max(named, key=named.get)
    report.update(calls=calls, env=environment(),
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
