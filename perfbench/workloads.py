"""The three benchmark workloads: inputs made from the workload seed, the
driver call, and the check of every output file the driver writes.

Each workload is the stock CLI configuration of its protocol, written out
field by field so that a change of a library default cannot change what the
benchmark measures. ``tiny`` sizes exist only for the self-test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: physics of every workload: the SubstrateConfig defaults, pinned
PHYSICS = {"grid_side": 24, "saturation": 0.005, "diffusion_sigma": 0.5,
           "noise_sigma": 0.001, "drift_amplitude": 0.002,
           "drift_timescale": 500.0, "vcsel_on": True}

#: active nodes of the 24 x 24 grid's inscribed disk
N_NODES = 448

TRAINED_ARMS = {"boolean_on": "boolean", "ternary_on": "ternary", "ternary_off": "ternary"}
ARMS = (*TRAINED_ARMS, "ridge")

RESULTS_SCHEMA = "ternrc-results-v1"
CURVES_SCHEMA = "ternrc-curves-v1"

#: files whose bytes legitimately differ between runs of one seed (the
#: resolved config embeds the output directory)
UNDIGESTED = {"config.resolved.json"}


class CheckError(AssertionError):
    """An output file is missing, malformed or out of range."""


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str
    task: str
    epochs: int
    n_samples: int
    glyph_images: int = 0
    digit: int | None = None
    alphas: tuple[float, ...] = (0.0, 5.0, 10.0, 20.0)
    n_checks: int = 0
    #: layers that must record calls on this workload's traced run
    exercised: tuple[str, ...] = ()
    #: fresh processes that set up per untraced run; the median is setup_s.
    #: Two for the glyph workloads, whose set-up takes 12 to 16 s each.
    setup_reps: int = 2
    #: (quality metric, low, high): the range every seed's result must lie
    #: in, so that a change that breaks learning fails the output check in
    #: any checkout. Set at the stock size only, with wide margins around
    #: the values 30 to 60 seeds gave.
    plausible: tuple[tuple[str, float, float], ...] = ()


_COMMON = ("substrate.forward_batch", "substrate.states_matrix", "substrate.build_substrate",
           "readout.readout_batch", "harness.BatchReadout.measure", "optimizer.propose",
           "optimizer.nmse", "optimizer.train", "harness.make_task_batches")
_DIGITS = ("tasks.make_glyph_dataset", "tasks.load_mnist", "tasks.make_onevsall_batch")


def _alpha_scan(epochs, n_samples, plausible=()):
    return Workload("alpha-scan-header", "run_alpha_scan", "header", epochs, n_samples,
                    exercised=(*_COMMON, "tasks.make_header_batch", "optimizer.evaluate"),
                    setup_reps=15, plausible=plausible)


def _compare(epochs, n_samples, images, plausible=()):
    return Workload("compare-digit", "run_comparison", "mnist", epochs, n_samples,
                    glyph_images=images, digit=3,
                    exercised=(*_COMMON, *_DIGITS, "optimizer.evaluate",
                               "baselines.lambda_sweep", "baselines.ridge_fit",
                               "baselines.ridge_eval"), plausible=plausible)


def _stability(epochs, n_samples, images, checks, plausible=()):
    return Workload("stability-digit", "run_stability", "mnist", epochs, n_samples,
                    glyph_images=images, digit=0, n_checks=checks,
                    exercised=(*_COMMON, *_DIGITS, "substrate.advance_drift",
                               "harness.consistency"), plausible=plausible)


SIZES = {
    "stock": {w.name: w for w in (
        # seen over 30 seeds: final_nmse 0.014-0.040, test_accuracy 0.992-1.0
        _alpha_scan(800, 250, (("final_nmse", 0.0, 0.1), ("test_accuracy", 0.9, 1.0))),
        # seen over 60 seeds: final_nmse 0.22-0.32, ternary_on 0.85-0.92,
        # ternary_off 0.75-0.89, ridge 0.90-0.95
        _compare(2000, 1000, 6000, (("final_nmse", 0.0, 0.6),
                                    ("test_accuracy.ternary_on", 0.75, 1.0),
                                    ("test_accuracy.ternary_off", 0.65, 1.0),
                                    ("test_accuracy.ridge", 0.8, 1.0))),
        # seen over 60 seeds: consistency_p50 0.995-0.999,
        # stability_nmse_mean 0.40-0.53
        _stability(100, 1000, 6000, 3600, (("consistency_p50", 0.98, 1.0),
                                           ("stability_nmse_mean", 0.0, 0.8))))},
    "tiny": {w.name: w for w in (_alpha_scan(20, 40), _compare(20, 40, 600),
                                 _stability(10, 40, 600, 30))},
}


def glyph_test_seed(seed: int) -> int:
    """Seed of the test partition, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, 0x7E57]).generate_state(1)[0])


def setup(w: Workload, seed: int, root: Path):
    """Everything before the driver call: glyph partitions written as IDX
    files, then the experiment config. Returns the config."""
    from ternrc import harness, tasks

    task = {"type": "header", "n_bits": 4, "target_value": 5,
            "n_samples": w.n_samples, "image_side": 64}
    if w.task == "mnist":
        paths = {}
        for part, part_seed in (("train", seed), ("test", glyph_test_seed(seed))):
            data = tasks.make_glyph_dataset(w.glyph_images, part_seed)
            paths[part] = (root / f"{part}-images-idx3-ubyte", root / f"{part}-labels-idx1-ubyte")
            tasks.write_idx_images(data.images, paths[part][0])
            tasks.write_idx_labels(data.labels, paths[part][1])
        task = {"type": "mnist", "digit": w.digit, "n_samples": w.n_samples,
                "images": str(paths["train"][0]), "labels": str(paths["train"][1]),
                "test_images": str(paths["test"][0]), "test_labels": str(paths["test"][1])}
    doc = {
        "substrate": {**PHYSICS, "input_side": 64 if w.task == "header" else 28, "seed": seed},
        "train": {"alpha": 10.0, "max_epochs": w.epochs, "mode": "ternary",
                  "normalize": "zscore", "seed": seed},
        "task": task,
        "repeats": 1,
        "off_brightness": 0.15,
        "ridge_grid": np.logspace(-6, 2, 9).tolist(),
        "alphas": list(w.alphas),
    }
    return harness.ExperimentConfig.from_json(doc)


def run(w: Workload, cfg, out_dir: Path) -> None:
    """The driver call: the protocol writes its result files to ``out_dir``."""
    import dataclasses

    from ternrc import harness

    cfg = dataclasses.replace(cfg, output_dir=str(out_dir))
    if w.driver == "run_stability":
        harness.run_stability(cfg, n_checks=w.n_checks, drift_steps_per_check=1)
    else:
        getattr(harness, w.driver)(cfg)


# ---------------------------------------------------------------------------
# Output check

def _read_csv(path: Path, schema: str) -> list[dict]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != f"# schema: {schema}":
        raise CheckError(f"{path.name}: schema line {lines[:1]} != '# schema: {schema}'")
    return list(csv.DictReader(lines[1:]))


def _finite(rows, column, lo=-math.inf, hi=math.inf) -> list[float]:
    vals = [float(r[column]) for r in rows]
    for v in vals:
        if not (math.isfinite(v) and lo <= v <= hi):
            raise CheckError(f"{column}={v} is not finite or outside [{lo}, {hi}]")
    return vals


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _check_history(path: Path, epochs: int) -> float:
    rows = list(csv.DictReader(path.read_text().splitlines()))
    _expect(len(rows) == epochs, f"{path.name}: {len(rows)} epochs, expected {epochs}")
    return _finite(rows, "nmse_best", 0.0)[-1]


def _check_mask(path: Path, mode: str) -> None:
    doc = json.loads(path.read_text())
    _expect(doc.get("mode") == mode, f"{path.name}: mode {doc.get('mode')!r} != {mode!r}")
    weights = doc.get("weights", [])
    _expect(len(weights) == N_NODES and set(weights) <= {-1, 0, 1},
            f"{path.name}: expected {N_NODES} weights in {{-1, 0, 1}}")


def expected_files(w: Workload) -> set[str]:
    if w.driver == "run_alpha_scan":
        return {"curves.csv", "alpha_summary.csv", "config.resolved.json"}
    if w.driver == "run_stability":
        return {"stability.csv", "config.resolved.json"}
    tags = [f"{arm}_digit{w.digit}_s0" for arm in TRAINED_ARMS]
    return ({"results.csv", "config.resolved.json"} | {f"history_{t}.csv" for t in tags}
            | {f"mask_{t}.json" for t in tags})


def check_outputs(w: Workload, out: Path) -> dict:
    """Check every file the driver wrote and return the workload's quality
    metrics. Raises :class:`CheckError` on any violation."""
    quality = _check_files(w, out)
    for name, lo, hi in w.plausible:
        _expect(lo <= quality[name] <= hi,
                f"{name}={quality[name]} outside its plausible range [{lo}, {hi}]")
    return quality


def _check_files(w: Workload, out: Path) -> dict:
    found = {p.name for p in out.iterdir()}
    _expect(found == expected_files(w),
            f"output files {sorted(found)} != {sorted(expected_files(w))}")
    if w.driver == "run_alpha_scan":
        curves = _read_csv(out / "curves.csv", CURVES_SCHEMA)
        _expect(len(curves) == len(w.alphas) * w.epochs,
                f"curves.csv: {len(curves)} rows, expected {len(w.alphas)} x {w.epochs}")
        _finite(curves, "nmse_best", 0.0)
        rows = _read_csv(out / "alpha_summary.csv", RESULTS_SCHEMA)
        _expect(sorted(float(r["alpha"]) for r in rows) == sorted(w.alphas),
                f"alpha_summary.csv: alphas {[r['alpha'] for r in rows]} != {list(w.alphas)}")
        return {"final_nmse": statistics.median(_finite(rows, "final_nmse", 0.0)),
                "test_accuracy": statistics.median(_finite(rows, "test_accuracy", 0.0, 1.0))}
    if w.driver == "run_stability":
        rows = _read_csv(out / "stability.csv", RESULTS_SCHEMA)
        _expect(len(rows) == w.n_checks, f"stability.csv: {len(rows)} rows, expected {w.n_checks}")
        cons = _finite(rows, "consistency", -1.0, 1.0)
        _expect(cons[0] == 1.0, "stability.csv: the reference check must have consistency 1.0")
        _finite(rows, "gain", 0.5, 2.0)
        return {"consistency_p50": statistics.median(cons),
                "stability_nmse_mean": statistics.fmean(_finite(rows, "nmse", 0.0))}
    rows = [r for r in _read_csv(out / "results.csv", RESULTS_SCHEMA) if r["repeat"].isdigit()]
    _expect(sorted(r["arm"] for r in rows) == sorted(ARMS),
            f"results.csv: arms {[r['arm'] for r in rows]} != {list(ARMS)}")
    _finite(rows, "train_nmse", 0.0)
    _finite(rows, "test_nmse", 0.0)
    _finite(rows, "train_accuracy", 0.0, 1.0)
    best = []
    for arm, mode in TRAINED_ARMS.items():
        tag = f"{arm}_digit{w.digit}_s0"
        best.append(_check_history(out / f"history_{tag}.csv", w.epochs))
        _check_mask(out / f"mask_{tag}.json", mode)
    quality = {"final_nmse": statistics.median(best)}
    for r in rows:
        quality[f"test_accuracy.{r['arm']}"] = _finite([r], "test_accuracy", 0.0, 1.0)[0]
    return quality


def digests(out: Path) -> dict[str, str]:
    """sha256 of every output file whose bytes must repeat for one seed."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name not in UNDIGESTED}
