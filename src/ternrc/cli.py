"""Command-line entry point for the experiment drivers."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericalError, UsageError
from .harness import (ExperimentConfig, HeaderTask, MnistTask, run_alpha_scan,
                      run_comparison, run_header_task, run_stability)


def _default_doc(command: str) -> dict:
    """Config document of a command run without ``--config``."""
    train = {"alpha": 10.0, "max_epochs": 800, "mode": "ternary", "normalize": "zscore"}
    if command == "compare":
        return {"substrate": {"input_side": 28}, "train": {**train, "max_epochs": 2000},
                "task": {"type": "mnist", "digit": None}, "repeats": 3}
    if command == "stability":
        # the long-run protocol trains digit 0 for 100 epochs
        return {"substrate": {"input_side": 28}, "train": {**train, "max_epochs": 100},
                "task": {"type": "mnist", "digit": 0}}
    # header, alpha-scan and train: the substrate's input side follows the
    # header task's image side
    return {"train": train, "task": {"type": "header"}}


def _load_config(args) -> ExperimentConfig:
    doc = _default_doc(args.command)
    if args.config:
        try:
            doc = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    cfg = ExperimentConfig.from_json(doc)
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg,
            substrate=dataclasses.replace(cfg.substrate, seed=args.seed),
            train=dataclasses.replace(cfg.train, seed=args.seed))
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    if args.repeats is not None:
        cfg = dataclasses.replace(cfg, repeats=args.repeats)
    if getattr(args, "alphas", None):
        try:
            alphas = tuple(float(v) for v in args.alphas.split(","))
        except ValueError as exc:
            raise UsageError(f"--alphas must be comma-separated numbers: {exc}") from exc
        cfg = dataclasses.replace(cfg, alphas=alphas)
    if isinstance(cfg.task, MnistTask):
        task = cfg.task
        if args.mnist_images:
            task = dataclasses.replace(task, images=args.mnist_images)
        if args.mnist_labels:
            task = dataclasses.replace(task, labels=args.mnist_labels)
        if args.mnist_test_images:
            task = dataclasses.replace(task, test_images=args.mnist_test_images)
        if args.mnist_test_labels:
            task = dataclasses.replace(task, test_labels=args.mnist_test_labels)
        cfg = dataclasses.replace(cfg, task=task)
    cfg.validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternrc",
        description="Train Boolean/ternary readout masks on a simulated optical reservoir.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("compare", "four-arm comparison: boolean/ternary x laser on/off plus ridge"),
        ("alpha-scan", "learning curves across mutation gains"),
        ("header", "train and score a pie-header recognition task"),
        ("stability", "freeze a trained mask and re-measure it under drift"),
        ("train", "single training run on the configured task"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, help="override substrate and train seeds")
        p.add_argument("--out", help="output directory for result files")
        p.add_argument("--repeats", type=int, help="independent seeded repeats")
        p.add_argument("--mnist-images", help="IDX image file, training partition")
        p.add_argument("--mnist-labels", help="IDX label file, training partition")
        p.add_argument("--mnist-test-images", help="IDX image file, test partition")
        p.add_argument("--mnist-test-labels", help="IDX label file, test partition")
        if name == "alpha-scan":
            p.add_argument("--alphas", help="comma-separated mutation gains, e.g. 0,5,10,20")
        if name == "stability":
            p.add_argument("--checks", type=int, default=3600,
                           help="number of re-measurements")
            p.add_argument("--drift-steps", type=int, default=1,
                           help="drift steps between re-measurements")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "compare":
            rows = run_comparison(cfg)
            _print_medians(rows)
        elif args.command == "alpha-scan":
            rows = run_alpha_scan(cfg)
            for alpha in sorted({r["alpha"] for r in rows}):
                sel = [r for r in rows if r["alpha"] == alpha]
                print(f"alpha={alpha:g}: median final nmse="
                      f"{np.median([r['final_nmse'] for r in sel]):.4f}, "
                      f"median epochs-to-convergence="
                      f"{np.median([r['epochs_to_convergence'] for r in sel]):.0f}")
        elif args.command == "header":
            rows = run_header_task(cfg)
            for r in rows:
                print(f"repeat {r['repeat']}: test SER={r['test_ser']:.4f} "
                      f"accuracy={r['test_accuracy']:.4f} nmse={r['test_nmse']:.4f}")
        elif args.command == "stability":
            report = run_stability(cfg, args.checks, args.drift_steps)
            print(f"checks={args.checks}: median consistency="
                  f"{np.median(report.consistencies):.5f}, "
                  f"nmse mean={report.nmse_series.mean():.4f} "
                  f"std={report.nmse_series.std():.5f}")
        else:
            rows = run_header_task(cfg) if isinstance(cfg.task, HeaderTask) \
                else run_comparison(cfg)
            print(json.dumps(rows[:4], indent=2, default=str))
    except (ConfigError, UsageError, NumericalError) as exc:
        # an unregularised ridge lambda is the only numerical failure a
        # config can reach
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


def _print_medians(rows) -> None:
    for task in sorted({r["task"] for r in rows}):
        parts = []
        for arm in ("boolean_on", "ternary_off", "ternary_on", "ridge"):
            sel = [r["test_accuracy"] for r in rows
                   if r["task"] == task and r["arm"] == arm]
            if sel:
                parts.append(f"{arm}={np.median(sel):.3f}")
        print(f"{task}: " + " ".join(parts))


if __name__ == "__main__":
    sys.exit(main())
