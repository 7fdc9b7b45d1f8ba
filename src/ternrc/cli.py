"""Command-line entry point for the experiment drivers."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericalError, UsageError
from .harness import (ExperimentConfig, run_alpha_scan, run_comparison, run_header_task,
                      run_stability)


def _default_doc(command: str) -> dict:
    """Config document of a command run without ``--config``."""
    train = {"alpha": 10.0, "max_epochs": 800, "mode": "ternary"}
    if command == "compare":
        return {"substrate": {"input_side": 28}, "train": {**train, "max_epochs": 2000},
                "task": {"type": "mnist", "digit": None}, "repeats": 3}
    if command == "stability":
        # the long-run protocol trains digit 0 for 100 epochs
        return {"substrate": {"input_side": 28}, "train": {**train, "max_epochs": 100},
                "task": {"type": "mnist", "digit": 0}}
    # header and alpha-scan: the substrate's input side follows the header
    # task's image side
    return {"train": train, "task": {"type": "header"}}


def _load_config(args) -> ExperimentConfig:
    """The file or default document with the flags written into it, checked
    by ``from_json`` before (its own derived seeds) and after (the flags)."""
    doc = _default_doc(args.command)
    if args.config:
        try:
            doc = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    doc = ExperimentConfig.from_json(doc).to_json_dict()
    del doc["derived_seeds"]  # derived again from the flags' seeds
    if args.seed is not None:
        doc["substrate"]["seed"] = doc["train"]["seed"] = args.seed
    if args.out is not None:
        doc["output_dir"] = args.out
    if args.repeats is not None:
        doc["repeats"] = args.repeats
    if getattr(args, "alphas", None) is not None:
        if not args.alphas.strip():
            raise UsageError("--alphas is empty; give comma-separated mutation gains")
        try:
            doc["alphas"] = [float(v) for v in args.alphas.split(",")]
        except ValueError as exc:
            raise UsageError(f"--alphas must be comma-separated numbers: {exc}") from exc
    for name in ("images", "labels", "test_images", "test_labels"):
        if path := getattr(args, f"mnist_{name}"):
            doc["task"][name] = path
    return ExperimentConfig.from_json(doc)


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
            for task in sorted({r["task"] for r in rows}):
                parts = []
                for arm in ("boolean_on", "ternary_off", "ternary_on", "ridge"):
                    sel = [r["test_accuracy"] for r in rows
                           if r["task"] == task and r["arm"] == arm]
                    if sel:
                        parts.append(f"{arm}={np.median(sel):.3f}")
                print(f"{task}: " + " ".join(parts))
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
        else:
            rows = run_stability(cfg, args.checks, args.drift_steps)
            errs = np.array([r["nmse"] for r in rows])
            print(f"checks={args.checks}: median consistency="
                  f"{np.median([r['consistency'] for r in rows]):.5f}, "
                  f"nmse mean={errs.mean():.4f} std={errs.std():.5f}")
    except (ConfigError, UsageError, NumericalError) as exc:
        # a flat rig or an unregularised ridge lambda: the numerical failures a config reaches
        print(f"{'error' if isinstance(exc, UsageError) else 'config error'}: {exc}",
              file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
