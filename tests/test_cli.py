"""End-to-end runs of ``python -m ternrc.cli`` at tiny sizes, with the sha256
of every output file pinned, reruns from each run's ``config.resolved.json``,
plus the CLI's exit codes on bad input.

A change that means to move the numbers re-pins ``GOLDEN`` and says why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ternrc import (ConfigError, ExperimentConfig, HeaderTask, MnistTask, SubstrateConfig,
                    TrainConfig, write_idx_images, write_idx_labels)
from ternrc.cli import _default_doc, main

ROOT = Path(__file__).resolve().parents[1]

#: one BLAS thread, as the benchmark runs, so the reductions repeat bit for bit
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

#: files whose bytes differ between runs (the resolved config embeds output_dir)
UNDIGESTED = {"config.resolved.json"}

HEADER_TASK = {"type": "header", "n_bits": 4, "target_value": 5, "n_samples": 40,
               "image_side": 32}


def _mnist_task(idx, digit, test_partition):
    task = {"type": "mnist", "digit": digit, "n_samples": 40,
            "images": idx["images"], "labels": idx["labels"]}
    if test_partition:
        task.update(test_images=idx["test_images"], test_labels=idx["test_labels"])
    return task


def _case(command, idx):
    """(config document, extra CLI flags) of one command's tiny run."""
    if command == "header":
        return {"substrate": {"input_side": 32, "seed": 11},
                "train": {"alpha": 10.0, "max_epochs": 20, "mode": "ternary",
                          "normalize": "zscore", "seed": 11},
                "task": HEADER_TASK}, []
    if command == "train":
        return {"substrate": {"input_side": 32, "seed": 12},
                "train": {"alpha": 5.0, "max_epochs": 20, "mode": "boolean",
                          "normalize": "first_epoch", "patience": 8, "seed": 12},
                "task": HEADER_TASK, "repeats": 2}, []
    if command == "alpha-scan":
        # integer and float alphas: the seed tags spell each as written
        return {"substrate": {"input_side": 32, "seed": 13},
                "train": {"alpha": 10.0, "max_epochs": 15, "mode": "ternary",
                          "normalize": "off", "seed": 13},
                "task": HEADER_TASK, "alphas": [0, 5.0, 20]}, []
    if command == "compare":
        return {"substrate": {"input_side": 28, "seed": 14},
                "train": {"alpha": 10.0, "max_epochs": 20, "mode": "ternary",
                          "normalize": "zscore", "seed": 14},
                "task": _mnist_task(idx, 3, test_partition=True)}, []
    return {"substrate": {"input_side": 28, "seed": 15},
            "train": {"alpha": 10.0, "max_epochs": 10, "mode": "ternary",
                      "normalize": "first_epoch", "seed": 15},
            "task": _mnist_task(idx, 0, test_partition=False)}, \
        ["--checks", "30", "--drift-steps", "2"]


#: sha256 of every digested output file, pinned before the harness refactor
GOLDEN = {
    "header": {
        "history_header_s0.csv":
            "177940028f0dd4fd8ed9d9df74128d02243bed9208bd85d8700a7bc9744080df",
        "mask_header_s0.json":
            "6558b11912e80f2ffe0199d18a4062dad65d643e61ee621af3ddf1bff5ce4ab6",
        "results.csv":
            "48504cc8cb9f47034f2e05e1ed6641ef11f1d11e2d57473cdcb21272fefa393a",
    },
    "train": {
        "history_header_s0.csv":
            "eda64fa9447229bdc945550301a0c322307f2d795dd2af01a5cefd4715bf605c",
        "history_header_s1.csv":
            "50d923f6aa127dddf75aeab89c3cb18870ecad9d33bea4f77ac177c4849c371f",
        "mask_header_s0.json":
            "fe4661a667c17445d1f5bd98f9d2adf33fb3cd1776c2c5ab07c3600ae39f10b5",
        "mask_header_s1.json":
            "841874b91c4e026e2e67552f1e15000cf1664506776a074bce6c7312dba01782",
        "results.csv":
            "44e2f6e372e583c772ee30815e4566f4627ac47aadd66cce6fabf092ab14c97b",
    },
    "alpha-scan": {
        "alpha_summary.csv":
            "bbb57c84285e7930c2bf415134aef228769e971797bd6b4e8e45d87830de628c",
        "curves.csv":
            "8f2109cd55dfdbb10b35cd678da7dcb27f065edbbf207c977984814bf684fd75",
    },
    "compare": {
        "history_boolean_on_digit3_s0.csv":
            "2713a5277c5ac835df3b60b813249bb40187c58ce7ff227f3a5ebb9577fbedd0",
        "history_ternary_off_digit3_s0.csv":
            "8f9ab34dd78c0cce88a872882285d8eca8771440d6e8ca72aedf6a07e1a63f7d",
        "history_ternary_on_digit3_s0.csv":
            "4de57802fc28feefc13c5155f88b74b75678f0da0a018f17bb6715fbcb0a175f",
        "mask_boolean_on_digit3_s0.json":
            "e35844025fabcdc188e44467a8cd1bd8656c101fce1eabf65e2230b1f51d1fbc",
        "mask_ternary_off_digit3_s0.json":
            "d2555089657d8e84fa4f0d9f887388f4c8391b00b2c4072bb941d69c523e9afb",
        "mask_ternary_on_digit3_s0.json":
            "319f98d5253322cc674d7d45609ae45982873d26fc709d6a8404875d31403340",
        "results.csv":
            "fb03bc373ed3f2aa0e02b8774dca5adfb5ecb2b2cc38abbdcf0dec4bdb1b0c75",
    },
    "stability": {
        "stability.csv":
            "64f028a05779cb68749a03248b3b99f10f35be6715eae58ea227641beaa9439c",
    },
}

SCHEMAS = {"results.csv": "ternrc-results-v1", "alpha_summary.csv": "ternrc-results-v1",
           "stability.csv": "ternrc-results-v1", "curves.csv": "ternrc-curves-v1"}


def _run_cli(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "ternrc.cli", *args], env=env,
                          capture_output=True, text=True, timeout=300)


def _golden_run(command, idx, tmp_path):
    """Run one command's tiny case into ``tmp_path / "out"``; returns (out, flags)."""
    doc, flags = _case(command, idx)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    proc = _run_cli(command, "--config", str(config), "--out", str(out), *flags)
    assert proc.returncode == 0, proc.stderr
    return out, flags


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name not in UNDIGESTED}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_outputs_match_golden_digests(command, idx_files, tmp_path):
    out, _ = _golden_run(command, idx_files, tmp_path)
    files = {p.name for p in out.iterdir()}
    assert files == set(GOLDEN[command]) | UNDIGESTED
    for name, schema in SCHEMAS.items():
        if name in files:
            assert (out / name).read_text().splitlines()[0] == f"# schema: {schema}"
    assert _digests(out) == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_rerun_from_resolved_config(command, idx_files, tmp_path):
    out, flags = _golden_run(command, idx_files, tmp_path)
    resolved = out / "config.resolved.json"
    again = tmp_path / "again"
    proc = _run_cli(command, "--config", str(resolved), "--out", str(again), *flags)
    assert proc.returncode == 0, proc.stderr
    assert _digests(again) == GOLDEN[command]
    record = json.loads(resolved.read_text())
    assert json.loads((again / "config.resolved.json").read_text()) == \
        {**record, "output_dir": str(again)}
    cfg = ExperimentConfig.from_json(resolved.read_text())
    assert ExperimentConfig.from_json(cfg.to_json_dict()) == cfg


def _reference_default(command):
    """The CLI defaults written as dataclass expressions: an independent
    reference for the documents of ``_default_doc``."""
    if command in ("header", "alpha-scan", "train"):
        return ExperimentConfig(
            substrate=SubstrateConfig(input_side=64),
            train=TrainConfig(alpha=10.0, max_epochs=800, mode="ternary",
                              normalize="zscore"),
            task=HeaderTask(),
        )
    if command == "compare":
        return ExperimentConfig(
            substrate=SubstrateConfig(input_side=28),
            train=TrainConfig(alpha=10.0, max_epochs=2000, mode="ternary",
                              normalize="zscore"),
            task=MnistTask(digit=None),
            repeats=3,
        )
    return ExperimentConfig(
        substrate=SubstrateConfig(input_side=28),
        train=TrainConfig(alpha=10.0, max_epochs=100, mode="ternary",
                          normalize="zscore"),
        task=MnistTask(digit=0),
        repeats=1,
    )


@pytest.mark.parametrize("command", ["alpha-scan", "compare", "header", "stability", "train"])
def test_default_doc_matches_reference(command):
    cfg = ExperimentConfig.from_json(_default_doc(command))
    assert cfg == _reference_default(command)
    assert ExperimentConfig.from_json(cfg.to_json_dict()) == cfg
    assert ExperimentConfig.from_json(json.dumps(cfg.to_json_dict())) == cfg


VALID_TRAIN = {"alpha": 10.0, "max_epochs": 5}


@pytest.mark.parametrize("doc", [
    {"task": {"type": "header"}},
    {"train": {"alpha": "x", "max_epochs": 5}},
    {"train": VALID_TRAIN, "task": {"type": "header", "bogus": 1}},
    {"train": VALID_TRAIN, "repeats": "many"},
    [1, 2],
    {"train": VALID_TRAIN, "alphas": ["x"]},
    {"train": VALID_TRAIN, "alphas": []},
    {"train": VALID_TRAIN, "ridge_grid": ["x"]},
    {"train": VALID_TRAIN, "ridge_grid": [-1]},
    {"train": VALID_TRAIN, "task": {"type": "header", "n_samples": "20"}},
    {"train": VALID_TRAIN, "task": {"type": "mnist", "digit": "3"}},
    {"train": VALID_TRAIN, "repeats": 1.7},
    {"train": VALID_TRAIN, "off_brightness": "0.5"},
    {"train": VALID_TRAIN, "derived_seeds": {"repeat0": {"substrate": 1}}},
], ids=["no-train-section", "non-numeric-alpha", "unknown-task-field",
        "non-numeric-repeats", "not-an-object", "non-numeric-alphas-entry", "empty-alphas",
        "non-numeric-ridge-entry", "negative-ridge-lambda", "string-n-samples",
        "string-digit", "fractional-repeats", "string-off-brightness",
        "tampered-derived-seeds"])
def test_bad_config_exits_2(doc, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["header", "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(doc)


def test_unreadable_config_exits_2(tmp_path):
    assert main(["header", "--config", str(tmp_path / "missing.json")]) == 2


def test_non_numeric_alphas_exit_2():
    assert main(["alpha-scan", "--alphas", "0,x"]) == 2


def test_missing_idx_path_exits_3(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": VALID_TRAIN,
        "task": {"type": "mnist", "digit": 0, "n_samples": 40,
                 "images": str(tmp_path / "missing-images"),
                 "labels": str(tmp_path / "missing-labels")}}))
    assert main(["compare", "--config", str(config)]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["header", "stability"])
def test_out_naming_a_file_exits_2(command, idx_files, tmp_path, capsys):
    doc, flags = _case(command, idx_files)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main([command, "--config", str(config), "--out", str(out), *flags]) == 2
    assert "output directory" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


def test_idx_path_directory_exits_3(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": VALID_TRAIN,
        "task": {"type": "mnist", "digit": 0, "n_samples": 40,
                 "images": str(tmp_path), "labels": str(tmp_path)}}))
    assert main(["compare", "--config", str(config)]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("side", [32, 12], ids=["pad", "crop"])
def test_non_square_digit_images_exit_3(side, tmp_path, capsys):
    images, labels = tmp_path / "images", tmp_path / "labels"
    write_idx_images(np.random.default_rng(0).integers(0, 256, (400, 28, 20)), images)
    write_idx_labels(np.arange(400) % 10, labels)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "substrate": {"input_side": side}, "train": VALID_TRAIN,
        "task": {"type": "mnist", "digit": 0, "n_samples": 40,
                 "images": str(images), "labels": str(labels)}}))
    assert main(["compare", "--config", str(config)]) == 3
    assert "28x20" in capsys.readouterr().err


def test_unregularised_ridge_on_rank_deficient_states_exits_2(idx_files, tmp_path, capsys):
    # 40 samples cannot span the 448 node states, so lambda = 0 is singular
    doc, _ = _case("compare", idx_files)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**doc, "ridge_grid": [0]}))
    assert main(["compare", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "rank-deficient" in err


def test_header_input_side_follows_image_side():
    cfg = ExperimentConfig.from_json({"train": VALID_TRAIN})
    assert cfg.substrate.input_side == cfg.task.image_side == 64
    cfg = ExperimentConfig.from_json({"train": VALID_TRAIN,
                                      "task": {"type": "header", "image_side": 32}})
    assert cfg.substrate.input_side == 32
    with pytest.raises(ConfigError, match="input_side"):
        ExperimentConfig.from_json({"substrate": {"input_side": 28}, "train": VALID_TRAIN})


def test_omitted_fields_take_dataclass_defaults():
    cfg = ExperimentConfig.from_json({"substrate": {"input_side": 64}, "train": VALID_TRAIN})
    fields = ExperimentConfig.__dataclass_fields__
    for name in ("repeats", "output_dir", "off_brightness", "ridge_grid", "alphas"):
        assert getattr(cfg, name) == fields[name].default
