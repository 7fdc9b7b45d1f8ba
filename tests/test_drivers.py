"""The experiment drivers' input and output boundaries: each IDX partition is
parsed once per driver call and freed once the last batches are made, and a
run without an output directory writes nothing and returns the rows of a run
with one."""

import dataclasses
import weakref

import pytest

from ternrc import harness
from ternrc.harness import ExperimentConfig
from ternrc.optimizer import TrainConfig
from ternrc.substrate import SubstrateConfig, forward_batch
from ternrc.tasks import HeaderTask, load_mnist


def tiny_config(task, **top):
    """A small run: 40 samples on a 12-side node grid, a few epochs."""
    return ExperimentConfig(
        substrate=SubstrateConfig(grid_side=12, input_side=16, seed=41),
        train=TrainConfig(alpha=10.0, max_epochs=4, normalize="zscore", seed=42),
        task=task, **top)


@pytest.mark.parametrize("test_partition, loads", [(True, 2), (False, 1)],
                         ids=["test-partition", "train-partition-only"])
def test_comparison_parses_each_idx_pair_once(test_partition, loads, idx_files, monkeypatch):
    # ten digits over two repeats: twenty batch pairs from one parse per pair
    calls = []
    monkeypatch.setattr(harness, "load_mnist",
                        lambda *paths: calls.append(paths) or load_mnist(*paths))
    task = {"type": "mnist", "digit": None, "n_samples": 40,
            "images": idx_files["images"], "labels": idx_files["labels"]}
    if test_partition:
        task.update(test_images=idx_files["test_images"], test_labels=idx_files["test_labels"])
    cfg = ExperimentConfig.from_json({
        "substrate": {"grid_side": 12, "input_side": 28, "seed": 43},
        "train": {"alpha": 10.0, "max_epochs": 2, "seed": 44},
        "task": task, "repeats": 2, "ridge_grid": [1.0]})
    rows = harness.run_comparison(cfg)
    assert len(rows) == 10 * 2 * 4
    assert len(calls) == loads


@pytest.mark.parametrize("run", [
    harness.run_comparison, lambda cfg: harness.run_stability(cfg, n_checks=2),
    lambda cfg: harness.run_alpha_scan(dataclasses.replace(cfg, alphas=(10.0,), repeats=2)),
], ids=["compare", "stability", "alpha-scan-two-repeats"])
def test_partitions_freed_before_the_last_forward_pass(run, idx_files, monkeypatch):
    # the parsed files would otherwise stay alive through the forward pass
    # and training, about 9 MB at the benchmark's 6000 images a partition
    parts, alive = [], []

    def load(*paths):
        part = load_mnist(*paths)
        parts.append(weakref.ref(part))
        return part

    def forward(sub, pixels):
        alive.append(sum(ref() is not None for ref in parts))
        return forward_batch(sub, pixels)

    monkeypatch.setattr(harness, "load_mnist", load)
    monkeypatch.setattr(harness, "forward_batch", forward)
    task = {"type": "mnist", "digit": 3, "n_samples": 40, **idx_files}
    run(ExperimentConfig.from_json({
        "substrate": {"grid_side": 12, "input_side": 28, "seed": 45},
        "train": {"alpha": 10.0, "max_epochs": 2, "seed": 46}, "task": task}))
    assert len(parts) == 2 and alive[-1] == 0


HEADER = HeaderTask(n_bits=3, target_value=5, n_samples=40, image_side=16)


@pytest.mark.parametrize("run", [
    harness.run_comparison, harness.run_header_task,
    lambda cfg: harness.run_alpha_scan(dataclasses.replace(cfg, alphas=(0.0, 10.0))),
    lambda cfg: harness.run_stability(cfg, n_checks=5),
], ids=["compare", "header", "alpha-scan", "stability"])
def test_run_without_output_dir_writes_nothing(run, tmp_path, monkeypatch):
    with_files = run(tiny_config(HEADER, output_dir=str(tmp_path / "out")))
    assert any((tmp_path / "out").iterdir())
    inert = tmp_path / "inert"
    inert.mkdir()
    monkeypatch.chdir(inert)
    assert run(tiny_config(HEADER)) == with_files
    assert not any(inert.iterdir())
