"""The experiment drivers' input and output boundaries: each IDX partition is
parsed once per driver call and freed once the last batches are made, a
comparison frees each state matrix after its last use, a run without an
output directory writes nothing and returns the rows of a run with one, the
output sink records the config when it opens, and the convergence epoch is
read off the history."""

import dataclasses
import json
import math
import weakref

import pytest

from ternrc import harness
from ternrc.baselines import lambda_sweep
from ternrc.harness import ExperimentConfig
from ternrc.optimizer import EpochRecord, TrainConfig, TrainResult
from ternrc.readout import random_mask
from ternrc.substrate import SubstrateConfig, forward_batch, laser_response, states_matrix
from ternrc.tasks import HeaderTask, load_mnist


def tiny_config(task, **top):
    """A small run: 40 samples on a 12-side node grid, a few epochs."""
    return ExperimentConfig(
        substrate=SubstrateConfig(grid_side=12, input_side=16, seed=41),
        train=TrainConfig(alpha=10.0, max_epochs=4, seed=42),
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

    def forward(sub, frames):
        alive.append(sum(ref() is not None for ref in parts))
        return forward_batch(sub, frames)

    monkeypatch.setattr(harness, "load_mnist", load)
    monkeypatch.setattr(harness, "forward_batch", forward)
    task = {"type": "mnist", "digit": 3, "n_samples": 40, **idx_files}
    run(ExperimentConfig.from_json({
        "substrate": {"grid_side": 12, "input_side": 28, "seed": 45},
        "train": {"alpha": 10.0, "max_epochs": 2, "seed": 46}, "task": task}))
    assert len(parts) == 2 and alive[-1] == 0


HEADER = HeaderTask(n_bits=3, target_value=5, n_samples=40, image_side=16)


@pytest.mark.parametrize("digit", [False, True], ids=["distinct-rows", "gathered-rows"])
def test_comparison_frees_each_state_matrix_after_its_last_use(digit, idx_files, monkeypatch):
    # each (N, K) array is about 3.6 MB at the benchmark's size. The laser maps
    # the fewer rows: a header task's few distinct intensities themselves,
    # once, after both laser-off matrices are gathered; a digit task's two
    # copies of them, the intensities dead by then. The laser-off states and
    # every arm's rigs are dead when the ridge sweep starts
    intensities, gathered, lasered, rigs, alive = [], [], [], [], {}
    readout = harness.BatchReadout

    def forward(sub, frames):
        p = forward_batch(sub, frames)
        intensities.append(weakref.ref(p))
        return p

    def gather(rows, index):
        s = states_matrix(rows, index)
        gathered.append(weakref.ref(s))
        return s

    def laser(sub, p):
        lasered.append({"intensities": p is intensities[0](),
                        "intensities alive": intensities[0]() is not None,
                        "gathered": len(gathered), "laser-off": any(r() is p for r in gathered)})
        return laser_response(sub, p)

    class Readout(readout):
        def __init__(self, *args):
            super().__init__(*args)
            rigs.append(weakref.ref(self))

    def sweep(*args):
        alive["off states"] = [ref() is not None for ref in gathered[:2]]
        alive["rigs"] = [ref() is not None for ref in rigs]
        return lambda_sweep(*args)

    monkeypatch.setattr(harness, "forward_batch", forward)
    monkeypatch.setattr(harness, "states_matrix", gather)
    monkeypatch.setattr(harness, "laser_response", laser)
    monkeypatch.setattr(harness, "BatchReadout", Readout)
    monkeypatch.setattr(harness, "lambda_sweep", sweep)
    if digit:
        harness.run_comparison(ExperimentConfig.from_json({
            "substrate": {"grid_side": 12, "input_side": 28, "seed": 47},
            "train": {"alpha": 10.0, "max_epochs": 4, "seed": 48},
            "task": {"type": "mnist", "digit": 3, "n_samples": 40, **idx_files}}))
        maps = [{"intensities": False, "intensities alive": False, "gathered": 2,
                 "laser-off": False}] * 2
    else:
        harness.run_comparison(tiny_config(HEADER))
        maps = [{"intensities": True, "intensities alive": True, "gathered": 2,
                 "laser-off": False}]
    assert len(intensities) == 1 and len(gathered) == 2 + 2 * (not digit) and len(rigs) == 6
    assert lasered == maps
    assert alive == {"off states": [False] * 2, "rigs": [False] * 6}


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


def test_sink_records_the_config_when_it_opens(tmp_path):
    # opening the sink makes the output directory and writes the resolved
    # config, which loads back as the run's config
    cfg = tiny_config(HEADER, output_dir=str(tmp_path / "a" / "b"))
    harness._OutputSink(cfg)
    assert [p.name for p in (tmp_path / "a" / "b").iterdir()] == ["config.resolved.json"]
    text = (tmp_path / "a" / "b" / "config.resolved.json").read_text()
    assert ExperimentConfig.from_json(text) == cfg
    assert text == json.dumps(cfg.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _result(initial, bests):
    history = tuple(EpochRecord(epoch=i, nmse_best=b, n_mirrors=1, accepted=True)
                    for i, b in enumerate(bests, 1))
    return TrainResult(best_mask=random_mask(4), history=history, final_nmse=bests[-1],
                       initial_nmse=initial)


@pytest.mark.parametrize("initial, bests, epoch", [
    (1.0, (1.0, 0.5, 0.2, 0.1, 0.1), 4),  # level 0.145
    (1.0, (1.0, 1.0, 0.0), 3),  # only the final error is within 0.05
    (math.inf, (math.inf, 2.0, 1.0), 1),  # an infinite improvement: every epoch is within
    (1.0, (1.0, 1.0), 0),  # never improved
    (1.0, (1.0, math.nextafter(1.0, 0.0)), 2),  # the level rounds to the final error
], ids=["within-five-percent", "final-epoch", "infinite-initial", "no-improvement",
        "level-rounds-to-final"])
def test_epochs_to_convergence(initial, bests, epoch):
    assert harness.epochs_to_convergence(_result(initial, bests)) == epoch
