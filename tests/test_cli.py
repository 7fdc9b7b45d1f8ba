"""End-to-end runs of ``python -m ternrc.cli`` at tiny sizes, with the sha256
of every output file pinned, reruns from each run's ``config.resolved.json``,
plus the CLI's exit codes on bad input.

A change that means to move the numbers re-pins ``GOLDEN`` and says why.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ternrc.cli import _default_doc, _load_config, build_parser, main
from ternrc.errors import ConfigError, UsageError
from ternrc.harness import ExperimentConfig, derive_seed
from ternrc.optimizer import TrainConfig
from ternrc.substrate import SubstrateConfig
from ternrc.tasks import HeaderTask, MnistTask, write_idx_images, write_idx_labels

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


def _case(case, idx):
    """(command, config document, extra CLI flags) of one tiny run."""
    if case == "header":
        return "header", {"substrate": {"input_side": 32, "seed": 11},
                          "train": {"alpha": 10.0, "max_epochs": 20, "mode": "ternary",
                                    "normalize": "zscore", "seed": 11},
                          "task": HEADER_TASK}, []
    if case == "header-boolean":
        # the one case with a boolean mask, first_epoch, patience and repeats
        return "header", {"substrate": {"input_side": 32, "seed": 12},
                          "train": {"alpha": 5.0, "max_epochs": 20, "mode": "boolean",
                                    "normalize": "first_epoch", "patience": 8, "seed": 12},
                          "task": HEADER_TASK, "repeats": 2}, []
    if case == "alpha-scan":
        # integer and float alphas: the seed tags spell each as written
        return "alpha-scan", {"substrate": {"input_side": 32, "seed": 13},
                              "train": {"alpha": 10.0, "max_epochs": 15, "mode": "ternary",
                                        "normalize": "off", "seed": 13},
                              "task": HEADER_TASK, "alphas": [0, 5.0, 20]}, []
    if case == "compare":
        return "compare", {"substrate": {"input_side": 28, "seed": 14},
                           "train": {"alpha": 10.0, "max_epochs": 20, "mode": "ternary",
                                     "normalize": "zscore", "seed": 14},
                           "task": _mnist_task(idx, 3, test_partition=True)}, []
    if case == "compare-header":
        # arm tags without a digit, one substrate per repeat
        return "compare", {"substrate": {"input_side": 32, "seed": 16},
                           "train": {"alpha": 10.0, "max_epochs": 20, "mode": "ternary",
                                     "normalize": "zscore", "seed": 16},
                           "task": HEADER_TASK, "repeats": 2}, []
    if case == "compare-all-digits":
        # all ten digits, each test batch a second draw of the training
        # partition; a short ridge grid, since the sweep dominates ten digits
        return "compare", {"substrate": {"input_side": 28, "seed": 17},
                           "train": {"alpha": 10.0, "max_epochs": 20, "mode": "ternary",
                                     "normalize": "zscore", "seed": 17},
                           "task": _mnist_task(idx, None, test_partition=False),
                           "ridge_grid": [0.001, 1.0]}, []
    return "stability", {"substrate": {"input_side": 28, "seed": 15},
                         "train": {"alpha": 10.0, "max_epochs": 10, "mode": "ternary",
                                   "normalize": "first_epoch", "seed": 15},
                         "task": _mnist_task(idx, 0, test_partition=False)}, \
        ["--checks", "30", "--drift-steps", "2"]


#: sha256 of every digested output file, pinned before the harness refactor;
#: the numeric files were re-pinned when the forward pass became one GEMM and
#: the readout incremental (every mask file kept its digest); the two
#: comparison cases beyond ``compare`` were pinned later, on unchanged outputs.
#: The history and results files of the zscore cases were re-pinned when the
#: z-scored error came to be taken from the raw trace in one pass; no mask
#: file and no off or first_epoch case moved
GOLDEN = {
    "header": {
        "history_header_s0.csv":
            "7f4cc1fdf927095d8874c8b4b5e1fc136eedac1743001f90e087d26e8ce10dc0",
        "mask_header_s0.json":
            "6558b11912e80f2ffe0199d18a4062dad65d643e61ee621af3ddf1bff5ce4ab6",
        "results.csv":
            "fba5ca2f42f170983218426b2574e8c3eaac291a289c9aac682e378f479944cc",
    },
    "header-boolean": {
        "history_header_s0.csv":
            "69dafb4004b4ee1c45fa51112722709cb58afb77d9acf2bbb8ced13bcfe88b09",
        "history_header_s1.csv":
            "9879aa7466e1654029b752c4bd06c0c4136c7c50fa693ff87cf5c018fdfa342c",
        "mask_header_s0.json":
            "fe4661a667c17445d1f5bd98f9d2adf33fb3cd1776c2c5ab07c3600ae39f10b5",
        "mask_header_s1.json":
            "841874b91c4e026e2e67552f1e15000cf1664506776a074bce6c7312dba01782",
        "results.csv":
            "c2097fda938a7da4e5538a6a35055f1c3141aa429e25898753cf82af3c4b3b98",
    },
    "alpha-scan": {
        "alpha_summary.csv":
            "4d8b857a8e0a53f45b745a06ed2b09ae309e86291c8b372a1a1676ff1765cd47",
        "curves.csv":
            "67bf4521b1f86133a4ab628c64f07dc00b8036ebe369c0bc007231e679ded7ad",
    },
    "compare": {
        "history_boolean_on_digit3_s0.csv":
            "a5694ff2f72a6b7fcaa01fcd26d3052e5a4567769e07e7b39059d464972f5b56",
        "history_ternary_off_digit3_s0.csv":
            "54da2ecf0340746902812ade549fd3216546705ea9d4cd80a16d437cdb26bee1",
        "history_ternary_on_digit3_s0.csv":
            "6d76268fdf2757589e512fc65bdce49ffb84c63c346362e44f85efdfd4e032a4",
        "mask_boolean_on_digit3_s0.json":
            "e35844025fabcdc188e44467a8cd1bd8656c101fce1eabf65e2230b1f51d1fbc",
        "mask_ternary_off_digit3_s0.json":
            "d2555089657d8e84fa4f0d9f887388f4c8391b00b2c4072bb941d69c523e9afb",
        "mask_ternary_on_digit3_s0.json":
            "319f98d5253322cc674d7d45609ae45982873d26fc709d6a8404875d31403340",
        "results.csv":
            "dfb3942c2ca611901e8a42f71b5c4a34b8cbabb781804ea32730a7fadda9b59f",
    },
    "compare-all-digits": {
        "history_boolean_on_digit0_s0.csv":
            "0e382596b4de278e98ccc2ab244b14dc7336bc88d4e1421a174c41f98b4d7000",
        "history_boolean_on_digit1_s0.csv":
            "ca24a969ddd3d4ed47a59ed276d8e0cca92eba37769b098499a3d5d3f0aff0ec",
        "history_boolean_on_digit2_s0.csv":
            "4b6aec388b2acfb976a6642f4458ae563a974e0c75f7f578af637ac09cdc2702",
        "history_boolean_on_digit3_s0.csv":
            "bb52044cf66cbbc4164d2d38f4ff6f6a5d6e0d3179369f95a9f21018fba079c1",
        "history_boolean_on_digit4_s0.csv":
            "c242c7b339a78bf4cf8de819ebeaee133120761bfb42eb37daf7b9d4eccfa915",
        "history_boolean_on_digit5_s0.csv":
            "9a7253c03fde86eee0700c64ea9cb72aa3b80a1d7945bea2a635fc308b40a0be",
        "history_boolean_on_digit6_s0.csv":
            "85bf593af78c666f15e8e3547067a7da036080a98190a5f6c68f3cc039eeb0cb",
        "history_boolean_on_digit7_s0.csv":
            "f4bb8dd2252e2faba0449759a04c141e06e025600e5502559b7058d7c221c7fc",
        "history_boolean_on_digit8_s0.csv":
            "a1b79f158e4b5bcab9648c25112699f24d084493074ec6ac7304b7bc16fbed89",
        "history_boolean_on_digit9_s0.csv":
            "197ca8b78766cfee8b47df3157590e546ed3c8f9813cb0f0cced4dd8c21bd4d7",
        "history_ternary_off_digit0_s0.csv":
            "b1878a59446c8716a4b9bd2694843b6e2b2247c7240053a78a14bde6d0b3e827",
        "history_ternary_off_digit1_s0.csv":
            "441f36dfbf598dffedf82c08cc94799219eccd62d53477ac4612291cc0885f1e",
        "history_ternary_off_digit2_s0.csv":
            "4d393dcdfec304301d7cf5923e54893a04804a28374f0daa1537a4a7b2d54f76",
        "history_ternary_off_digit3_s0.csv":
            "03ebca8bdb23fabb3426a1d9542c0e88bfcf19ad6e60ce528ebfe41139cf6a15",
        "history_ternary_off_digit4_s0.csv":
            "f13c47eee7ba803a8bdeae3f1f283829c102edb456abfa5177ae94fae93396cc",
        "history_ternary_off_digit5_s0.csv":
            "a51e859511500e18775865cbd0b3f78c0c9f2219ee94c533e9613890826fd5d8",
        "history_ternary_off_digit6_s0.csv":
            "93d36bc3ae6d120bcdb6dd62d77311f8810990e3569b9b83ad2376140ddc2ee5",
        "history_ternary_off_digit7_s0.csv":
            "34fa6dafddaa1f2e9a38dd1ea62d75d76f13baea463718363e67a0e0cd28b031",
        "history_ternary_off_digit8_s0.csv":
            "ddd6868f8d90c01950d3fd52c9f3f0d20bd81351f346e9164ab0ef85864fce35",
        "history_ternary_off_digit9_s0.csv":
            "dfb8dfe7d809d19b3029e2b03927dcad6cc6d01abdc71962ddccac925fc71106",
        "history_ternary_on_digit0_s0.csv":
            "b25838946f7e8ace869144bc6f306bd8642f53c2490930a4085fca3f52b7cc97",
        "history_ternary_on_digit1_s0.csv":
            "0adf64cd7e789f1fdd89ac7a2c59428a0ecb26db1df0eab88bcb9b209d609288",
        "history_ternary_on_digit2_s0.csv":
            "957a85854511af986d2f0a9e013e7e5712625cde7f18b1a431accb7a308104ce",
        "history_ternary_on_digit3_s0.csv":
            "9261ad144386fe515935a4992a4b8760b60cf5ab40a026d357d66ca63d5a5c03",
        "history_ternary_on_digit4_s0.csv":
            "5c948c9468cc6d52d9b57da356ae1a0ef42379417e7abeb99c2d59f2e25571b6",
        "history_ternary_on_digit5_s0.csv":
            "bd0a70262c9405d2a2816a388d9060f969fc954d562971e6195c8f4b131afcad",
        "history_ternary_on_digit6_s0.csv":
            "97f7392c777a5fc617dd69cc9d03af4378ba18ab2c8ad5331f0e2eeca172b1e1",
        "history_ternary_on_digit7_s0.csv":
            "f0b573b8ce1269353648febafe7e469103934d31b1f4b982f318d5ab94859615",
        "history_ternary_on_digit8_s0.csv":
            "d6d9bfcfda3aa1d59a6daeeb3b87c58534bc8d2d737e87a892d2fc57a90ce2c9",
        "history_ternary_on_digit9_s0.csv":
            "58e00a3a5e631a01dae130386657ed9fdce9a219aee9ff441a75e0ddf2153616",
        "mask_boolean_on_digit0_s0.json":
            "80b3ed2461043061d98e730621ed6463cbcea3b5afd89d1b7bda82988027f558",
        "mask_boolean_on_digit1_s0.json":
            "bd3f12bc95c80402cff81e2d9243d4871157380588b1123a6dfa2bbf1585b089",
        "mask_boolean_on_digit2_s0.json":
            "f309934533720eb7880ff7b3bb572d10fce49b4de91f0f7841e5aa810429a3c1",
        "mask_boolean_on_digit3_s0.json":
            "8f4812feaf99f348cbd7d1eeb16245b89746c78229d37b84504d80d5fe5fdcfc",
        "mask_boolean_on_digit4_s0.json":
            "924c82912e82e072c7fe3fc4715dc11e65d909fe2b492ff24b9c9560fcc5d6be",
        "mask_boolean_on_digit5_s0.json":
            "f49e520dbff020b961aef47da1f28b99c7d78fbdc66c0d955aa85d7f4962e8f0",
        "mask_boolean_on_digit6_s0.json":
            "3edb68244e283931aa17bd5ad477a82497a078cbec4b1c715805199aa056b0cf",
        "mask_boolean_on_digit7_s0.json":
            "ead195609e4b70f1ed47f7963e726d0de339efc5645a9bfccbfc6b17e36afcb0",
        "mask_boolean_on_digit8_s0.json":
            "6e841e73a506475c4af84db8051c2bb37a324ea1bb26a2025c1eaa77366b821e",
        "mask_boolean_on_digit9_s0.json":
            "09c4dab4c1fa8dfdfbcbbb73fbb6a28722d15f4454475100e2eb719e5f6507e9",
        "mask_ternary_off_digit0_s0.json":
            "c8cc999a8112f2327501aa0f163caf9e56670e3fe7c01fdc7706e3d590ae4fa3",
        "mask_ternary_off_digit1_s0.json":
            "db82ff0aad7d636235956b2578e94ab8834576e6dcb1ad7e076ac4f626e45983",
        "mask_ternary_off_digit2_s0.json":
            "3d75f4fda58c9d1fbaec61f204a611a66275c18a02e84de7e9d8d408ef3622d2",
        "mask_ternary_off_digit3_s0.json":
            "2a6d22965750c8c78da16aa38c82d1e945480e1261c4334700fb3e55efe03bf5",
        "mask_ternary_off_digit4_s0.json":
            "6f1ff8460fed4c614f6e9049b12b638b6042035ec65f44bd30b03e599563daac",
        "mask_ternary_off_digit5_s0.json":
            "58e00ca98d20fb593e87900393f10705a811eb4354cd543fb8885eae87214017",
        "mask_ternary_off_digit6_s0.json":
            "3cc915c29e9596f9f5fe0f1beaa5608ed7538a79c07aa25b5e8fe6a1f68aca1d",
        "mask_ternary_off_digit7_s0.json":
            "8b702a581ee9f11c4289fda11dc3e8fb9f15146c2d54f4584fb7e70f4b28e34f",
        "mask_ternary_off_digit8_s0.json":
            "72206ebd720ef5e266cc60509160a3d75ba8d442f6b846c6189f2222c75be102",
        "mask_ternary_off_digit9_s0.json":
            "e5663de3d8b7554e321b883cd221d196ed87c4013c9d1e0caca2f92bc1eb2190",
        "mask_ternary_on_digit0_s0.json":
            "d70ddc4a0eb7ca867d19d68c78bfc969d3ac55cd600fae4c71303a4922abe257",
        "mask_ternary_on_digit1_s0.json":
            "eff4d9684cb3101c75b9ead512e4c278662f658e8961bc866129a455df1e1fa0",
        "mask_ternary_on_digit2_s0.json":
            "1edcc317e98ef3e5889dac676f3c7a82fcf6fb6e10c328f4e4f7085efb8cf16c",
        "mask_ternary_on_digit3_s0.json":
            "82cfb01bc0841fa2dc0c4bc3ba53a1bd974cd7f7e039c54607b987e976e4604c",
        "mask_ternary_on_digit4_s0.json":
            "9dd021e3277054132d7555142a43514afb6bdc27c002eec9a6c9b928af9a5d94",
        "mask_ternary_on_digit5_s0.json":
            "f5199d33d28df39adeb87710a0f33c26869140e1e627eeee0c2ff2961384e938",
        "mask_ternary_on_digit6_s0.json":
            "4f980b011655efc5a90ceac6d35ba4ceac7e696a15811305f137bca151944ddf",
        "mask_ternary_on_digit7_s0.json":
            "d01be017b760d2667a8068410e578bd22011175874d9e53a8adebb11f58f9644",
        "mask_ternary_on_digit8_s0.json":
            "33d687d5cabad66572b677fe4b44a9ddddb374fe12a1635d5d561b6775d4acdf",
        "mask_ternary_on_digit9_s0.json":
            "0c94d64ac3c2603a5a67c2aba94132151c541989171eaa63ca7e711590f1f286",
        "results.csv":
            "b48ddc623bb52cfd03f8deecfe73614044a10afde1862c119214528d88139c4e",
    },
    "compare-header": {
        "history_boolean_on_header_s0.csv":
            "de18918afdd6abf5f513815c16a9fb3258109717d13faf917c5ea080d549108d",
        "history_boolean_on_header_s1.csv":
            "6b994ff427ad79182f1e313a52a9d0b7f8dad55056bf0958cfddabc71fbdee61",
        "history_ternary_off_header_s0.csv":
            "8cc9a135c2c47e206d8a085c2f1e3b9a6745d8065f0c3126666088acc83612ab",
        "history_ternary_off_header_s1.csv":
            "e8fcfc886fe3d98ccc63f9a59e9ecc23fcf8c0033e5999aca6f4fb8b12c8909f",
        "history_ternary_on_header_s0.csv":
            "9098940dab7a94472e46c03e28452977f965f4944f82e40cba614cb8f222f8f0",
        "history_ternary_on_header_s1.csv":
            "a22d67c866c02e6e62a7898713bc21c3dddd40a4f41526165cc2e8e9039f7309",
        "mask_boolean_on_header_s0.json":
            "2db2bc94c4830376c556f00edac08d488880266f34421b5b90c860dccb0ae22e",
        "mask_boolean_on_header_s1.json":
            "17a6fc4702160f4c64726ecc96a6333b8cecd944bae23c54d8252b48be6f09bc",
        "mask_ternary_off_header_s0.json":
            "abc6cf78dd8ae1e6f4c97d05d5a20df63a204bf24d6c0fb001cc92dabe2d86dd",
        "mask_ternary_off_header_s1.json":
            "8255b2ce07d41e4805843baba1e12ea898954bee7c7d6d96ff973cbfc9e7fa94",
        "mask_ternary_on_header_s0.json":
            "8e409b857bec0eda8a13f98f3667d2ea1c55128064a35b2612a278a82520a57f",
        "mask_ternary_on_header_s1.json":
            "60b438f23cc63c7d05894d206244a11193cf825c92c3e07481fa59145497df80",
        "results.csv":
            "90fb23dcf3c225a6eb8d705515e92556c02e36631e495d59c9b02cebb9303c1d",
    },
    "stability": {
        "stability.csv":
            "eb03d43317c09de45d16c5b070da7b84bc80ddff7379a4eca16e1ab9801584e5",
    },
}

SCHEMAS = {"results.csv": "ternrc-results-v1", "alpha_summary.csv": "ternrc-results-v1",
           "stability.csv": "ternrc-results-v1", "curves.csv": "ternrc-curves-v1"}


def _run_cli(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "ternrc.cli", *args], env=env,
                          capture_output=True, text=True, timeout=300)


def _golden_run(case, idx, tmp_path):
    """Run one tiny case into ``tmp_path / "out"``; returns (command, out, flags)."""
    command, doc, flags = _case(case, idx)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    proc = _run_cli(command, "--config", str(config), "--out", str(out), *flags)
    assert proc.returncode == 0, proc.stderr
    return command, out, flags


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name not in UNDIGESTED}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_golden_digests(case, idx_files, tmp_path):
    _, out, _ = _golden_run(case, idx_files, tmp_path)
    files = {p.name for p in out.iterdir()}
    assert files == set(GOLDEN[case]) | UNDIGESTED
    for name, schema in SCHEMAS.items():
        if name in files:
            assert (out / name).read_text().splitlines()[0] == f"# schema: {schema}"
    assert _digests(out) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_rerun_from_resolved_config(case, idx_files, tmp_path):
    command, out, flags = _golden_run(case, idx_files, tmp_path)
    resolved = out / "config.resolved.json"
    again = tmp_path / "again"
    proc = _run_cli(command, "--config", str(resolved), "--out", str(again), *flags)
    assert proc.returncode == 0, proc.stderr
    assert _digests(again) == GOLDEN[case]
    record = json.loads(resolved.read_text())
    assert json.loads((again / "config.resolved.json").read_text()) == \
        {**record, "output_dir": str(again)}
    cfg = ExperimentConfig.from_json(resolved.read_text())
    assert ExperimentConfig.from_json(cfg.to_json_dict()) == cfg


def _reference_default(command):
    """The CLI defaults written as dataclass expressions: an independent
    reference for the documents of ``_default_doc``."""
    if command in ("header", "alpha-scan"):
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


@pytest.mark.parametrize("command", ["alpha-scan", "compare", "header", "stability"])
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
    {"train": {"alpha": 10.0, "max_epochs": 5.5}},
    {"train": {**VALID_TRAIN, "patience": 1.5}},
    {"substrate": {"grid_side": 24.5}, "train": VALID_TRAIN},
    {"train": {**VALID_TRAIN, "seed": 1.5}},
    {"train": {"alpha": True, "max_epochs": 5}},
    {"substrate": {"vcsel_on": "no"}, "train": VALID_TRAIN},
    {"train": {**VALID_TRAIN, "target_levels": ["a", "b"]}},
    {"train": VALID_TRAIN, "task": {"type": "header", "n_bits": 63}},
    {"train": VALID_TRAIN, "task": {"type": "header", "n_bits": 64}},
    {"substrate": {"seed": -1}, "train": VALID_TRAIN},
    {"train": {**VALID_TRAIN, "seed": 2 ** 32}},
    {"train": {**VALID_TRAIN, "target_levels": 1.0}},
    {"train": VALID_TRAIN, "alphas": 5},
    {"train": {**VALID_TRAIN, "target_levels": [0.0, float("inf")]}},
    {"train": {**VALID_TRAIN, "target_levels": [-1e308, 1e308]}},
    {"train": {**VALID_TRAIN, "target_levels": [0.0, 1e200]}},
], ids=["no-train-section", "non-numeric-alpha", "unknown-task-field",
        "non-numeric-repeats", "not-an-object", "non-numeric-alphas-entry", "empty-alphas",
        "non-numeric-ridge-entry", "negative-ridge-lambda", "string-n-samples",
        "string-digit", "fractional-repeats", "string-off-brightness",
        "tampered-derived-seeds", "fractional-max-epochs", "fractional-patience",
        "fractional-grid-side", "fractional-train-seed", "boolean-alpha",
        "string-vcsel-on", "string-target-levels", "header-63-bits", "header-64-bits",
        "negative-substrate-seed", "train-seed-2-pow-32", "scalar-target-levels",
        "scalar-alphas", "infinite-target-level", "target-levels-squares-overflow",
        "target-level-square-overflows"])
def test_bad_config_exits_2(doc, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["header", "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(doc)


_CHECKED = ExperimentConfig.from_json({"train": VALID_TRAIN})


@pytest.mark.parametrize("build", [
    lambda: SubstrateConfig(grid_side=1),
    lambda: SubstrateConfig(grid_side=24.5),
    lambda: TrainConfig(alpha=1.0, max_epochs=0),
    lambda: HeaderTask(n_bits=1),
    lambda: dataclasses.replace(_CHECKED, repeats=0),
    lambda: dataclasses.replace(_CHECKED.train, patience=1.5),
    lambda: TrainConfig(alpha=1.0, max_epochs=2, target_levels=1.0),
    lambda: ExperimentConfig(substrate={}, train={}, task={}),
    lambda: dataclasses.replace(_CHECKED, task=None),
    lambda: dataclasses.replace(_CHECKED, train=dataclasses.asdict(_CHECKED.train)),
    lambda: HeaderTask(type="mnist"),
    lambda: MnistTask(type="header"),
], ids=["grid-side-1", "fractional-grid-side", "zero-max-epochs", "one-bit-header",
        "replace-zero-repeats", "replace-fractional-patience", "scalar-target-levels",
        "dict-sections", "no-task", "dict-train", "header-task-typed-mnist",
        "mnist-task-typed-header"])
def test_config_checked_on_construction(build):
    with pytest.raises(ConfigError):
        build()


def test_scalar_for_tuple_field_names_its_type():
    # a tuple field is checked to be a tuple before its length or items
    with pytest.raises(ConfigError, match=r"target_levels must be of type tuple\[float, float\]"):
        TrainConfig(alpha=1.0, max_epochs=2, target_levels=1.0)
    with pytest.raises(ConfigError, match=r"alphas must be of type tuple\[float, \.\.\.\]"):
        ExperimentConfig.from_json({"train": VALID_TRAIN, "alphas": 5})


def test_seed_outside_uint32_exits_2(capsys):
    # a seed of -1 or 2**32 would otherwise alias 2**32 - 1 or 0
    assert main(["header", "--seed", "-1"]) == 2
    assert "seed must be in [0, 2**32)" in capsys.readouterr().err


def test_idx_flags_override_task_paths():
    args = build_parser().parse_args(["compare", "--mnist-images", "a", "--mnist-labels", "b",
                                      "--mnist-test-images", "c", "--mnist-test-labels", "d"])
    task = _load_config(args).task
    assert (task.images, task.labels, task.test_images, task.test_labels) == ("a", "b", "c", "d")


def test_digit_flags_on_header_task_exit_2(capsys):
    # the flags are written into the config document, where a header task
    # has no IDX fields
    assert main(["header", "--mnist-images", "a", "--mnist-labels", "b"]) == 2
    assert "unknown task fields: ['images', 'labels']" in capsys.readouterr().err


def test_flags_load_as_the_document_holding_them():
    args = build_parser().parse_args(["alpha-scan", "--seed", "7", "--repeats", "2",
                                      "--out", "d", "--alphas", "0,5"])
    doc = {**_default_doc("alpha-scan"), "repeats": 2, "output_dir": "d", "alphas": [0, 5]}
    doc["substrate"] = {"seed": 7}
    doc["train"] = {**doc["train"], "seed": 7}
    cfg = _load_config(args)
    assert cfg == ExperimentConfig.from_json(doc)
    assert cfg.substrate.seed == cfg.train.seed == 7
    assert cfg.to_json_dict()["derived_seeds"] == {
        f"repeat{r}": {"substrate": derive_seed(7, "substrate", r)} for r in range(2)}


def test_resolved_config_loads_with_new_seed(tmp_path):
    # the file's derived_seeds record is checked against its own seeds, then
    # derived again from the flag's
    doc = _default_doc("header")
    resolved = tmp_path / "config.resolved.json"
    resolved.write_text(json.dumps(ExperimentConfig.from_json(doc).to_json_dict(),
                                   sort_keys=True, indent=2))
    args = build_parser().parse_args(["header", "--config", str(resolved), "--seed", "7"])
    assert _load_config(args) == ExperimentConfig.from_json(
        {**doc, "substrate": {"seed": 7}, "train": {**doc["train"], "seed": 7}})


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    # json.loads raises RecursionError on a document nested this deep
    config = tmp_path / "deep.json"
    config.write_text('{"alphas": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["header", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("config error: invalid config")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(config.read_text())


def test_unreadable_config_exits_2(tmp_path):
    assert main(["header", "--config", str(tmp_path / "missing.json")]) == 2


def test_non_utf8_config_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_bytes(b"\xff\xfe{}")
    assert main(["header", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config file")
    with pytest.raises(ConfigError):
        _load_config(build_parser().parse_args(["header", "--config", str(config)]))


def test_non_numeric_alphas_exit_2():
    assert main(["alpha-scan", "--alphas", "0,x"]) == 2


@pytest.mark.parametrize("alphas", ["", "  "], ids=["empty", "blank"])
def test_empty_alphas_exit_2(alphas, capsys):
    # an empty list must not fall back to the config's alphas
    assert main(["alpha-scan", "--alphas", alphas]) == 2
    assert capsys.readouterr().err.startswith("error: --alphas is empty")
    with pytest.raises(UsageError):
        _load_config(build_parser().parse_args(["alpha-scan", "--alphas", alphas]))


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
    _, doc, flags = _case(command, idx_files)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main([command, "--config", str(config), "--out", str(out), *flags]) == 2
    assert "output directory" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["header", "stability"])
def test_unwritable_result_file_exits_2(command, idx_files, tmp_path, capsys):
    # a directory where the run's result file goes fails after training,
    # with the file named and no traceback
    _, doc, flags = _case(command, idx_files)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    name = "results.csv" if command == "header" else "stability.csv"
    (out / name).mkdir(parents=True)
    assert main([command, "--config", str(config), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cannot write result file" in err and name in err
    assert (out / name).is_dir()
    # the config was recorded before the run began, so the files it left are traceable
    assert json.loads((out / "config.resolved.json").read_text())["output_dir"] == str(out)


def test_stability_with_repeats_exits_2(idx_files, tmp_path, capsys):
    # the protocol runs one repeat; a config claiming three is refused
    _, doc, flags = _case("stability", idx_files)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["stability", "--config", str(config), "--out", str(out), "--repeats", "3",
                 *flags]) == 2
    assert "one repeat" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["alpha-scan", "stability"])
def test_null_digit_outside_compare_exits_2(command, idx_files, tmp_path, capsys):
    # a null digit means all ten, which only the comparison runs; these
    # drivers must not train one digit under a record that says null
    _, doc, _ = _case("stability", idx_files)
    doc["task"]["digit"] = None
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "digit null" in err
    assert not out.exists()


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
    _, doc, _ = _case("compare", idx_files)
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


def test_integer_alpha_kept_as_written():
    cfg = ExperimentConfig.from_json({"train": {"alpha": 10, "max_epochs": 5}})
    assert type(cfg.train.alpha) is int and cfg.train.alpha == 10


@pytest.mark.parametrize("change, missing", [
    ({"test_images": "nowhere"}, "test_labels"), ({"test_labels": "nowhere"}, "test_images"),
    ({"labels": ""}, "labels"), ({"images": ""}, "images"),
], ids=["test-images-alone", "test-labels-alone", "images-alone", "labels-alone"])
def test_half_given_idx_pair_exits_2(change, missing, idx_files, tmp_path, capsys):
    # a lone test_images would otherwise be dropped and the test batch drawn
    # from the training partition
    _, doc, flags = _case("stability", idx_files)
    doc["task"].update(change)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["stability", "--config", str(config), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"task {missing} is missing" in err
    assert not out.exists()
    with pytest.raises(ConfigError, match=f"task {missing} is missing"):
        MnistTask(**{k: v for k, v in doc["task"].items() if k != "type"})


@pytest.mark.parametrize("command", ["compare", "stability"])
def test_no_idx_files_exits_3(command, capsys):
    assert main([command]) == 3
    assert "no digit dataset given" in capsys.readouterr().err
