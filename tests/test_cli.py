"""End-to-end runs of ``python -m ternrc.cli`` at tiny sizes, with the sha256
of every output file pinned, reruns from each run's ``config.resolved.json``,
plus the CLI's exit codes on bad input.

A change that means to move the numbers re-pins ``GOLDEN`` and says why.
"""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ternrc.cli import _default_doc, _load_config, build_parser, main
from ternrc.errors import ConfigError, UsageError
from ternrc.harness import RETIRED, ExperimentConfig, derive_seed
from ternrc.optimizer import TrainConfig
from ternrc.substrate import (DIFFUSION_SIGMA_FLOOR, NOISE_SIGMA_BOUND, SATURATION_BOUND,
                              SubstrateConfig)
from ternrc.tasks import HeaderTask, MnistTask, write_idx_images, write_idx_labels

ROOT = Path(__file__).resolve().parents[1]

#: one BLAS thread, as the benchmark runs, so the reductions repeat bit for bit
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

#: files whose bytes differ between runs (the resolved config embeds output_dir)
UNDIGESTED = {"config.resolved.json"}

HEADER_TASK = {"type": "header", "n_bits": 4, "target_value": 5, "n_samples": 40,
               "image_side": 32}

#: the wide header document: at seed 19 its 1200 frames hold 454 distinct
#: ones, more than one frame chunk, and each 600-row batch repeats frames
WIDE = {"substrate": {"input_side": 32, "seed": 19},
        "train": {"alpha": 10.0, "max_epochs": 20, "mode": "ternary", "seed": 19},
        "task": {"type": "header", "n_bits": 10, "target_value": 5, "n_samples": 600,
                 "image_side": 32}}


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
                                    "seed": 11},
                          "task": HEADER_TASK}, []
    if case == "header-boolean-zscore":
        # the one case with a boolean mask, patience and repeats
        return "header", {"substrate": {"input_side": 32, "seed": 12},
                          "train": {"alpha": 5.0, "max_epochs": 20, "mode": "boolean",
                                    "patience": 8, "seed": 12},
                          "task": HEADER_TASK, "repeats": 2}, []
    if case == "alpha-scan-zscore":
        # integer and float alphas: the seed tags spell each as written
        return "alpha-scan", {"substrate": {"input_side": 32, "seed": 13},
                              "train": {"alpha": 10.0, "max_epochs": 15, "mode": "ternary",
                                        "seed": 13},
                              "task": HEADER_TASK, "alphas": [0, 5.0, 20]}, []
    if case in ("header-64", "alpha-scan-64"):
        # the benchmark's 64 px aperture, whose transmission spans several row blocks
        return case[:-3], {"substrate": {"input_side": 64, "grid_side": 24, "seed": 18},
                           "train": {"alpha": 10.0, "max_epochs": 20, "mode": "ternary",
                                     "seed": 18},
                           "task": {**HEADER_TASK, "image_side": 64}}, []
    if case == "compare":
        return "compare", {"substrate": {"input_side": 28, "seed": 14},
                           "train": {"alpha": 10.0, "max_epochs": 20, "mode": "ternary",
                                     "seed": 14},
                           "task": _mnist_task(idx, 3, test_partition=True)}, []
    if case == "compare-header":
        # arm tags without a digit, one substrate per repeat
        return "compare", {"substrate": {"input_side": 32, "seed": 16},
                           "train": {"alpha": 10.0, "max_epochs": 20, "mode": "ternary",
                                     "seed": 16},
                           "task": HEADER_TASK, "repeats": 2}, []
    if case == "compare-wide":
        return "compare", WIDE, []
    if case == "stability-wide":
        return "stability", WIDE, ["--checks", "70"]
    if case == "compare-all-digits":
        # all ten digits, each test batch a second draw of the training
        # partition; a short ridge grid, since the sweep dominates ten digits
        return "compare", {"substrate": {"input_side": 28, "seed": 17},
                           "train": {"alpha": 10.0, "max_epochs": 20, "mode": "ternary",
                                     "seed": 17},
                           "task": _mnist_task(idx, None, test_partition=False),
                           "ridge_grid": [0.001, 1.0]}, []
    return "stability", {"substrate": {"input_side": 28, "seed": 15},
                         "train": {"alpha": 10.0, "max_epochs": 10, "mode": "ternary",
                                   "seed": 15},
                         "task": _mnist_task(idx, 0, test_partition=False)}, \
        ["--checks", "30", "--drift-steps", "2"]


#: sha256 of every digested output file, pinned before the harness refactor;
#: the numeric files were re-pinned when the forward pass became one GEMM and
#: the readout incremental (every mask file kept its digest); the two
#: comparison cases beyond ``compare`` were pinned later, on unchanged outputs.
#: The history and results files of the zscore cases were re-pinned when the
#: z-scored error came to be taken from the raw trace in one pass; no mask
#: file and no off or first_epoch case moved. The three ``-zscore`` cases,
#: twins of cases that ran the since-removed off and first_epoch errors, were
#: pinned on the code that still had them; the cases they twin went with it.
#: The three comparison results files were re-pinned when the ridge row's
#: error became the z-scored error of the trained arms; only its two error
#: cells moved. The two ``-64`` cases were pinned on the code that held the
#: whole transmission in memory; theirs is the one aperture drawn and applied
#: in more than one row block. The two ``-wide`` cases, the one document with
#: more distinct frames than one frame chunk, were pinned on the code whose
#: forward pass took 512 distinct frames at a time. Three ``compare-wide``
#: files, the two lasing arms' histories and the results, were re-pinned when
#: the comparison's laser came to map copies of the gathered laser-off
#: matrices, 600 rows with repeated frames where it had mapped 454 distinct
#: ones, so the coupling GEMM groups its columns otherwise; no mask file moved.
#: Every history, results, curves, summary and stability file was re-pinned
#: when the transmission came to be drawn on a 2**-30 grid, so that each
#: field is an exact sum; no mask file moved
GOLDEN = {
    "alpha-scan-64": {
        "alpha_summary.csv":
            "9ffb7792cdee1c0ca5e3f8dc03efe90d22f221284c8e75f9de651b9e28338f8d",
        "curves.csv":
            "02e18dea163c78ae2ad9a1a283265c9d2370a1f656b659d98f6d391a029f114b",
    },
    "header": {
        "history_header_s0.csv":
            "a39be0943c9a451a9f116bc63bdf0b28559bad26c7b8e9ac09972d0cbf114cfd",
        "mask_header_s0.json":
            "6558b11912e80f2ffe0199d18a4062dad65d643e61ee621af3ddf1bff5ce4ab6",
        "results.csv":
            "1aae30d84da070a681ab29549b4f1eac4193c400a3667aaa006a3999d136d4f4",
    },
    "header-64": {
        "history_header_s0.csv":
            "6578c5b1cef90e23b308788dfba4b1a0bdb002adb7b8b1ee15f39266cc440107",
        "mask_header_s0.json":
            "dcd9019cc4b6a7d71bd6919da69b4f0d6779d75b06e35c31b75da4166db28026",
        "results.csv":
            "53f1883db88e272bdd5ec70bcd90c80fcc71d388a271c11b74293cf08ae8d9cd",
    },
    "header-boolean-zscore": {
        "history_header_s0.csv":
            "d7efdde1fb50477b9284644c60c14772efa917ca66288672f465059996895336",
        "history_header_s1.csv":
            "aeb2c2e9f8068a40142ef78b11eff4ec54df55fa08521d506b835378397e3ff3",
        "mask_header_s0.json":
            "f93554273e9cbca8d006d95fc61ad699aac4322910b13ac92979019c282342e5",
        "mask_header_s1.json":
            "adfc48eaff379bdc01406f5042034b5e969d04b1126822fd6521ae028fd58185",
        "results.csv":
            "497138927bf0c9382b8ecd358a57c101bd349f470d4eaf739ed9fdfffe3a4472",
    },
    "alpha-scan-zscore": {
        "alpha_summary.csv":
            "853dddaaecc678497bb9ec2f9b9990c6479a4aeb3d591c1087e849811dea824e",
        "curves.csv":
            "174b725f8040679f92508e4ff3ccf0959b4a51f893cd748807d25109104e6ccb",
    },
    "compare": {
        "history_boolean_on_digit3_s0.csv":
            "e721d07ab190c2ada4cd2f91b749d9825e27b28338fdb1f33caca2a9917c70d8",
        "history_ternary_off_digit3_s0.csv":
            "543add16d6459e3ee6dcd6cbaafcb4893c967950ff6c677ab1c7b1525684fa2d",
        "history_ternary_on_digit3_s0.csv":
            "f8741408b1246ff3f9ec3110ef906c87847c72d57a3d2d42386d935c2da58196",
        "mask_boolean_on_digit3_s0.json":
            "e35844025fabcdc188e44467a8cd1bd8656c101fce1eabf65e2230b1f51d1fbc",
        "mask_ternary_off_digit3_s0.json":
            "d2555089657d8e84fa4f0d9f887388f4c8391b00b2c4072bb941d69c523e9afb",
        "mask_ternary_on_digit3_s0.json":
            "319f98d5253322cc674d7d45609ae45982873d26fc709d6a8404875d31403340",
        "results.csv":
            "a403c68454145d3b51b34385fea73bca95231a3d79cf5c5abe39e0b85becf517",
    },
    "compare-all-digits": {
        "history_boolean_on_digit0_s0.csv":
            "9a14b3974ed35dd5b32ed1cd8fa4e20fef66ea76583b2dadc8eb8068efc47fab",
        "history_boolean_on_digit1_s0.csv":
            "63eb39fc89aa4b40ac8d854b47b02f6d5b14ee8465d3bfddfcb45cdb8b139b58",
        "history_boolean_on_digit2_s0.csv":
            "004063e728a2b44fc8c3456623dbf329e85fddb1f2e41e09d47dbc9af8ecfe54",
        "history_boolean_on_digit3_s0.csv":
            "51056d6aa4c3cccff8fa9af6bffb59cf7e4b9b34e653c2360173ca49beb62a96",
        "history_boolean_on_digit4_s0.csv":
            "de9306c934d0ae762b2a25b90c8f43fa8152e7c4499374812dc8c100185fd1d4",
        "history_boolean_on_digit5_s0.csv":
            "dc709993c5630c720aa46694b64e511d61ebb925fa649215530aa4fab4e498d2",
        "history_boolean_on_digit6_s0.csv":
            "5daa05f4ccf4194e051943c8a28d9094a989f6445398063838a0320b7854b5ff",
        "history_boolean_on_digit7_s0.csv":
            "b44c43edc1543740ab64ef0bde852cdfc0f13f36380565102fb5fe54ad3601e6",
        "history_boolean_on_digit8_s0.csv":
            "7078722e93dda1f259a98df89806b3ba381dcbc276c6f7e84d0b81898857befd",
        "history_boolean_on_digit9_s0.csv":
            "b3931ffdcaddf2eed7168b778c3ad64390ad3715d4c4d143834c1832b22b607a",
        "history_ternary_off_digit0_s0.csv":
            "3c85fb0bcdafe5ea4c3e91a782dfeac9030e1bda7e0c47254ff8458e082aeb8b",
        "history_ternary_off_digit1_s0.csv":
            "a74ffcbcf31cb1cd4e8bef37e52de9adf17be940b17df549bec1a9b5d3c3d731",
        "history_ternary_off_digit2_s0.csv":
            "03bded42bd8eb67e2dad2e8a6bd4c911b91351a5fa6e857127e15282a7a2ac5f",
        "history_ternary_off_digit3_s0.csv":
            "4f8591b5237faf4468e3f536427d14c9bf54b6a6b0d472b7638b3ac2a14ae4bc",
        "history_ternary_off_digit4_s0.csv":
            "422393116ada625dd201cbfaf248dd80dcdeeee7faefceb331b5d06488fa6891",
        "history_ternary_off_digit5_s0.csv":
            "1cf5f223fbd3eadad9d796f7febd51dc8e6bec2d7f9637df3c857061089bcee0",
        "history_ternary_off_digit6_s0.csv":
            "78a82d54497bc0f4cc5a80057df3e35753c35fb7ec353dc6f69aa4e1146aaf93",
        "history_ternary_off_digit7_s0.csv":
            "66520be7cc45fbd4d4a89e0908781c3a932c3e093cd1979f31f9f706fe931e1b",
        "history_ternary_off_digit8_s0.csv":
            "df0237b36230071de937c86ea91f32c42b301b339d0961e636096d0b6921186a",
        "history_ternary_off_digit9_s0.csv":
            "88505ce968a621e08a449019bb7cb094e7d523e4383cabfc1e2700da6b2a7d6e",
        "history_ternary_on_digit0_s0.csv":
            "3028942e7899eead955186ea8b155617bfb62beaa0e958a4bcf8ce4b57342a36",
        "history_ternary_on_digit1_s0.csv":
            "fb165b9ce474380533b803d3b2e7a3767d98a9e3bfdfd9b4a39539af225c0f06",
        "history_ternary_on_digit2_s0.csv":
            "eae0571f3113d381236a51678da666e21a705fdb0e162a4d9e1727c9db05efda",
        "history_ternary_on_digit3_s0.csv":
            "a7628b46fd179b28b5a609d9d2628ccdbd53edc3e6b91b134f176d7bfe038bdb",
        "history_ternary_on_digit4_s0.csv":
            "9e9c6ed1aa017729341eb6cebc52e5605b6ea72c152fb37c0480a22f1d7ebf79",
        "history_ternary_on_digit5_s0.csv":
            "428a792e862d1bdd87d922cef271bf11058007abff9e0e7b800628f9521d7a17",
        "history_ternary_on_digit6_s0.csv":
            "8586066ca5e959ecc8fc6f885af8411d83086d086e497045d8196848f998511c",
        "history_ternary_on_digit7_s0.csv":
            "bd06be68447211e5d4f7038e83d80f2933630662dba84ff96510e3d4dcd18e59",
        "history_ternary_on_digit8_s0.csv":
            "e8bd5222cfdc29ff0af1a1ee73125e175e9c3d92c148d0b9998a2b8d742a03a6",
        "history_ternary_on_digit9_s0.csv":
            "4eec40fa0adbe09623fe9bd67a776af455d253fa88ad296676ea470047e12ed5",
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
            "f832bd931d0aa787c78c84ad2939c38c567800a703cc14c8b495059eec017fb5",
    },
    "compare-header": {
        "history_boolean_on_header_s0.csv":
            "29ac0ac01a79117a955c9b3d42a1007714b75108e298c937cb1319d4dbcc9a2d",
        "history_boolean_on_header_s1.csv":
            "adb145a6c7bfa446a741658807add3c7ef77aca92a6ce15ae643d984f60c5d51",
        "history_ternary_off_header_s0.csv":
            "1bb1963a910d407fd9a7bc833f9c0624e60f645564e4d71a805ccb64a105c60f",
        "history_ternary_off_header_s1.csv":
            "ecf6cd2aebcdde8af3469f19932454274030d9f47407f5453826de87aed44109",
        "history_ternary_on_header_s0.csv":
            "17cd4b0bf33626bd06dcc6b108c5ea26dfb6d5ae278a38eb872a6a4ca34e4c49",
        "history_ternary_on_header_s1.csv":
            "2de32051616782474324f7a0ce8fee4f386c8aeb70e1734334b2cf7320038ef1",
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
            "b8c837f6e02db62879a47898c88812a18d4cec755569bd85b029a33d2dc6bc66",
    },
    "compare-wide": {
        "history_boolean_on_header_s0.csv":
            "77555f39a6b2c5e8d9149775d302a8d7c5c4a93702e436dfa068e21904c53801",
        "history_ternary_off_header_s0.csv":
            "8f35527ce2418c5f605ab41d87f2f758e030206dfda405f1e9d2f40c1ee89694",
        "history_ternary_on_header_s0.csv":
            "1620f82f5acf0e9b9c48affc4813cb205b6ac16c1c25e2b353121eb10b88ac0a",
        "mask_boolean_on_header_s0.json":
            "c793657f984b04682e114a0fd55588672f6f0f670875fbb855ffca7871288fca",
        "mask_ternary_off_header_s0.json":
            "4957be50215a166ac8ce05ea3408bb111dd60c5e18fc81fb14dfcc4ce84012eb",
        "mask_ternary_on_header_s0.json":
            "51c7f82e88c97199b25f52c03c3d5b72b35b5d327a5789af670392c1a361da4f",
        "results.csv":
            "150b2bdcdfa4bfb6ed7bf7999e37215195857b1c7c38f0b2ebf525027b526a1e",
    },
    "stability-wide": {
        "stability.csv":
            "9ef0ceca0ae91dff22179074b5f175c609ae54a9c4ffce3bd4dfae35c3022128",
    },
    "stability-zscore": {
        "stability.csv":
            "051606307ec32ff64f574a019ee6b39b421a6ba7e076806bf2a8df9ca77f195c",
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


#: the retired keys at the values that earlier resolved configs record
RETIRED_KEPT = {"substrate": {"vcsel_on": True},
                "train": {"normalize": "zscore", "target_levels": [0.0, 1.0]}}


@pytest.mark.parametrize("case", ["header", "compare-header", "stability-zscore"])
def test_rerun_from_old_resolved_config(case, idx_files, tmp_path):
    # a resolved config written while the three retired keys were fields
    # reruns byte for byte, and records the config without them
    command, out, flags = _golden_run(case, idx_files, tmp_path)
    record = json.loads((out / "config.resolved.json").read_text())
    old = {**record, **{name: {**record[name], **keys} for name, keys in RETIRED_KEPT.items()}}
    config = tmp_path / "old.json"
    config.write_text(json.dumps(old))
    again = tmp_path / "again"
    proc = _run_cli(command, "--config", str(config), "--out", str(again), *flags)
    assert proc.returncode == 0, proc.stderr
    assert _digests(again) == GOLDEN[case]
    assert json.loads((again / "config.resolved.json").read_text()) == \
        {**record, "output_dir": str(again)}


def _reference_default(command):
    """The CLI defaults written as dataclass expressions: an independent
    reference for the documents of ``_default_doc``."""
    if command in ("header", "alpha-scan"):
        return ExperimentConfig(
            substrate=SubstrateConfig(input_side=64),
            train=TrainConfig(alpha=10.0, max_epochs=800, mode="ternary"),
            task=HeaderTask(),
        )
    if command == "compare":
        return ExperimentConfig(
            substrate=SubstrateConfig(input_side=28),
            train=TrainConfig(alpha=10.0, max_epochs=2000, mode="ternary"),
            task=MnistTask(digit=None),
            repeats=3,
        )
    return ExperimentConfig(
        substrate=SubstrateConfig(input_side=28),
        train=TrainConfig(alpha=10.0, max_epochs=100, mode="ternary"),
        task=MnistTask(digit=0),
        repeats=1,
    )


@pytest.mark.parametrize("command", ["alpha-scan", "compare", "header", "stability"])
def test_default_doc_matches_reference(command):
    doc = _default_doc(command)
    cfg = ExperimentConfig.from_json(doc)
    assert cfg == _reference_default(command)
    # the retired keys may still be named at their kept values, as older
    # documents do
    old = {**doc, **{name: {**doc.get(name, {}), **keys} for name, keys in RETIRED_KEPT.items()}}
    assert ExperimentConfig.from_json(old) == cfg
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
    {"substrate": {"saturation": 1e308}, "train": VALID_TRAIN},
    {"substrate": {"saturation": 1e151}, "train": VALID_TRAIN},
    {"substrate": {"diffusion_sigma": 1e-200}, "train": VALID_TRAIN},
    {"substrate": {"diffusion_sigma": 1e-160}, "train": VALID_TRAIN},
    {"substrate": {"noise_sigma": 1e200}, "train": VALID_TRAIN},
    {"train": {**VALID_TRAIN, "target_levels": [1.0, 1.0000000000001]}},
    {"train": {**VALID_TRAIN, "normalize": "off"}},
    {"train": {**VALID_TRAIN, "normalize": "first_epoch"}},
    {"train": {**VALID_TRAIN, "normalize": "minmax"}},
    {"train": {**VALID_TRAIN, "normalize": 1}},
    {"substrate": {"vcsel_on": False}, "train": VALID_TRAIN},
    {"substrate": {"vcsel_on": 1}, "train": VALID_TRAIN},
    {"substrate": {"vcsel_on": None}, "train": VALID_TRAIN},
    {"train": {**VALID_TRAIN, "target_levels": [1.0, 0.0]}},
    {"train": {**VALID_TRAIN, "target_levels": [-1.0, 1.0]}},
    {"train": {**VALID_TRAIN, "target_levels": [False, True]}},
    {"train": {**VALID_TRAIN, "target_levels": [0.0, 1.0, 2.0]}},
    {"train": {**VALID_TRAIN, "normalize": None}},
], ids=["no-train-section", "non-numeric-alpha", "unknown-task-field",
        "non-numeric-repeats", "not-an-object", "non-numeric-alphas-entry", "empty-alphas",
        "non-numeric-ridge-entry", "negative-ridge-lambda", "string-n-samples",
        "string-digit", "fractional-repeats", "string-off-brightness",
        "tampered-derived-seeds", "fractional-max-epochs", "fractional-patience",
        "fractional-grid-side", "fractional-train-seed", "boolean-alpha",
        "string-vcsel-on", "string-target-levels", "header-63-bits", "header-64-bits",
        "negative-substrate-seed", "train-seed-2-pow-32", "scalar-target-levels",
        "scalar-alphas", "infinite-target-level", "target-levels-squares-overflow",
        "target-level-square-overflows", "saturation-overflows", "saturation-past-bound",
        "diffusion-width-squares-to-zero", "diffusion-exponent-overflows",
        "noise-squares-overflow", "flat-target-levels", "normalize-off", "normalize-first-epoch",
        "normalize-minmax", "normalize-number", "vcsel-off", "vcsel-on-number", "vcsel-on-null",
        "target-levels-reversed", "target-levels-signed", "target-levels-booleans",
        "target-levels-three", "normalize-null"])
def test_bad_config_exits_2(doc, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["header", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    for key in {k for keys in RETIRED.values() for k in keys}:
        if key in str(doc):
            # a retired key names itself, what replaced it and how to update
            # the document
            assert f"{key} " in err and "is retired" in err and "delete" in err
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(doc)


@pytest.mark.parametrize("normalize", ["zscore"])
@pytest.mark.parametrize("field, bound, past", [
    ("saturation", SATURATION_BOUND, math.inf),
    ("diffusion_sigma", DIFFUSION_SIGMA_FLOOR, 0.0),
    ("noise_sigma", NOISE_SIGMA_BOUND, math.inf)])
def test_physics_at_its_bound_runs(field, bound, past, normalize, tmp_path, capsys):
    # the next float past a bound is rejected; a tiny run at it exits 0 with
    # a finite error, and numpy's RuntimeWarnings are errors under pytest; the
    # document names its error, which only the one search error may still do
    with pytest.raises(ConfigError, match=field):
        SubstrateConfig(**{field: float(np.nextafter(bound, past))})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "substrate": {field: bound},
        "train": {"alpha": 10.0, "max_epochs": 20, "normalize": normalize},
        "task": {"type": "header", "n_samples": 40, "image_side": 32}}))
    assert main(["header", "--config", str(config)]) == 0
    assert "nmse=inf" not in capsys.readouterr().out


#: a rig whose nodes all saturate at 1 / saturation: every trace reads flat
FLAT_RIG = {"substrate": {"grid_side": 2, "saturation": 4.4797555896905133e136,
                          "diffusion_sigma": 0.0, "noise_sigma": 0.0, "drift_amplitude": 0.0,
                          "seed": 3388570575},
            "train": {"alpha": 10.0, "max_epochs": 10},
            "task": {"type": "header", "n_samples": 20, "image_side": 12}}


@pytest.mark.parametrize("command, flags", [
    ("header", []), ("alpha-scan", []), ("stability", ["--checks", "70"]), ("compare", [])],
    ids=["header", "alpha-scan", "stability", "compare"])
def test_flat_rig_exits_2_naming_the_arm(command, flags, tmp_path, capsys):
    # no error exists for a rig that reads every input alike: the first arm
    # stops the run with one line, not an inf or a numpy warning
    config = tmp_path / "config.json"
    config.write_text(json.dumps(FLAT_RIG))
    assert main([command, "--config", str(config), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("config error: arm ") and "every trace read flat" in err


#: a rig whose nodes all sit near 1 / saturation at its bound: every lit
#: frame reads about 1e-150, and only rounding residue tells two apart
TINY_RIG = {"substrate": {"grid_side": 2, "input_side": 11, "saturation": SATURATION_BOUND,
                          "diffusion_sigma": 0.0, "noise_sigma": 0.0, "drift_amplitude": 1.0,
                          "drift_timescale": 1.0, "seed": 0},
            "train": {"alpha": 10.0, "max_epochs": 10},
            "task": {"type": "header", "n_samples": 20, "image_side": 11}}


def test_stability_of_a_tiny_rig_runs(tmp_path, capsys):
    # the target header is dark, so its frames read 0 against about 1e-150:
    # the trace carries signal, and the run scales it by one power of two
    # before taking the consistency
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_RIG, "task": {**TINY_RIG["task"], "target_value": 0}}))
    assert main(["stability", "--config", str(config), "--checks", "70"]) == 0
    out, err = capsys.readouterr()
    values = [float(v) for v in re.findall(r"=([^\s:,]+)", out)]
    assert err == "" and len(values) == 4 and all(map(math.isfinite, values))


@pytest.mark.parametrize("coretype", [None, "Haswell"])
def test_stability_of_a_residue_rig_exits_2(coretype, tmp_path, monkeypatch):
    # every trace is rounding residue of one level; exact fields leave the
    # same residue under any BLAS kernel, and it reads flat at check 4
    if coretype:
        monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_RIG))
    proc = _run_cli("stability", "--config", str(config), "--checks", "70")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "config error: flat trace at stability check 4\n"


def test_input_side_past_the_aperture_bound_exits_2(tmp_path, capsys):
    # 818 px is an aperture of 2**19 pixels or more, whose fields need not be exact
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"alpha": 10.0, "max_epochs": 10},
                                  "task": {"type": "header", "image_side": 818}}))
    assert main(["header", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("config error: ") and "input_side" in err


_CHECKED = ExperimentConfig.from_json({"train": VALID_TRAIN})


@pytest.mark.parametrize("build", [
    lambda: SubstrateConfig(grid_side=1),
    lambda: SubstrateConfig(grid_side=24.5),
    lambda: TrainConfig(alpha=1.0, max_epochs=0),
    lambda: HeaderTask(n_bits=1),
    lambda: dataclasses.replace(_CHECKED, repeats=0),
    lambda: dataclasses.replace(_CHECKED.train, patience=1.5),
    lambda: ExperimentConfig(substrate={}, train={}, task={}),
    lambda: dataclasses.replace(_CHECKED, task=None),
    lambda: dataclasses.replace(_CHECKED, train=dataclasses.asdict(_CHECKED.train)),
    lambda: HeaderTask(type="mnist"),
    lambda: MnistTask(type="header"),
], ids=["grid-side-1", "fractional-grid-side", "zero-max-epochs", "one-bit-header",
        "replace-zero-repeats", "replace-fractional-patience",
        "dict-sections", "no-task", "dict-train", "header-task-typed-mnist",
        "mnist-task-typed-header"])
def test_config_checked_on_construction(build):
    with pytest.raises(ConfigError):
        build()


def test_scalar_for_tuple_field_names_its_type():
    # a tuple field is checked to be a tuple before its items
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


@pytest.mark.parametrize("case,n_samples", [("compare-header", 2), ("compare", 4)])
def test_compare_with_fewer_samples_than_ridge_folds_exits_2(case, n_samples, idx_files,
                                                              tmp_path, capsys):
    # the ridge arm cross-validates over 5 folds of the training batch; the
    # run stops before any arm trains, not after all three
    _, doc, _ = _case(case, idx_files)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**doc, "task": {**doc["task"], "n_samples": n_samples}}))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"task n_samples {n_samples}" in err and "5 cross-validation folds" in err
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
