"""End-to-end runs of ``python -m ternrc.cli`` at tiny sizes, with the sha256
of every output file pinned, reruns from each run's ``config.resolved.json``,
plus the CLI's exit codes on bad input.

Every sum but the ridge arm's is exact, so the pins hold under any BLAS
kernel and thread count: the subprocesses run under whatever BLAS settings
the suite runs with. The ridge arm's fit rows are pinned apart, to a stated
tolerance on the cells a LAPACK solve moves.

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
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ternrc.cli import _default_doc, _load_config, build_parser, main
from ternrc.errors import ConfigError, UsageError
from ternrc.harness import RETIRED, ExperimentConfig, derive_seed
from ternrc.optimizer import TrainConfig
from ternrc.substrate import (DIFFUSION_SIGMA_FLOOR, GRID_SIDE_BOUND, MEMORY_BUDGET,
                              NOISE_SIGMA_BOUND, SATURATION_BOUND, SubstrateConfig, circle_mask)
from ternrc.tasks import HeaderTask, MnistTask, write_idx_images, write_idx_labels

ROOT = Path(__file__).resolve().parents[1]

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
#: field is an exact sum; no mask file moved. The same 59 files were re-pinned
#: when each frame's intensities and states came onto a grid of their own and
#: the coupling's weights onto a 2**-18 grid, so that every sum but the ridge
#: arm's is exact; no mask file moved, and the ridge fit rows left the results
#: digests for :data:`RIDGE_ROWS`
GOLDEN = {
    "alpha-scan-64": {
        "alpha_summary.csv":
            "03ef8f388a71fd6d12598564c1d37b6f816795cae214a2ef9e5a0d5a7cdd5d60",
        "curves.csv":
            "25ae41e4c1ed22f18dc88280999334a4d1ede551d43eb9f4b6a0a8b06a1f9477",
    },
    "header": {
        "history_header_s0.csv":
            "60cede14b450fbb7a8509a43ac89bed93c66a1644ee680531146877fbd0374f0",
        "mask_header_s0.json":
            "6558b11912e80f2ffe0199d18a4062dad65d643e61ee621af3ddf1bff5ce4ab6",
        "results.csv":
            "41d54934cbfd44e8f664c50df114b674044f99deaa10db9fbc9ff58cfcd63548",
    },
    "header-64": {
        "history_header_s0.csv":
            "64ad30f491147277b03de5c8fabdf8876f2c8d8e7d85e3cbabc4aa12fded5f01",
        "mask_header_s0.json":
            "dcd9019cc4b6a7d71bd6919da69b4f0d6779d75b06e35c31b75da4166db28026",
        "results.csv":
            "ae991faebef2751ba52af8946c44e43cfe00e6e0545aec1db9199d3b93dac205",
    },
    "header-boolean-zscore": {
        "history_header_s0.csv":
            "b49161f6ebe7e631e46fb0a156781b0a803f465ead8ef28e771cd4691f90d34f",
        "history_header_s1.csv":
            "d2d7ad6a1355414f3233c87e5023856d4f86797e5d9901934eb8c282119949af",
        "mask_header_s0.json":
            "f93554273e9cbca8d006d95fc61ad699aac4322910b13ac92979019c282342e5",
        "mask_header_s1.json":
            "adfc48eaff379bdc01406f5042034b5e969d04b1126822fd6521ae028fd58185",
        "results.csv":
            "077b42ffe9b3cb75e10cbe163f19bf782b045887f5b3a2cfa087fd41f6040d5b",
    },
    "alpha-scan-zscore": {
        "alpha_summary.csv":
            "632df4e600883761bd0ac2466bd53e985821c541b056848c2405b20637b25e41",
        "curves.csv":
            "80b6e3f66fdb3b4db21257e8f9b8c803fa9eba1d6b36baa83a5b631b40b2fb56",
    },
    "compare": {
        "history_boolean_on_digit3_s0.csv":
            "8357b71a095ee954b6b0820915796645b60b5419b1903046b0ddf26c97c10977",
        "history_ternary_off_digit3_s0.csv":
            "04b37a124521ca2aba659cf56a0196195a842f0a3ea538682d9e850d3f5d3103",
        "history_ternary_on_digit3_s0.csv":
            "2b222c7f404d20fa8bce8804061dd6c36bb8f149aa3658f10732b98c06286f40",
        "mask_boolean_on_digit3_s0.json":
            "e35844025fabcdc188e44467a8cd1bd8656c101fce1eabf65e2230b1f51d1fbc",
        "mask_ternary_off_digit3_s0.json":
            "d2555089657d8e84fa4f0d9f887388f4c8391b00b2c4072bb941d69c523e9afb",
        "mask_ternary_on_digit3_s0.json":
            "319f98d5253322cc674d7d45609ae45982873d26fc709d6a8404875d31403340",
        "results.csv":
            "0415fad65839f7da1cdd3dc18ac1e7ec49c4094fff7898d0ee6932f2b2c046be",
    },
    "compare-all-digits": {
        "history_boolean_on_digit0_s0.csv":
            "12dc44a41e2a0fed929a1badc3070215972560e5dbfcffc6cbfdc2a9a0ee24ec",
        "history_boolean_on_digit1_s0.csv":
            "41f94d9eba041dc871aa39fafcf5d3c3fb2bbd556850af5414942e42a2b82938",
        "history_boolean_on_digit2_s0.csv":
            "d39d14f1bc7d41e226f80f6f5badc8671574025b61cfc5b5a2df795b32b91600",
        "history_boolean_on_digit3_s0.csv":
            "527c2577d26d33060a795f8f208b42c69761fd0a1505e15e92796c8bf60328bc",
        "history_boolean_on_digit4_s0.csv":
            "cf25a5d835ca085badaca770cb1621dd4ac0aaf87ebc0d766b658f219ffaf967",
        "history_boolean_on_digit5_s0.csv":
            "164b666c2ccb68529ee77857e918782a1d7e106c178697f1c0f5482a353f5891",
        "history_boolean_on_digit6_s0.csv":
            "87e6c45522a4417b585bbce4744427dc12d5680feee8cbe810e3426148b7f853",
        "history_boolean_on_digit7_s0.csv":
            "a3d766fe903fa61a21546e629cef0bfb178204f3161dd70ef42ce5cad6d967f6",
        "history_boolean_on_digit8_s0.csv":
            "4d5d164aaebb77e55452868c69c6930ddba5d91e0d71958339144fbbb58d1512",
        "history_boolean_on_digit9_s0.csv":
            "4977efd7979afbbc2a1b9538abeb3c1c419144711c0e077680a35d5b9f923105",
        "history_ternary_off_digit0_s0.csv":
            "7ba588fd36ce8778074745cda138aec838ebed293f03c623f836e292b28dab78",
        "history_ternary_off_digit1_s0.csv":
            "42e5908752f0fae518814ab3deaa8537175f53350cb60eac0af53c776dbe2c87",
        "history_ternary_off_digit2_s0.csv":
            "d36fbab6fe51c4bd8013c6f697d41b1c18a83f742c6668a7f1e1f90f495251e6",
        "history_ternary_off_digit3_s0.csv":
            "fc3c9b9a85242a1fa9937159e0ea055e6d62b8bf1bd1fd671302235b728434b7",
        "history_ternary_off_digit4_s0.csv":
            "eb6d36ba0ecec729c3250f03eb9e0848791e95dbc603c1224f5fb5ba72f27ec3",
        "history_ternary_off_digit5_s0.csv":
            "ef9b2fe095122cba36258c69fba212a59633d535dec65ecf045eb21899ac2d99",
        "history_ternary_off_digit6_s0.csv":
            "d93278758852903c48fb24274fa76aef105f2ffbcbd8367b1d5aec1f4270e8ac",
        "history_ternary_off_digit7_s0.csv":
            "f7ec8a66f3eb261fef5ce925db40b30f16319295694f052597677e1ef6a8b94e",
        "history_ternary_off_digit8_s0.csv":
            "ba29db0165c7525a0916de434b4c76091be8465f7841a884e25bbd46ea245c0d",
        "history_ternary_off_digit9_s0.csv":
            "370f0c3e4fee6743c0a3adf3dd90150421252da831a6551285de90661adb1ffb",
        "history_ternary_on_digit0_s0.csv":
            "e068d71470905bc2e1845bc4aba7ca73a09448c8a0fbb94804f3befe1b9cbc19",
        "history_ternary_on_digit1_s0.csv":
            "c6a86f5676dea78018077bb88e7f31236891f1cb1eaaa051f08d6b0461265538",
        "history_ternary_on_digit2_s0.csv":
            "62ef470b2fa2657e3fa49de847223ff8054543f1007bee6ed98934ec4766b8e5",
        "history_ternary_on_digit3_s0.csv":
            "e879cd294dc4b8f06b8b7654098a63bc11ce506d5aeba26052059b3a34c34bea",
        "history_ternary_on_digit4_s0.csv":
            "f9c15bdbdaa0b6d8648b37f7bf395654907949cd75711c5452aeef9df7eddc98",
        "history_ternary_on_digit5_s0.csv":
            "1d52c29bcba2740bf5c258e786a459157270c4f4c20f86ce6147e926333513f4",
        "history_ternary_on_digit6_s0.csv":
            "a046e8b56516897f84eaa1b7f102bad4e3b711a091aebfc62b78509eea569e0a",
        "history_ternary_on_digit7_s0.csv":
            "124ad0b89707c69f00b61276218889ca376f7276141b2307181272b188fb1a4b",
        "history_ternary_on_digit8_s0.csv":
            "873e7ff8e23ef1b21890ee25d64df33b121807b4469ffb25348ca07596782a21",
        "history_ternary_on_digit9_s0.csv":
            "0e05f0a119f309f9c06c37ba7fef3e8b7f4504652feb94061fc0b3c59393f18e",
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
            "5a75dbf04a15e4ef922188449b7e33479dcb68bc1074895c2aa9470f3bcb2761",
    },
    "compare-header": {
        "history_boolean_on_header_s0.csv":
            "acdbc92d4feab94c8c6e81cf3e44b2ef97f333860c439873af73cbc6356fdf41",
        "history_boolean_on_header_s1.csv":
            "3a33745f75698a4f08121dc36c5829027d2392ace42445419a84ae46890a3cfa",
        "history_ternary_off_header_s0.csv":
            "5b8dd07353593affbaca47005d1b77ed59901bb9ca6991f11061a81b5b148085",
        "history_ternary_off_header_s1.csv":
            "72378b48ce66afda9a94053d02be9047747e4a32babfec3ae8a345800e8b2401",
        "history_ternary_on_header_s0.csv":
            "1a3009777c91db60ce2f9eca63da28b5af1bd65b337abee8028e496b7cbc3dab",
        "history_ternary_on_header_s1.csv":
            "7018da8afcbd2c55c6444d3d340e87e5e1a83255db6ab36e3a594d0d958132d4",
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
            "4265a8e79fcade8c23b6cf0ff5325c2140dec7b100595cf7e4873ec51e5b6725",
    },
    "compare-wide": {
        "history_boolean_on_header_s0.csv":
            "3dbfe522f3fbf6707053e4c9c58b31982e531f2e62b9ec5d04574a5ae0de8e44",
        "history_ternary_off_header_s0.csv":
            "b78bdbc4560c0381f799bd2853d50da27f5d0f58cc10e868fd435e2b818b3611",
        "history_ternary_on_header_s0.csv":
            "947b6720141bac1cf2f51f4523213f61f7012b35a7320b0df4a69ed41ec56f3a",
        "mask_boolean_on_header_s0.json":
            "c793657f984b04682e114a0fd55588672f6f0f670875fbb855ffca7871288fca",
        "mask_ternary_off_header_s0.json":
            "4957be50215a166ac8ce05ea3408bb111dd60c5e18fc81fb14dfcc4ce84012eb",
        "mask_ternary_on_header_s0.json":
            "51c7f82e88c97199b25f52c03c3d5b72b35b5d327a5789af670392c1a361da4f",
        "results.csv":
            "dfd85b2369a1ffbf5080940e16b30de531332c2d3a0fa2559ba0f2a5149c2326",
    },
    "stability-wide": {
        "stability.csv":
            "393cbcdc4b1e6e355fde9b40ddd409c5b460eeffcaa8bd9c3c11fcd47bb4510c",
    },
    "stability-zscore": {
        "stability.csv":
            "9df32b3cd67fc47a3175b938cadce4fceeae3a4107bd22eba810db602c0c0f1c",
    },
}

#: each ridge fit row of the results files, as written on OpenBLAS's SkylakeX
#: kernel at one thread. The ridge arm's solve is LAPACK's, whose sums are
#: not exact, and the fit amplifies a change in the last bits
RIDGE_ROWS = {
    "compare": (
        "digit3,ridge,0,0.0,0.5092845935590814,1.0,0.65,0.35,0.5000000000000001,0,0,1e-06",
    ),
    "compare-all-digits": (
        "digit0,ridge,0,0.0,0.5331573319013031,1.0,0.675,0.325,0.4999999999999999,0,0,0.001",
        "digit1,ridge,0,0.0,0.12254426973296784,1.0,0.875,0.125,0.4999999999999999,0,0,0.001",
        "digit2,ridge,0,0.0,0.3961444919027234,1.0,0.675,0.325,0.4999999999999999,0,0,0.001",
        "digit3,ridge,0,0.0,0.4525502708950123,1.0,0.7,0.3,0.49999999999999983,0,0,0.001",
        "digit4,ridge,0,0.0,0.27854469527703307,1.0,0.85,0.15,0.5,0,0,0.001",
        "digit5,ridge,0,0.0,0.26479323007338174,1.0,0.8,0.2,0.49999999999999994,0,0,0.001",
        "digit6,ridge,0,0.0,0.39199110700443585,1.0,0.725,0.275,0.5,0,0,0.001",
        "digit7,ridge,0,0.0,0.24666125866294897,1.0,0.85,0.15,0.5000000000000001,0,0,0.001",
        "digit8,ridge,0,2.220446049250313e-16,0.5689070012307426,1.0,0.7,0.3,0.5,0,0,0.001",
        "digit9,ridge,0,0.0,0.6209586703013554,1.0,0.575,0.425,0.4999999999999999,0,0,0.001",
    ),
    "compare-header": (
        "header,ridge,0,0.0,6.316806501760475e-06,1.0,1.0,0.0,0.5,0,0,1e-06",
        "header,ridge,1,0.0,0.005684413428435731,1.0,1.0,0.0,0.5000000000000002,0,0,1e-06",
    ),
    "compare-wide": (
        "header,ridge,0,0.0,0.00700457887489947,1.0,0.9966666666666667,0.0033333333333333335,"
        "0.5000000000000001,0,0,1e-06",
    ),
}

#: absolute tolerance of each ridge cell a solve moves; every other cell is
#: exact. Under the SkylakeX, Haswell, Nehalem and Zen kernels at one thread
#: and SkylakeX and Haswell at two, these cells spread by at most 2.2e-16
#: (train_nmse), 1.2e-5 (test_nmse) and 6.1e-16 (threshold)
RIDGE_TOLERANCE = {"train_nmse": 1e-14, "test_nmse": 1e-4, "threshold": 1e-14}

SCHEMAS = {"results.csv": "ternrc-results-v1", "alpha_summary.csv": "ternrc-results-v1",
           "stability.csv": "ternrc-results-v1", "curves.csv": "ternrc-curves-v1"}


def _run_cli(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
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


def _is_ridge_fit(line):
    """Whether a results line is a ridge arm's fit row (not its accuracy summary)."""
    cells = line.split(",")
    return cells[1:2] == ["ridge"] and cells[2].isdigit()


def _digests(out):
    """sha256 of each digested file, a results file's without its ridge fit rows."""
    texts = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name not in UNDIGESTED}
    if "results.csv" in texts:
        lines = texts["results.csv"].decode().splitlines(keepends=True)
        texts["results.csv"] = "".join(v for v in lines if not _is_ridge_fit(v)).encode()
    return {name: hashlib.sha256(text).hexdigest() for name, text in texts.items()}


def _assert_golden(out, case):
    """Every digest as pinned, and each ridge fit row as pinned: its accuracy,
    lambda and count cells exactly, its error and threshold cells to within
    :data:`RIDGE_TOLERANCE`."""
    assert _digests(out) == GOLDEN[case]
    lines = (out / "results.csv").read_text().splitlines() if "results.csv" in GOLDEN[case] else []
    got = [v.split(",") for v in lines if _is_ridge_fit(v)]
    want = [v.split(",") for v in RIDGE_ROWS.get(case, ())]
    assert len(got) == len(want)
    for row, pinned in zip(got, want):
        for column, cell, value in zip(lines[1].split(","), row, pinned, strict=True):
            if column in RIDGE_TOLERANCE:
                assert abs(float(cell) - float(value)) <= RIDGE_TOLERANCE[column], (column, cell)
            else:
                assert cell == value, column


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_golden_digests(case, idx_files, tmp_path):
    _, out, _ = _golden_run(case, idx_files, tmp_path)
    files = {p.name for p in out.iterdir()}
    assert files == set(GOLDEN[case]) | UNDIGESTED
    for name, schema in SCHEMAS.items():
        if name in files:
            assert (out / name).read_text().splitlines()[0] == f"# schema: {schema}"
    _assert_golden(out, case)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_rerun_from_resolved_config(case, idx_files, tmp_path):
    command, out, flags = _golden_run(case, idx_files, tmp_path)
    resolved = out / "config.resolved.json"
    again = tmp_path / "again"
    proc = _run_cli(command, "--config", str(resolved), "--out", str(again), *flags)
    assert proc.returncode == 0, proc.stderr
    _assert_golden(again, case)
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
    _assert_golden(again, case)
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
#: frame reads about 1e-150, and on the laser's grid all read alike
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
    # the lit frames differed only by rounding residue, which the laser's grid
    # leaves out: every trace reads flat in training, under any BLAS kernel
    if coretype:
        monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_RIG))
    proc = _run_cli("stability", "--config", str(config), "--checks", "70")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "config error: arm ternary of repeat 0: every trace read flat\n"


def test_input_side_past_the_aperture_bound_exits_2(tmp_path, capsys):
    # 818 px is an aperture of 2**19 pixels or more, whose fields need not be exact
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"alpha": 10.0, "max_epochs": 10},
                                  "task": {"type": "header", "image_side": 818}}))
    assert main(["header", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("config error: ") and "input_side" in err


#: per sample of the stock header document (448 nodes, 64 px): four (N, K)
#: state matrices of doubles and two (N, d, d) Boolean frame stacks
_SAMPLE_BYTES = 32 * 448 + 2 * 64 * 64
#: the first even sample count past the budget at that size
_N_PAST = (MEMORY_BUDGET // _SAMPLE_BYTES // 2 + 1) * 2


def test_size_bounds_are_the_largest_in_the_budget():
    # the coupling is built as two (K, K) arrays of doubles; both largest
    # sizes build a config (nothing here runs them)
    assert 16 * circle_mask(GRID_SIDE_BOUND).sum() ** 2 <= MEMORY_BUDGET
    assert 16 * circle_mask(GRID_SIDE_BOUND + 1).sum() ** 2 > MEMORY_BUDGET
    for doc in ({"substrate": {"grid_side": GRID_SIDE_BOUND},
                 "task": {"type": "header", "n_samples": 2}},
                {"task": {"type": "header", "n_samples": _N_PAST - 2}}):
        ExperimentConfig.from_json({"train": VALID_TRAIN, **doc})


@pytest.mark.parametrize("doc, message", [
    ({"substrate": {"grid_side": GRID_SIDE_BOUND + 1}},
     f"substrate grid_side must be in [2, {GRID_SIDE_BOUND}], got {GRID_SIDE_BOUND + 1}"),
    ({"task": {"type": "header", "n_samples": _N_PAST}},
     f"task n_samples {_N_PAST} needs {_N_PAST * _SAMPLE_BYTES:,} bytes of states and frames, "
     f"past the {MEMORY_BUDGET:,}-byte memory budget")], ids=["grid-side", "n-samples"])
def test_size_past_the_memory_budget_exits_2_before_allocating(doc, message, tmp_path, capsys):
    # the size bounds are checked when the config is built, so no work array
    # of the oversized run is made: the traced peak stays far below its arrays
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": VALID_TRAIN, **doc}))
    tracemalloc.start()
    try:
        code = main(["header", "--config", str(config)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert code == 2 and peak < 2 ** 22


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
    assert "seed must be in [0, 4294967296)" in capsys.readouterr().err


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
