import numpy as np
import pytest

from ternrc.tasks import make_glyph_dataset, write_idx_images, write_idx_labels


@pytest.fixture(scope="session")
def glyph_train():
    return make_glyph_dataset(12000, seed=1)


@pytest.fixture(scope="session")
def idx_files(tmp_path_factory):
    """Small synthetic digit partitions written as IDX files, so the harness
    runs through its normal ingestion path."""
    root = tmp_path_factory.mktemp("idx")
    paths = {}
    for key, prefix, seed in (("", "train", 3), ("test_", "t10k", 4)):
        data = make_glyph_dataset(600, seed=seed)
        paths[f"{key}images"] = root / f"{prefix}-images-idx3-ubyte"
        paths[f"{key}labels"] = root / f"{prefix}-labels-idx1-ubyte"
        write_idx_images(data.images, paths[f"{key}images"])
        write_idx_labels(data.labels, paths[f"{key}labels"])
    return {k: str(v) for k, v in paths.items()}


@pytest.fixture
def rng():
    return np.random.default_rng(0)
