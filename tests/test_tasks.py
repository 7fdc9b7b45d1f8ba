import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternrc import (ConfigError, DataError, FormatError, HeaderSpec, LabeledBatch,
                    ShapeError, UsageError, binarize, circle_mask, load_batch, load_mnist,
                    make_glyph_dataset, make_header_batch, make_onevsall_batch,
                    render_header, save_batch, write_idx_images, write_idx_labels)


class TestRenderHeader:
    def test_zero_value_all_dark(self):
        pat = render_header(HeaderSpec(n_bits=4, image_side=32, header_value=0))
        assert not pat.any()

    def test_full_value_full_disk(self):
        pat = render_header(HeaderSpec(n_bits=4, image_side=32, header_value=15))
        assert np.array_equal(pat, circle_mask(32))

    def test_two_bit_half_disk(self):
        side = 64
        pat = render_header(HeaderSpec(n_bits=2, image_side=side, header_value=1))
        # sector 0 covers angles [0, pi): the upper half of the disk
        c = side / 2.0
        y_up = (c - (np.arange(side) + 0.5))[:, None] > 0
        aperture = circle_mask(side)
        expected = aperture & np.broadcast_to(y_up, (side, side))
        assert np.array_equal(pat, expected)
        on = pat.sum()
        assert abs(on - aperture.sum() / 2) <= 0.02 * aperture.sum()

    def test_distinct_headers_differ_on_full_sector(self):
        side = 48
        n_bits = 3
        specs = {v: render_header(HeaderSpec(n_bits, side, v)) for v in range(8)}
        # sector index of every aperture pixel, matching the renderer's geometry
        c = side / 2.0
        centers = np.arange(side) + 0.5
        x = centers[None, :] - c
        y = c - centers[:, None]
        ang = np.mod(np.arctan2(y, x), 2 * np.pi)
        sector = np.minimum((ang / (2 * np.pi) * n_bits).astype(int), n_bits - 1)
        aperture = circle_mask(side)
        for v1 in range(8):
            for v2 in range(v1 + 1, 8):
                diff = specs[v1] ^ specs[v2]
                k = (v1 ^ v2).bit_length() - 1  # one differing bit
                sector_pixels = aperture & (sector == k)
                assert sector_pixels.any()
                assert np.all(diff[sector_pixels])

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            render_header(HeaderSpec(n_bits=1, image_side=32, header_value=0))
        with pytest.raises(ConfigError):
            render_header(HeaderSpec(n_bits=3, image_side=32, header_value=8))


class TestHeaderBatch:
    def test_balanced_thousand(self):
        batch = make_header_batch(4, 5, 1000, seed=0)
        assert len(batch) == 1000
        assert (batch.labels == 5).sum() == 500
        assert (batch.targets == 1.0).sum() == 500

    def test_negatives_exclude_target(self):
        batch = make_header_batch(3, 2, 200, seed=1)
        neg = batch.labels[batch.targets == 0.0]
        assert not np.any(neg == 2)

    def test_single_bit_rejected(self):
        with pytest.raises(ConfigError):
            make_header_batch(1, 0, 100, seed=0)

    def test_odd_batch_rejected(self):
        with pytest.raises(UsageError):
            make_header_batch(4, 5, 999, seed=0)

    def test_seed_determinism(self):
        a = make_header_batch(4, 5, 100, seed=3)
        b = make_header_batch(4, 5, 100, seed=3)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.pixels, b.pixels)

    def test_target_levels_applied(self):
        batch = make_header_batch(4, 5, 100, seed=0, target_levels=(-1.0, 1.0))
        assert set(np.unique(batch.targets)) == {-1.0, 1.0}


class TestBinarize:
    def test_zero_image_dark(self):
        assert not binarize(np.zeros((28, 28))).any()

    def test_full_image_lights_disk(self):
        pat = binarize(np.full((28, 28), 255))
        assert np.array_equal(pat, circle_mask(28))

    def test_mid_gray_above_half_threshold(self):
        pat = binarize(np.full((28, 28), 128), threshold_fraction=0.5)
        assert np.array_equal(pat, circle_mask(28))

    def test_idempotent_under_requantization(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(28, 28))
        once = binarize(img)
        twice = binarize(once.astype(np.uint8) * 255)
        assert np.array_equal(once, twice)

    def test_threshold_fraction_range(self):
        with pytest.raises(UsageError):
            binarize(np.zeros((28, 28)), threshold_fraction=1.0)

    @pytest.mark.parametrize("shape", [(28, 20), (20, 28), (28,)])
    def test_non_square_or_flat_rejected(self, shape):
        with pytest.raises(ShapeError, match="square"):
            binarize(np.zeros(shape))


class TestIdx:
    def test_round_trip_bytes(self, tmp_path):
        data = make_glyph_dataset(64, seed=5)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(data.images, ip)
        write_idx_labels(data.labels, lp)
        raw_i, raw_l = ip.read_bytes(), lp.read_bytes()
        back = load_mnist(ip, lp)
        assert np.array_equal(back.images, data.images)
        assert np.array_equal(back.labels, data.labels)
        ip2, lp2 = tmp_path / "img2", tmp_path / "lab2"
        write_idx_images(back.images, ip2)
        write_idx_labels(back.labels, lp2)
        assert ip2.read_bytes() == raw_i
        assert lp2.read_bytes() == raw_l

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(b"\x00\x00\x08\x05" + b"\x00" * 12)
        with pytest.raises(FormatError, match="magic"):
            load_mnist(p, p)

    def test_truncated_payload(self, tmp_path):
        ip = tmp_path / "img"
        ip.write_bytes(struct.pack(">iiii", 0x803, 10, 28, 28) + b"\x00" * 100)
        lp = tmp_path / "lab"
        write_idx_labels(np.zeros(10, dtype=np.uint8), lp)
        with pytest.raises(FormatError, match="pixel bytes"):
            load_mnist(ip, lp)

    @pytest.mark.parametrize("count, rows, cols", [
        (0, -3, 5), (-1, -1, 1), (-1, 28, 28), (2, 0, 28), (2, 28, 0)])
    def test_bad_dimensions(self, tmp_path, count, rows, cols):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        ip.write_bytes(struct.pack(">iiii", 0x803, count, rows, cols))
        write_idx_labels(np.zeros(0, dtype=np.uint8), lp)
        with pytest.raises(FormatError, match="bad dimensions"):
            load_mnist(ip, lp)

    def test_count_mismatch(self, tmp_path):
        data = make_glyph_dataset(8, seed=0)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(data.images, ip)
        write_idx_labels(data.labels[:4], lp)
        with pytest.raises(FormatError, match="count"):
            load_mnist(ip, lp)


class TestIdxFuzz:
    """A malformed IDX file pair may raise only FormatError."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        return tmp_path_factory.mktemp("idx-fuzz")

    @pytest.fixture(scope="class")
    def valid(self, root):
        data = make_glyph_dataset(3, seed=9)
        write_idx_images(data.images[:, :4, :5], root / "img")
        write_idx_labels(data.labels, root / "lab")
        return (root / "img").read_bytes(), (root / "lab").read_bytes()

    @staticmethod
    def _load(root, images, labels):
        (root / "fuzz-img").write_bytes(images)
        (root / "fuzz-lab").write_bytes(labels)
        return load_mnist(root / "fuzz-img", root / "fuzz-lab")

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_truncation(self, root, valid, data):
        images, labels = valid
        which = data.draw(st.sampled_from(["images", "labels"]))
        if which == "images":
            images = images[:data.draw(st.integers(0, len(images) - 1))]
        else:
            labels = labels[:data.draw(st.integers(0, len(labels) - 1))]
        with pytest.raises(FormatError):
            self._load(root, images, labels)

    @given(st.binary(max_size=12), st.binary(max_size=200), st.binary(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_garbage_header_and_payload(self, root, head, payload, labels):
        images = struct.pack(">i", 0x803) + head + payload
        try:
            self._load(root, images, struct.pack(">i", 0x801) + labels)
        except FormatError:
            pass

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_garbage_payload_of_declared_size(self, root, count, rows, cols, data):
        size = max(count * rows * cols, 0)
        payload = data.draw(st.binary(min_size=size, max_size=size))
        labels = data.draw(st.binary(min_size=max(count, 0), max_size=max(count, 0)))
        try:
            self._load(root, struct.pack(">iiii", 0x803, count, rows, cols) + payload,
                       struct.pack(">ii", 0x801, count) + labels)
        except FormatError:
            pass


class TestGlyphDataset:
    def test_shapes_and_label_range(self):
        data = make_glyph_dataset(200, seed=1)
        assert data.images.shape == (200, 28, 28)
        assert data.images.dtype == np.uint8
        assert set(np.unique(data.labels)) <= set(range(10))

    def test_deterministic(self):
        a = make_glyph_dataset(50, seed=2)
        b = make_glyph_dataset(50, seed=2)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_within_class_variation(self):
        data = make_glyph_dataset(400, seed=3)
        idx = np.nonzero(data.labels == 8)[0][:2]
        assert not np.array_equal(data.images[idx[0]], data.images[idx[1]])

    # sha256 of images.tobytes() and labels.tobytes(); a change to the
    # generator that moves any byte must re-pin these on purpose
    @pytest.mark.parametrize("n, kwargs, images_sha, labels_sha", [
        (600, {"seed": 3},
         "48803bd4d0f7b467d109aec55ca246011cd40867bbe4a19a7042440808e2bcca",
         "f8540017c4aecd43745304fa88038aed3e92cbb818d8936104e99c81ce3b57f8"),
        (600, {"seed": 4},
         "751ff7818cbd40ae4c8b76bbeb5d719b95c710bc8c73f195f1a041f782bba48d",
         "e7d05c23ec068858a2bf1f0a9db3965606ed6e593c00cfd942f55028c0f515b8"),
        (200, {"seed": 1, "distortion": 0.0},
         "d9f75a8d30594def6dad524ce6262c9b42ed8cd31ec1105e4482c2fa1350201f",
         "23967a56b5a2f564c43ff2fb47387130ec00a40258aa798a7925d445f4f91f18"),
        (200, {"seed": 2, "distortion": 2.0},
         "709dde48318d03c5f819234a0d22b2945e6b053cc8d6882faee88a113d322ccb",
         "ed521d05530e5fb7f1f0819e036c38ffcfbcc26d6f89fd12dcdf42910bd21f83"),
    ], ids=["600-s3", "600-s4", "200-s1-clean", "200-s2-distorted"])
    def test_pinned_bytes(self, n, kwargs, images_sha, labels_sha):
        data = make_glyph_dataset(n, **kwargs)
        assert hashlib.sha256(data.images.tobytes()).hexdigest() == images_sha
        assert hashlib.sha256(data.labels.tobytes()).hexdigest() == labels_sha


class TestOneVsAll:
    def test_balanced_batch(self, glyph_train):
        batch = make_onevsall_batch(glyph_train, 8, 1000, seed=0)
        assert (batch.labels == 8).sum() == 500
        assert (batch.targets == 1.0).sum() == 500
        pos_targets = batch.targets[batch.labels == 8]
        assert np.all(pos_targets == 1.0)

    def test_smallest_even_batch(self, glyph_train):
        batch = make_onevsall_batch(glyph_train, 3, 2, seed=1)
        assert (batch.labels == 3).sum() == 1

    def test_seed_determinism(self, glyph_train):
        a = make_onevsall_batch(glyph_train, 0, 100, seed=4)
        b = make_onevsall_batch(glyph_train, 0, 100, seed=4)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.pixels, b.pixels)

    def test_draws_are_disjoint(self, glyph_train):
        a = make_onevsall_batch(glyph_train, 1, 200, seed=5, draw=0)
        b = make_onevsall_batch(glyph_train, 1, 200, seed=5, draw=1)
        seen = {p.tobytes() for p in a.pixels}
        overlap = sum(p.tobytes() in seen for p in b.pixels)
        # distinct source images; rare collisions only from binarization
        assert overlap <= 2

    def test_insufficient_samples(self):
        tiny = make_glyph_dataset(40, seed=6)
        with pytest.raises(DataError):
            make_onevsall_batch(tiny, 0, 38, seed=0)

    def test_odd_rejected(self, glyph_train):
        with pytest.raises(UsageError):
            make_onevsall_batch(glyph_train, 0, 99, seed=0)

    def test_input_side_fitting(self, glyph_train):
        batch = make_onevsall_batch(glyph_train, 0, 10, seed=0, input_side=32)
        assert batch.pixels.shape == (10, 32, 32)


class TestBatchContainer:
    def test_round_trip(self, tmp_path):
        batch = make_header_batch(3, 1, 50, seed=7, image_side=16)
        p = tmp_path / "batch.bin"
        save_batch(batch, p)
        back = load_batch(p)
        assert len(back) == 50
        assert np.array_equal(back.targets, batch.targets)
        assert np.array_equal(back.pixels, batch.pixels)

    # sha256 of the written file; side 30 leaves 4 padding bits per pattern,
    # 20 crops and 32 pads the 28 px digits
    @pytest.mark.parametrize("kind, side, sha", [
        ("header", 30, "59a39bec17454a98dd75c221449fbb5f97726f5ba05cdcfe7bf4a6df625fec95"),
        ("digit", 20, "546d96a98ea12b35a5baec270239f3c3a16fd1692a4eb8915ae41644ecc8cb08"),
        ("digit", 32, "336042b26dcc26e2b0d6aa649b096e3a88575fa94d2223bc346eeabcd076337c"),
    ], ids=["header-30", "digit-crop-20", "digit-pad-32"])
    def test_pinned_bytes(self, tmp_path, kind, side, sha):
        if kind == "header":
            batch = make_header_batch(4, 5, 60, seed=21, image_side=side)
        else:
            batch = make_onevsall_batch(make_glyph_dataset(600, seed=3), 3, 40, seed=22,
                                        input_side=side)
        p = tmp_path / "batch.bin"
        save_batch(batch, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == sha
        back = load_batch(p)
        save_batch(back, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == p.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_batch(p)

    def test_truncation_detected(self, tmp_path):
        batch = make_header_batch(3, 1, 10, seed=8, image_side=16)
        p = tmp_path / "batch.bin"
        save_batch(batch, p)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_batch(p)

    def test_header_only_magic(self, tmp_path):
        p = tmp_path / "batch.bin"
        p.write_bytes(b"TRCB")
        with pytest.raises(FormatError):
            load_batch(p)

    def test_empty_batch_not_saved(self, tmp_path):
        empty = LabeledBatch(pixels=np.zeros((0, 16, 16), dtype=bool), targets=np.zeros(0),
                             labels=np.zeros(0, dtype=int))
        with pytest.raises(UsageError):
            save_batch(empty, tmp_path / "batch.bin")

    def test_zero_patterns_rejected(self, tmp_path):
        p = tmp_path / "batch.bin"
        p.write_bytes(b"TRCB" + struct.pack(">III", 1, 0, 16))
        with pytest.raises(FormatError):
            load_batch(p)

    def _with_targets(self, path, targets):
        frames = bytes(2 * len(targets))  # two bytes per dark 4 x 4 frame
        path.write_bytes(b"TRCB" + struct.pack(">III", 1, len(targets), 4) + frames
                         + np.asarray(targets, dtype=">f8").tobytes())

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_targets_rejected(self, tmp_path, bad):
        p = tmp_path / "batch.bin"
        self._with_targets(p, [0.0, bad])
        with pytest.raises(FormatError, match="finite"):
            load_batch(p)

    def test_largest_finite_targets_split_without_overflow(self, tmp_path):
        p = tmp_path / "batch.bin"
        big = np.finfo(float).max
        self._with_targets(p, [big, big / 4, big])
        assert load_batch(p).labels.tolist() == [1, 0, 1]


def _load_bytes(blob, root):
    p = root / "fuzz.bin"
    p.write_bytes(blob)
    return load_batch(p)


class TestBatchContainerFuzz:
    """A malformed container may raise only FormatError."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        return tmp_path_factory.mktemp("trcb")

    @pytest.fixture(scope="class")
    def valid(self, root):
        save_batch(make_header_batch(3, 1, 6, seed=9, image_side=8), root / "valid.bin")
        return (root / "valid.bin").read_bytes()

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_truncation(self, root, valid, data):
        cut = data.draw(st.integers(0, len(valid) - 1))
        with pytest.raises(FormatError):
            _load_bytes(valid[:cut], root)

    @given(st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_garbage_after_magic(self, root, garbage):
        try:
            _load_bytes(b"TRCB" + garbage, root)
        except FormatError:
            pass

    @given(st.integers(0, 3), st.integers(0, 9), st.data())
    @settings(max_examples=200, deadline=None)
    def test_garbage_payload_of_declared_size(self, root, n, d, data):
        need = n * ((d * d + 7) // 8) + n * 8
        payload = data.draw(st.binary(min_size=need, max_size=need))
        try:
            _load_bytes(b"TRCB" + struct.pack(">III", 1, n, d) + payload, root)
        except FormatError:
            pass
