import hashlib
import math
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternrc.errors import ConfigError, DataError, FormatError, UsageError
from ternrc.readout import random_mask
from ternrc.substrate import circle_mask
from ternrc.tasks import (DigitDataset, HeaderTask, load_mnist, make_glyph_dataset,
                          make_header_batch, make_onevsall_batch, render_headers,
                          write_idx_images, write_idx_labels)

import reference


def render_header(n_bits, side, value):
    """The one header of ``value``."""
    (pat,) = render_headers(n_bits, side, np.array([value]))
    return pat


class TestRenderHeader:
    def test_zero_value_all_dark(self):
        pat = render_header(4, 32, 0)
        assert not pat.any()

    def test_full_value_full_disk(self):
        pat = render_header(4, 32, 15)
        assert np.array_equal(pat, circle_mask(32))

    def test_two_bit_half_disk(self):
        side = 64
        pat = render_header(2, side, 1)
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
        specs = {v: render_header(n_bits, side, v) for v in range(8)}
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

    @pytest.mark.parametrize("n_bits", [2, 3, 4, 7, 16, 31, 62])
    @pytest.mark.parametrize("side", [4, 7, 20, 32, 64])
    def test_matches_per_value_render(self, n_bits, side):
        # every header drawn at once equals the one drawn alone from the
        # value's bits, pixel by pixel
        c = side / 2.0
        centers = np.arange(side) + 0.5
        ang = np.mod(np.arctan2(c - centers[:, None], centers[None, :] - c), 2 * np.pi)
        sector = np.minimum((ang / (2 * np.pi) * n_bits).astype(int), n_bits - 1)
        rng = np.random.default_rng(n_bits * side)
        values = np.unique(np.r_[0, 2 ** n_bits - 1, rng.integers(0, 2 ** n_bits, 14)])
        got = render_headers(n_bits, side, values)
        for v, pat in zip(values.tolist(), got):
            want = np.array([[(v >> int(k)) & 1 for k in row] for row in sector], dtype=bool)
            assert np.array_equal(pat, want & circle_mask(side))

    def test_invalid_specs(self):
        with pytest.raises(ConfigError, match="n_bits"):
            HeaderTask(n_bits=1, target_value=0, image_side=32)
        with pytest.raises(ConfigError, match="target_value"):
            HeaderTask(n_bits=3, target_value=8, image_side=32)
        with pytest.raises(ConfigError, match="image_side"):
            HeaderTask(image_side=3)


class TestHeaderBatch:
    def test_balanced_thousand(self):
        batch = make_header_batch(HeaderTask(4, 5, 1000), seed=0)
        assert len(batch.pixels) == 1000
        assert (batch.labels == 5).sum() == 500
        assert (batch.targets == 1.0).sum() == 500

    def test_negatives_exclude_target(self):
        batch = make_header_batch(HeaderTask(3, 2, 200), seed=1)
        neg = batch.labels[batch.targets == 0.0]
        assert not np.any(neg == 2)

    def test_single_bit_rejected(self):
        with pytest.raises(ConfigError):
            HeaderTask(1, 0, 100)

    def test_odd_batch_rejected(self):
        with pytest.raises(ConfigError, match="n_samples"):
            HeaderTask(n_samples=999)

    def test_seed_determinism(self):
        a = make_header_batch(HeaderTask(4, 5, 100), seed=3)
        b = make_header_batch(HeaderTask(4, 5, 100), seed=3)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.pixels, b.pixels)

    def test_target_levels_applied(self):
        batch = make_header_batch(HeaderTask(4, 5, 100), seed=0, target_levels=(-1.0, 1.0))
        assert set(np.unique(batch.targets)) == {-1.0, 1.0}

    @pytest.mark.parametrize("n_bits", [2, 3, 5, 8])
    def test_negatives_drawn_as_choice_over_others(self, n_bits):
        # the same draws, and the same stream position, as rng.choice over
        # the list of the other headers
        for seed in range(10):
            target = seed % 2 ** n_bits
            batch = make_header_batch(HeaderTask(n_bits, target, 40, image_side=16), seed=seed)
            rng = np.random.default_rng(seed)
            others = np.array([v for v in range(2 ** n_bits) if v != target])
            values = np.concatenate([np.full(20, target), rng.choice(others, size=20)])
            order = rng.permutation(40)
            assert np.array_equal(batch.labels, values[order])

    def test_wide_header_without_enumerating(self):
        t0 = time.perf_counter()
        batch = make_header_batch(HeaderTask(40, 2 ** 39, 40), seed=0)
        assert time.perf_counter() - t0 < 0.5
        neg = batch.labels[batch.targets == 0.0]
        assert np.all((neg >= 0) & (neg < 2 ** 40) & (neg != 2 ** 39))

    @pytest.mark.parametrize("n_bits, target, side, seed, digests", [
        (4, 5, 64, 0, ("2ed8160ba0559ae8", "61d3f9223520d9a3", "50db6536c8fbe01b")),
        (3, 2, 16, 7, ("204a8d5c7d1cfc2f", "edab50152f7f3fec", "3b4bba6ba14f58a7")),
        (40, 2 ** 39, 32, 1, ("6312fc211803d714", "ec83dfdac1a76881", "a99c601ea11fe854")),
        (62, 1, 20, 3, ("5afceda21a46beb9", "52fa1b9e8a46efe4", "52abda64ea0de8ed")),
    ], ids=["4-bit", "3-bit", "40-bit", "62-bit"])
    def test_batch_bytes_pinned(self, n_bits, target, side, seed, digests):
        # sha256 prefixes of the pixels, targets and labels of a 40-sample batch
        batch = make_header_batch(HeaderTask(n_bits, target, 40, image_side=side), seed=seed)
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16]
                    for a in (batch.pixels, batch.targets, batch.labels))
        assert got == digests


class TestBinarize:
    """The grayscale threshold of :func:`make_onevsall_batch`: a pixel is on
    iff it lies in the aperture and is brighter than half of full scale."""

    @staticmethod
    def _frames(images, seed=0):
        """Frames of a one-vs-all batch holding every image: half digit 0,
        half digit 1."""
        n = len(images)
        data = DigitDataset(images=np.asarray(images, dtype=np.uint8),
                            labels=np.arange(n, dtype=np.uint8) % 2)
        return make_onevsall_batch(data, 0, n, seed=seed).pixels

    def test_zero_image_dark(self):
        assert not self._frames(np.zeros((2, 28, 28))).any()

    def test_full_image_lights_disk(self):
        for pat in self._frames(np.full((2, 28, 28), 255)):
            assert np.array_equal(pat, circle_mask(28))

    def test_mid_gray_above_half_threshold(self):
        for pat in self._frames(np.full((2, 28, 28), 128)):
            assert np.array_equal(pat, circle_mask(28))

    def test_idempotent_under_requantization(self):
        rng = np.random.default_rng(0)
        once = self._frames(rng.integers(0, 256, size=(20, 28, 28)))
        twice = self._frames(once.astype(np.uint8) * 255, seed=1)
        assert sorted(p.tobytes() for p in once) == sorted(p.tobytes() for p in twice)

    @pytest.mark.parametrize("shape", [(28, 20), (20, 28), (28,)])
    def test_non_square_or_flat_rejected(self, shape):
        with pytest.raises(DataError, match="square"):
            self._frames(np.zeros((2, *shape)))


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
        # benchmark size: 11 full blocks of 512 images and one of 368
        (6000, {"seed": 5},
         "2c47384df2bdf65ce168631edae0defec2aa42bb55939a6b1bd685b80fdeaa54",
         "ae2ed5c14e78c7af2ec2e2307ae3d66054e83802edbf9ac6c889b28f78634367"),
    ], ids=["600-s3", "600-s4", "200-s1-clean", "200-s2-distorted", "6000-s5"])
    def test_pinned_bytes(self, n, kwargs, images_sha, labels_sha):
        data = make_glyph_dataset(n, **kwargs)
        assert hashlib.sha256(data.images.tobytes()).hexdigest() == images_sha
        assert hashlib.sha256(data.labels.tobytes()).hexdigest() == labels_sha

    # block edges (511, 512, 513), a short last block (1100), and a clean,
    # a mild, the stock and a heavy distortion
    @pytest.mark.parametrize("distortion", [0.0, 0.3, 1.0, 2.5])
    @pytest.mark.parametrize("seed", [0, 5, 151])
    @pytest.mark.parametrize("n", [1, 7, 511, 512, 513, 1100])
    def test_matches_three_roll_generator(self, n, seed, distortion):
        data = make_glyph_dataset(n, seed, distortion)
        images, labels = reference.three_roll_glyphs(n, seed, distortion)
        assert data.images.tobytes() == images.tobytes()
        assert data.labels.tobytes() == labels.tobytes()

    @pytest.mark.parametrize("kwargs", [
        {"distortion": math.nan}, {"distortion": math.inf}, {"distortion": -1.0},
        {"distortion": "1"}, {"distortion": True}, {"n_images": 6000.0},
        {"n_images": 0}, {"n_images": True}, {"seed": -1}, {"seed": 2 ** 32},
        {"seed": 1.0}, {"seed": None},
    ], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
    def test_bad_inputs_rejected(self, kwargs):
        args = {"n_images": 10, "seed": 0, "distortion": 1.0, **kwargs}
        with pytest.raises(UsageError, match=next(iter(kwargs))):
            make_glyph_dataset(**args)

    def test_numpy_scalar_inputs_accepted(self):
        a = make_glyph_dataset(np.int64(20), np.uint32(3), np.float32(0.5))
        b = make_glyph_dataset(20, 3, float(np.float32(0.5)))
        assert a.images.tobytes() == b.images.tobytes()

    def test_peak_memory_at_benchmark_size(self):
        # blocks keep the float64 work arrays small next to the 4.7 MB result
        tracemalloc.start()
        try:
            make_glyph_dataset(6000, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40e6


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


def _onevsall(**kwargs):
    data = make_glyph_dataset(200, seed=1)
    return make_onevsall_batch(data, **{"digit": 3, "n_samples": 10, "seed": 0, **kwargs})


@pytest.mark.parametrize("build, kwargs", [
    (_onevsall, {"n_samples": 10.0}), (_onevsall, {"n_samples": True}),
    (_onevsall, {"n_samples": 0}),
    (_onevsall, {"draw": 1.5}), (_onevsall, {"draw": True}), (_onevsall, {"draw": -1}),
    (_onevsall, {"input_side": 27.5}), (_onevsall, {"input_side": 0}),
    (_onevsall, {"digit": True}), (_onevsall, {"digit": 3.0}), (_onevsall, {"digit": None}),
    (_onevsall, {"digit": 10}), (_onevsall, {"digit": -1}),
    (random_mask, {"length": 2.5}), (random_mask, {"length": True}),
], ids=lambda v: v.__name__ if callable(v) else "-".join(f"{k}={w!r}" for k, w in v.items()))
def test_bad_count_argument_raises_usage_error(build, kwargs):
    with pytest.raises(UsageError, match=next(iter(kwargs))):
        build(**kwargs)


def test_numpy_integer_counts_accepted():
    a = _onevsall(digit=np.int8(3), n_samples=np.int64(10), draw=np.uint8(1),
                  input_side=np.int32(32))
    b = _onevsall(draw=1, input_side=32)
    assert a.pixels.tobytes() == b.pixels.tobytes() and np.array_equal(a.labels, b.labels)
    a, b = random_mask(np.int64(7), "ternary", 2), random_mask(7, "ternary", 2)
    assert a.mode == b.mode and np.array_equal(a.weights, b.weights)
