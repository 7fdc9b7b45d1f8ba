"""Benchmark workloads: the header and digit task configs, pie-shaped
Boolean header batches and one-vs-all digit batches, plus IDX file ingestion.

Both generators follow the balanced-batch protocol: half the batch is the
positive class, half is drawn uniformly from the alternatives, shuffled by
seed. A deterministic synthetic handwritten-digit generator is included as a
stand-in when the canonical digit files are not on disk.

Shapes: a batch holds (U, d, d) Boolean frames, dark outside the aperture
of side d, an (N,) index of each sample's frame, (N,) targets and (N,)
labels; a digit dataset holds (N, rows, cols) uint8 grayscale images.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DataError, FormatError, UsageError, _check_count, _check_types,
                     _is_number)
from .substrate import circle_mask

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

#: widest header whose values an int64 header draw still holds
MAX_HEADER_BITS = 62


@dataclass(frozen=True)
class LabeledBatch:
    """N samples shown through U Boolean (U, d, d) frames for the input
    mirror array, sample i through ``frames[index[i]]``, with regression
    targets and raw class labels. A header batch holds each drawn header
    once, a digit batch one frame per sample. Pixels outside the aperture
    are dark by construction; the constructor rejects frames violating that."""

    frames: np.ndarray
    index: np.ndarray
    targets: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        px, i = np.asarray(self.frames), np.asarray(self.index)
        if px.ndim != 3 or px.shape[1] != px.shape[2]:
            raise UsageError(f"frames must form a (U, d, d) stack, got shape {px.shape}")
        if px.shape[1] < 4:
            raise ConfigError(f"frame side must be >= 4, got {px.shape[1]}")
        if px.dtype != bool:
            raise ConfigError(f"frames must be boolean, got {px.dtype}")
        if np.any(px & ~circle_mask(px.shape[1])):
            raise ConfigError("pixels outside the aperture must be off")
        if (i.ndim != 1 or i.dtype.kind not in "iu"
                or i.size and not 0 <= i.min() <= i.max() < len(px)):
            raise UsageError(f"index must be an (N,) integer vector in [0, {len(px)}), "
                             f"got {i.dtype} of shape {i.shape}")
        if len(self.targets) != len(i) or len(self.labels) != len(i):
            raise UsageError("index, targets and labels must have equal length")


def _check_task(task, kind: str) -> None:
    _check_types(task, "task")
    if task.type != kind:
        raise ConfigError(f"a {kind} task has type {kind!r}, got {task.type!r}")
    if task.n_samples < 2 or task.n_samples % 2:
        raise ConfigError(f"task n_samples must be an even integer >= 2, got {task.n_samples!r}")


@dataclass(frozen=True)
class HeaderTask:
    """Pie-shaped headers: the disk is cut into ``n_bits`` equal sectors and
    sector k of a header lights up iff bit k of its value is set. The task
    tells ``target_value`` from the other headers."""

    n_bits: int = 4
    target_value: int = 5
    n_samples: int = 1000
    image_side: int = 64
    type: str = "header"

    def __post_init__(self):
        _check_task(self, "header")
        if not 2 <= self.n_bits <= MAX_HEADER_BITS:
            raise ConfigError(f"n_bits must be in [2, {MAX_HEADER_BITS}], got {self.n_bits}")
        if self.image_side < 4:
            raise ConfigError(f"image_side must be >= 4, got {self.image_side}")
        if not 0 <= self.target_value < 2 ** self.n_bits:
            raise ConfigError(
                f"target_value must be in [0, {2 ** self.n_bits}), got {self.target_value}")


@dataclass(frozen=True)
class MnistTask:
    """One-vs-all digits from IDX files; ``digit`` null runs all ten."""

    images: str = ""
    labels: str = ""
    test_images: str | None = None
    test_labels: str | None = None
    digit: int | None = 0
    n_samples: int = 1000
    type: str = "mnist"

    def __post_init__(self):
        _check_task(self, "mnist")
        if self.digit is not None and not 0 <= self.digit <= 9:
            raise ConfigError(f"task digit must be an integer 0-9 or null, got {self.digit!r}")
        for a, b in (("images", "labels"), ("test_images", "test_labels")):
            if bool(getattr(self, a)) != bool(getattr(self, b)):
                raise ConfigError(f"task {b if getattr(self, a) else a} is missing: an IDX "
                                  f"pair gives both {a} and {b} or neither")


def render_headers(n_bits: int, side: int, values: np.ndarray) -> np.ndarray:
    """(N, side, side) headers of the N ``values``, frame axis innermost in
    memory. Sector k spans angles [2*pi*k/n, 2*pi*(k+1)/n) measured
    counter-clockwise from the +x axis, with +y pointing up."""
    d = np.arange(side) + 0.5 - side / 2.0  # pixel centres from the disk centre
    angle = np.mod(np.arctan2(-d[:, None], d[None, :]), 2.0 * np.pi)
    sector = np.minimum((angle / (2.0 * np.pi) * n_bits).astype(int), n_bits - 1)
    # (N, n_bits) bit table indexed by the one sector map
    bits = ((values[:, None] >> np.arange(n_bits)) & 1).astype(bool)
    return bits[:, sector] & circle_mask(side)


def make_header_batch(task: HeaderTask, seed: int) -> LabeledBatch:
    """Balanced one-vs-all header batch: half the target header, target 1,
    half drawn uniformly from the other headers, target 0."""
    rng = np.random.default_rng(seed)
    half = task.n_samples // 2
    # a uniform index into the other headers in ascending order, the draw
    # rng.choice makes over their list, without building that list
    i = rng.integers(0, 2 ** task.n_bits - 1, size=half)
    values = np.concatenate([np.full(half, task.target_value), i + (i >= task.target_value)])
    targets = np.concatenate([np.ones(half), np.zeros(half)])
    order = rng.permutation(task.n_samples)
    values, targets = values[order], targets[order]
    distinct, index = np.unique(values, return_inverse=True)
    return LabeledBatch(frames=render_headers(task.n_bits, task.image_side, distinct),
                        index=index, targets=targets, labels=values.astype(int))


# ---------------------------------------------------------------------------
# IDX ingestion

@dataclass(frozen=True)
class DigitDataset:
    """One partition of a digit dataset: grayscale images plus labels."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise UsageError("image and label counts differ")


def _read_idx(path, magic: int) -> np.ndarray:
    """The ubyte array of the IDX file at ``path``: ``magic``, one big-endian
    int32 per dimension, as many as the magic's low byte (a count >= 0, then
    sizes >= 1), and exactly their product of payload bytes."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    header = 4 + 4 * (magic & 0xFF)
    if len(blob) < header:
        raise FormatError(f"{path}: truncated IDX header")
    found, *dims = struct.unpack(f">{header // 4}i", blob[:header])
    if found != magic:
        raise FormatError(f"{path}: bad magic 0x{found:08x}")
    if dims[0] < 0 or min(dims[1:], default=1) < 1:
        raise FormatError(f"{path}: bad dimensions {tuple(dims)}")
    payload = np.frombuffer(blob, dtype=np.uint8, offset=header)
    if payload.size != math.prod(dims):
        raise FormatError(f"{path}: expected {math.prod(dims)} payload bytes, got {payload.size}")
    return payload.reshape(dims)


def load_mnist(images_path, labels_path) -> DigitDataset:
    """Load an IDX image/label file pair (big-endian, ubyte payload)."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
    if len(labels) != len(images):
        raise FormatError(f"image count {len(images)} != label count {len(labels)}")
    if labels.size and labels.max() > 9:
        raise FormatError(f"{labels_path}: labels must be digits 0-9")
    return DigitDataset(images=images, labels=labels)


def write_idx_images(images: np.ndarray, path) -> None:
    """Write images back to IDX; the exact inverse of the loader's parsing."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise UsageError(f"images must form an (N, rows, cols) stack, got shape {images.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGES_MAGIC, *images.shape))
        images.tofile(f)


def write_idx_labels(labels: np.ndarray, path) -> None:
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if labels.ndim != 1:
        raise UsageError(f"labels must form an (N,) vector, got shape {labels.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABELS_MAGIC, labels.size))
        f.write(labels.tobytes())


def _frames(on: np.ndarray, side: int | None = None) -> np.ndarray:
    """Boolean (N, s, s) stack -> (N, side, side) frames: center-cropped or
    zero-padded to ``side`` when given, then cut to the inscribed-circle
    aperture. Fitting goes first: a padded image's aperture is the larger
    one."""
    s = on.shape[1]
    if side is not None and on.shape[1:] != (side, side):
        if s >= side:
            o = (s - side) // 2
            on = on[:, o:o + side, o:o + side]
        else:
            o = (side - s) // 2
            padded = np.zeros((len(on), side, side), dtype=bool)
            padded[:, o:o + s, o:o + s] = on
            on = padded
    return on & circle_mask(on.shape[1])


def make_onevsall_batch(dataset: DigitDataset, digit: int, n_samples: int, seed: int,
                        draw: int = 0, input_side: int | None = None) -> LabeledBatch:
    """Balanced one-vs-all digit batch: half images of ``digit``, target 1,
    half drawn uniformly from the other classes, target 0, shuffled by seed. A pixel is on iff it
    is brighter than half of full scale (127.5) and lies in the aperture.

    ``draw`` indexes consecutive disjoint batches under the same seed: the
    eligible images are put in one seeded order and draw k consumes slice k,
    so repeated calls never reuse an image.
    """
    digit = _check_count(digit, "digit", 0, 9)
    n_samples = _check_count(n_samples, "n_samples", 2)
    if n_samples % 2:
        raise UsageError(f"n_samples must be even, got {n_samples}")
    draw = _check_count(draw, "draw", 0)
    input_side = None if input_side is None else _check_count(input_side, "input_side", 1)
    shape = dataset.images.shape[1:]
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DataError(f"digit images must be square, got {'x'.join(map(str, shape))}")
    half = n_samples // 2
    rng = np.random.default_rng(seed)
    pos_pool = rng.permutation(np.nonzero(dataset.labels == digit)[0])
    neg_pool = rng.permutation(np.nonzero(dataset.labels != digit)[0])
    lo_idx, hi_idx = draw * half, (draw + 1) * half
    if hi_idx > pos_pool.size:
        raise DataError(
            f"need {hi_idx} images of digit {digit}, dataset has {pos_pool.size}")
    if hi_idx > neg_pool.size:
        raise DataError(f"need {hi_idx} non-{digit} images, dataset has {neg_pool.size}")
    chosen = np.concatenate([pos_pool[lo_idx:hi_idx], neg_pool[lo_idx:hi_idx]])
    targets = np.concatenate([np.ones(half), np.zeros(half)])
    order = np.random.default_rng(seed + 0x5EED * (draw + 1)).permutation(n_samples)
    chosen, targets = chosen[order], targets[order]
    return LabeledBatch(frames=_frames(dataset.images[chosen] > 127.5, input_side),
                        index=np.arange(n_samples), targets=targets,
                        labels=dataset.labels[chosen].astype(int))


# ---------------------------------------------------------------------------
# Synthetic handwritten-digit stand-in

_GLYPHS = {
    0: ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    1: ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    2: ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    3: ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    4: ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    5: ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    6: ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    7: ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    8: ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    9: ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}

_SIGMA_BUCKETS = (0.5, 0.7, 0.9, 1.1)

#: images built at once by make_glyph_dataset
_GLYPH_BLOCK = 128


def _blur_operator(side: int, sigma: float) -> np.ndarray:
    idx = np.arange(side)
    k = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * sigma * sigma))
    return k / k.sum(axis=1, keepdims=True)


def make_glyph_dataset(n_images: int, seed: int, distortion: float = 1.0) -> DigitDataset:
    """Deterministic handwritten-digit-like images, 28x28 grayscale, labels
    0-9. Each image is a dot-matrix glyph with random shift, stroke
    thickening, row warping, blur, brightness and pixel noise; ``distortion``
    scales how far images stray from the clean glyph (0: clean and unblurred).
    ``n_images`` is an integer >= 1, ``seed`` an integer in [0, 2**32) and
    ``distortion`` a finite real >= 0; anything else raises ``UsageError``.
    The work arrays are bounded per block of ``_GLYPH_BLOCK`` images."""
    n_images = _check_count(n_images, "n_images", 1)
    seed = _check_count(seed, "seed", 0, 2 ** 32 - 1)
    if not (_is_number(distortion, numbers.Real) and 0 <= distortion < np.inf):
        raise UsageError(f"distortion must be a finite real >= 0, got {distortion!r}")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n_images).astype(np.uint8)

    # glyph variants per digit: plain and two stroke-thickened versions
    variants = np.zeros((10, 3, 28, 28))
    for d in range(10):
        big = np.kron([[int(ch) for ch in row] for row in _GLYPHS[d]], np.ones((3, 3)))  # 21 x 15
        variants[d, :, 3:24, 6:21] = (big, np.maximum(big, np.roll(big, 1, axis=0)),
                                      np.maximum(big, np.roll(big, 1, axis=1)))

    # every per-image parameter is drawn up front, in a fixed order; the
    # pixel noise is the last draw, so the blocks below can draw it in turn
    variant_idx = np.where(rng.random(n_images) < 0.5 * distortion,
                           rng.integers(1, 3, size=n_images), 0)
    dy = rng.integers(-3, 4, size=n_images)
    dx = rng.integers(-4, 5, size=n_images)
    # smooth per-row horizontal warp
    offsets = np.rint((rng.standard_normal((n_images, 28)) * 1.6 * distortion)
                      @ _blur_operator(28, 1.5).T).astype(int)
    # blur with a per-image width, quantized so each bucket is two matmuls
    sigma = rng.uniform(0.5, 1.1, size=n_images) * max(distortion, 1e-9)
    edges = np.asarray(_SIGMA_BUCKETS) * max(distortion, 1e-9)
    bucket = np.argmin(np.abs(sigma[:, None] - edges[None, :]), axis=1)
    ops = [_blur_operator(28, float(sg)) if distortion > 0 else np.eye(28) for sg in edges]
    amp = rng.uniform(0.65, 1.0, size=n_images)[:, None, None]

    # placement and row warp are one cyclic shift, pixel (r, c) read from
    # variant row (r - dy) % 28, column (c - offsets[r] - dx) % 28, both looked
    # up in shift[t, c] = (c - t) % 28; glyph margins keep it from wrapping
    shift = (np.arange(28)[None, :] - np.arange(28)[:, None]) % 28
    first_row = (labels.astype(np.intp) * 3 + variant_idx) * 28
    col_shift = (offsets + dx[:, None]) % 28

    images = np.empty((n_images, 28, 28), dtype=np.uint8)
    noise = np.empty((min(n_images, _GLYPH_BLOCK), 28, 28))
    for lo in range(0, n_images, _GLYPH_BLOCK):
        blk = slice(lo, lo + _GLYPH_BLOCK)
        rows = first_row[blk, None] + shift[dy[blk] % 28]
        canvas = variants.reshape(-1)[rows[:, :, None] * 28 + shift[col_shift[blk]]]
        out = np.empty_like(canvas)
        for b, op in enumerate(ops):
            sel = bucket[blk] == b
            if sel.any():
                out[sel] = ((op @ canvas[sel]).reshape(-1, 28) @ op.T).reshape(-1, 28, 28)
        z = rng.standard_normal(out=noise[:len(out)])
        z *= 10.0
        z *= distortion
        out *= amp[blk]
        out *= 255.0
        out += z
        images[blk] = np.clip(out, 0.0, 255.0, out=out)
    return DigitDataset(images=images, labels=labels)
