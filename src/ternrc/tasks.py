"""Benchmark workloads: pie-shaped Boolean headers and one-vs-all digit
batches, plus IDX file ingestion and a portable batch container.

Both generators follow the balanced-batch protocol: half the batch is the
positive class, half is drawn uniformly from the alternatives, shuffled by
seed. A deterministic synthetic handwritten-digit generator is included as a
stand-in when the canonical digit files are not on disk.

Shapes: a batch holds an (N, d, d) Boolean frame stack, dark outside the
inscribed-circle aperture of side d, with (N,) targets and (N,) labels; a
rendered header or binarized image is one (d, d) frame; a digit dataset
holds (N, rows, cols) uint8 grayscale images.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError, ShapeError, UsageError
from .substrate import circle_mask

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class LabeledBatch:
    """Boolean (N, d, d) frames for the input mirror array, with regression
    targets and raw class labels. Pixels outside the inscribed-circle
    aperture are dark by construction; the constructor rejects frames
    violating that."""

    pixels: np.ndarray
    targets: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        _check_frames(self.pixels)
        n = len(self.pixels)
        if len(self.targets) != n or len(self.labels) != n:
            raise ShapeError("pixels, targets and labels must have equal length")

    def __len__(self) -> int:
        return len(self.pixels)


def _check_frames(pixels: np.ndarray) -> None:
    px = np.asarray(pixels)
    if px.ndim != 3 or px.shape[1] != px.shape[2]:
        raise ShapeError(f"frames must form an (N, d, d) stack, got shape {px.shape}")
    if px.shape[1] < 4:
        raise ConfigError(f"frame side must be >= 4, got {px.shape[1]}")
    if px.dtype != bool:
        raise ConfigError(f"frames must be boolean, got {px.dtype}")
    if np.any(px & ~circle_mask(px.shape[1])):
        raise ConfigError("pixels outside the aperture must be off")


@dataclass(frozen=True)
class HeaderSpec:
    """One pie-shaped header: the illuminated disk is cut into ``n_bits``
    equal angular sectors and sector k lights up iff bit k of
    ``header_value`` is set."""

    n_bits: int
    image_side: int = 64
    header_value: int = 0

    def validate(self) -> None:
        if self.n_bits < 2:
            raise ConfigError(f"n_bits must be >= 2, got {self.n_bits}")
        if self.image_side < 4:
            raise ConfigError(f"image_side must be >= 4, got {self.image_side}")
        if not 0 <= self.header_value < 2 ** self.n_bits:
            raise ConfigError(
                f"header_value must be in [0, {2 ** self.n_bits}), got {self.header_value}")


def render_header(spec: HeaderSpec) -> np.ndarray:
    """Render one header. Sector k spans angles [2*pi*k/n, 2*pi*(k+1)/n)
    measured counter-clockwise from the +x axis, with +y pointing up."""
    spec.validate()
    side = spec.image_side
    c = side / 2.0
    centers = np.arange(side) + 0.5
    x = centers[None, :] - c
    y = c - centers[:, None]
    angle = np.mod(np.arctan2(y, x), 2.0 * np.pi)
    sector = np.minimum((angle / (2.0 * np.pi) * spec.n_bits).astype(int), spec.n_bits - 1)
    lit = ((spec.header_value >> sector) & 1).astype(bool)
    return lit & circle_mask(side)


def make_header_batch(n_bits: int, target_value: int, n_samples: int, seed: int,
                      image_side: int = 64,
                      target_levels: tuple[float, float] = (0.0, 1.0)) -> LabeledBatch:
    """Balanced one-vs-all header batch: half the target header, half drawn
    uniformly from the other headers."""
    spec = HeaderSpec(n_bits=n_bits, image_side=image_side, header_value=target_value)
    spec.validate()
    if n_samples % 2 != 0 or n_samples < 2:
        raise UsageError(f"n_samples must be even and >= 2, got {n_samples}")
    rng = np.random.default_rng(seed)
    others = np.array([v for v in range(2 ** n_bits) if v != target_value])
    half = n_samples // 2
    values = np.concatenate([np.full(half, target_value), rng.choice(others, size=half)])
    lo, hi = target_levels
    targets = np.concatenate([np.full(half, hi, dtype=float), np.full(half, lo, dtype=float)])
    order = rng.permutation(n_samples)
    values, targets = values[order], targets[order]
    # headers come from a small alphabet; render each distinct value once
    distinct, which = np.unique(values, return_inverse=True)
    renders = np.stack([render_header(HeaderSpec(n_bits, image_side, int(v)))
                        for v in distinct])
    return LabeledBatch(pixels=renders[which], targets=targets, labels=values.astype(int))


# ---------------------------------------------------------------------------
# IDX ingestion

@dataclass(frozen=True)
class DigitDataset:
    """One partition of a digit dataset: grayscale images plus labels."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise ShapeError("image and label counts differ")

    def __len__(self) -> int:
        return self.images.shape[0]


def _read(path) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def load_mnist(images_path, labels_path) -> DigitDataset:
    """Load an IDX image/label file pair (big-endian, ubyte payload)."""
    blob = _read(images_path)
    if len(blob) < 16:
        raise FormatError(f"{images_path}: truncated IDX header")
    magic, count, rows, cols = struct.unpack(">iiii", blob[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(f"{images_path}: bad magic 0x{magic:08x}")
    if count < 0 or rows < 1 or cols < 1:
        raise FormatError(
            f"{images_path}: bad dimensions count={count} rows={rows} cols={cols}")
    payload = np.frombuffer(blob, dtype=np.uint8, offset=16)
    if payload.size != count * rows * cols:
        raise FormatError(
            f"{images_path}: expected {count * rows * cols} pixel bytes, got {payload.size}")
    images = payload.reshape(count, rows, cols)

    blob = _read(labels_path)
    if len(blob) < 8:
        raise FormatError(f"{labels_path}: truncated IDX header")
    magic, n_labels = struct.unpack(">ii", blob[:8])
    if magic != IDX_LABELS_MAGIC:
        raise FormatError(f"{labels_path}: bad magic 0x{magic:08x}")
    labels = np.frombuffer(blob, dtype=np.uint8, offset=8)
    if labels.size != n_labels:
        raise FormatError(f"{labels_path}: expected {n_labels} labels, got {labels.size}")
    if n_labels != count:
        raise FormatError(f"image count {count} != label count {n_labels}")
    if labels.size and labels.max() > 9:
        raise FormatError(f"{labels_path}: labels must be digits 0-9")
    return DigitDataset(images=images, labels=labels)


def write_idx_images(images: np.ndarray, path) -> None:
    """Write images back to IDX; the exact inverse of the loader's parsing."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(labels: np.ndarray, path) -> None:
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABELS_MAGIC, labels.size))
        f.write(labels.tobytes())


def binarize(image: np.ndarray, threshold_fraction: float = 0.5) -> np.ndarray:
    """Boolean (d, d) frame for the input mirror array: a pixel is on iff it
    lies in the aperture and its intensity exceeds threshold_fraction * 255."""
    if not 0.0 < threshold_fraction < 1.0:
        raise UsageError(f"threshold_fraction must be in (0, 1), got {threshold_fraction}")
    img = np.asarray(image)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ShapeError(f"expected a square 2-D grayscale image, got shape {img.shape}")
    frame = _frames(img[None] > threshold_fraction * 255.0)
    _check_frames(frame)
    return frame[0]


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
                        draw: int = 0, threshold_fraction: float = 0.5,
                        input_side: int | None = None,
                        target_levels: tuple[float, float] = (0.0, 1.0)) -> LabeledBatch:
    """Balanced one-vs-all digit batch: half images of ``digit``, half drawn
    uniformly from the other classes, binarized and shuffled by seed.

    ``draw`` indexes consecutive disjoint batches under the same seed: the
    eligible images are put in one seeded order and draw k consumes slice k,
    so repeated calls never reuse an image.
    """
    if not 0 <= digit <= 9:
        raise UsageError(f"digit must be 0-9, got {digit}")
    if n_samples % 2 != 0 or n_samples < 2:
        raise UsageError(f"n_samples must be even and >= 2, got {n_samples}")
    if draw < 0:
        raise UsageError(f"draw must be >= 0, got {draw}")
    _, rows, cols = dataset.images.shape
    if rows != cols:
        raise DataError(f"digit images must be square, got {rows}x{cols}")
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
    lo, hi = target_levels
    targets = np.concatenate([np.full(half, hi, dtype=float), np.full(half, lo, dtype=float)])
    order = np.random.default_rng(seed + 0x5EED * (draw + 1)).permutation(n_samples)
    chosen, targets = chosen[order], targets[order]
    pixels = _frames(dataset.images[chosen] > threshold_fraction * 255.0, input_side)
    return LabeledBatch(pixels=pixels, targets=targets,
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


def _blur_operator(side: int, sigma: float) -> np.ndarray:
    idx = np.arange(side)
    k = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * sigma * sigma))
    return k / k.sum(axis=1, keepdims=True)


def make_glyph_dataset(n_images: int, seed: int, distortion: float = 1.0) -> DigitDataset:
    """Deterministic handwritten-digit-like images, 28x28 grayscale, labels
    0-9. Each image is a dot-matrix glyph with random shift, stroke
    thickening, row warping, blur, brightness and pixel noise; ``distortion``
    scales how far images stray from the clean glyph."""
    if n_images < 1:
        raise UsageError(f"n_images must be >= 1, got {n_images}")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n_images).astype(np.uint8)

    # glyph variants per digit: plain and two stroke-thickened versions
    variants = np.zeros((10, 3, 28, 28))
    for d in range(10):
        g = np.array([[int(ch) for ch in row] for row in _GLYPHS[d]], dtype=float)
        big = np.kron(g, np.ones((3, 3)))  # 21 x 15
        for v in range(3):
            glyph = big
            if v == 1:
                glyph = np.maximum(big, np.roll(big, 1, axis=0))
            elif v == 2:
                glyph = np.maximum(big, np.roll(big, 1, axis=1))
            variants[d, v, 3:24, 6:21] = glyph

    variant_idx = np.where(rng.random(n_images) < 0.5 * distortion,
                           rng.integers(1, 3, size=n_images), 0)
    canvas = variants[labels, variant_idx]

    # jittered placement: glyph margins keep these rolls from wrapping
    dy = rng.integers(-3, 4, size=n_images)
    dx = rng.integers(-4, 5, size=n_images)
    rows = (np.arange(28)[None, :, None] - dy[:, None, None]) % 28
    canvas = np.take_along_axis(canvas, np.broadcast_to(rows, canvas.shape), axis=1)
    cols = (np.arange(28)[None, None, :] - dx[:, None, None]) % 28
    canvas = np.take_along_axis(canvas, np.broadcast_to(cols, canvas.shape), axis=2)

    # smooth per-row horizontal warp
    warp_blur = _blur_operator(28, 1.5)
    offsets = np.rint((rng.standard_normal((n_images, 28)) * 1.6 * distortion)
                      @ warp_blur.T).astype(int)
    cols = (np.arange(28)[None, None, :] - offsets[:, :, None]) % 28
    canvas = np.take_along_axis(canvas, cols, axis=2)

    # blur with a per-image width, quantized so each bucket is two matmuls
    sigma = rng.uniform(0.5, 1.1, size=n_images) * max(distortion, 1e-9)
    out = np.empty_like(canvas)
    edges = np.asarray(_SIGMA_BUCKETS) * max(distortion, 1e-9)
    bucket = np.argmin(np.abs(sigma[:, None] - edges[None, :]), axis=1)
    for b, sg in enumerate(edges):
        sel = bucket == b
        if not sel.any():
            continue
        op = _blur_operator(28, float(sg)) if distortion > 0 else np.eye(28)
        out[sel] = op @ canvas[sel] @ op.T

    amp = rng.uniform(0.65, 1.0, size=n_images)[:, None, None]
    noise = rng.standard_normal((n_images, 28, 28)) * 10.0 * distortion
    images = np.clip(out * amp * 255.0 + noise, 0.0, 255.0).astype(np.uint8)
    return DigitDataset(images=images, labels=labels)


# ---------------------------------------------------------------------------
# Portable batch container
#
# Layout (big-endian): magic "TRCB", u32 version, u32 N, u32 d, then N
# bit-packed frames (ceil(d*d/8) bytes each, pixels row-major), then N
# float64 targets.

_BATCH_MAGIC = b"TRCB"
_BATCH_VERSION = 1


def save_batch(batch: LabeledBatch, path) -> None:
    """Write a batch to the portable binary container."""
    n = len(batch)
    if n == 0:
        raise UsageError("cannot save an empty batch")
    d = batch.pixels.shape[1]
    with open(path, "wb") as f:
        f.write(_BATCH_MAGIC)
        f.write(struct.pack(">III", _BATCH_VERSION, n, d))
        f.write(np.packbits(batch.pixels.reshape(n, d * d), axis=1).tobytes())
        f.write(np.asarray(batch.targets, dtype=">f8").tobytes())


def load_batch(path) -> LabeledBatch:
    """Read the portable container back. Raw class labels are not part of
    the layout; they are reconstructed as 0/1 class indicators."""
    blob = _read(path)
    if blob[:4] != _BATCH_MAGIC:
        raise FormatError(f"{path}: bad batch magic {blob[:4]!r}")
    if len(blob) < 16:
        raise FormatError(f"{path}: truncated batch header")
    version, n, d = struct.unpack(">III", blob[4:16])
    if version != _BATCH_VERSION:
        raise FormatError(f"{path}: unsupported batch version {version}")
    if n == 0:
        raise FormatError(f"{path}: batch holds no patterns")
    if d < 4:
        raise FormatError(f"{path}: pattern side {d} is below the minimum of 4")
    per = (d * d + 7) // 8
    need = 16 + n * per + n * 8
    if len(blob) != need:
        raise FormatError(f"{path}: expected {need} bytes, got {len(blob)}")
    packed = np.frombuffer(blob, dtype=np.uint8, count=n * per, offset=16).reshape(n, per)
    bits = np.unpackbits(packed, axis=1, count=d * d).reshape(n, d, d)
    targets = np.frombuffer(blob, dtype=">f8", count=n, offset=16 + n * per).astype(float)
    if not np.isfinite(targets).all():
        raise FormatError(f"{path}: batch targets must be finite")
    # halve first: the sum of two large finite targets overflows
    mid = targets.min() / 2.0 + targets.max() / 2.0
    labels = (targets > mid).astype(int)
    return LabeledBatch(pixels=_frames(bits.astype(bool)), targets=targets, labels=labels)
