"""Simulated optical forward path: input plane -> random complex mixing ->
saturable nonlinearity -> node intensity grid.

The substrate stands in for the physical hardware at desk scale: a frozen
random transmission matrix models the multimode-fibre speckle, a static
saturable map models the laser operated in its steady state, and a gaussian
coupling over the node grid models carrier diffusion. A linear mode
(``vcsel_on=False``) bypasses the laser and returns raw detected intensities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, field

import numpy as np

from .errors import ConfigError, ShapeError, UsageError


def circle_mask(side: int) -> np.ndarray:
    """Inscribed-circle aperture: a cell is active iff its center lies within
    the circle inscribed in the side x side square."""
    c = side / 2.0
    centers = np.arange(side) + 0.5
    d2 = (centers - c)[:, None] ** 2 + (centers - c)[None, :] ** 2
    return d2 <= c * c


@dataclass(frozen=True)
class InputPattern:
    """Boolean d x d image displayed on the input mirror array.

    ``aperture`` marks the illuminated disk; pixels outside it are dark by
    construction and the constructor rejects patterns violating that.
    """

    pixels: np.ndarray
    aperture: np.ndarray

    def __post_init__(self):
        px, ap = np.asarray(self.pixels), np.asarray(self.aperture)
        if px.ndim != 2 or px.shape != ap.shape or px.shape[0] != px.shape[1]:
            raise ShapeError(f"pattern must be square with matching aperture, got {px.shape} / {ap.shape}")
        if px.shape[0] < 4:
            raise ConfigError(f"pattern side must be >= 4, got {px.shape[0]}")
        if px.dtype != bool or ap.dtype != bool:
            raise ConfigError("pixels and aperture must be boolean arrays")
        if np.any(px & ~ap):
            raise ConfigError("pixels outside the aperture must be off")

    @property
    def side(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def from_pixels(cls, pixels, side: int | None = None) -> "InputPattern":
        """Build a pattern from any truthy 2-D array; values are thresholded
        to on/off, the image is center-cropped/padded to ``side`` when given,
        and the inscribed-circle aperture is applied."""
        px = np.asarray(pixels).astype(bool)
        if side is not None and px.shape != (side, side):
            px = _center_fit(px, side)
        ap = circle_mask(px.shape[0])
        return cls(pixels=px & ap, aperture=ap)


def _center_fit(img: np.ndarray, side: int) -> np.ndarray:
    """Center-crop or zero-pad a square boolean image to side x side."""
    out = np.zeros((side, side), dtype=bool)
    s = img.shape[0]
    if s >= side:
        o = (s - side) // 2
        out[:, :] = img[o:o + side, o:o + side]
    else:
        o = (side - s) // 2
        out[o:o + s, o:o + s] = img
    return out


@dataclass(frozen=True)
class SubstrateConfig:
    """Physical conditions of one simulated experiment.

    Defaults are calibrated so the stock benchmark protocols land in the
    regime the hardware reports (nonlinearity active, detection noise small,
    slow gain drift).
    """

    grid_side: int = 24
    input_side: int = 28
    saturation: float = 0.005
    diffusion_sigma: float = 0.5
    noise_sigma: float = 0.001
    drift_amplitude: float = 0.002
    drift_timescale: float = 500.0
    vcsel_on: bool = True
    seed: int = 0

    def validate(self) -> None:
        if self.grid_side < 2:
            raise ConfigError(f"grid_side must be >= 2, got {self.grid_side}")
        if self.input_side < 4:
            raise ConfigError(f"input_side must be >= 4, got {self.input_side}")
        for name in ("saturation", "diffusion_sigma", "noise_sigma", "drift_amplitude"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if not math.isfinite(self.drift_timescale) or self.drift_timescale <= 0:
            raise ConfigError(f"drift_timescale must be finite and > 0, got {self.drift_timescale}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, doc: str | dict) -> "SubstrateConfig":
        data = json.loads(doc) if isinstance(doc, str) else dict(doc)
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown SubstrateConfig fields: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg


@dataclass
class Substrate:
    """Frozen optical path plus the slowly drifting detector-path gain.

    ``transmission`` (K x D complex) and ``node_mask`` are immutable after
    construction; only ``gain`` and the private random stream mutate, via
    :func:`advance_drift`. Forward evaluation is pure.
    """

    transmission: np.ndarray
    node_mask: np.ndarray
    input_mask: np.ndarray
    gain: float
    config: SubstrateConfig
    _rng: np.random.Generator
    _coupling: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.transmission.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.transmission.shape[1]


def build_substrate(config: SubstrateConfig) -> Substrate:
    """Draw the frozen transmission matrix and aperture geometry.

    Entries are i.i.d. circular complex gaussian with unit variance
    (standard speckle statistics for a multimode fibre). The same config and
    seed always reproduce the same substrate bit for bit.
    """
    config.validate()
    node_mask = circle_mask(config.grid_side)
    input_mask = circle_mask(config.input_side)
    n_nodes = int(node_mask.sum())
    n_inputs = int(input_mask.sum())
    rng = np.random.default_rng(config.seed)
    re = rng.standard_normal((n_nodes, n_inputs))
    im = rng.standard_normal((n_nodes, n_inputs))
    transmission = (re + 1j * im) / np.sqrt(2.0)
    transmission.setflags(write=False)
    coupling = None
    if config.vcsel_on and config.diffusion_sigma > 0:
        coupling = _coupling_matrix(node_mask, config.diffusion_sigma)
    return Substrate(
        transmission=transmission,
        node_mask=node_mask,
        input_mask=input_mask,
        gain=1.0,
        config=config,
        _rng=rng,
        _coupling=coupling,
    )


def _coupling_matrix(node_mask: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian carrier-diffusion coupling between active nodes.

    Column-normalized so each source node redistributes its intensity
    without loss: total intensity is conserved exactly.
    """
    rows, cols = np.nonzero(node_mask)
    d2 = (rows[:, None] - rows[None, :]) ** 2 + (cols[:, None] - cols[None, :]) ** 2
    w = np.exp(-d2 / (2.0 * sigma * sigma))
    return w / w.sum(axis=0, keepdims=True)


@dataclass(frozen=True)
class ReservoirState:
    """Non-negative detected intensity per active node."""

    intensities: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.intensities)
        if x.ndim != 1:
            raise ShapeError(f"state must be a flat vector, got shape {x.shape}")
        if not np.all(np.isfinite(x)) or np.any(x < 0):
            raise ConfigError("intensities must be finite and >= 0")


def forward(substrate: Substrate, pattern: InputPattern) -> ReservoirState:
    """One deterministic forward pass: pattern -> node intensities.

    The field at node j is the transmission row applied to the active input
    pixels; intensity is its squared modulus. With the laser on, intensities
    pass through the saturable map p / (1 + s p) and the diffusion coupling;
    with the laser off they are returned as detected, unmodified.
    Measurement noise is applied later, at detection.
    """
    if pattern.side != substrate.config.input_side:
        raise ShapeError(
            f"pattern side {pattern.side} != substrate input side {substrate.config.input_side}")
    u = pattern.pixels[substrate.input_mask].astype(float)
    a = substrate.transmission @ u
    p = np.abs(a) ** 2
    if substrate.config.vcsel_on:
        s = substrate.config.saturation
        x = p / (1.0 + s * p) if s > 0 else p
        if substrate._coupling is not None:
            x = substrate._coupling @ x
    else:
        x = p
    return ReservoirState(intensities=x)


def forward_batch(substrate: Substrate, batch: list[InputPattern]) -> list[ReservoirState]:
    """Map :func:`forward` over a batch; order preserved, results identical
    to per-pattern calls. Forward is pure, so it runs once per distinct
    pixel pattern and repeats share that state (header batches draw from a
    handful of rendered images)."""
    if len(batch) == 0:
        raise UsageError("forward_batch requires a non-empty batch")
    sides = {p.side for p in batch}
    if len(sides) != 1:
        raise ShapeError(f"batch patterns must share one side, got {sorted(sides)}")
    seen: dict[bytes, ReservoirState] = {}
    states = []
    for p in batch:
        key = p.pixels.tobytes()
        if key not in seen:
            seen[key] = forward(substrate, p)
        states.append(seen[key])
    return states


def states_matrix(states: list[ReservoirState]) -> np.ndarray:
    """Stack states into an (N, K) array for vectorized detection."""
    return np.stack([s.intensities for s in states])


def advance_drift(substrate: Substrate, steps: int) -> Substrate:
    """Advance the detector-path gain by ``steps`` of a seeded mean-reverting
    random walk, clamped to [0.5, 2.0]. Mutates the substrate in place and
    returns it; callers interleaving this with detection must serialize."""
    if steps < 0:
        raise UsageError(f"steps must be >= 0, got {steps}")
    g = substrate.gain
    ts = substrate.config.drift_timescale
    amp = substrate.config.drift_amplitude
    for _ in range(steps):
        g = g + (1.0 - g) / ts + amp * substrate._rng.standard_normal()
        g = min(2.0, max(0.5, g))
    substrate.gain = g
    return substrate
