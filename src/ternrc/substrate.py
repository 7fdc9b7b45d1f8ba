"""Simulated optical forward path: input plane -> random complex mixing ->
saturable nonlinearity -> node intensity grid.

The substrate stands in for the physical hardware at desk scale: a frozen
random transmission matrix models the multimode-fibre speckle, a static
saturable map models the laser operated in its steady state, and a gaussian
coupling over the node grid models carrier diffusion. A linear mode
(``vcsel_on=False``) bypasses the laser and returns raw detected intensities.

Shapes: a batch is an (N, d, d) Boolean frame stack, d = ``input_side``.
The transmission is (K, D) complex for the K active nodes and the D pixels
of the input aperture. :func:`forward_batch` returns the (U, K) states of
the U distinct frames and an (N,) row index into them; :func:`states_matrix`
gathers the (N, K) batch matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def forward_batch(substrate: Substrate, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic forward pass of an (N, d, d) Boolean frame stack.

    Returns ``(states, index)``: ``states`` holds the (U, K) node intensities
    of the U distinct frames and ``index`` (N,) maps each frame to its row,
    so repeated frames (header batches draw from a handful of rendered
    images) are computed once; :func:`states_matrix` gathers the (N, K)
    batch matrix.

    The field at node j is the transmission row applied to the active input
    pixels; intensity is its squared modulus. With the laser on, intensities
    pass through the saturable map p / (1 + s p) and the diffusion coupling;
    with the laser off they are returned as detected, unmodified.
    Measurement noise is applied later, at detection.
    """
    px = np.asarray(batch)
    side = substrate.config.input_side
    if px.ndim != 3 or px.shape[1:] != (side, side):
        raise ShapeError(f"batch must be an (N, {side}, {side}) frame stack, got {px.shape}")
    if len(px) == 0:
        raise UsageError("forward_batch requires a non-empty batch")
    if px.dtype != bool:
        raise ConfigError(f"frames must be boolean, got {px.dtype}")
    flat = px.reshape(len(px), -1)
    # each bit-packed row compared as one opaque value: np.unique(axis=0)
    # compares Boolean columns one by one, ~300x slower on 64 px frames
    packed = np.packbits(flat, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    u = flat[first][:, substrate.input_mask.ravel()].astype(float)
    # one matvec per frame, not one GEMM over the stack: a GEMM sums in
    # another order and moves the last bits of every state
    p = np.abs(np.stack([substrate.transmission @ v for v in u])) ** 2
    x = p
    if substrate.config.vcsel_on:
        s = substrate.config.saturation
        if s > 0:
            x = p / (1.0 + s * p)
        if substrate._coupling is not None:
            x = np.stack([substrate._coupling @ v for v in x])
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ConfigError("intensities must be finite and >= 0")
    return x, index


def states_matrix(states: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The (N, K) batch matrix of :func:`forward_batch`'s distinct states."""
    return states[index]


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
