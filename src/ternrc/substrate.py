"""Simulated optical forward path: input plane -> random complex mixing ->
saturable nonlinearity -> node intensity grid.

The substrate stands in for the physical hardware at desk scale: a frozen
random transmission matrix models the multimode-fibre speckle, a static
saturable map models the laser operated in its steady state, and a gaussian
coupling over the node grid models carrier diffusion. A linear mode
(``vcsel_on=False``) bypasses the laser and returns raw detected intensities.

Shapes: a batch is an (N, d, d) Boolean frame stack, d = ``input_side``.
The (K, D) complex transmission T of the K active nodes and the D aperture
pixels is held once, as the real (2K, D) ``fields`` = [Re T; Im T], so
T = fields[:K] + 1j * fields[K:]. :func:`forward_batch` returns the (U, K)
states of the U distinct frames and an (N,) row index into them;
:func:`states_matrix` gathers the (N, K) batch matrix in column-major
order, so each node's column is contiguous for the readout. The pass ends
in :func:`laser_response`; with the laser off that step is the identity,
so the laser-off states of a batch are its speckle intensities, and the
laser-on states of the same transmission are the response to them.

The fields of all distinct frames come from one real GEMM, the coupling
from another; their blocked sums agree with a one-frame matrix-vector
reference to rounding (about 1e-15 relative), not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UsageError, _check_count, _check_types


#: bounds that keep the laser's s * p, the coupling's 2 * sigma**2 and noise squares normal
SATURATION_BOUND, DIFFUSION_SIGMA_FLOOR, NOISE_SIGMA_BOUND = 1e150, 1e-100, 1e100


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
    slow gain drift). The config checks itself when built.
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

    def __post_init__(self):
        _check_types(self, "substrate")
        if self.grid_side < 2:
            raise ConfigError(f"grid_side must be >= 2, got {self.grid_side}")
        if self.input_side < 4:
            raise ConfigError(f"input_side must be >= 4, got {self.input_side}")
        for name, bound in (("saturation", SATURATION_BOUND), ("diffusion_sigma", math.inf),
                            ("noise_sigma", NOISE_SIGMA_BOUND), ("drift_amplitude", math.inf)):
            v = getattr(self, name)
            if not math.isfinite(v) or not 0 <= v <= bound:
                raise ConfigError(f"{name} must be finite and in [0, {bound:g}], got {v}")
        if 0 < (v := self.diffusion_sigma) < DIFFUSION_SIGMA_FLOOR:
            raise ConfigError(f"diffusion_sigma must be 0 or >= {DIFFUSION_SIGMA_FLOOR:g}, got {v}")
        if not math.isfinite(self.drift_timescale) or self.drift_timescale <= 0:
            raise ConfigError(f"drift_timescale must be finite and > 0, got {self.drift_timescale}")
        if not 0 <= self.seed < 2 ** 32:
            raise ConfigError(f"substrate seed must be in [0, 2**32), got {self.seed}")


@dataclass
class Substrate:
    """Frozen optical path plus the slowly drifting detector-path gain.

    ``fields`` (2K x D float, read-only) is the transmission's real rows over
    its imaginary rows, T = fields[:K] + 1j * fields[K:], scaled by a multiply
    with 1/sqrt(2): numpy divides a complex by a real that way, so the bytes
    are those of (re + 1j * im) / sqrt(2). Only ``gain`` and the private
    random stream mutate, via :func:`advance_drift`. Forward evaluation is pure.
    """

    fields: np.ndarray
    input_mask: np.ndarray
    gain: float
    config: SubstrateConfig
    _rng: np.random.Generator
    _coupling: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.fields.shape[0] // 2

    @property
    def n_inputs(self) -> int:
        return self.fields.shape[1]


def build_substrate(config: SubstrateConfig) -> Substrate:
    """Draw the frozen transmission matrix and aperture geometry.

    Entries are i.i.d. circular complex gaussian with unit variance
    (standard speckle statistics for a multimode fibre). The same config and
    seed always reproduce the same substrate bit for bit.
    """
    node_mask = circle_mask(config.grid_side)
    input_mask = circle_mask(config.input_side)
    n_nodes = int(node_mask.sum())
    n_inputs = int(input_mask.sum())
    rng = np.random.default_rng(config.seed)
    # one draw in row order: the real rows, then the imaginary rows
    fields = rng.standard_normal((2 * n_nodes, n_inputs))
    np.multiply(fields, 1.0 / np.sqrt(2.0), out=fields)
    fields.setflags(write=False)
    coupling = None
    if config.vcsel_on and config.diffusion_sigma > 0:
        coupling = _coupling_matrix(node_mask, config.diffusion_sigma)
    return Substrate(
        fields=fields,
        input_mask=input_mask,
        gain=1.0,
        config=config,
        _rng=rng,
        _coupling=coupling,
    )


def _coupling_matrix(node_mask: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian carrier-diffusion coupling between active nodes.

    Column-normalized so each source node redistributes its intensity
    without loss: total intensity is conserved exactly. After the
    normalization every entry below the smallest normal float is set to
    exactly 0.0: a subnormal operand slows the laser-response GEMM about
    6x, and at these weights no output or column sum moves a bit.
    """
    rows, cols = np.nonzero(node_mask)
    d2 = (rows[:, None] - rows[None, :]) ** 2 + (cols[:, None] - cols[None, :]) ** 2
    w = np.exp(-d2 / (2.0 * sigma * sigma))
    c = w / w.sum(axis=0, keepdims=True)
    c[c < np.finfo(float).tiny] = 0.0
    return c


def forward_batch(substrate: Substrate, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic forward pass of an (N, d, d) Boolean frame stack.

    Returns ``(states, index)``: ``states`` holds the (U, K) node intensities
    of the U distinct frames and ``index`` (N,) maps each frame to its row,
    so repeated frames (header batches draw from a handful of rendered
    images) are computed once; :func:`states_matrix` gathers the (N, K)
    batch matrix.

    The field at node j is the transmission row applied to the active input
    pixels; intensity is its squared modulus. The states are the
    :func:`laser_response` to these intensities. Measurement noise is
    applied later, at detection.
    """
    px = np.asarray(batch)
    side = substrate.config.input_side
    if px.ndim != 3 or px.shape[1:] != (side, side):
        raise UsageError(f"batch must be an (N, {side}, {side}) frame stack, got {px.shape}")
    if len(px) == 0:
        raise UsageError("forward_batch requires a non-empty batch")
    if px.dtype != bool:
        raise ConfigError(f"frames must be boolean, got {px.dtype}")
    # each bit-packed row compared as one opaque value: np.unique(axis=0)
    # compares Boolean columns one by one, ~300x slower on 64 px frames. Rows
    # in C order: a strided stack packs far slower and cannot be viewed as void
    flat = np.ascontiguousarray(px).reshape(len(px), -1)
    packed = np.packbits(flat, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    u = flat[first][:, substrate.input_mask.ravel()].astype(float)
    # node-major fields (real rows, then imaginary): states come out column-major
    f = substrate.fields @ u.T
    del u
    np.square(f, out=f)
    # a fresh sum, not one written into f[:K]: a view of f would pin all of it
    p = np.add(*np.split(f, 2)).T
    del f
    return laser_response(substrate, p), index


def laser_response(substrate: Substrate, p: np.ndarray) -> np.ndarray:
    """Node states for (U, K) speckle intensities ``p``. With the laser on,
    intensities pass through the saturable map p / (1 + s p) and the
    diffusion coupling; with the laser off they are returned as detected,
    unmodified. Each row is mapped on its own, so the laser-on states of a
    batch are this response to its laser-off states."""
    x = p
    if substrate.config.vcsel_on:
        x = p / (1.0 + substrate.config.saturation * p)
        if substrate._coupling is not None:
            x = (substrate._coupling @ x.T).T
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ConfigError("intensities must be finite and >= 0")
    return x


def states_matrix(states: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The (N, K) batch matrix of :func:`forward_batch`'s distinct states,
    gathered straight into one column-major (Fortran-order) array."""
    return np.take(states.T, index, axis=1).T


def advance_drift(substrate: Substrate, steps: int) -> None:
    """Advance the detector-path gain by ``steps`` of a seeded mean-reverting
    random walk, clamped to [0.5, 2.0]. Mutates the substrate in place;
    callers interleaving this with detection must serialize."""
    _check_count(steps, "steps", 0)
    g = substrate.gain
    ts = substrate.config.drift_timescale
    amp = substrate.config.drift_amplitude
    for _ in range(steps):
        g = g + (1.0 - g) / ts + amp * substrate._rng.standard_normal()
        g = min(2.0, max(0.5, g))
    substrate.gain = g
