"""Simulated optical forward path: input plane -> random complex mixing ->
saturable nonlinearity -> node intensity grid.

The substrate stands in for the physical hardware at desk scale: a frozen
random transmission matrix models the multimode-fibre speckle, a static
saturable map models the laser operated in its steady state, and a gaussian
coupling over the node grid models carrier diffusion. A linear rig, whose
states are the speckle intensities, is saturation 0 with no diffusion.

Shapes: a batch holds its U frames once, as a (U, d, d) Boolean stack,
d = ``input_side``, and an (N,) index of each sample's frame; a header
batch renders each drawn header once, so its repeats are never computed.
The (K, D) complex transmission T of the K active nodes and the D aperture
pixels is never held: each forward pass draws its real (2K, D) form
[Re T; Im T] from the seed in row blocks, and positions the drift stream.
:func:`forward_batch` is the optics: it returns the (U, K) speckle
intensities of the frames it is given. :func:`laser_response` is the
laser: it maps the intensities, which are the laser-off states, to the
laser-on states in place and row by row, so a gathered matrix maps as its
distinct rows do. :func:`states_matrix` gathers the (N, K) batch matrix
column-major, each node's column contiguous for the readout.

Every work array of the optics and the laser spans at most one
:data:`FRAME_CHUNK` of frames: the fields come from one real GEMM per row
block and frame chunk, the coupling from one per chunk. Every sum is exact
(see :data:`GRID`, :func:`_on_grid` and :data:`WEIGHT_BITS`), so the states
keep their bytes under any block, chunk, frame set, BLAS kernel or thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UsageError, _check_count, _check_fields, domain


#: spacing of the transmission entries: numpy's ziggurat returns no |z| >= 13.8,
#: so each is below 2**34 grid units, and a field over fewer than 2**19 pixels
#: is a sum of integers below 2**53 units, exact in any order; 817 px is the
#: widest such aperture (524,249 pixels)
GRID, INPUT_SIDE_BOUND = 2.0 ** -30, 817

#: doubles in one row block of the drawn transmission (1 MB): 212 rows at 28 px
TRANSMISSION_BLOCK = 2 ** 17

#: most frames multiplied into a transmission block at a time
FRAME_CHUNK = 256

#: the coupling's weights are multiples of 2**-WEIGHT_BITS; the laser's map spares as many bits
WEIGHT_BITS = 18

#: bounds that keep the laser's s * p, the coupling's 2 * sigma**2 and noise squares normal
SATURATION_BOUND, DIFFUSION_SIGMA_FLOOR, NOISE_SIGMA_BOUND = 1e150, 1e-100, 1e100

#: bytes a run's largest arrays may take: the coupling's two (K, K) doubles bound grid_side at
#: 121 (K = 11,513), and the state matrices and frames bound n_samples (harness.ExperimentConfig)
MEMORY_BUDGET, GRID_SIDE_BOUND = 2 ** 31, 121


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

    grid_side: int = domain(24, 2, GRID_SIDE_BOUND, "[]")
    input_side: int = domain(28, 4, INPUT_SIDE_BOUND, "[]")
    saturation: float = domain(0.005, 0, SATURATION_BOUND, "[]")
    diffusion_sigma: float = domain(0.5, 0)
    noise_sigma: float = domain(0.001, 0, NOISE_SIGMA_BOUND, "[]")
    drift_amplitude: float = domain(0.002, 0)
    drift_timescale: float = domain(500.0, 0, ends="()")
    seed: int = domain(0, 0, 2 ** 32)

    def __post_init__(self):
        _check_fields(self, "substrate")
        if 0 < (v := self.diffusion_sigma) < DIFFUSION_SIGMA_FLOOR:
            raise ConfigError(f"diffusion_sigma must be 0 or >= {DIFFUSION_SIGMA_FLOOR:g}, got {v}")


@dataclass
class Substrate:
    """Frozen optical path plus the slowly drifting detector-path gain.

    It keeps the shape of its (K, D) transmission, ``n_nodes`` by
    ``n_inputs``; the seed fixes the matrix, which each forward pass draws
    again. The drift stream ``_rng`` is the seed's generator after one whole
    draw: the first forward pass sets it, or :func:`advance_drift` if that
    comes first. Only ``gain`` and that stream mutate.
    """

    n_nodes: int
    n_inputs: int
    input_mask: np.ndarray
    gain: float
    config: SubstrateConfig
    _rng: np.random.Generator | None = field(default=None, repr=False)
    _coupling: np.ndarray | None = field(default=None, repr=False)


def build_substrate(config: SubstrateConfig) -> Substrate:
    """The aperture geometry and coupling of a config. The transmission each
    forward pass draws from the seed has i.i.d. circular complex gaussian
    entries of unit variance (speckle statistics of a multimode fibre) on the
    :data:`GRID`. The same config always reproduces the same substrate."""
    node_mask = circle_mask(config.grid_side)
    input_mask = circle_mask(config.input_side)
    coupling = (_coupling_matrix(node_mask, config.diffusion_sigma)
                if config.diffusion_sigma > 0 else None)
    return Substrate(n_nodes=int(node_mask.sum()), n_inputs=int(input_mask.sum()),
                     input_mask=input_mask, gain=1.0, config=config, _coupling=coupling)


def _on_grid(x: np.ndarray, spare: int = 0) -> np.ndarray:
    """Round each column (one frame) of a node-major (K, U) array in place to
    multiples of 2**(e - 53 + ceil(log2 K) + ``spare``), 2**e the least power
    of two above its largest entry: any sum of a column's entries is exact."""
    e = np.frexp(x.max(axis=0))[1] - 53 + (len(x) - 1).bit_length() + spare
    np.rint(np.ldexp(x, -e, out=x), out=x)
    return np.ldexp(x, e, out=x)


def _transmission_blocks(substrate: Substrate):
    """Yield the real (2K, D) transmission [Re T; Im T] as (first row, rows)
    blocks of at most :data:`TRANSMISSION_BLOCK` doubles: one
    ``standard_normal`` stream from the seed, each entry scaled in place by
    1/sqrt(2) as numpy divides a complex by a real and rounded to the nearest
    multiple of :data:`GRID` (a scale by 2**30, ``np.rint``, a scale back).
    After the last block the generator becomes the drift stream if the
    substrate has none yet."""
    rng = np.random.default_rng(substrate.config.seed)
    rows, d = 2 * substrate.n_nodes, substrate.n_inputs
    step = max(1, TRANSMISSION_BLOCK // d)
    for lo in range(0, rows, step):
        block = rng.standard_normal((min(step, rows - lo), d))
        np.rint(np.multiply(block, 1.0 / np.sqrt(2.0) / GRID, out=block), out=block)
        yield lo, np.multiply(block, GRID, out=block)
        del block
    if substrate._rng is None:
        substrate._rng = rng


def _coupling_matrix(node_mask: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian carrier-diffusion coupling between active nodes, each column
    normalized so its source node redistributes its intensity without loss:
    each weight floored to a multiple of 2**-WEIGHT_BITS, the column's
    remainder put on its diagonal, so every column sums to exactly 1. Built
    in place in the (K, K) result but for one array of column offsets."""
    rows, cols = np.nonzero(node_mask)
    w = np.square(np.subtract.outer(rows, rows, dtype=float))
    dc = np.subtract.outer(cols, cols, dtype=float)
    w += np.square(dc, out=dc)
    np.exp(np.divide(w, -2.0 * sigma * sigma, out=w), out=w)
    w /= w.sum(axis=0)
    np.floor(np.multiply(w, 2.0 ** WEIGHT_BITS, out=w), out=w)
    w[np.diag_indices_from(w)] += 2.0 ** WEIGHT_BITS - w.sum(axis=0)
    w *= 2.0 ** -WEIGHT_BITS
    return w


def forward_batch(substrate: Substrate, batch: np.ndarray) -> np.ndarray:
    """Deterministic optical pass of a (U, d, d) Boolean frame stack: the
    (U, K) speckle intensities of its frames, column-major, each frame
    computed. :func:`laser_response` maps them to node states and
    :func:`states_matrix` gathers a batch's (N, K) matrix by its index.

    The field at node j is the transmission row applied to the lit aperture
    pixels, its intensity the squared modulus on the frame's :func:`_on_grid`;
    noise comes at detection.
    """
    px = np.asarray(batch)
    side = substrate.config.input_side
    if px.ndim != 3 or px.shape[1:] != (side, side):
        raise UsageError(f"batch must be a (U, {side}, {side}) frame stack, got {px.shape}")
    if len(px) == 0:
        raise UsageError("forward_batch requires a non-empty batch")
    if px.dtype != bool:
        raise ConfigError(f"frames must be boolean, got {px.dtype}")
    lit = px[:, substrate.input_mask]
    # node-major intensities, so states come out column-major: squared real rows
    # written into p, squared imaginary rows added; each array dropped before the next
    k = substrate.n_nodes
    p = np.empty((k, len(lit)))
    for lo, block in _transmission_blocks(substrate):
        re = min(max(k - lo, 0), len(block))
        for c in range(0, len(lit), FRAME_CHUNK):
            f = block @ lit[c:c + FRAME_CHUNK].astype(float).T
            np.square(f[:re], out=p[lo:lo + re, c:c + FRAME_CHUNK])
            # empty unless the block holds imaginary rows
            p[lo + re - k:lo + len(block) - k, c:c + FRAME_CHUNK] += np.square(f[re:], out=f[re:])
            del f
        del block
    return _on_grid(p).T


def laser_response(substrate: Substrate, p: np.ndarray) -> np.ndarray:
    """Node states of (U, K) speckle intensities ``p``, written over ``p`` and
    returned, one :data:`FRAME_CHUNK` of rows at a time, each row on its own:
    the saturable map p / (1 + s p) on the frame's grid of :data:`WEIGHT_BITS`
    spare bits, then the diffusion coupling, an exact sum that keeps the
    frame's total. A linear rig, saturation 0 with no diffusion, returns
    ``p`` bit for bit."""
    s, coupling, rows = substrate.config.saturation, substrate._coupling, p.T
    for c in range(0, len(p), FRAME_CHUNK):
        x = rows[:, c:c + FRAME_CHUNK]
        np.divide(x, 1.0 + s * x, out=x)
        if s > 0 or coupling is not None:
            _on_grid(x, WEIGHT_BITS)
        if coupling is not None:
            x[...] = coupling @ x
        if not (x.min() >= 0 and x.max() < math.inf):
            raise ConfigError("intensities must be finite and >= 0")
    return p


def states_matrix(states: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The (N, K) batch matrix of (U, K) distinct rows and their (N,)
    ``index``, gathered straight into one column-major (Fortran-order) array."""
    return np.take(states.T, index, axis=1).T


def advance_drift(substrate: Substrate, steps: int) -> None:
    """Advance the detector-path gain by ``steps`` of a seeded mean-reverting
    random walk, clamped to [0.5, 2.0]. Mutates the substrate in place;
    callers interleaving this with detection must serialize."""
    _check_count(steps, "steps", 0)
    if substrate._rng is None:
        # no pass has drawn the transmission yet: the stream starts after it
        for _ in _transmission_blocks(substrate):
            pass
    g, ts, amp = substrate.gain, substrate.config.drift_timescale, substrate.config.drift_amplitude
    for _ in range(steps):
        g = g + (1.0 - g) / ts + amp * substrate._rng.standard_normal()
        g = min(2.0, max(0.5, g))
    substrate.gain = g
