"""Ternary readout plane, its two-plane Boolean decomposition, and the
subtractive scalar detection.

The mirror array can only route light toward or away from the detector, so a
ternary weight vector is realized as two disjoint Boolean planes measured
sequentially; the negative weights come from subtracting the two detected
signals electronically.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, UsageError

ALPHABETS = {"boolean": np.array([0, 1], dtype=np.int8),
             "ternary": np.array([-1, 0, 1], dtype=np.int8)}
MODES = tuple(ALPHABETS)


@dataclass(frozen=True)
class TernaryMask:
    """Readout weight vector with entries in {-1, 0, +1}.

    Boolean mode restricts the alphabet to {0, +1}; ternary mode allows all
    three symbols.
    """

    weights: np.ndarray
    mode: str = "ternary"

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.ndim != 1 or w.size < 1:
            raise ShapeError(f"weights must be a non-empty vector, got shape {w.shape}")
        if not ((w == -1) | (w == 0) | (w == 1)).all():
            raise ConfigError("weights must take values in {-1, 0, +1}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "boolean" and np.any(w == -1):
            raise ConfigError("boolean-mode masks cannot contain -1")

    @classmethod
    def _trusted(cls, weights: np.ndarray, mode: str) -> "TernaryMask":
        """A mask built without the checks, for weights valid by construction."""
        mask = object.__new__(cls)
        mask.__dict__.update(weights=weights, mode=mode)
        return mask

    def __len__(self) -> int:
        return self.weights.size

    def __eq__(self, other) -> bool:
        return (isinstance(other, TernaryMask) and self.mode == other.mode
                and np.array_equal(self.weights, other.weights))


def decompose(mask: TernaryMask) -> tuple[np.ndarray, np.ndarray]:
    """Split a ternary mask into its (+1) plane and (-1) plane: two Boolean
    vectors naming the nodes each detector configuration collects.

    The planes are disjoint by construction: no node can be routed to both
    detector configurations.
    """
    w = np.asarray(mask.weights)
    return w == 1, w == -1


def random_mask(length: int, mode: str = "ternary", seed: int | np.random.Generator = 0) -> TernaryMask:
    """Uniform random mask over the mode's alphabet, deterministic per seed."""
    if length < 1:
        raise UsageError(f"length must be >= 1, got {length}")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return TernaryMask(weights=rng.choice(ALPHABETS[mode], size=length), mode=mode)


class DetectorModel:
    """Scalar photodetector with additive gaussian noise.

    ``noise_sigma`` is relative to ``noise_scale``, a fixed reference power
    calibrated once per experiment as the mean all-on detected power. One
    noise value is drawn per sample and plane sweep from the seeded stream,
    so measurement sequences are reproducible.
    """

    def __init__(self, noise_sigma: float = 0.0, seed: int = 0,
                 noise_scale: float = 1.0):
        if not math.isfinite(noise_sigma) or noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
        self.noise_sigma = noise_sigma
        self.noise_scale = noise_scale
        self._rng = np.random.default_rng(seed)

    def detect(self, power: np.ndarray, gain: float) -> np.ndarray:
        """Detected power of one plane sweep across the batch: ``gain`` times
        the (N,) noiseless plane power, plus one noise draw per sample."""
        sd = self.noise_sigma * self.noise_scale
        return gain * power + sd * self._rng.standard_normal(power.shape[0])


def plane_power(states: np.ndarray, plane: np.ndarray) -> np.ndarray:
    """Noiseless power one Boolean (K,) plane collects from each row of an
    (N, K) state matrix: the sum of the selected intensities, at unit gain."""
    if states.shape[1] != plane.size:
        raise ShapeError(f"state width {states.shape[1]} != plane length {plane.size}")
    return states @ plane.astype(float)


def readout_batch(power: Callable[[np.ndarray], np.ndarray], mask: TernaryMask,
                  substrate_gain: float, det: DetectorModel) -> np.ndarray:
    """Scalar output per sample: subtraction of the two plane detections.

    ``power`` maps a Boolean plane to its (N,) noiseless power, e.g.
    ``functools.partial(plane_power, states)`` or a rig's cached lookup.
    The (+1) plane is swept over the whole batch, then the (-1) plane,
    mirroring how the hardware sequences its measurements: a ternary mask
    costs two noise draws per sample, a Boolean mask only its (+1) plane,
    one draw.
    """
    plus, minus = decompose(mask)
    if mask.mode == "boolean":
        return det.detect(power(plus), substrate_gain)
    return det.detect(power(plus), substrate_gain) - det.detect(power(minus), substrate_gain)
