"""Error-adaptive in-situ search over Boolean/ternary readout masks.

Each epoch perturbs the current best mask at a number of positions tied to
the current error, keeps the candidate only if its measured error strictly
improves, and reverts otherwise. The error itself plays the role that
temperature plays in classical annealing: large error means large jumps,
small error means fine single-mirror moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError, UsageError, _check_types
from .readout import ALPHABETS, MODES, TernaryMask, random_mask

NORMALIZE_MODES = ("off", "zscore", "first_epoch")

#: guard below which the output spread counts as degenerate (constant trace)
STD_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one optimization run.

    ``normalize`` conditions each measured trace before the error (see
    :class:`Normalizer`). Under ``"off"`` the error is in raw detected-power
    units (hundreds at the stock physics), so at the usual gains
    ``ceil(alpha * nmse)`` saturates at the mask length K and every epoch
    becomes a full random redraw of the mask rather than an annealing step.
    The config checks itself when built.
    """

    alpha: float
    max_epochs: int
    mode: str = "ternary"
    seed: int = 0
    target_levels: tuple[float, float] = (0.0, 1.0)
    patience: int | None = None
    normalize: str = "off"

    def __post_init__(self):
        _check_types(self, "train")
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        lo, hi = self.target_levels
        if not lo < hi:
            raise ConfigError(f"target levels must satisfy low < high, got {self.target_levels}")
        if self.patience is not None and self.patience < 1:
            raise ConfigError(f"patience must be >= 1 or None, got {self.patience}")
        if self.normalize not in NORMALIZE_MODES:
            raise ConfigError(f"normalize must be one of {NORMALIZE_MODES}, got {self.normalize!r}")
        if not 0 <= self.seed < 2 ** 32:
            raise ConfigError(f"train seed must be in [0, 2**32), got {self.seed}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    nmse_best: float
    n_mirrors: int
    accepted: bool


@dataclass(frozen=True)
class TrainResult:
    best_mask: TernaryMask
    history: tuple[EpochRecord, ...]
    final_nmse: float
    initial_nmse: float
    output_transform: tuple[float, float] | None = None

    @property
    def n_accepted(self) -> int:
        return sum(r.accepted for r in self.history)


def nmse(y_out: np.ndarray, y_target: np.ndarray) -> float:
    """Normalized mean square error of a measured trace against its target:
    sum of squared residuals over N times the population standard deviation
    of the trace. A (near-)constant trace has no usable spread and returns
    +inf so it can never be accepted."""
    y = np.asarray(y_out, dtype=float)
    t = np.asarray(y_target, dtype=float)
    if y.shape != t.shape or y.ndim != 1:
        raise UsageError(f"trace/target must be equal-length vectors, got {y.shape} / {t.shape}")
    n = y.size
    if n < 2:
        raise UsageError(f"need at least 2 samples, got {n}")
    sd = _centred(y)[1]
    if sd < STD_FLOOR:
        return math.inf
    r = y - t
    return float(np.add.reduce(r * r) / (n * sd))


def _centred(y: np.ndarray) -> tuple[np.ndarray, float]:
    """``y - np.mean(y)`` and ``np.std(y)`` of a float vector, bit for bit:
    numpy's operations in numpy's order, without its per-call dispatch."""
    d = y - np.add.reduce(y) / y.size
    return d, math.sqrt(np.add.reduce(d * d) / y.size)


def n_mirrors(alpha: float, nmse_k: float, cap: int) -> int:
    """Number of mirror positions to perturb this epoch: ceil(alpha * error),
    floored at one so the search always moves. The ceiling is evaluated
    exactly on the integer ratios of both floats; a float product can round
    across an integer boundary. The count is capped at the mask length
    ``cap``, which an infinite error (degenerate trace) takes.

    The error is taken as given. With ``normalize="off"`` it is in raw
    detected-power units, where ceil(alpha * error) saturates at ``cap``
    and every epoch redraws the whole mask."""
    if alpha < 0 or not math.isfinite(alpha):
        raise UsageError(f"alpha must be finite and >= 0, got {alpha}")
    if not nmse_k >= 0:
        raise UsageError(f"nmse must be >= 0, got {nmse_k}")
    if math.isinf(nmse_k):
        return cap
    na, da = float(alpha).as_integer_ratio()
    nb, db = float(nmse_k).as_integer_ratio()
    n = max(1, -((-na * nb) // (da * db)))
    return min(n, cap)


def propose(mask: TernaryMask, n: int, rng: np.random.Generator) -> TernaryMask:
    """Candidate mask: ``n`` positions drawn uniformly with replacement, each
    reassigned a uniform symbol from the mask's own alphabet. The input mask
    is left untouched. A redrawn symbol may equal the old one, so the
    candidate differs from the original in at most ``n`` positions."""
    k = len(mask)
    if not 1 <= n <= k:
        raise UsageError(f"n must be in [1, {k}], got {n}")
    positions = rng.integers(0, k, size=n)
    alphabet = ALPHABETS[mask.mode]
    # rng.choice(alphabet, size=n)'s values and stream position, without its overhead
    values = alphabet[rng.integers(0, alphabet.size, size=n)]
    w = np.array(mask.weights, dtype=np.int8, copy=True)
    # duplicate positions resolve to the last drawn value, as in a sequential loop
    w[positions] = values
    # a valid mask with symbols of its own alphabet needs no re-check
    return TernaryMask._trusted(w, mask.mode)


class Normalizer:
    """Optional affine conditioning of raw detector traces before the error.

    zscore: each measured trace is standardized and mapped onto the target's
    mean and spread, so the error compares shapes regardless of the raw
    detection scale. first_epoch: an affine map ``transform = (low, span)``,
    unless given, is frozen from the first trace the normalizer is called on
    (min -> low level, max -> high level) and applied to all later traces.
    off: raw traces.
    """

    def __init__(self, mode: str, y_target: np.ndarray,
                 transform: tuple[float, float] | None = None):
        self.mode = mode
        self._t_mean = float(np.mean(y_target))
        self._t_std = float(np.std(y_target))
        self._lo_level = float(np.min(y_target))
        self._hi_level = float(np.max(y_target))
        self.transform = transform

    def __call__(self, y: np.ndarray) -> np.ndarray:
        if self.mode == "off":
            return y
        if self.mode == "first_epoch":
            if self.transform is None:
                lo, hi = float(np.min(y)), float(np.max(y))
                self.transform = (lo, hi - lo if hi > lo else 1.0)
            lo, span = self.transform
            return (y - lo) / span * (self._hi_level - self._lo_level) + self._lo_level
        d, sd = _centred(y)
        if sd < STD_FLOOR:
            return np.full_like(y, self._t_mean)
        return d / sd * self._t_std + self._t_mean


def train(forward_pass: Callable[[TernaryMask], np.ndarray], y_target: np.ndarray,
          cfg: TrainConfig, n_nodes: int) -> TrainResult:
    """Run the adaptive accept-if-better search over masks of ``n_nodes``
    entries, starting from a seeded random mask.

    ``forward_pass`` measures one candidate mask on the fixed training batch
    and returns the N-vector of readout outputs (it owns the substrate, the
    detector and its noise). Identical config, seed and a deterministic
    forward pass reproduce the identical result.
    """
    t = np.asarray(y_target, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    mask = random_mask(n_nodes, cfg.mode, rng)

    norm = Normalizer(cfg.normalize, t)
    best = _measured(forward_pass, mask, norm, t, 0)[1]
    initial = best

    history: list[EpochRecord] = []
    since_improve = 0
    for epoch in range(1, cfg.max_epochs + 1):
        n = n_mirrors(cfg.alpha, best, cap=n_nodes)
        cand = propose(mask, n, rng)
        e = _measured(forward_pass, cand, norm, t, epoch)[1]
        accepted = e < best
        if accepted:
            mask, best = cand, e
            since_improve = 0
        else:
            since_improve += 1
        history.append(EpochRecord(epoch=epoch, nmse_best=best, n_mirrors=n, accepted=accepted))
        if cfg.patience is not None and since_improve >= cfg.patience:
            break
    return TrainResult(best_mask=mask, history=tuple(history), final_nmse=best,
                       initial_nmse=initial, output_transform=norm.transform)


def _measured(forward_pass, mask, norm, t, epoch=None):
    """A normalised measurement of ``mask`` and its error, named by ``epoch``
    (0: the initial one) if it fails. A non-finite sample makes the error NaN
    under every normalisation, so one scalar test checks the whole trace."""
    y = np.asarray(forward_pass(mask), dtype=float)
    if y.shape != (t.size,):
        raise UsageError(f"forward_pass returned shape {y.shape}, expected ({t.size},)")
    y = norm(y)
    e = nmse(y, t)
    if math.isnan(e):
        at = "" if epoch is None else f" at epoch {epoch}"
        raise NumericalError(f"forward_pass returned a non-finite trace{at}")
    return y, e


@dataclass(frozen=True)
class Metrics:
    """Evaluation summary of one mask on one batch."""

    nmse: float
    accuracy: float
    ser: float
    threshold: float


def midpoint_threshold(y_out: np.ndarray, y_target: np.ndarray) -> float:
    """Midpoint of the class-conditional mean outputs."""
    pos = _positive_class(y_target)
    if not pos.any() or pos.all():
        raise UsageError("midpoint threshold needs both classes present")
    return float((y_out[pos].mean() + y_out[~pos].mean()) / 2.0)


def _positive_class(y_target: np.ndarray) -> np.ndarray:
    t = np.asarray(y_target, dtype=float)
    return t > (t.min() + t.max()) / 2.0


def evaluate(forward_pass: Callable[[TernaryMask], np.ndarray], mask: TernaryMask,
             y_target: np.ndarray, threshold_rule: float | str = "midpoint",
             normalize: str = "off",
             output_transform: tuple[float, float] | None = None) -> Metrics:
    """Measure a mask once and :func:`score` its normalized trace."""
    t = np.asarray(y_target, dtype=float)
    y_n, err = _measured(forward_pass, mask, Normalizer(normalize, t, output_transform), t)
    return score(y_n, t, err, threshold_rule)


def score(y_out: np.ndarray, y_target: np.ndarray, err: float,
          threshold_rule: float | str = "midpoint") -> Metrics:
    """Metrics of one output trace with error ``err``: accuracy and symbol
    error rate under the decision ``y > threshold``, where ``threshold_rule``
    is "midpoint" (this trace's class-conditional means) or a frozen numeric
    threshold carried over from a training batch."""
    t = np.asarray(y_target, dtype=float)
    if isinstance(threshold_rule, str):
        if threshold_rule != "midpoint":
            raise UsageError(f"unknown threshold rule {threshold_rule!r}")
        thr = midpoint_threshold(y_out, t)
    else:
        thr = float(threshold_rule)
    ser = float(np.mean((y_out > thr) != _positive_class(t)))
    return Metrics(nmse=err, accuracy=1.0 - ser, ser=ser, threshold=thr)
