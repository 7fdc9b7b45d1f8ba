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

#: largest target-level magnitude: the square of a level, or of two levels'
#: difference, stays below 1e301, so the error's sums cannot overflow
TARGET_LEVEL_BOUND = 1e150


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
        if not -TARGET_LEVEL_BOUND <= lo < hi <= TARGET_LEVEL_BOUND:
            raise ConfigError(f"target levels must satisfy -{TARGET_LEVEL_BOUND:g} <= low < high"
                              f" <= {TARGET_LEVEL_BOUND:g}, got {self.target_levels}")
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


def nmse(y_out: np.ndarray, y_target: np.ndarray, zscore: bool = False,
         centred_target: tuple[np.ndarray, float] | None = None) -> float | np.ndarray:
    """Normalized mean square error of a measured trace against its target:
    sum of squared residuals over N times the population standard deviation
    of the trace. A (near-)constant trace has no usable spread and returns
    +inf so it can never be accepted. Given a (C, N) stack of traces, it
    returns the (C,) errors of its rows, each bit for bit the row's own.

    With ``zscore`` it is the error of the trace z-scored onto the target's
    mean and spread (see :class:`Normalizer`), taken from the raw trace in
    one pass: 2 * std(t) * (1 - rho), where rho is the Pearson correlation
    of trace and target. It is clamped at 0 from below, and a constant
    target returns +inf too. Its sums are ``np.add.reduce``, not a BLAS dot,
    so the value does not depend on the thread count. ``centred_target`` is
    the target's centred copy and spread, ``_centred(y_target)``, when the
    caller holds them: a search scores every epoch against one target."""
    y = np.asarray(y_out, dtype=float)
    t = np.asarray(y_target, dtype=float)
    if y.shape != t.shape and y.shape[1:] != t.shape or t.ndim != 1:
        raise UsageError(f"trace/target must be equal-length vectors, or a stack of traces "
                         f"as wide as the target, got {y.shape} / {t.shape}")
    n = t.size
    if n < 2:
        raise UsageError(f"need at least 2 samples, got {n}")
    if zscore:
        d, sd = _centred(y)
        dt, sd_t = _centred(t) if centred_target is None else centred_target
        # the z-scored trace z = d / sd * sd_t + mean(t) has std(z) = sd_t,
        # so sum((z - t)**2) / (N * std(z)) = 2 * (sd_t - cov / (N * sd))
        cov = np.add.reduce(d * dt, -1)
        if y.ndim == 2:
            # a flat row's spread is raised to the floor only to divide safely
            e = np.maximum(2.0 * (sd_t - cov / (n * np.maximum(sd, STD_FLOOR))), 0.0)
            return np.where((sd < STD_FLOOR) | (sd_t < STD_FLOOR), math.inf, e)
        if sd < STD_FLOOR or sd_t < STD_FLOOR:
            return math.inf
        return float(max(2.0 * (sd_t - cov / (n * sd)), 0.0))
    sd = _centred(y)[1]
    if y.ndim == 2:
        r = y - t
        return np.divide(np.add.reduce(r * r, 1), n * sd, out=np.full(len(y), math.inf),
                         where=~(sd < STD_FLOOR))
    if sd < STD_FLOOR:
        return math.inf
    r = y - t
    return float(np.add.reduce(r * r) / (n * sd))


def _centred(y: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """``y - np.mean(y)`` and ``np.std(y)`` of a float vector, bit for bit:
    numpy's operations in numpy's order, without its per-call dispatch. For a
    (C, N) stack, the same of each row, the spreads as a (C,) array: numpy
    sums each row of a reduction as it sums that row alone."""
    n = y.shape[-1]
    if y.ndim == 1:
        d = y - np.add.reduce(y) / n
        return d, math.sqrt(np.add.reduce(d * d) / n)
    d = y - (np.add.reduce(y, 1) / n)[:, None]
    return d, np.sqrt(np.add.reduce(d * d, 1) / n)


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
    # a one-mirror move draws scalars: size=1's values and stream position
    # without its size check
    size = None if n == 1 else n
    positions = rng.integers(0, k, size=size)
    alphabet = ALPHABETS[mask.mode]
    # rng.choice(alphabet, size=n)'s values and stream position, without its overhead
    values = alphabet[rng.integers(0, alphabet.size, size=size)]
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
    off: raw traces. Under off and first_epoch a (C, N) stack of traces is
    conditioned row by row, each row bit for bit as alone; first_epoch
    freezes its map from the first row. The search's error,
    ``nmse(*norm.error_args(y))``, never builds a z-scored trace.
    """

    def __init__(self, mode: str, y_target: np.ndarray,
                 transform: tuple[float, float] | None = None):
        self.mode = mode
        self._t = np.array(y_target, dtype=float)
        self._centred_t = _centred(self._t)
        self._t_mean = float(np.mean(y_target))
        self._lo_level = float(np.min(y_target))
        self._hi_level = float(np.max(y_target))
        self.transform = transform

    def __call__(self, y: np.ndarray) -> np.ndarray:
        if self.mode == "off":
            return y
        if self.mode == "first_epoch":
            if self.transform is None:
                first = y.reshape(-1, y.shape[-1])[0]
                lo, hi = float(np.min(first)), float(np.max(first))
                self.transform = (lo, hi - lo if hi > lo else 1.0)
            lo, span = self.transform
            return (y - lo) / span * (self._hi_level - self._lo_level) + self._lo_level
        if y.ndim != 1:
            raise UsageError(f"a zscore normalizer takes one trace, got shape {y.shape}")
        d, sd = _centred(y)
        if sd < STD_FLOOR:
            return np.full_like(y, self._t_mean)
        return d / sd * self._centred_t[1] + self._t_mean

    def error_args(self, y: np.ndarray, z: np.ndarray | None = None) -> tuple:
        """The arguments of :func:`nmse` for the raw trace ``y`` (or a (C, N)
        stack) under this normalisation: under zscore the raw trace itself,
        for the one-pass error, with the target centred once per normaliser;
        otherwise ``self(y)``, or ``z`` if it is already made."""
        if self.mode == "zscore":
            return y, self._t, True, self._centred_t
        return self(y) if z is None else z, self._t, False, None


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
    best = nmse(*norm.error_args(_measured(forward_pass, mask, t, 0)))
    initial = best

    history: list[EpochRecord] = []
    since_improve = 0
    for epoch in range(1, cfg.max_epochs + 1):
        n = n_mirrors(cfg.alpha, best, cap=n_nodes)
        cand = propose(mask, n, rng)
        e = nmse(*norm.error_args(_measured(forward_pass, cand, t, epoch)))
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


def _measured(forward_pass, mask, t, epoch=None):
    """A raw measurement of ``mask``, named by ``epoch`` (0: the initial one)
    if it fails. The trace is checked here, so numpy never warns of inf - inf
    inside a normalisation."""
    y = np.asarray(forward_pass(mask), dtype=float)
    if y.shape != (t.size,):
        raise UsageError(f"forward_pass returned shape {y.shape}, expected ({t.size},)")
    if not np.isfinite(y).all():
        at = "" if epoch is None else f" at epoch {epoch}"
        raise NumericalError(f"forward_pass returned a non-finite trace{at}")
    return y


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
    norm = Normalizer(normalize, t, output_transform)
    y = _measured(forward_pass, mask, t)
    z = norm(y)
    return score(z, t, nmse(*norm.error_args(y, z)), threshold_rule)


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
