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

from .errors import NumericalError, UsageError, _check_fields, domain
from .readout import ALPHABETS, MODES, TernaryMask, random_mask

#: a trace is flat when its spread is at most this times its mean's magnitude
STD_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one optimization run. The config checks itself
    when built."""

    alpha: float = domain(low=0)
    max_epochs: int = domain(low=1)
    mode: str = domain("ternary", choices=MODES)
    seed: int = domain(0, 0, 2 ** 32)
    patience: int | None = domain(None, 1)

    def __post_init__(self):
        _check_fields(self, "train")


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

    @property
    def n_accepted(self) -> int:
        return sum(r.accepted for r in self.history)


def nmse(y_out: np.ndarray, y_target: np.ndarray,
         centred_target: tuple[np.ndarray, float] | None = None) -> float:
    """The error of one measured trace against its target: the normalized
    mean square error of the trace z-scored onto the target's mean and
    spread (see :func:`zscored`), sum((z - t)**2) / (N * std(z)). It is
    taken from the raw trace in one pass: 2 * std(t) * (1 - rho), where rho
    is the Pearson correlation of trace and target, so no scale or offset of
    the trace moves it. It is clamped at 0 from below. A flat trace or
    target (see :func:`_centred`) returns +inf, so it can never be accepted.
    Its sums are ``np.add.reduce``, not a BLAS dot, so the value does not
    depend on the thread count. ``centred_target`` is ``_centred(y_target)``
    when the caller holds it: a search scores every epoch against one target."""
    y = np.asarray(y_out, dtype=float)
    t = np.asarray(y_target, dtype=float)
    if y.shape != t.shape or t.ndim != 1:
        raise UsageError(f"trace/target must be equal-length vectors, got {y.shape} / {t.shape}")
    n = t.size
    if n < 2:
        raise UsageError(f"need at least 2 samples, got {n}")
    d, sd = _centred(y)
    dt, sd_t = _centred(t) if centred_target is None else centred_target
    if sd == 0.0 or sd_t == 0.0:
        return math.inf
    # the z-scored trace z = d / sd * sd_t + mean(t) has std(z) = sd_t,
    # so sum((z - t)**2) / (N * std(z)) = 2 * (sd_t - cov / (N * sd))
    return float(max(2.0 * (sd_t - np.add.reduce(d * dt) / (n * sd)), 0.0))


def _centred(y: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """``y - np.mean(y)`` and ``np.std(y)`` of a float vector, bit for bit:
    numpy's operations in numpy's order, without its per-call dispatch. For
    the (C, N) block of ``consistency``, the same of each row, the spreads as
    a (C,) array: numpy sums each row of a reduction as it sums it alone. A
    vector is scaled by its largest deviation where its squares would under-
    or overflow. The one test of a constant trace: a flat one has spread 0.0."""
    n = y.shape[-1]
    if y.ndim == 1:
        mean = float(np.add.reduce(y)) / n
        d = y - mean
        sd = math.sqrt(np.add.reduce(d * d) / n) if abs(mean) < 1e150 else math.inf
        if not 1e-150 < sd < 1e150:
            k = float(np.maximum.reduce(np.abs(d))) or 1.0
            sd = k * math.sqrt(np.add.reduce((d / k) ** 2) / n)
        return d, 0.0 if sd <= STD_FLOOR * abs(mean) else sd
    d = y - (mean := np.add.reduce(y, 1) / n)[:, None]
    sd = np.sqrt(np.add.reduce(d * d, 1) / n)
    sd[sd <= STD_FLOOR * np.abs(mean)] = 0.0
    return d, sd


def n_mirrors(alpha: float, nmse_k: float, cap: int) -> int:
    """Number of mirror positions to perturb this epoch: ceil(alpha * error),
    floored at one so the search always moves. The ceiling is evaluated
    exactly on the integer ratios of both floats; a float product can round
    across an integer boundary. The count is capped at the mask length
    ``cap``, which an infinite error (degenerate trace) takes."""
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


def zscored(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The trace ``y`` standardized and mapped onto the mean and spread of
    its target ``t``, so it reads in target units whatever the detection
    scale; a flat trace maps to the target's mean. :func:`nmse` is the error
    of this trace against ``t``, taken without building it."""
    d, sd = _centred(y)
    if sd == 0.0:
        return np.full_like(y, float(np.mean(t)))
    return d / sd * _centred(t)[1] + float(np.mean(t))


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

    ct = _centred(t)
    best = nmse(_measured(forward_pass, mask, t, 0), t, ct)
    initial = best

    history: list[EpochRecord] = []
    since_improve = 0
    for epoch in range(1, cfg.max_epochs + 1):
        n = n_mirrors(cfg.alpha, best, cap=n_nodes)
        cand = propose(mask, n, rng)
        e = nmse(_measured(forward_pass, cand, t, epoch), t, ct)
        accepted = e < best
        if accepted:
            mask, best = cand, e
        since_improve = 0 if accepted else since_improve + 1
        history.append(EpochRecord(epoch=epoch, nmse_best=best, n_mirrors=n, accepted=accepted))
        if cfg.patience is not None and since_improve >= cfg.patience:
            break
    return TrainResult(best_mask=mask, history=tuple(history), final_nmse=best,
                       initial_nmse=initial)


def _measured(forward_pass, mask, t, epoch=None):
    """A raw measurement of ``mask``, named by ``epoch`` (0: the initial one)
    if it fails. The trace is checked here, so numpy never warns of inf - inf
    inside the error."""
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
             y_target: np.ndarray, threshold_rule: float | str = "midpoint") -> Metrics:
    """Measure a mask once and :func:`score` its z-scored trace."""
    t = np.asarray(y_target, dtype=float)
    y = _measured(forward_pass, mask, t)
    return score(zscored(y, t), t, nmse(y, t), threshold_rule)


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
