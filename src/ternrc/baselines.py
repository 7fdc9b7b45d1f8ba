"""Digital linear classifier trained by ridge regression on reservoir
states; the reference point the trained masks are compared against."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError, UsageError
from .optimizer import Metrics, midpoint_threshold, nmse, score, _positive_class


@dataclass(frozen=True)
class RidgeModel:
    weights: np.ndarray
    bias: float
    lam: float


def _as_matrix(states) -> np.ndarray:
    x = np.asarray(states, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"states must form an (N, K) matrix, got shape {x.shape}")
    return x


def ridge_fit(states, targets, lam: float = 0.0) -> RidgeModel:
    """Closed-form regularized least squares on mean-centered states.

    The bias absorbs the centering and is not penalized; only the weights
    are. With lam = 0 an underdetermined system is reported instead of
    silently pseudo-solved.
    """
    x = _as_matrix(states)
    y = np.asarray(targets, dtype=float)
    n, k = x.shape
    if n < 2 or y.shape != (n,):
        raise UsageError(f"need >= 2 samples with matching targets, got {x.shape} / {y.shape}")
    if lam < 0 or not math.isfinite(lam):
        raise UsageError(f"lambda must be finite and >= 0, got {lam}")
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    if lam == 0 and np.linalg.matrix_rank(xc) < k:
        # the normal equations stay consistent when rank-deficient, so a
        # post-hoc residual check cannot catch this; test the rank directly
        raise NumericalError(
            "centered states are rank-deficient, the unregularized system is "
            "singular; use lambda > 0")
    gram = xc.T @ xc + lam * np.eye(k)
    rhs = xc.T @ (y - y_mean)
    try:
        w = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"normal equations are singular with lambda={lam}; use lambda > 0") from exc
    if not np.all(np.isfinite(w)):
        raise NumericalError(
            f"normal equations are numerically singular with lambda={lam}; use lambda > 0")
    bias = y_mean - float(x_mean @ w)
    return RidgeModel(weights=w, bias=bias, lam=lam)


def ridge_predict(model: RidgeModel, states) -> np.ndarray:
    x = _as_matrix(states)
    if x.shape[1] != model.weights.size:
        raise ShapeError(f"state width {x.shape[1]} != model width {model.weights.size}")
    return x @ model.weights + model.bias


def ridge_eval(model: RidgeModel, states, targets,
               threshold_rule: float | str = "midpoint") -> Metrics:
    """Score model predictions with the same error/threshold contract used
    for trained masks."""
    t = np.asarray(targets, dtype=float)
    y = ridge_predict(model, states)
    return score(y, t, nmse(y, t), threshold_rule)


def lambda_sweep(states, targets, grid, folds: int = 5) -> float:
    """Pick the regularization strength by k-fold cross-validated accuracy;
    ties resolve to the smaller lambda. Folds are deterministic (sample i
    goes to fold i mod folds), so the selection is reproducible."""
    if len(grid) == 0:
        raise UsageError("lambda grid must be non-empty")
    if folds < 2:
        raise UsageError(f"folds must be >= 2, got {folds}")
    x = _as_matrix(states)
    y = np.asarray(targets, dtype=float)
    n, k = x.shape
    fold_of = np.arange(n) % folds

    # per-fold gram/moment matrices are built once and reused for every lambda
    prepared = []
    for f in range(folds):
        tr = fold_of != f
        xt, yt = x[tr], y[tr]
        x_mean, y_mean = xt.mean(axis=0), float(yt.mean())
        xc = xt - x_mean
        prepared.append((xc.T @ xc, xc.T @ (yt - y_mean), x_mean, y_mean,
                         x[~tr], y[~tr], xt, yt))

    best_lam, best_acc = None, -1.0
    eye = np.eye(k)
    for lam in sorted(float(v) for v in grid):
        accs = []
        for gram, rhs, x_mean, y_mean, xv, yv, xt, yt in prepared:
            try:
                w = np.linalg.solve(gram + lam * eye, rhs)
            except np.linalg.LinAlgError:
                accs.append(0.0)
                continue
            bias = y_mean - float(x_mean @ w)
            thr = midpoint_threshold(xt @ w + bias, yt)
            pred = xv @ w + bias > thr
            accs.append(float(np.mean(pred == _positive_class(yv))))
        acc = float(np.mean(accs))
        if acc > best_acc:
            best_lam, best_acc = lam, acc
    return best_lam
