"""Digital linear classifier trained by ridge regression on reservoir
states; the reference point the trained masks are compared against."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UsageError, _check_count
from .optimizer import Metrics, midpoint_threshold, nmse, score, _positive_class

#: cross-validation folds of the ridge baseline's lambda selection
RIDGE_FOLDS = 5


@dataclass(frozen=True)
class RidgeModel:
    weights: np.ndarray
    bias: float


def _as_matrix(states) -> np.ndarray:
    x = np.asarray(states, dtype=float)
    if x.ndim != 2:
        raise UsageError(f"states must form an (N, K) matrix, got shape {x.shape}")
    return x


def _regularised(gram: np.ndarray, lam: float) -> np.ndarray:
    """``gram + lam * np.eye(k)`` as one copy, ``lam`` added to its diagonal."""
    out = gram.copy()
    out[np.diag_indices_from(out)] += lam
    return out


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
    gram = _regularised(xc.T @ xc, lam)
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
    return RidgeModel(weights=w, bias=bias)


def ridge_eval(model: RidgeModel, states, targets,
               threshold_rule: float | str = "midpoint") -> Metrics:
    """Score the model's predictions ``states @ weights + bias``: their error
    is the one error of a trained mask, while the threshold and accuracy
    read the predictions as they are, already in target units."""
    t = np.asarray(targets, dtype=float)
    x = _as_matrix(states)
    if x.shape[1] != model.weights.size:
        raise UsageError(f"state width {x.shape[1]} != model width {model.weights.size}")
    y = x @ model.weights + model.bias
    return score(y, t, nmse(y, t), threshold_rule)


def lambda_sweep(states, targets, grid, folds: int = RIDGE_FOLDS) -> float:
    """Pick the regularization strength by k-fold cross-validated accuracy;
    ties resolve to the smaller lambda. Folds are deterministic (sample i
    goes to fold i mod folds), so the selection is reproducible. Grid entries
    must be finite and >= 0, ``folds`` an integer in [2, N] for N targets."""
    if len(grid) == 0:
        raise UsageError("lambda grid must be non-empty")
    lams = sorted(float(v) for v in grid)
    if not all(math.isfinite(v) and v >= 0 for v in lams):
        raise UsageError(f"lambda grid entries must be finite and >= 0, got {list(grid)}")
    x = _as_matrix(states)
    y = np.asarray(targets, dtype=float)
    n = len(x)
    if y.shape != (n,):
        raise UsageError(f"targets must match the {n} state rows, got shape {y.shape}")
    folds = _check_count(folds, "folds", 2, high=n)
    fold_of = np.arange(n) % folds

    # one fold's gram/moment matrices at a time, reused for every lambda
    accs = np.empty((len(lams), folds))
    for f in range(folds):
        tr = fold_of != f
        xt, yt = x[tr], y[tr]
        x_mean, y_mean = xt.mean(axis=0), float(yt.mean())
        xc = xt - x_mean
        gram, rhs = xc.T @ xc, xc.T @ (yt - y_mean)
        del xc
        xv, yv = x[~tr], y[~tr]
        for i, lam in enumerate(lams):
            try:
                w = np.linalg.solve(_regularised(gram, lam), rhs)
            except np.linalg.LinAlgError:
                accs[i, f] = 0.0
                continue
            bias = y_mean - float(x_mean @ w)
            thr = midpoint_threshold(xt @ w + bias, yt)
            pred = xv @ w + bias > thr
            accs[i, f] = float(np.mean(pred == _positive_class(yv)))

    # each lambda's mean over its folds; the first best is the smallest lambda
    means = [float(np.mean(row)) for row in accs]
    return lams[means.index(max(means))]
