import tracemalloc

import numpy as np
import pytest

from ternrc.baselines import RidgeModel, _regularised, lambda_sweep, ridge_eval, ridge_fit
from ternrc.errors import NumericalError, UsageError
from ternrc.optimizer import nmse, score

import reference


class TestRidgeFit:
    def test_hand_solved_line(self):
        model = ridge_fit(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), lam=0.0)
        assert model.weights[0] == pytest.approx(1.0)
        assert model.bias == pytest.approx(0.0)

    def test_heavy_regularization_shrinks_to_mean(self):
        rng = np.random.default_rng(0)
        x = rng.random((30, 4))
        y = rng.random(30)
        model = ridge_fit(x, y, lam=1e12)
        assert np.all(np.abs(model.weights) < 1e-9)
        assert model.bias == pytest.approx(y.mean())

    def test_duplicated_dataset_same_model(self):
        rng = np.random.default_rng(1)
        x = rng.random((10, 3))
        y = rng.random(10)
        a = ridge_fit(x, y, lam=0.5)
        b = ridge_fit(np.vstack([x, x]), np.concatenate([y, y]), lam=1.0)
        # doubling the data doubles the gram matrix; doubling lambda matches it
        assert np.allclose(a.weights, b.weights)
        assert a.bias == pytest.approx(b.bias)

    def test_underdetermined_unregularized_fails(self):
        rng = np.random.default_rng(2)
        x = rng.random((5, 10))
        y = rng.random(5)
        with pytest.raises(NumericalError, match="lambda"):
            ridge_fit(x, y, lam=0.0)

    def test_closed_form_matches_numerical_minimizer(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(5, 20))
            k = int(rng.integers(1, 5))
            x = rng.standard_normal((n, k))
            y = rng.standard_normal(n)
            lam = float(rng.uniform(0.01, 5.0))
            model = ridge_fit(x, y, lam)

            def loss(p):
                w, b = p[:k], p[k]
                r = x @ w + b - y
                return r @ r + lam * (w @ w)

            res = optimize.minimize(loss, np.zeros(k + 1), method="BFGS",
                                    options={"gtol": 1e-12})
            assert np.allclose(model.weights, res.x[:k], rtol=1e-6, atol=1e-8)
            assert model.bias == pytest.approx(res.x[k], rel=1e-6, abs=1e-8)


class TestRidgeEval:
    def test_separable_training_data(self):
        rng = np.random.default_rng(4)
        x = rng.random((40, 6))
        w_true = rng.standard_normal(6)
        y = (x @ w_true > np.median(x @ w_true)).astype(float)
        model = ridge_fit(x, y, lam=1e-6)
        m = ridge_eval(model, x, y)
        assert m.accuracy == 1.0

    def test_zero_weight_model_is_chance_on_balanced_data(self):
        x = np.random.default_rng(5).random((20, 3))
        y = np.array([0.0, 1.0] * 10)
        model = RidgeModel(weights=np.zeros(3), bias=0.7)
        m = ridge_eval(model, x, y)
        # constant predictor, midpoint rule, ties predict negative
        assert m.accuracy == 0.5

    def test_negative_weight_exploits_anticorrelated_node(self):
        # node 1 responds opposite to the target; sign-free weights use it,
        # nonnegative weights cannot
        rng = np.random.default_rng(6)
        n = 60
        t = np.array([0.0, 1.0] * (n // 2))
        states = np.column_stack([
            rng.random(n) * 0.3,            # uninformative
            1.0 - t + rng.random(n) * 0.1,  # anti-correlated with the target
        ])
        model = ridge_fit(states, t, lam=1e-6)
        assert model.weights[1] < 0
        acc_ridge = ridge_eval(model, states, t).accuracy
        best_nonneg = 0.0
        grid = np.linspace(0, 2, 9)
        for w0 in grid:
            for w1 in grid:
                y = states @ np.array([w0, w1])
                pos = t > 0.5
                if y[pos].mean() == y[~pos].mean():
                    continue
                thr = (y[pos].mean() + y[~pos].mean()) / 2
                best_nonneg = max(best_nonneg, float(np.mean((y > thr) == pos)))
        assert acc_ridge > best_nonneg

    def test_prediction_is_affine(self):
        # the scored prediction of a + b is that of a plus that of b, less
        # the bias once
        rng = np.random.default_rng(7)
        x = rng.random((12, 4))
        y = rng.random(12)
        model = ridge_fit(x, y, lam=0.1)
        a, b = x[:6], x[6:]
        t = np.array([0.0, 1.0] * 3)
        rhs = (a @ model.weights + model.bias) + (b @ model.weights + model.bias) - model.bias
        got, want = ridge_eval(model, a + b, t), score(rhs, t, nmse(rhs, t))
        assert got.accuracy == want.accuracy
        assert got.nmse == pytest.approx(want.nmse) and got.threshold == pytest.approx(want.threshold)

    @pytest.mark.parametrize("n", [8, 40, 250])
    def test_error_is_the_z_scored_error_of_the_predictions(self, n):
        # the ridge row's error is the trained arms' one error; its threshold
        # and accuracy read the predictions as they are
        rng = np.random.default_rng(n)
        x = rng.random((n, 5))
        t = np.arange(n) % 2.0
        model = ridge_fit(x, t + 0.3 * rng.standard_normal(n), lam=0.1)
        y = x @ model.weights + model.bias
        for rule in ("midpoint", 0.5):
            got, raw = ridge_eval(model, x, t, rule), score(y, t, 0.0, rule)
            assert got.nmse == pytest.approx(reference.zscore_nmse(y, t), rel=1e-12)
            assert got.threshold.hex() == raw.threshold.hex()
            assert (got.accuracy, got.ser) == (raw.accuracy, raw.ser)

    def test_width_mismatch(self):
        model = RidgeModel(weights=np.zeros(3), bias=0.0)
        with pytest.raises(UsageError, match="model width 3"):
            ridge_eval(model, np.ones((4, 2)), np.array([0.0, 1.0] * 2))


class TestLambdaSweep:
    def test_single_candidate(self):
        rng = np.random.default_rng(8)
        x = rng.random((20, 3))
        y = np.array([0.0, 1.0] * 10)
        assert lambda_sweep(x, y, [0.37]) == 0.37

    def test_separable_prefers_smallest_tied_lambda(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((60, 2))
        y = (x[:, 0] > 0).astype(float)
        lam = lambda_sweep(x, y, [1e-6, 1e-3, 1.0])
        assert lam == 1e-6

    def test_reproducible(self, rng):
        x = rng.random((40, 5))
        y = (rng.random(40) > 0.5).astype(float)
        grid = [1e-4, 1e-2, 1.0, 100.0]
        assert lambda_sweep(x, y, grid) == lambda_sweep(x, y, grid)

    def test_validation(self):
        x = np.random.default_rng(0).random((10, 2))
        y = np.array([0.0, 1.0] * 5)
        with pytest.raises(UsageError):
            lambda_sweep(x, y, [])
        with pytest.raises(UsageError):
            lambda_sweep(x, y, [1.0], folds=1)

    @pytest.mark.parametrize("grid", [[-5.0, 1.0], [float("nan"), 1.0], [float("inf")],
                                      [1.0, -1e-300]])
    def test_bad_grid_entry_rejected(self, grid):
        x = np.random.default_rng(0).random((10, 2))
        with pytest.raises(UsageError, match="finite and >= 0"):
            lambda_sweep(x, np.array([0.0, 1.0] * 5), grid)

    @pytest.mark.parametrize("folds", [11, 2.5, True, 1, -3])
    def test_bad_folds_rejected(self, folds):
        # at most one fold per sample; an integer, and no bool
        x = np.random.default_rng(0).random((10, 2))
        with pytest.raises(UsageError, match="folds"):
            lambda_sweep(x, np.array([0.0, 1.0] * 5), [1.0], folds=folds)

    @pytest.mark.parametrize("shape", [(9,), (11,), (10, 1)])
    def test_targets_must_be_one_per_row(self, shape):
        x = np.random.default_rng(0).random((10, 2))
        with pytest.raises(UsageError, match="targets"):
            lambda_sweep(x, np.zeros(shape), [1.0])

    def test_one_sample_per_fold_accepted(self):
        x = np.random.default_rng(0).random((10, 2))
        y = np.array([0.0, 1.0] * 5)
        assert lambda_sweep(x, y, [1.0, 2.0], folds=np.int64(10)) in (1.0, 2.0)

    def test_peak_memory_at_benchmark_size(self):
        # one fold's gram and row copies alive at a time, not all five
        rng = np.random.default_rng(1)
        x = rng.random((1000, 448))
        y = np.array([0.0, 1.0] * 500)
        grid = [10.0 ** e for e in range(-4, 5)]
        tracemalloc.start()
        try:
            lambda_sweep(x, y, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 11e6


@pytest.mark.parametrize("seed", range(4))
def test_regularised_gram_matches_the_identity_sum(seed):
    # lam on a copy's diagonal is gram + lam * np.eye(k) bit for bit, on each
    # fold's gram of a random sweep, lam = 0 included; the gram is not touched
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(12, 120)), int(rng.integers(1, 40))
    x = rng.random((n, k)) * rng.uniform(0.1, 100.0)
    for f in range(5):
        xt = x[np.arange(n) % 5 != f]
        xc = xt - xt.mean(axis=0)
        gram = xc.T @ xc
        before = gram.tobytes()
        for lam in (0.0, 1e-6, 1e-2, 1.0, 100.0, float(rng.uniform(0, 10))):
            assert _regularised(gram, lam).tobytes() == (gram + lam * np.eye(k)).tobytes()
        assert gram.tobytes() == before


class TestSweepOracle:
    """The fold-at-a-time sweep picks the lambda the all-folds sweep picked,
    on the same solves in the same order per fold."""

    GRIDS = ([1e-4, 1e-2, 1.0, 100.0], [10.0 ** e for e in range(-4, 5)], [100.0, 0.0, 1.0, 1.0],
             [0.5])

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("grid", GRIDS, ids=["four", "nine", "unsorted-repeat", "one"])
    def test_random_inputs(self, seed, grid):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(12, 120)), int(rng.integers(1, 40))
        x = rng.random((n, k)) * rng.uniform(0.1, 100.0)
        y = (x @ rng.standard_normal(k) + rng.normal(0, 0.5, n) > 0).astype(float)
        folds = int(rng.integers(2, 7))
        got = lambda_sweep(x, y, grid, folds)
        assert got == reference.lambda_sweep(x, y, grid, folds)
        assert type(got) is float

    def test_tie_resolves_to_smaller_lambda(self):
        # separable data: every small lambda scores 1.0 on every fold
        rng = np.random.default_rng(9)
        x = rng.standard_normal((60, 2))
        y = (x[:, 0] > 0).astype(float)
        grid = [1.0, 1e-3, 1e-6]
        assert lambda_sweep(x, y, grid) == reference.lambda_sweep(x, y, grid) == 1e-6

    def test_singular_fold_scores_zero(self):
        # node 0 is dark but for sample 3, so fold 3's centered column is
        # exactly zero and its lambda = 0 solve raises; the other folds solve
        rng = np.random.default_rng(10)
        x = rng.random((40, 3))
        x[:, 0] = 0.0
        x[3, 0] = 1.0
        y = (x[:, 1] > 0.5).astype(float)
        xt = x[np.arange(40) % 5 != 3]
        xc = xt - xt.mean(axis=0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(xc.T @ xc, xc.T @ y[np.arange(40) % 5 != 3])
        for grid in ([0.0], [0.0, 1e-3], [0.0, 1e-6, 10.0]):
            assert lambda_sweep(x, y, grid) == reference.lambda_sweep(x, y, grid)
