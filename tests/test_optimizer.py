import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternrc.errors import ConfigError, UsageError
from ternrc.harness import _OutputSink
from ternrc.optimizer import (TrainConfig, evaluate, midpoint_threshold, n_mirrors, nmse,
                              propose, train)
from ternrc.readout import random_mask


class TestNmse:
    def test_zero_residual(self):
        assert nmse(np.array([0.0, 1, 0, 1]), np.array([0.0, 1, 0, 1])) == 0.0

    def test_hand_computed_value(self):
        # residual 1 over N=2 times population std 1
        assert nmse(np.array([0.0, 2.0]), np.array([0.0, 1.0])) == 0.5

    def test_constant_trace_sentinel(self):
        assert nmse(np.full(8, 3.0), np.zeros(8)) == math.inf

    def test_near_constant_trace_sentinel(self):
        y = np.full(8, 3.0)
        y[0] += 1e-14
        assert nmse(y, np.zeros(8)) == math.inf

    def test_input_contracts(self):
        with pytest.raises(UsageError):
            nmse(np.array([1.0]), np.array([1.0]))
        with pytest.raises(UsageError):
            nmse(np.array([1.0, 2.0]), np.array([1.0]))

    def test_matches_high_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            y = rng.standard_normal(n) * rng.uniform(0.1, 100)
            t = rng.standard_normal(n)
            mean = mp.fsum(mp.mpf(v) for v in y) / n
            var = mp.fsum((mp.mpf(v) - mean) ** 2 for v in y) / n
            expect = mp.fsum((mp.mpf(a) - mp.mpf(b)) ** 2 for a, b in zip(y, t)) \
                / (n * mp.sqrt(var))
            assert nmse(y, t) == pytest.approx(float(expect), rel=1e-12)


class TestNMirrors:
    def test_alpha_zero_flips_exactly_one(self):
        assert n_mirrors(0.0, 0.9, cap=448) == 1
        assert n_mirrors(0.0, 123.4, cap=448) == 1

    def test_quarter_error_at_gain_ten(self):
        assert n_mirrors(10.0, 0.25, cap=448) == 3

    def test_exact_integer_product(self):
        assert n_mirrors(10.0, 0.3, cap=448) == 3

    def test_floor_of_one(self):
        assert n_mirrors(2.0, 1e-9, cap=448) == 1

    def test_infinite_error_clamps_to_cap(self):
        assert n_mirrors(5.0, math.inf, cap=448) == 448

    def test_cap_applies_to_finite_values(self):
        assert n_mirrors(100.0, 10.0, cap=7) == 7

    def test_invalid_inputs(self):
        with pytest.raises(UsageError):
            n_mirrors(-1.0, 0.5, cap=448)
        with pytest.raises(UsageError):
            n_mirrors(1.0, -0.5, cap=448)

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False),
           st.floats(min_value=0, max_value=1e6, allow_nan=False),
           st.integers(1, 2 ** 62))
    @settings(max_examples=500, deadline=None)
    def test_matches_rational_oracle(self, alpha, err, cap):
        expect = min(max(1, math.ceil(Fraction(alpha) * Fraction(err))), cap)
        assert n_mirrors(alpha, err, cap=cap) == expect


class TestPropose:
    def test_single_site_bound(self):
        m = random_mask(50, "ternary", 0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            cand = propose(m, 1, rng=rng)
            assert int(np.sum(cand.weights != m.weights)) <= 1

    def test_input_not_mutated(self):
        m = random_mask(20, "ternary", 2)
        before = m.weights.copy()
        propose(m, 20, rng=np.random.default_rng(0))
        assert np.array_equal(m.weights, before)

    def test_boolean_closure(self):
        m = random_mask(30, "boolean", 3)
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = propose(m, 30, rng=rng)
            assert not np.any(m.weights == -1)

    def test_full_resample_frequencies(self):
        # chained proposals: the stationary symbol distribution is uniform
        m = random_mask(100, "ternary", 5)
        rng = np.random.default_rng(6)
        chunks = []
        for _ in range(300):
            m = propose(m, 100, rng=rng)
            chunks.append(m.weights)
        values = np.concatenate(chunks)
        for v in (-1, 0, 1):
            assert abs((values == v).mean() - 1 / 3) < 0.02

    def test_out_of_range_n(self):
        m = random_mask(10, "ternary", 0)
        with pytest.raises(UsageError):
            propose(m, 0, rng=np.random.default_rng(0))
        with pytest.raises(UsageError):
            propose(m, 11, rng=np.random.default_rng(0))


def linear_forward(states):
    def fp(mask):
        return states @ mask.weights.astype(float)
    return fp


def brute_force_best(states, targets):
    best = math.inf
    for w in itertools.product((-1, 0, 1), repeat=states.shape[1]):
        y = states @ np.array(w, dtype=float)
        e = nmse(y, targets)
        best = min(best, e)
    return best


class TestTrain:
    def test_reaches_zero_on_separable_toy(self):
        rng = np.random.default_rng(7)
        states = rng.random((12, 3)) * 5
        targets = states @ np.array([1.0, -1.0, 0.0])
        cfg = TrainConfig(alpha=20.0, max_epochs=300, mode="ternary", seed=1)
        result = train(linear_forward(states), targets, cfg, n_nodes=3)
        assert brute_force_best(states, targets) == 0.0
        assert result.final_nmse == 0.0
        got = states @ result.best_mask.weights.astype(float)
        assert np.allclose(got, targets)

    def test_alpha_zero_single_flips(self):
        rng = np.random.default_rng(8)
        states = rng.random((10, 6))
        targets = rng.random(10)
        cfg = TrainConfig(alpha=0.0, max_epochs=50, mode="ternary", seed=2)
        result = train(linear_forward(states), targets, cfg, n_nodes=6)
        assert all(rec.n_mirrors == 1 for rec in result.history)

    def test_best_error_trace_monotone(self):
        rng = np.random.default_rng(9)
        states = rng.random((16, 8))
        targets = rng.random(16)
        noise = np.random.default_rng(10)

        def fp(mask):
            return states @ mask.weights.astype(float) + 0.05 * noise.standard_normal(16)

        cfg = TrainConfig(alpha=10.0, max_epochs=120, mode="ternary", seed=3,
                          normalize="zscore")
        result = train(fp, targets, cfg, n_nodes=8)
        trace = [rec.nmse_best for rec in result.history]
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_accepted_iff_strictly_better(self):
        rng = np.random.default_rng(11)
        states = rng.random((10, 5))
        targets = rng.random(10)
        cfg = TrainConfig(alpha=5.0, max_epochs=80, mode="ternary", seed=4)
        result = train(linear_forward(states), targets, cfg, n_nodes=5)
        prev = result.initial_nmse
        for rec in result.history:
            if rec.accepted:
                assert rec.nmse_best < prev
            else:
                assert rec.nmse_best == prev
            prev = rec.nmse_best

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(12)
        states = rng.random((10, 7))
        targets = rng.random(10)
        cfg = TrainConfig(alpha=8.0, max_epochs=60, mode="ternary", seed=5)
        a = train(linear_forward(states), targets, cfg, n_nodes=7)
        b = train(linear_forward(states), targets, cfg, n_nodes=7)
        assert a.best_mask == b.best_mask
        assert a.history == b.history
        assert a.final_nmse == b.final_nmse

    def test_boolean_mode_never_emits_minus(self):
        rng = np.random.default_rng(13)
        states = rng.random((10, 6))
        targets = rng.random(10)
        cfg = TrainConfig(alpha=6.0, max_epochs=60, mode="boolean", seed=6)
        result = train(linear_forward(states), targets, cfg, n_nodes=6)
        assert result.best_mask.mode == "boolean"
        assert not np.any(result.best_mask.weights == -1)

    def test_patience_stops_early(self):
        states = np.eye(4)
        targets = np.array([1.0, 0.0, 0.0, 0.0])
        cfg = TrainConfig(alpha=0.0, max_epochs=500, mode="ternary", seed=7, patience=10)
        result = train(linear_forward(states), targets, cfg, n_nodes=4)
        assert len(result.history) < 500
        assert not any(r.accepted for r in result.history[-10:])

    def test_final_matches_last_record(self):
        rng = np.random.default_rng(14)
        states = rng.random((8, 4))
        targets = rng.random(8)
        cfg = TrainConfig(alpha=3.0, max_epochs=40, mode="ternary", seed=8)
        result = train(linear_forward(states), targets, cfg, n_nodes=4)
        assert result.final_nmse == result.history[-1].nmse_best

    def test_forward_pass_length_contract(self):
        cfg = TrainConfig(alpha=1.0, max_epochs=5, mode="ternary", seed=9)
        with pytest.raises(UsageError):
            train(lambda m: np.zeros(3), np.zeros(4), cfg, n_nodes=4)

    def test_needs_size_or_mask(self):
        cfg = TrainConfig(alpha=1.0, max_epochs=5, mode="ternary", seed=0)
        with pytest.raises(TypeError, match="n_nodes"):
            train(lambda m: np.zeros(4), np.zeros(4), cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(alpha=-1.0, max_epochs=10)
        with pytest.raises(ConfigError):
            TrainConfig(alpha=1.0, max_epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(alpha=1.0, max_epochs=10, target_levels=(1.0, 0.0))
        with pytest.raises(ConfigError):
            TrainConfig(alpha=1.0, max_epochs=10, normalize="minmax")


class TestNormalization:
    def test_zscore_is_scale_invariant(self):
        rng = np.random.default_rng(15)
        states = rng.random((20, 5))
        targets = (rng.random(20) > 0.5).astype(float)
        cfg = TrainConfig(alpha=5.0, max_epochs=40, mode="ternary", seed=3,
                          normalize="zscore")
        a = train(linear_forward(states), targets, cfg, n_nodes=5)
        b = train(linear_forward(states * 1000.0), targets, cfg, n_nodes=5)
        assert a.best_mask == b.best_mask
        for ra, rb in zip(a.history, b.history):
            assert (ra.epoch, ra.n_mirrors, ra.accepted) == (rb.epoch, rb.n_mirrors, rb.accepted)
            assert ra.nmse_best == pytest.approx(rb.nmse_best, rel=1e-9)

    def test_first_epoch_transform_frozen(self):
        rng = np.random.default_rng(16)
        states = rng.random((20, 5))
        targets = (rng.random(20) > 0.5).astype(float)
        cfg = TrainConfig(alpha=5.0, max_epochs=10, mode="ternary", seed=4,
                          normalize="first_epoch")
        result = train(linear_forward(states), targets, cfg, n_nodes=5)
        lo, span = result.output_transform
        y0 = states @ random_mask(5, "ternary", np.random.default_rng(4)).weights.astype(float)
        assert lo == pytest.approx(y0.min())
        assert span == pytest.approx(y0.max() - y0.min())


class TestEvaluate:
    def test_perfect_outputs(self):
        t = np.array([0.0, 1.0, 0.0, 1.0])
        m = evaluate(lambda mask: t, random_mask(4), t)
        assert m.accuracy == 1.0 and m.ser == 0.0

    def test_flipped_outputs_score_zero(self):
        t = np.array([0.0, 1.0, 0.0, 1.0])
        m = evaluate(lambda mask: 1.0 - t, random_mask(4), t)
        assert m.accuracy == 0.0

    def test_midpoint_threshold_example(self):
        t = np.array([0.0, 1.0, 0.0, 1.0])
        y = np.array([0.1, 0.9, 0.4, 0.6])
        assert midpoint_threshold(y, t) == pytest.approx(0.5)
        m = evaluate(lambda mask: y, random_mask(4), t)
        assert m.ser == 0.0 and m.threshold == pytest.approx(0.5)

    def test_frozen_threshold_honored(self):
        t = np.array([0.0, 1.0, 0.0, 1.0])
        y = np.array([0.1, 0.9, 0.4, 0.6])
        m = evaluate(lambda mask: y, random_mask(4), t, threshold_rule=0.95)
        # everything below 0.95 predicts negative: half the batch is wrong
        assert m.accuracy == 0.5

    def test_single_class_rejected(self):
        t = np.ones(4)
        with pytest.raises(UsageError):
            evaluate(lambda mask: t, random_mask(4), t)


class TestSerialization:
    def test_history_csv_columns(self, tmp_path):
        # four nodes: the active disk of a 2-side grid, so the sink takes the mask
        states = np.eye(4)
        targets = np.array([1.0, 0.0, 0.0, 0.0])
        cfg = TrainConfig(alpha=1.0, max_epochs=4, mode="ternary", seed=0)
        result = train(linear_forward(states), targets, cfg, n_nodes=4)
        _OutputSink(tmp_path).arm("t", result, grid_side=2)
        text = (tmp_path / "history_t.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,nmse_best,n_mirrors,accepted"
        assert len(lines) == 5
        # floats round-trip through repr, the accepted flag is written 0/1
        assert lines[1:] == [f"{r.epoch},{r.nmse_best!r},{r.n_mirrors},{int(r.accepted)}"
                             for r in result.history]
        assert text.endswith("\n") and not text.endswith("\n\n")
