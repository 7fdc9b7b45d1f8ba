import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternrc.errors import ConfigError, NumericalError, UsageError
from ternrc.harness import BatchReadout, _OutputSink
from ternrc.optimizer import (NORMALIZE_MODES, STD_FLOOR, TrainConfig, _centred, evaluate,
                              midpoint_threshold, n_mirrors, nmse, propose, train)
from ternrc.readout import ALPHABETS, MODES, DetectorModel, TernaryMask, random_mask
from ternrc.substrate import SubstrateConfig, build_substrate, states_matrix


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
        with pytest.raises(UsageError):
            n_mirrors(1.0, math.nan, cap=448)

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

    @pytest.mark.parametrize("mode", MODES)
    def test_walk_candidates_pass_public_checks(self, mode):
        # candidates skip the constructor's checks; each must still pass them
        rng = np.random.default_rng(17)
        mask = random_mask(448, mode, rng)
        for _ in range(2000):
            cand = propose(mask, int(rng.integers(1, 449)), rng)
            assert cand.weights.dtype == np.int8 and cand.mode == mode
            assert TernaryMask(weights=cand.weights, mode=mode) == cand
            if rng.random() < 0.1:
                mask = cand


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

    @pytest.mark.parametrize("normalize", NORMALIZE_MODES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("epoch", [0, 3])
    # numpy warns of inf - inf before the error turns NaN and the check raises
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_trace_names_its_epoch(self, normalize, bad, epoch):
        rng = np.random.default_rng(18)
        states = rng.random((10, 6))
        targets = (rng.random(10) > 0.5).astype(float)
        calls = []

        def fp(mask):
            y = states @ mask.weights.astype(float)
            if len(calls) == epoch:
                y[4] = bad
            calls.append(mask)
            return y

        cfg = TrainConfig(alpha=5.0, max_epochs=10, seed=1, normalize=normalize)
        with pytest.raises(NumericalError, match=rf"non-finite trace at epoch {epoch}$"):
            train(fp, targets, cfg, n_nodes=6)
        assert len(calls) == epoch + 1

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


class TestNumpyEquivalences:
    """The byte-identical shortcuts of the epoch loop rest on these numpy
    behaviours; the package allows numpy >= 1.24, so each is pinned."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [1, 6, 55, 448])
    def test_indexed_integers_match_choice(self, mode, n):
        alphabet = ALPHABETS[mode]
        for seed in range(200):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = a.choice(alphabet, size=n)
            got = alphabet[b.integers(0, alphabet.size, size=n)]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert b.bit_generator.state == a.bit_generator.state

    @pytest.mark.parametrize("n", [2, 7, 250, 1000])
    def test_centred_matches_mean_and_std(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 37.5, 1e6):
            contiguous = rng.standard_normal(n) * scale + 2 * scale
            strided = (rng.random(3 * n) * scale)[::3]
            for y in (contiguous, strided):
                d, sd = _centred(y)
                assert d.tobytes() == (y - np.mean(y)).tobytes()
                assert np.float64(sd).tobytes() == np.std(y).tobytes()

    def test_sqrt_of_dot_matches_norm(self):
        rng = np.random.default_rng(19)
        for _ in range(2000):
            x = rng.standard_normal(int(rng.integers(2, 1200))) * rng.uniform(1e-3, 1e3)
            assert np.sqrt(x @ x).tobytes() == np.linalg.norm(x).tobytes()


def old_nmse(y, t):
    """nmse as written with np.std and np.sum."""
    sd = float(np.std(y))
    if sd < STD_FLOOR:
        return math.inf
    return float(np.sum((y - t) ** 2) / (y.size * sd))


class OldNormalizer:
    """The normalizer as written with np.mean and np.std."""

    def __init__(self, mode, t):
        self.mode, self.t, self.transform = mode, t, None

    def __call__(self, y):
        t = self.t
        if self.mode == "off":
            return y
        if self.mode == "first_epoch":
            if self.transform is None:
                lo, hi = float(np.min(y)), float(np.max(y))
                self.transform = (lo, hi - lo if hi > lo else 1.0)
            lo, span = self.transform
            return (y - lo) / span * (float(np.max(t)) - float(np.min(t))) + float(np.min(t))
        sd = float(np.std(y))
        if sd < STD_FLOOR:
            return np.full_like(y, float(np.mean(t)))
        return (y - np.mean(y)) / sd * float(np.std(t)) + float(np.mean(t))


class OldDetector(DetectorModel):
    def detect(self, power, gain):
        sd = self.noise_sigma * self.noise_scale
        return gain * power + sd * self._rng.standard_normal(power.shape[0])


class OldRig(BatchReadout):
    """The rig's plane lookup as written before each base kept its key."""

    def power(self, plane):
        key = plane.tobytes()
        for base, p, *_ in self._bases:
            if base.tobytes() == key:
                return p
        h = [np.count_nonzero(plane != base) for base, *_ in self._bases]
        near = h.index(min(h)) if h else 0
        if h and 8 * h[near] < self.n_nodes and self._bases[near][-1] != key:
            diff = (plane != self._bases[near][0]).nonzero()[0]
            self._bases[near][-1] = key
            return self._bases[near][1] + self.states[:, diff] @ np.where(plane[diff], 1.0, -1.0)
        p = self.states @ plane.astype(float)
        if len(self._bases) == 2:
            del self._bases[near]
        self._bases.append([plane.copy(), p, None])
        return p


def reference_train(rig, t, cfg, k):
    """The search loop as written with rng.choice, the checked mask
    constructor, np.std and np.mean: the oracle of the optimized loop."""
    rng = np.random.default_rng(cfg.seed)
    alphabet = ALPHABETS[cfg.mode]
    mask = TernaryMask(weights=rng.choice(alphabet, size=k), mode=cfg.mode)
    norm = OldNormalizer(cfg.normalize, t)
    best = old_nmse(norm(rig(mask)), t)
    history = []
    for epoch in range(1, cfg.max_epochs + 1):
        n = n_mirrors(cfg.alpha, best, cap=k)
        positions = rng.integers(0, k, size=n)
        values = rng.choice(alphabet, size=n)
        w = np.array(mask.weights, dtype=np.int8, copy=True)
        w[positions] = values
        cand = TernaryMask(weights=w, mode=cfg.mode)
        e = old_nmse(norm(rig(cand)), t)
        accepted = e < best
        if accepted:
            mask, best = cand, e
        history.append((epoch, best, n, accepted))
    return mask, history


class TestOldPathOracle:
    """At stock size (N = 1000 samples, K = 448 nodes) the optimized loop
    reproduces the plain numpy loop bit for bit."""

    @staticmethod
    def rigs(rig_cls, det_cls):
        sub = build_substrate(SubstrateConfig(grid_side=24, input_side=8, seed=20))
        rng = np.random.default_rng(20)
        states = states_matrix(rng.random((1000, sub.n_nodes)) * 50, rng.permutation(1000))
        det = det_cls(noise_sigma=0.02, seed=21, noise_scale=float(states.sum(axis=1).mean()))
        return rig_cls(sub, states, det), rng.random(1000) > 0.5

    @pytest.mark.parametrize("normalize", NORMALIZE_MODES)
    @pytest.mark.parametrize("mode", MODES)
    def test_history_and_mask_bytes_match(self, mode, normalize):
        rig, labels = self.rigs(BatchReadout, DetectorModel)
        ref_rig, _ = self.rigs(OldRig, OldDetector)
        assert rig.n_nodes == 448
        t = labels.astype(float)
        cfg = TrainConfig(alpha=10.0, max_epochs=300, mode=mode, seed=22, normalize=normalize)
        result = train(rig, t, cfg, n_nodes=448)
        mask, history = reference_train(ref_rig, t, cfg, 448)
        assert result.best_mask.weights.tobytes() == mask.weights.tobytes()
        assert result.best_mask.mode == mask.mode
        got = [(r.epoch, np.float64(r.nmse_best).tobytes(), r.n_mirrors, r.accepted)
               for r in result.history]
        assert got == [(ep, np.float64(b).tobytes(), n, acc) for ep, b, n, acc in history]
        assert rig.detector._rng.bit_generator.state == ref_rig.detector._rng.bit_generator.state


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

    def test_non_finite_trace_rejected(self):
        t = np.array([0.0, 1.0, 0.0, 1.0])
        with pytest.raises(NumericalError, match="non-finite trace$"):
            evaluate(lambda mask: np.array([0.1, np.nan, 0.4, 0.6]), random_mask(4), t)

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
