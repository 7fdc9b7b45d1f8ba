import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternrc.errors import ConfigError, NumericalError, UsageError
from ternrc.harness import BatchReadout, ExperimentConfig, _OutputSink
from ternrc.optimizer import (STD_FLOOR, TrainConfig, _centred, evaluate,
                              midpoint_threshold, n_mirrors, nmse, propose, train, zscored)
from ternrc.readout import ALPHABETS, MODES, DetectorModel, TernaryMask, random_mask
from ternrc.substrate import SubstrateConfig, build_substrate, states_matrix

import reference


class TestNmse:
    """The error's contract: its values, its flat-trace sentinel and its
    inputs."""

    def test_zero_residual(self):
        # the target itself, or any positive scale and offset of it, scores 0
        t = np.array([0.0, 1, 0, 1])
        assert nmse(t, t) == 0.0
        assert nmse(2.0 * t + 3.0, t) == 0.0

    def test_hand_computed_value(self):
        # uncorrelated with its target: rho = 0, so 2 * std(t) * (1 - 0)
        assert nmse(np.array([0.0, 0, 1, 1]), np.array([0.0, 1, 0, 1])) == 1.0

    def test_constant_trace_sentinel(self):
        # flat at any level, whatever rounding leaves in its deviations
        for n in (2, 7, 250, 1000):
            for level in (0.0, 0.1, -3.0, 1e200, 3e-300):
                assert nmse(np.full(n, level), np.arange(n) % 2.0) == math.inf

    def test_near_constant_trace_sentinel(self):
        y = np.full(8, 3.0)
        y[0] += 1e-14
        assert nmse(y, np.arange(8) % 2.0) == math.inf

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (3.0, 3.5), (0.0, 1e-13),
                                        (-1e150, 1e150)],
                             ids=["unit", "signed", "offset", "tiny", "at-bound"])
    def test_levels_rescale_the_error(self, lo, hi):
        # targets at two other levels would only scale the error by their gap,
        # and so alpha with it: the targets are 1 and 0
        rng = np.random.default_rng(23)
        for n in (4, 40, 1000):
            t = rng.permutation(np.arange(n) % 2.0)
            y = rng.standard_normal(n) + t
            want = (hi - lo) * nmse(y, t)
            assert abs(nmse(y, lo + (hi - lo) * t) - want) <= 1e-12 * want

    def test_input_contracts(self):
        with pytest.raises(UsageError):
            nmse(np.array([1.0]), np.array([1.0]))
        with pytest.raises(UsageError):
            nmse(np.array([1.0, 2.0]), np.array([1.0]))

    def test_matches_high_precision_oracle(self):
        # 2 * std(t) * (1 - rho) at 50 digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            y = rng.standard_normal(n) * rng.uniform(0.1, 100)
            t = rng.standard_normal(n)
            ym, tm = ([mp.mpf(v) for v in a] for a in (y, t))
            dy, dt = ([v - mp.fsum(a) / n for v in a] for a in (ym, tm))
            var_y, var_t = (mp.fsum(v * v for v in d) / n for d in (dy, dt))
            rho = mp.fsum(a * b for a, b in zip(dy, dt)) / n / mp.sqrt(var_y * var_t)
            expect = 2 * mp.sqrt(var_t) * (1 - rho)
            assert nmse(y, t) == pytest.approx(float(expect), rel=1e-12)


class TestZscoreNmse:
    """``nmse`` is the error of the z-scored trace, taken from the raw trace
    as 2 * std(t) * (1 - rho)."""

    @pytest.mark.parametrize("n", [2, 7, 250, 1000])
    def test_matches_two_step_error(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 37.5, 1e6):
            for _ in range(200):
                t = rng.standard_normal(n) if rng.random() < 0.5 else \
                    (rng.random(n) > 0.5).astype(float)
                t[:2] = (0.0, 1.0)
                y = (t * rng.uniform(-1, 1) + rng.standard_normal(n) * rng.uniform(0.01, 2)) \
                    * scale + rng.uniform(-3, 3) * scale
                got, want = nmse(y, t), reference.zscore_nmse(y, t)
                assert abs(got - want) <= max(1e-12 * want, 1e-15), (got, want)

    def test_constant_trace_or_target_is_inf(self):
        t = np.array([0.0, 1.0, 0.0, 1.0])
        assert nmse(np.full(4, 3.0), t) == reference.zscore_nmse(np.full(4, 3.0), t) == math.inf
        y = np.array([0.1, 0.9, 0.4, 0.6])
        assert nmse(y, np.full(4, 0.5)) == reference.zscore_nmse(y, np.full(4, 0.5)) == math.inf

    def test_hand_computed_value(self):
        # anti-correlated with a +-1 target: rho = -1, so 2 * 1 * (1 - (-1))
        assert nmse(np.array([3.0, 1.0]), np.array([-1.0, 1.0])) == 4.0

    def test_never_negative_on_a_perfect_trace(self):
        rng = np.random.default_rng(23)
        for n in (2, 7, 250, 1000):
            for _ in range(100):
                t = rng.standard_normal(n) * rng.uniform(1e-3, 1e3)
                for y in (t, t * rng.uniform(1e-3, 1e6) + rng.uniform(-1e3, 1e3)):
                    e = nmse(y.copy(), t)
                    assert 0.0 <= e <= 1e-12 * float(np.std(t))
                    assert np.float64(e).tobytes() != np.float64(-0.0).tobytes()

    @pytest.mark.parametrize("n", [7, 250])
    def test_scaled_trace_is_the_same_error(self, n):
        # the error compares shapes, so no scale of the trace makes it flat
        rng = np.random.default_rng(37)
        t = (rng.random(n) > 0.5).astype(float)
        t[:2] = (0.0, 1.0)
        y = t + rng.standard_normal(n) + 3.0
        want = nmse(y, t)
        for c in (1e-6, 1e-12, 1e-100, 1e-200):
            assert nmse(c * y, t) == pytest.approx(want, rel=1e-12)

    def test_given_centred_target_is_the_same_error(self):
        rng = np.random.default_rng(31)
        t = rng.standard_normal(40)
        y = rng.standard_normal(40)
        assert nmse(y, t, centred_target=_centred(t)).hex() == nmse(y, t).hex()

    @pytest.mark.parametrize("given_centred", [False, True])
    def test_stack_rejected(self, given_centred):
        # the error scores one trace; a stack of traces is a usage error,
        # whether or not the caller hands over the centred target
        rng = np.random.default_rng(53)
        t = rng.standard_normal(30)
        centred = _centred(t) if given_centred else None
        for y in (rng.standard_normal((4, 30)), rng.standard_normal((1, 30))):
            with pytest.raises(UsageError, match="equal-length vectors"):
                nmse(y, t, centred_target=centred)


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
    def test_one_mirror_move_matches_sized_draw(self, mode):
        # n = 1 draws scalars; the candidate and the stream match size=1 draws
        alphabet = ALPHABETS[mode]
        for seed in range(100):
            mask = random_mask(448, mode, seed)
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            positions = a.integers(0, 448, size=1)
            w = mask.weights.copy()
            w[positions] = alphabet[a.integers(0, alphabet.size, size=1)]
            got = propose(mask, 1, b)
            assert got.weights.dtype == np.int8 and got.weights.tobytes() == w.tobytes()
            assert b.bit_generator.state == a.bit_generator.state

    @pytest.mark.parametrize("mode", MODES)
    def test_walk_candidates_pass_public_checks(self, mode):
        # candidates skip the constructor's checks; each must still pass them
        rng = np.random.default_rng(17)
        mask = random_mask(448, mode, rng)
        for _ in range(2000):
            cand = propose(mask, int(rng.integers(1, 449)), rng)
            assert cand.weights.dtype == np.int8 and cand.mode == mode
            rebuilt = TernaryMask(weights=cand.weights, mode=mode)
            assert rebuilt.mode == cand.mode and np.array_equal(rebuilt.weights, cand.weights)
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


def named_config(normalize, **fields):
    """A train config parsed from a section that names its search error, as
    documents written while there were three still do."""
    return ExperimentConfig.from_json({"train": {**fields, "normalize": normalize}}).train


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

        cfg = TrainConfig(alpha=10.0, max_epochs=120, mode="ternary", seed=3)
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
        assert a.best_mask.mode == b.best_mask.mode
        assert np.array_equal(a.best_mask.weights, b.best_mask.weights)
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

    @pytest.mark.parametrize("normalize", ["zscore"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("epoch", [0, 3])
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

        cfg = named_config(normalize, alpha=5.0, max_epochs=10, seed=1)
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

    @pytest.mark.parametrize("k", [2, 3, 448])
    def test_scalar_integers_match_one_element_draw(self, k):
        for seed in range(200):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = a.integers(0, k, size=1)[0]
            got = b.integers(0, k)
            assert got == want
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

    @pytest.mark.parametrize("n", [2, 7, 250, 1000])
    def test_flat_exactly_where_the_reference_says(self, n):
        # one rule for a constant trace, in the vector and the block form:
        # a spread at most STD_FLOOR times the mean's magnitude reads 0
        rng = np.random.default_rng(41)
        rows = []
        for level in (0.0, 0.1, 3.0, -7.5, 1e6):
            for rel in (0.0, 1e-16, 1e-14, 1e-13, 1e-12, 1e-11, 1e-9):
                rows.append(level + rng.standard_normal(n) * rel * max(abs(level), 1.0))
        rows = np.array(rows)
        want = [reference.flat(y) for y in rows]
        assert [_centred(y)[1] == 0.0 for y in rows] == want
        assert (_centred(rows)[1] == 0.0).tolist() == want
        assert True in want and False in want

    @pytest.mark.parametrize("n", [2, 7, 250, 1000])
    def test_flat_of_a_tiny_trace_where_the_reference_says(self, n):
        # near 1e-160 the squared deviations underflow unless they are scaled
        # first: a varying trace there is not flat, a constant one is
        rng = np.random.default_rng(43)
        rows = []
        for level in (0.0, 1e-160, -3e-158, 1e-162):
            for rel in (0.0, 1e-14, 1e-11, 1e-6, 1e-2, 1.0):
                rows.append(level + rng.standard_normal(n) * rel * (abs(level) or 1e-160))
        want = [reference.flat(y) for y in rows]
        assert [_centred(y)[1] == 0.0 for y in rows] == want
        assert True in want and False in want

    def test_sqrt_of_dot_matches_norm(self):
        rng = np.random.default_rng(19)
        for _ in range(2000):
            x = rng.standard_normal(int(rng.integers(2, 1200))) * rng.uniform(1e-3, 1e3)
            assert np.sqrt(x @ x).tobytes() == np.linalg.norm(x).tobytes()


class TestOldPathOracle:
    """At stock size (N = 1000 samples, K = 448 nodes) the optimized loop
    reproduces the plain numpy loop: every mask and decision exactly, and the
    error, taken in one pass, to rounding."""

    @staticmethod
    def rigs(rig_cls, det_cls):
        sub = build_substrate(SubstrateConfig(grid_side=24, input_side=8, seed=20))
        rng = np.random.default_rng(20)
        states = states_matrix(rng.random((1000, sub.n_nodes)) * 50, rng.permutation(1000))
        det = det_cls(noise_sigma=0.02, seed=21, noise_scale=float(states.sum(axis=1).mean()))
        return rig_cls(sub, states, det), rng.random(1000) > 0.5

    @pytest.mark.parametrize("normalize", ["zscore"])
    @pytest.mark.parametrize("mode", MODES)
    def test_history_and_mask_bytes_match(self, mode, normalize):
        rig, labels = self.rigs(BatchReadout, DetectorModel)
        ref_rig, _ = self.rigs(reference.Rig, reference.Detector)
        assert rig.n_nodes == 448
        t = labels.astype(float)
        cfg = named_config(normalize, alpha=10.0, max_epochs=300, mode=mode, seed=22)
        result = train(rig, t, cfg, n_nodes=448)
        mask, history = reference.train(ref_rig, t, cfg, 448)
        assert result.best_mask.weights.tobytes() == mask.weights.tobytes()
        assert result.best_mask.mode == mask.mode
        assert [(r.epoch, r.n_mirrors, r.accepted) for r in result.history] == \
            [(ep, n, acc) for ep, _, n, acc in history]
        got = [r.nmse_best for r in result.history]
        assert got == pytest.approx([b for _, b, _, _ in history], rel=1e-12, abs=0)
        assert any(r.accepted for r in result.history)
        assert rig.detector._rng.bit_generator.state == ref_rig.detector._rng.bit_generator.state


class TestNormalization:
    def test_zscore_is_scale_invariant(self):
        rng = np.random.default_rng(15)
        states = rng.random((20, 5))
        targets = (rng.random(20) > 0.5).astype(float)
        cfg = TrainConfig(alpha=5.0, max_epochs=40, mode="ternary", seed=3)
        a = train(linear_forward(states), targets, cfg, n_nodes=5)
        b = train(linear_forward(states * 1000.0), targets, cfg, n_nodes=5)
        assert a.best_mask.mode == b.best_mask.mode
        assert np.array_equal(a.best_mask.weights, b.best_mask.weights)
        for ra, rb in zip(a.history, b.history):
            assert (ra.epoch, ra.n_mirrors, ra.accepted) == (rb.epoch, rb.n_mirrors, rb.accepted)
            assert ra.nmse_best == pytest.approx(rb.nmse_best, rel=1e-9)

    @pytest.mark.parametrize("mode", ["zscore"])
    def test_matches_reference_bit_for_bit(self, mode):
        # the one search error's map, keyed as a document names it; a constant
        # trace maps to the target's mean
        ours, ref = {"zscore": (zscored, reference.zscored)}[mode]
        rng = np.random.default_rng(37)
        for n in (2, 40, 1000):
            t = (rng.random(n) > 0.5).astype(float)
            t[:2] = (0.0, 1.0)
            for y in [np.full(n, 3.0)] + [rng.standard_normal(n) * rng.uniform(1e-3, 1e3)
                                          + rng.uniform(-5, 5) for _ in range(20)]:
                assert ours(y, t).tobytes() == ref(y, t).tobytes()

    @pytest.mark.parametrize("mode", ["zscore"])
    def test_one_trace_only(self, mode):
        # a stack, a short trace or a scalar is rejected before it is scored
        rng = np.random.default_rng(59)
        t = (rng.random(30) > 0.5).astype(float)
        cfg = named_config(mode, alpha=5.0, max_epochs=3, seed=1)
        for y in (rng.standard_normal((4, 30)), rng.standard_normal((1, 30)),
                  rng.standard_normal(29), np.float64(1.0)):
            with pytest.raises(UsageError):
                evaluate(lambda mask: y, random_mask(4), t)
            with pytest.raises(UsageError):
                train(lambda mask: y, t, cfg, n_nodes=4)
            with pytest.raises(UsageError):
                nmse(y, t)


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
        # z-scored, y reads about (-0.19, 1.19, 0.33, 0.67)
        m = evaluate(lambda mask: y, random_mask(4), t, threshold_rule=1.25)
        # everything below 1.25 predicts negative: half the batch is wrong
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
        _OutputSink(ExperimentConfig.from_json({"train": {"alpha": 1.0, "max_epochs": 4},
                                                "output_dir": str(tmp_path)})
                    ).arm("t", result, grid_side=2)
        text = (tmp_path / "history_t.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,nmse_best,n_mirrors,accepted"
        assert len(lines) == 5
        # floats round-trip through repr, the accepted flag is written 0/1
        assert lines[1:] == [f"{r.epoch},{r.nmse_best!r},{r.n_mirrors},{int(r.accepted)}"
                             for r in result.history]
        assert text.endswith("\n") and not text.endswith("\n\n")
