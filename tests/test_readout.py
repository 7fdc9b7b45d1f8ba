import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternrc import harness
from ternrc.errors import ConfigError, ShapeError, UsageError
from ternrc.harness import POWER_CACHE_SIZE, BatchReadout
from ternrc.readout import (DetectorModel, TernaryMask, decompose, detect_batch, mask_to_json,
                            plane_power, random_mask, readout_batch)
from ternrc.substrate import SubstrateConfig, advance_drift, build_substrate, circle_mask


def plane(bits):
    return np.asarray(bits, dtype=bool)


def recombined(plus, minus):
    """The weights the two planes encode: +1 where plus, -1 where minus."""
    return plus.astype(int) - minus.astype(int)


def state(values):
    """A one-sample batch: a 1-row state matrix."""
    return np.asarray(values, dtype=float)[None, :]


def powers(states):
    """The uncached plane-power lookup of a state matrix."""
    return partial(plane_power, states)


def detect_one(states, plane, gain, det):
    """The single sample's detected power."""
    (y,) = detect_batch(plane_power(states, plane), gain, det)
    return y


def readout_one(states, mask, gain, det):
    """The single sample's readout output."""
    (y,) = readout_batch(powers(states), mask, gain, det)
    return y


class TestMaskType:
    def test_alphabet_enforced(self):
        with pytest.raises(ConfigError):
            TernaryMask(weights=np.array([0, 2, 1]))
        for bad in (0.5, 2.0, -2.0, np.nan):
            with pytest.raises(ConfigError):
                TernaryMask(weights=np.array([0.0, bad, 1.0]))

    def test_boolean_mode_rejects_minus(self):
        with pytest.raises(ConfigError):
            TernaryMask(weights=np.array([0, -1]), mode="boolean")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            TernaryMask(weights=np.array([0, 1]), mode="analog")


class TestDecompose:
    def test_basic_split(self):
        plus, minus = decompose(TernaryMask(weights=np.array([1, 0, -1])))
        assert plus.tolist() == [True, False, False]
        assert minus.tolist() == [False, False, True]

    def test_zero_mask(self):
        plus, minus = decompose(TernaryMask(weights=np.zeros(5, dtype=int)))
        assert not plus.any() and not minus.any()

    def test_planes_always_disjoint(self):
        for seed in range(20):
            plus, minus = decompose(random_mask(452, "ternary", seed))
            assert not np.any(plus & minus)

    def test_round_trip_long_mask(self):
        for seed in range(10):
            m = random_mask(452, "ternary", seed)
            assert np.array_equal(recombined(*decompose(m)), m.weights)

    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, weights):
        m = TernaryMask(weights=np.asarray(weights, dtype=np.int8))
        assert np.array_equal(recombined(*decompose(m)), m.weights)


class TestCompose:
    """:func:`readout_batch` composes the two plane detections back into one
    signed output per sample."""

    def test_inverse_of_decompose_example(self):
        m = TernaryMask(weights=np.array([1, 0, -1]))
        y = readout_batch(powers(np.eye(3)), m, 1.0, DetectorModel(noise_sigma=0.0))
        assert y.tolist() == [1.0, 0.0, -1.0]

    def test_zero_planes(self):
        m = TernaryMask(weights=np.zeros(3, dtype=int))
        states = np.random.default_rng(2).random((4, 3))
        y = readout_batch(powers(states), m, 1.0, DetectorModel(noise_sigma=0.0))
        assert y.tolist() == [0.0] * 4

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            readout_batch(powers(np.zeros((4, 3))), random_mask(2, "ternary", 0), 1.0,
                          DetectorModel())

    def test_boolean_mode_requires_empty_minus(self):
        # a boolean mask has no (-1) plane: its output is the (+1) detection alone
        m = TernaryMask(weights=np.array([1, 0, 1]), mode="boolean")
        plus, minus = decompose(m)
        assert not minus.any()
        states = np.random.default_rng(3).random((5, 3))
        got = readout_batch(powers(states), m, 1.0, DetectorModel(noise_sigma=0.2, seed=4))
        want = detect_batch(plane_power(states, plus), 1.0, DetectorModel(noise_sigma=0.2, seed=4))
        assert np.array_equal(got, want)


class TestDetect:
    def test_empty_plane_reads_zero(self):
        det = DetectorModel(noise_sigma=0.0)
        assert detect_one(state([1.0, 2.0]), plane([0, 0]), 1.0, det) == 0.0

    def test_full_plane_reads_total(self):
        det = DetectorModel(noise_sigma=0.0)
        assert detect_one(state([1.0, 2.0, 3.0]), plane([1, 1, 1]), 1.0, det) == 6.0

    def test_selected_nodes_sum(self):
        det = DetectorModel(noise_sigma=0.0)
        assert detect_one(state([1.0, 2.0, 3.0]), plane([1, 0, 1]), 1.0, det) == 4.0

    def test_gain_scales_signal(self):
        det = DetectorModel(noise_sigma=0.0)
        assert detect_one(state([1.0, 1.0]), plane([1, 1]), 1.7, det) == pytest.approx(3.4)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            detect_one(state([1.0]), plane([1, 0]), 1.0, DetectorModel())

    def test_noise_stream_is_seeded(self):
        a = DetectorModel(noise_sigma=0.1, seed=7, noise_scale=10.0)
        b = DetectorModel(noise_sigma=0.1, seed=7, noise_scale=10.0)
        s, pl = state([1.0, 2.0]), plane([1, 1])
        assert detect_one(s, pl, 1.0, a) == detect_one(s, pl, 1.0, b)
        # consecutive measurements draw fresh noise
        assert detect_one(s, pl, 1.0, a) != detect_one(s, pl, 1.0, a)


class TestReadout:
    def test_subtractive_example(self):
        det = DetectorModel(noise_sigma=0.0)
        m = TernaryMask(weights=np.array([1, -1, 0]))
        assert readout_one(state([5.0, 2.0, 7.0]), m, 1.0, det) == 3.0

    def test_zero_mask_noiseless(self):
        det = DetectorModel(noise_sigma=0.0)
        m = TernaryMask(weights=np.zeros(3, dtype=int))
        assert readout_one(state([5.0, 2.0, 7.0]), m, 1.0, det) == 0.0

    def test_noiseless_equals_weighted_sum(self):
        rng = np.random.default_rng(3)
        det = DetectorModel(noise_sigma=0.0)
        for _ in range(50):
            k = int(rng.integers(2, 200))
            m = random_mask(k, "ternary", int(rng.integers(1 << 31)))
            x = rng.random(k) * 10
            got = readout_one(state(x), m, 1.0, det)
            want = float(np.dot(m.weights.astype(float), x))
            assert got == pytest.approx(want, rel=1e-12)

    def test_draw_counts_via_stream_position(self):
        # a boolean readout advances the noise stream by one draw per sample,
        # a ternary readout by two
        x = state([1.0, 2.0, 3.0])
        bool_mask = TernaryMask(weights=np.array([1, 0, 1]), mode="boolean")
        tern_mask = TernaryMask(weights=np.array([1, 0, -1]), mode="ternary")
        probe = np.random.default_rng(5).standard_normal(4)

        d = DetectorModel(noise_sigma=1.0, seed=5)
        readout_one(x, bool_mask, 1.0, d)
        assert d._rng.standard_normal() == probe[1]

        d = DetectorModel(noise_sigma=1.0, seed=5)
        readout_one(x, tern_mask, 1.0, d)
        assert d._rng.standard_normal() == probe[2]


class TestBatchReadout:
    def test_matches_scalar_sums_noiseless(self):
        rng = np.random.default_rng(1)
        states = rng.random((10, 6))
        m = random_mask(6, "ternary", 3)
        det = DetectorModel(noise_sigma=0.0)
        got = readout_batch(powers(states), m, 1.0, det)
        want = states @ m.weights.astype(float)
        assert np.allclose(got, want, rtol=1e-12)

    def test_detect_batch_shape_checked(self):
        with pytest.raises(ShapeError):
            detect_batch(plane_power(np.zeros((4, 3)), plane([1, 0])), 1.0, DetectorModel())

    def test_noise_is_per_sample(self):
        states = np.ones((8, 2))
        det = DetectorModel(noise_sigma=0.5, seed=0, noise_scale=1.0)
        y = detect_batch(plane_power(states, plane([1, 1])), 1.0, det)
        assert len(np.unique(y)) == 8


class TestPowerCache:
    """:class:`BatchReadout` keeps plane powers in an LRU cache; its traces
    and its noise stream match the uncached readout bit for bit."""

    def rig(self, seed=3):
        sub = build_substrate(SubstrateConfig(grid_side=6, input_side=8,
                                              drift_amplitude=0.05, seed=seed))
        states = np.random.default_rng(seed).random((20, sub.n_nodes)) * 50
        det = DetectorModel(noise_sigma=0.01, seed=seed, noise_scale=10.0)
        return BatchReadout(sub, states, det, brightness=0.7)

    def test_mixed_sequence_matches_uncached(self, monkeypatch):
        rig = self.rig()
        computed = []
        monkeypatch.setattr(harness, "plane_power",
                            lambda states, plane: computed.append(1) or plane_power(states, plane))
        ref_states = rig.states.copy()
        ref_det = DetectorModel(noise_sigma=0.01, seed=3, noise_scale=10.0)
        k = rig.n_nodes
        m1 = random_mask(k, "ternary", 1)
        # shares the (-1) plane with m1; only its (+1) plane is new
        w = m1.weights.copy()
        w[np.nonzero(w == 1)[0][:3]] = 0
        m2 = TernaryMask(weights=w)
        m3 = random_mask(k, "boolean", 2)
        sequence = [m1, m1, m2, m3, m1, m3, m2]
        for i, m in enumerate(sequence):
            advance_drift(rig.substrate, i % 3)  # gain drifts between reads
            got = rig.measure(m)
            want = readout_batch(powers(ref_states), m, rig.substrate.gain * 0.7, ref_det)
            assert got.tobytes() == want.tobytes()
        # m1 +, m1 -, m2 +, m3 +: each distinct plane computed once
        assert len(computed) == 4
        assert rig.detector._rng.bit_generator.state == ref_det._rng.bit_generator.state

    def test_states_read_only(self):
        rig = self.rig()
        with pytest.raises(ValueError):
            rig.states[0, 0] = 1.0
        with pytest.raises(ValueError):
            rig.power(decompose(random_mask(rig.n_nodes, "ternary", 0))[0])[0] = 1.0

    def test_bounded_and_still_exact(self):
        rig = self.rig()
        ref_det = DetectorModel(noise_sigma=0.01, seed=3, noise_scale=10.0)
        masks = [random_mask(rig.n_nodes, "boolean", s) for s in range(POWER_CACHE_SIZE + 10)]
        for m in masks + masks[:5]:  # the first planes were evicted; recomputed
            got = rig(m)
            want = readout_batch(powers(rig.states), m, rig.substrate.gain * 0.7, ref_det)
            assert got.tobytes() == want.tobytes()
            assert len(rig._powers) <= POWER_CACHE_SIZE
        assert len(rig._powers) == POWER_CACHE_SIZE


class TestRandomMask:
    def test_symbol_frequencies_ternary(self):
        counts = np.zeros(3)
        for seed in range(100):
            w = random_mask(452, "ternary", seed).weights
            counts += [(w == v).sum() for v in (-1, 0, 1)]
        freqs = counts / counts.sum()
        assert np.all(np.abs(freqs - 1 / 3) < 0.05)

    def test_symbol_frequencies_boolean(self):
        w = np.concatenate([random_mask(452, "boolean", s).weights for s in range(50)])
        assert abs((w == 1).mean() - 0.5) < 0.05
        assert not np.any(w == -1)

    def test_single_entry_domain(self):
        assert random_mask(1, "boolean", 0).weights[0] in (0, 1)

    def test_seed_determinism(self):
        assert random_mask(100, "ternary", 9) == random_mask(100, "ternary", 9)

    def test_bad_length(self):
        with pytest.raises(UsageError):
            random_mask(0, "ternary", 0)


class TestSerialization:
    def test_json_round_trip(self):
        m = random_mask(32, "ternary", 4)  # the 32 active cells of a 6-side grid
        doc = json.loads(mask_to_json(m, grid_side=6))
        assert doc == {"weights": m.weights.tolist(), "mode": "ternary", "grid_side": 6}
        assert TernaryMask(weights=np.asarray(doc["weights"]), mode=doc["mode"]) == m

    def test_grid_display_layout(self):
        # a substrate's mask fills the active disk of its own grid side
        sub = build_substrate(SubstrateConfig(grid_side=24, input_side=16))
        m = random_mask(sub.n_nodes, "ternary", 0)
        doc = json.loads(mask_to_json(m, grid_side=24))
        grid = np.zeros((24, 24), dtype=int)
        grid[circle_mask(doc["grid_side"])] = doc["weights"]
        assert np.count_nonzero(grid) == np.count_nonzero(m.weights)

    def test_grid_length_mismatch(self):
        with pytest.raises(ShapeError):
            mask_to_json(random_mask(10, "ternary", 0), grid_side=24)
