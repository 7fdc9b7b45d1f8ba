import json
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternrc.errors import ConfigError, ShapeError, UsageError
from ternrc.harness import BatchReadout, _OutputSink, consistency
from ternrc.optimizer import TrainResult, propose
from ternrc.readout import DetectorModel, TernaryMask, random_mask, readout_batch
from ternrc.substrate import (SubstrateConfig, advance_drift, build_substrate, circle_mask,
                              states_matrix)

import reference


def plane(bits):
    return np.asarray(bits, dtype=bool)


def recombined(plus, minus):
    """The weights the two planes encode: +1 where plus, -1 where minus."""
    return plus.astype(int) - minus.astype(int)


def state(values):
    """A one-sample batch: a 1-row state matrix."""
    return np.asarray(values, dtype=float)[None, :]


def planes(mask):
    """The (+1) and (-1) Boolean planes a mask's readout sweeps."""
    return mask.weights == 1, mask.weights == -1


def rig_over(states, det=None):
    """A rig that reads ``states``; its substrate supplies only the gain."""
    sub = build_substrate(SubstrateConfig(grid_side=4, input_side=4))
    return BatchReadout(sub, np.asarray(states, dtype=float), det or DetectorModel())


def detect_one(states, plane, gain, det):
    """The single sample's detected power."""
    (y,) = det.detect(reference.full_product(states, plane), gain)
    return y


def readout_one(states, mask, gain, det):
    """The single sample's readout output."""
    (y,) = readout_batch(reference.powers(states), mask, gain, det)
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

    def test_random_mask_unknown_mode(self):
        with pytest.raises(ConfigError):
            random_mask(4, "analog")


class TestDecompose:
    """:func:`readout_batch` sweeps a ternary mask as its (+1) plane, then its
    (-1) plane."""

    @staticmethod
    def swept(mask):
        """The planes the readout of ``mask`` sweeps, in order, and its
        noiseless output over identity states: the weights the planes encode."""
        seen = []

        def power(plane):
            seen.append(plane.copy())
            return plane.astype(float)

        y = readout_batch(power, mask, 1.0, DetectorModel(noise_sigma=0.0))
        return seen, y

    def test_basic_split(self):
        (plus, minus), _ = self.swept(TernaryMask(weights=np.array([1, 0, -1])))
        assert plus.tolist() == [True, False, False]
        assert minus.tolist() == [False, False, True]

    def test_zero_mask(self):
        (plus, minus), _ = self.swept(TernaryMask(weights=np.zeros(5, dtype=int)))
        assert not plus.any() and not minus.any()

    def test_planes_always_disjoint(self):
        for seed in range(20):
            (plus, minus), _ = self.swept(random_mask(452, "ternary", seed))
            assert not np.any(plus & minus)

    def test_round_trip_long_mask(self):
        for seed in range(10):
            m = random_mask(452, "ternary", seed)
            seen, y = self.swept(m)
            assert np.array_equal(recombined(*seen), m.weights)
            assert np.array_equal(y, m.weights)

    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, weights):
        m = TernaryMask(weights=np.asarray(weights, dtype=np.int8))
        seen, y = self.swept(m)
        assert np.array_equal(recombined(*seen), m.weights)
        assert np.array_equal(y, m.weights)


class TestCompose:
    """:func:`readout_batch` composes the two plane detections back into one
    signed output per sample."""

    def test_inverse_of_decompose_example(self):
        m = TernaryMask(weights=np.array([1, 0, -1]))
        y = readout_batch(reference.powers(np.eye(3)), m, 1.0, DetectorModel(noise_sigma=0.0))
        assert y.tolist() == [1.0, 0.0, -1.0]

    def test_list_weights_read_like_an_array(self):
        # the mask keeps the array it checked, so the readout's plane
        # comparisons see an array, not a list
        m = TernaryMask(weights=[1, 0, -1])
        assert isinstance(m.weights, np.ndarray) and len(m) == 3
        y = readout_batch(reference.powers(np.eye(3)), m, 1.0, DetectorModel(noise_sigma=0.0))
        assert y.tolist() == [1.0, 0.0, -1.0]

    def test_zero_planes(self):
        m = TernaryMask(weights=np.zeros(3, dtype=int))
        states = np.random.default_rng(2).random((4, 3))
        y = readout_batch(reference.powers(states), m, 1.0, DetectorModel(noise_sigma=0.0))
        assert y.tolist() == [0.0] * 4

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            rig_over(np.zeros((4, 3))).measure(random_mask(2, "ternary", 0))

    def test_boolean_mode_requires_empty_minus(self):
        # a boolean mask has no (-1) plane: its output is the (+1) detection alone
        m = TernaryMask(weights=np.array([1, 0, 1]), mode="boolean")
        seen = []
        states = np.random.default_rng(3).random((5, 3))
        got = readout_batch(lambda pl: seen.append(pl) or reference.full_product(states, pl), m,
                            1.0, DetectorModel(noise_sigma=0.2, seed=4))
        assert [pl.tolist() for pl in seen] == [[True, False, True]]
        want = DetectorModel(noise_sigma=0.2, seed=4).detect(
            reference.full_product(states, seen[0]), 1.0)
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
            rig_over(state([1.0])).power(plane([1, 0]))

    @pytest.mark.parametrize("gain", [1.0, 0.37])
    def test_in_place_detection_matches_formula(self, gain):
        # the draw is scaled and offset in place: the bytes of the plain formula
        power = np.random.default_rng(8).random(250) * 40
        power[:2] = (0.0, -0.0)
        det = DetectorModel(noise_sigma=0.02, seed=9, noise_scale=31.5)
        z = np.random.default_rng(9).standard_normal(250)
        want = gain * power + 0.02 * 31.5 * z
        assert det.detect(power, gain).tobytes() == want.tobytes()
        assert det.detect(power, gain).tobytes() != want.tobytes()  # fresh noise

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
        got = readout_batch(reference.powers(states), m, 1.0, det)
        want = states @ m.weights.astype(float)
        assert np.allclose(got, want, rtol=1e-12)

    def test_power_shape_checked(self):
        with pytest.raises(ShapeError):
            rig_over(np.zeros((4, 3))).power(plane([1, 0]))

    def test_noise_is_per_sample(self):
        states = np.ones((8, 2))
        det = DetectorModel(noise_sigma=0.5, seed=0, noise_scale=1.0)
        y = det.detect(reference.full_product(states, plane([1, 1])), 1.0)
        assert len(np.unique(y)) == 8


class TestDeltaReadout:
    """:class:`BatchReadout` reads a plane from its nearest base plane, with a
    correction for the few positions where they differ; its traces match the
    full-product readout to rounding and its noise stream exactly."""

    def rig(self, seed=3, grid_side=6, n=20):
        sub = build_substrate(SubstrateConfig(grid_side=grid_side, input_side=8,
                                              drift_amplitude=0.05, seed=seed))
        rng = np.random.default_rng(seed)
        # gathered like the harness's states: repeated rows, column-major
        states = states_matrix(rng.random((n, sub.n_nodes)) * 50, rng.permutation(n))
        det = DetectorModel(noise_sigma=0.01, seed=seed, noise_scale=10.0)
        return BatchReadout(sub, states, det, brightness=0.7)

    @staticmethod
    def count_full_products(rig):
        """The bases ``rig`` appends from now on: each full product appends
        one, a correction none."""
        appended = []

        class Recording(list):
            def append(self, base):
                appended.append(base)
                super().append(base)

        rig._bases = Recording(rig._bases)
        return appended

    def test_mixed_sequence_matches_uncached(self):
        rig = self.rig(grid_side=24)
        computed = self.count_full_products(rig)
        ref_states = np.ascontiguousarray(rig.states)
        ref_det = DetectorModel(noise_sigma=0.01, seed=3, noise_scale=10.0)
        k = rig.n_nodes
        m1 = random_mask(k, "ternary", 1)
        # three of m1's (+1) positions set to 0: a delta from m1's (+1) plane
        w = m1.weights.copy()
        w[np.nonzero(w == 1)[0][:3]] = 0
        m2 = TernaryMask(weights=w)
        m3 = random_mask(k, "boolean", 2)
        sequence = [m1, m1, m2, m3, m1, m3, m2]
        for i, m in enumerate(sequence):
            advance_drift(rig.substrate, i % 3)  # gain drifts between reads
            got = rig.measure(m)
            want = readout_batch(reference.powers(ref_states), m, rig.substrate.gain * 0.7, ref_det)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        # m1's planes become the two bases; m1 again and m2 (a correction of
        # m1's (+1) plane, and m1's own (-1) plane) cost no product. m3's (+1)
        # plane, far from both, replaces the nearer m1 (-1) base; the next m1
        # and m3 each swap the far plane back in (3). The last m2 reads its
        # corrected (+1) plane again, which gets a product of its own, and the
        # (-1) plane m3 had displaced (2).
        assert len(computed) == 7
        assert rig.detector._rng.bit_generator.state == ref_det._rng.bit_generator.state

    @pytest.mark.parametrize("k", [1, 7, 448, 1001])
    def test_key_popcount_is_hamming_distance(self, k):
        # the rig's nearest base: a popcount of the XOR of the planes' byte keys
        rng = np.random.default_rng(k)
        def key(pl):
            return int.from_bytes(pl.tobytes(), "little")
        for _ in range(200):
            a = rng.random(k) < rng.random()
            b = a.copy()
            b[rng.integers(0, k, size=int(rng.integers(0, k + 1)))] ^= True
            for x, y in ((a, b), (a, ~a), (a, a), (np.zeros(k, bool), np.ones(k, bool))):
                assert (key(x) ^ key(y)).bit_count() == np.count_nonzero(x != y)

    def test_states_read_only(self):
        rig = self.rig()
        assert rig.states.flags.f_contiguous
        with pytest.raises(ValueError):
            rig.states[0, 0] = 1.0
        with pytest.raises(ValueError):
            rig.power(planes(random_mask(rig.n_nodes, "ternary", 0))[0])[0] = 1.0

    def test_bounded_and_still_exact(self):
        rig = self.rig()
        ref_det = DetectorModel(noise_sigma=0.01, seed=3, noise_scale=10.0)
        masks = [random_mask(rig.n_nodes, "boolean", s) for s in range(20)]
        for m in masks + masks[:5]:
            got = rig(m)
            want = readout_batch(reference.powers(rig.states), m, rig.substrate.gain * 0.7, ref_det)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            assert len(rig._bases) <= 2
        assert len(rig._bases) == 2
        with pytest.raises(ShapeError):
            rig(random_mask(rig.n_nodes + 1, "boolean", 0))

    def test_optimizer_walk_matches_full_product(self):
        # proposals of a few mirrors, about one in ten accepted, as in training
        rig = self.rig(grid_side=24, n=100)
        computed = self.count_full_products(rig)
        rng = np.random.default_rng(7)
        mask = random_mask(rig.n_nodes, "ternary", rng)
        accepted = 0
        for _ in range(2000):
            cand = propose(mask, int(rng.integers(1, 12)), rng)
            for pl in planes(cand):
                np.testing.assert_allclose(rig.power(pl), reference.full_product(rig.states, pl),
                                           rtol=1e-12, atol=0)
            # each base holds its own full product: corrections never chain
            for base, p, *_ in rig._bases:
                assert p.tobytes() == reference.full_product(rig.states, base).tobytes()
            if rng.random() < 0.1:
                mask, accepted = cand, accepted + 1
        assert 150 < accepted < 250
        # most planes were corrections, not full products
        assert len(computed) < 200

    def test_frozen_mask_costs_two_full_products(self):
        rig = self.rig(grid_side=24)
        computed = self.count_full_products(rig)
        mask = random_mask(rig.n_nodes, "ternary", 5)
        plus, minus = planes(mask)
        rig.measure(mask)
        p_plus, p_minus = rig.power(plus), rig.power(minus)
        for _ in range(50):
            advance_drift(rig.substrate, 1)
            assert rig.power(plus) is p_plus and rig.power(minus) is p_minus
            rig.measure(mask)
        assert len(computed) == 2
        assert p_plus.tobytes() == reference.full_product(rig.states, plus).tobytes()

    def test_corrected_plane_read_again_becomes_a_base(self):
        # the search's incumbent is the plane read again after its correction
        rig = self.rig(grid_side=24)
        computed = self.count_full_products(rig)
        plus, minus = planes(random_mask(rig.n_nodes, "ternary", 5))
        rig.power(plus)
        rig.power(minus)
        moved = plus.copy()
        moved[np.flatnonzero(~plus)[:3]] = True
        first = rig.power(moved)
        assert len(computed) == 2
        again = rig.power(moved)
        assert len(computed) == 3
        assert again.tobytes() == reference.full_product(rig.states, moved).tobytes()
        np.testing.assert_allclose(first, again, rtol=1e-12, atol=0)
        # it replaced the (+1) base, its nearest; the (-1) base stays
        assert rig.power(moved) is again and rig.power(minus) is rig._bases[0][1]
        assert len(computed) == 3

    def test_stream_position_and_sweeps_match_full_readout(self, monkeypatch):
        rig = self.rig(grid_side=24)
        ref_det = DetectorModel(noise_sigma=0.01, seed=3, noise_scale=10.0)
        sweeps = []
        detect = DetectorModel.detect
        monkeypatch.setattr(DetectorModel, "detect",
                            lambda det, power, gain: sweeps.append(det) or detect(det, power, gain))
        rng = np.random.default_rng(1)
        mask = random_mask(rig.n_nodes, "ternary", rng)
        masks = [mask := propose(mask, 3, rng) for _ in range(40)]
        masks += [random_mask(rig.n_nodes, "boolean", s) for s in range(5)]
        for m in masks:
            rig.measure(m)
            readout_batch(reference.powers(rig.states), m, 1.0, ref_det)
        assert sweeps.count(rig.detector) == sweeps.count(ref_det) == 2 * 40 + 5
        assert rig.detector._rng.bit_generator.state == ref_det._rng.bit_generator.state


class TestConsistency:
    def test_matches_old_formula_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 250, 1000):
            for _ in range(50):
                a = rng.random(n) * rng.uniform(1e-3, 1e3)
                b = a + rng.standard_normal(n) * rng.uniform(1e-6, 1.0)
                assert consistency(a, b[None])[0].hex() == reference.consistency(a, b).hex()

    def test_zero_spread_exactly_where_np_std_is_zero(self):
        # one tiny sample in a zero trace: the variance underflows to zero
        # somewhere in this range, and the rejection must switch there too
        b = np.random.default_rng(26).random(1000)
        outcomes = set()
        for x in np.geomspace(1e-150, 1e-170, 81):
            a = np.zeros(1000)
            a[0] = x
            outcomes.add(a.std() == 0.0)
            if a.std() == 0.0:
                with pytest.raises(UsageError):
                    consistency(a, b[None])
            else:
                assert consistency(a, b[None])[0].hex() == reference.consistency(a, b).hex()
        assert outcomes == {True, False}

    def test_identical_traces_are_exactly_one(self):
        a = np.random.default_rng(24).random(100)
        assert consistency(a, a[None].copy()).tolist() == [1.0]

    def test_constant_trace_rejected(self):
        a = np.random.default_rng(25).random(100)
        for const in (np.zeros(100), np.full(100, 3.0)):
            with pytest.raises(UsageError, match="constant trace"):
                consistency(a, const[None])
            with pytest.raises(UsageError, match="constant trace"):
                consistency(const, a[None])

    def test_shape_contract(self):
        with pytest.raises(UsageError):
            consistency(np.ones(3), np.ones((1, 4)))
        with pytest.raises(UsageError):
            consistency(np.ones(1), np.ones((1, 1)))

    def test_one_trace_must_be_a_one_row_stack(self):
        a = np.random.default_rng(27).random(100)
        with pytest.raises(UsageError, match=r"\(C, N\) stack"):
            consistency(a, a + 1.0)


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
        a, b = random_mask(100, "ternary", 9), random_mask(100, "ternary", 9)
        assert a.mode == b.mode and np.array_equal(a.weights, b.weights)

    def test_bad_length(self):
        with pytest.raises(UsageError):
            random_mask(0, "ternary", 0)


def mask_file(m, grid_side, root):
    """The mask document the output sink writes for an arm that trained ``m``."""
    result = TrainResult(best_mask=m, history=(), final_nmse=0.0, initial_nmse=0.0)
    _OutputSink(root).arm("t", result, grid_side)
    return json.loads((root / "mask_t.json").read_text())


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        m = random_mask(32, "ternary", 4)  # the 32 active cells of a 6-side grid
        doc = mask_file(m, 6, tmp_path)
        assert doc == {"weights": m.weights.tolist(), "mode": "ternary", "grid_side": 6}
        # the weights read back from JSON are int64, so values are compared, not bytes
        back = TernaryMask(weights=np.asarray(doc["weights"]), mode=doc["mode"])
        assert back.mode == m.mode and np.array_equal(back.weights, m.weights)

    def test_grid_display_layout(self, tmp_path):
        # a substrate's mask fills the active disk of its own grid side
        sub = build_substrate(SubstrateConfig(grid_side=24, input_side=16))
        m = random_mask(sub.n_nodes, "ternary", 0)
        doc = mask_file(m, 24, tmp_path)
        grid = np.zeros((24, 24), dtype=int)
        grid[circle_mask(doc["grid_side"])] = doc["weights"]
        assert np.count_nonzero(grid) == np.count_nonzero(m.weights)

    def test_grid_length_mismatch(self, tmp_path):
        with pytest.raises(ShapeError):
            mask_file(random_mask(10, "ternary", 0), 24, tmp_path)
        # the arm is rejected before any of its files is written
        assert not any(tmp_path.iterdir())
