import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from ternrc.errors import ConfigError, ShapeError, UsageError
from ternrc import harness
from ternrc.harness import ExperimentConfig
from ternrc.optimizer import TrainConfig
from ternrc.substrate import (SubstrateConfig, _coupling_matrix, advance_drift, build_substrate,
                              circle_mask,
                              forward_batch, laser_response, states_matrix)
from ternrc.tasks import (DigitDataset, HeaderTask, LabeledBatch, MnistTask, make_glyph_dataset,
                          make_header_batch, make_onevsall_batch)

import reference


def make_frames(side=28, seed=0, density=0.3, n=1):
    """(n, side, side) random frames, dark outside the aperture."""
    rng = np.random.default_rng(seed)
    return (rng.random((n, side, side)) < density) & circle_mask(side)


class TestGeometry:
    def test_default_grid_node_count(self):
        sub = build_substrate(SubstrateConfig())
        # cell-center inclusion on the 24x24 disk; close to the pi/4 area estimate
        assert sub.n_nodes == 448
        assert abs(sub.n_nodes - 24 * 24 * np.pi / 4) < 5

    def test_degenerate_grid_keeps_all_cells(self):
        # all four cell centers of a 2x2 grid lie inside its inscribed circle
        sub = build_substrate(SubstrateConfig(grid_side=2, input_side=8))
        assert sub.n_nodes == 4

    def test_input_aperture_is_inscribed_circle(self):
        sub = build_substrate(SubstrateConfig(input_side=28))
        assert sub.n_inputs == int(circle_mask(28).sum()) == 616

    def test_mask_matches_circle_rule(self):
        m = circle_mask(24)
        c = 12.0
        for i in range(24):
            for j in range(24):
                inside = (i + 0.5 - c) ** 2 + (j + 0.5 - c) ** 2 <= c * c
                assert m[i, j] == inside


class TestBuild:
    def test_same_seed_same_substrate(self):
        cfg = SubstrateConfig(seed=42)
        a, b = build_substrate(cfg), build_substrate(cfg)
        assert np.array_equal(a.fields, b.fields)
        assert a.gain == b.gain == 1.0

    def test_different_seed_different_matrix(self):
        a = build_substrate(SubstrateConfig(seed=1))
        b = build_substrate(SubstrateConfig(seed=2))
        assert not np.array_equal(a.fields, b.fields)

    def test_unit_variance_entries(self):
        sub = build_substrate(SubstrateConfig(seed=3))
        re, im = np.split(sub.fields, 2)
        assert abs((re ** 2 + im ** 2).mean() - 1.0) < 0.01
        assert abs(complex(re.mean(), im.mean())) < 0.01

    def test_transmission_frozen(self):
        sub = build_substrate(SubstrateConfig())
        with pytest.raises(ValueError):
            sub.fields[0, 0] = 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            build_substrate(SubstrateConfig(grid_side=1))
        with pytest.raises(ConfigError):
            SubstrateConfig(saturation=-1.0)
        with pytest.raises(ConfigError):
            SubstrateConfig(saturation=float("nan"))
        with pytest.raises(ConfigError):
            SubstrateConfig(drift_timescale=0.0)


class TestConfigJson:
    """The substrate section of the one config path, ExperimentConfig.from_json."""

    @staticmethod
    def config(substrate: SubstrateConfig) -> ExperimentConfig:
        return ExperimentConfig(substrate=substrate, train=TrainConfig(alpha=10.0, max_epochs=5),
                                task=MnistTask())

    def test_round_trip(self):
        sub = SubstrateConfig(grid_side=16, input_side=8, saturation=0.01, seed=9)
        cfg = self.config(sub)
        assert ExperimentConfig.from_json(cfg.to_json_dict()) == cfg
        assert ExperimentConfig.from_json(json.dumps(cfg.to_json_dict())).substrate == sub

    def test_unknown_field_rejected(self):
        doc = self.config(SubstrateConfig()).to_json_dict()
        doc["substrate"]["wavelength"] = 919
        with pytest.raises(ConfigError, match="wavelength"):
            ExperimentConfig.from_json(json.dumps(doc))

    def test_field_names_are_exact(self):
        doc = self.config(SubstrateConfig()).to_json_dict()
        assert set(doc["substrate"]) == {"grid_side", "input_side", "saturation",
                                         "diffusion_sigma", "noise_sigma", "drift_amplitude",
                                         "drift_timescale", "vcsel_on", "seed"}


def forward(sub, frames):
    """(N, K) states of an (N, d, d) frame stack."""
    return states_matrix(*forward_batch(sub, frames))


class TestForward:
    def test_all_off_gives_zero_state(self):
        sub = build_substrate(SubstrateConfig())
        dark = np.zeros((1, 28, 28), dtype=bool)
        assert np.all(forward(sub, dark) == 0.0)

    def test_single_pixel_off_mode_selects_column(self):
        # laser off: the state is exactly the squared moduli of one column;
        # a one-hot frame makes every GEMM sum exact
        cfg = SubstrateConfig(input_side=8, vcsel_on=False)
        sub = build_substrate(cfg)
        rows, cols = np.nonzero(circle_mask(8))
        for k in (0, 7, 20):
            px = np.zeros((1, 8, 8), dtype=bool)
            px[0, rows[k], cols[k]] = True
            expected = sub.fields[:sub.n_nodes, k] ** 2 + sub.fields[sub.n_nodes:, k] ** 2
            assert np.array_equal(forward(sub, px)[0], expected)

    def test_off_mode_ignores_saturation_and_smoothing(self):
        on = build_substrate(SubstrateConfig(seed=5, vcsel_on=True))
        off = build_substrate(SubstrateConfig(seed=5, vcsel_on=False))
        pat = make_frames(seed=5)
        p = forward(off, pat)
        x = forward(on, pat)
        assert not np.allclose(p, x)

    def test_saturation_bound_before_smoothing(self):
        s = 0.02
        cfg = SubstrateConfig(saturation=s, diffusion_sigma=0.0, vcsel_on=True)
        sub = build_substrate(cfg)
        for seed in range(5):
            x = forward(sub, make_frames(seed=seed))
            assert np.all(x < 1.0 / s)

    def test_saturable_map_values(self):
        cfg = SubstrateConfig(saturation=0.5, diffusion_sigma=0.0, vcsel_on=True)
        sub = build_substrate(cfg)
        off = build_substrate(SubstrateConfig(saturation=0.5, vcsel_on=False))
        pat = make_frames(seed=1)
        p = forward(off, pat)
        x = forward(sub, pat)
        assert np.allclose(x, p / (1 + 0.5 * p), rtol=1e-12)

    def test_smoothing_conserves_total_intensity(self):
        base = SubstrateConfig(saturation=0.01, diffusion_sigma=0.0, vcsel_on=True)
        smooth = SubstrateConfig(saturation=0.01, diffusion_sigma=2.0, vcsel_on=True)
        pat = make_frames(seed=2)
        a = forward(build_substrate(base), pat)
        b = forward(build_substrate(smooth), pat)
        assert not np.allclose(a, b)
        assert abs(a.sum() - b.sum()) <= 1e-9 * a.sum()

    def test_forward_is_pure(self):
        sub = build_substrate(SubstrateConfig())
        pat = make_frames(seed=3)
        assert np.array_equal(forward(sub, pat), forward(sub, pat))

    def test_dimension_mismatch(self):
        sub = build_substrate(SubstrateConfig(input_side=28))
        with pytest.raises(ShapeError):
            forward(sub, make_frames(side=16))


class TestForwardBatch:
    def test_matches_elementwise_forward(self):
        sub = build_substrate(SubstrateConfig(input_side=8))
        pats = make_frames(side=8, n=3)
        batch = forward(sub, pats)
        assert len(batch) == 3
        for got, pat in zip(batch, pats):
            np.testing.assert_allclose(got, forward(sub, pat[None])[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("cfg", [
        SubstrateConfig(input_side=8), SubstrateConfig(input_side=8, vcsel_on=False),
        SubstrateConfig(input_side=8, saturation=0.0),
        SubstrateConfig(input_side=8, diffusion_sigma=0.0)],
        ids=["on", "off", "no-saturation", "no-diffusion"])
    def test_matches_one_frame_matvec_to_rounding(self, cfg):
        sub = build_substrate(cfg)
        pats = make_frames(side=8, n=20)
        for got, pat in zip(forward(sub, pats), pats):
            np.testing.assert_allclose(got, reference.forward_frame(sub, pat), rtol=1e-12, atol=0)

    def test_repeats_computed_once_and_bit_identical(self):
        sub = build_substrate(SubstrateConfig(input_side=16))
        pats = make_header_batch(HeaderTask(3, 5, 60, image_side=16), seed=2).pixels
        distinct = {p.tobytes() for p in pats}
        assert len(distinct) < len(pats)
        states, index = forward_batch(sub, pats)
        assert states.shape == (len(distinct), sub.n_nodes)
        assert index.shape == (len(pats),)
        got = states_matrix(states, index)
        for state, pat in zip(got, pats):
            # a repeated frame reads its shared row, bit for bit
            assert state.tobytes() == got[(pats == pat).all(axis=(1, 2))][0].tobytes()
            np.testing.assert_allclose(state, forward(sub, pat[None])[0], rtol=1e-12, atol=0)

    def test_thousand_patterns(self):
        sub = build_substrate(SubstrateConfig(grid_side=8, input_side=8))
        pats = np.tile(make_frames(side=8, n=50), (20, 1, 1))
        assert len(forward(sub, pats)) == 1000

    def test_empty_batch_rejected(self):
        sub = build_substrate(SubstrateConfig())
        with pytest.raises(UsageError):
            forward_batch(sub, np.zeros((0, 28, 28), dtype=bool))

    def test_mixed_sides_rejected(self):
        # frames whose two sides differ, and a single frame that is no stack
        sub = build_substrate(SubstrateConfig(input_side=8))
        with pytest.raises(ShapeError):
            forward_batch(sub, np.zeros((2, 8, 16), dtype=bool))
        with pytest.raises(ShapeError):
            forward_batch(sub, make_frames(side=8)[0])

    def test_non_boolean_frames_rejected(self):
        sub = build_substrate(SubstrateConfig(input_side=8))
        with pytest.raises(ConfigError):
            forward_batch(sub, make_frames(side=8).astype(float))


class TestFieldsOracle:
    """The real fields and the in-place forward pass hold every byte of the
    complex transmission and the concatenating pass they replace."""

    @pytest.mark.parametrize("seed", [0, 1, 17, 2 ** 32 - 1])
    @pytest.mark.parametrize("side", [12, 28, 64])
    def test_build_matches_complex_draw(self, side, seed):
        cfg = SubstrateConfig(input_side=side, seed=seed)
        sub = build_substrate(cfg)
        t, rng = reference.transmission(cfg)
        assert sub.fields.tobytes() == np.concatenate((t.real, t.imag)).tobytes()
        assert sub._rng.bit_generator.state == rng.bit_generator.state
        assert (sub.n_nodes, sub.n_inputs) == t.shape

    def test_divide_would_move_bytes(self):
        # why the scale is a multiply: a real divide rounds differently
        sub = build_substrate(SubstrateConfig(seed=3))
        rng = np.random.default_rng(3)
        drawn = rng.standard_normal(sub.fields.shape)
        assert (drawn / np.sqrt(2.0)).tobytes() != sub.fields.tobytes()

    @pytest.mark.parametrize("cfg", [
        SubstrateConfig(), SubstrateConfig(vcsel_on=False), SubstrateConfig(saturation=0.0),
        SubstrateConfig(diffusion_sigma=0.0), SubstrateConfig(input_side=64, seed=9)],
        ids=["on", "off", "no-saturation", "no-diffusion", "side-64"])
    def test_forward_matches_concatenating_pass(self, cfg):
        sub = build_substrate(cfg)
        frames = make_frames(side=cfg.input_side, seed=cfg.seed, n=150)
        frames = np.concatenate((frames, frames[::3]))
        states, index = forward_batch(sub, frames)
        ref_states, ref_index = reference.forward_batch(sub, frames)
        assert states.tobytes() == ref_states.tobytes()
        assert states.flags.f_contiguous == ref_states.flags.f_contiguous
        assert np.array_equal(index, ref_index)

    def test_laser_response_leaves_its_input(self):
        # the comparison feeds it the laser-off intensities it also reads
        sub = build_substrate(SubstrateConfig(seed=2))
        off = build_substrate(SubstrateConfig(seed=2, vcsel_on=False))
        p, _ = forward_batch(off, make_frames(seed=2, n=40))
        kept = p.copy()
        laser_response(sub, p)
        assert p.tobytes() == kept.tobytes()


def traced_peak(fn, *args):
    """Peak bytes the traced allocator holds while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Each large array is held once: the (2K, D) fields and, in the forward
    pass, one (2K, U) field block squared in place."""

    def test_build_at_side_64(self):
        # the fields alone are 23.1 MB
        assert traced_peak(build_substrate, SubstrateConfig(input_side=64)) <= 32e6

    def test_forward_of_thousand_distinct_frames(self):
        sub = build_substrate(SubstrateConfig())
        frames = make_frames(seed=4, n=1000)
        assert len(np.unique(frames.reshape(1000, -1), axis=0)) == 1000
        assert traced_peak(forward_batch, sub, frames) <= 16e6


class TestCouplingFlush:
    """The coupling holds no subnormal entry, which would slow its GEMM, and
    zeroing them moves no byte of the laser response."""

    @pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("side", [8, 16, 24, 32])
    def test_no_subnormal_entry_and_column_sums_kept(self, side, sigma):
        c = _coupling_matrix(circle_mask(side), sigma)
        ref = reference.unflushed_coupling(circle_mask(side), sigma)
        assert not ((c != 0.0) & (np.abs(c) < np.finfo(float).tiny)).any()
        # only subnormal entries were touched
        assert np.array_equal(c != ref, (ref != 0.0) & (ref < np.finfo(float).tiny))
        assert c.sum(axis=0).tobytes() == ref.sum(axis=0).tobytes()

    def test_stock_matrix_had_subnormal_entries(self):
        ref = reference.unflushed_coupling(circle_mask(24), 0.5)
        assert np.count_nonzero((ref != 0.0) & (ref < np.finfo(float).tiny)) == 3200

    @pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("side", [8, 16, 24, 32])
    def test_laser_response_bytes_match_unflushed(self, side, sigma):
        sub = build_substrate(SubstrateConfig(grid_side=side, input_side=4, diffusion_sigma=sigma,
                                              seed=side))
        unflushed = reference.unflushed_coupling(circle_mask(side), sigma)
        ref = dataclasses.replace(sub, _coupling=unflushed)
        rng = np.random.default_rng(int(side * sigma * 4))
        p = rng.random((60, sub.n_nodes)) * rng.uniform(1e-3, 1e3, size=(60, 1))
        p[rng.random(p.shape) < 0.2] = 0.0
        p[7] = 0.0
        assert laser_response(sub, p).tobytes() == laser_response(ref, p).tobytes()


class TestSharedPass:
    """The laser-on states are the laser response to the laser-off states of
    the same transmission, so the comparison computes |T u|^2 once."""

    @pytest.mark.parametrize("kind", ["header", "digit"])
    def test_response_to_off_states_is_on_forward(self, kind):
        if kind == "header":
            side = 16
            frames = make_header_batch(HeaderTask(3, 5, 60, image_side=side), seed=2).pixels
        else:
            side = 28
            frames = make_onevsall_batch(make_glyph_dataset(400, seed=1), 3, 40, seed=0).pixels
        sub_on = build_substrate(SubstrateConfig(input_side=side, seed=4))
        sub_off = build_substrate(SubstrateConfig(input_side=side, seed=4, vcsel_on=False))
        off, index_off = forward_batch(sub_off, frames)
        on, index_on = forward_batch(sub_on, frames)
        assert np.array_equal(index_off, index_on)
        assert laser_response(sub_on, off).tobytes() == on.tobytes()

    def test_comparison_builds_one_substrate_per_repeat(self, monkeypatch):
        # the laser-off arm is a view of the lasing substrate, not a second draw
        built = []

        def counting(config):
            built.append(config)
            return build_substrate(config)

        monkeypatch.setattr(harness, "build_substrate", counting)
        cfg = ExperimentConfig(substrate=SubstrateConfig(input_side=16),
                               train=TrainConfig(alpha=5.0, max_epochs=2),
                               task=HeaderTask(n_samples=20, image_side=16), repeats=2)
        rows = harness.run_comparison(cfg)
        assert len(rows) == 8
        assert len(built) == 2 and all(c.vcsel_on for c in built)


class TestDrift:
    def test_zero_amplitude_fixed_point(self):
        sub = build_substrate(SubstrateConfig(drift_amplitude=0.0))
        advance_drift(sub, 100)
        assert sub.gain == 1.0

    def test_zero_steps_is_identity(self):
        sub = build_substrate(SubstrateConfig())
        advance_drift(sub, 0)
        assert sub.gain == 1.0

    def test_mean_reversion_single_step(self):
        # gain 1.5 with unit timescale reverts to 1.0 in one noiseless step
        sub = build_substrate(SubstrateConfig(drift_amplitude=0.0, drift_timescale=1.0))
        sub.gain = 1.5
        advance_drift(sub, 1)
        assert sub.gain == 1.0

    def test_gain_clamped(self):
        sub = build_substrate(SubstrateConfig(drift_amplitude=5.0, drift_timescale=1e9))
        advance_drift(sub, 200)
        assert 0.5 <= sub.gain <= 2.0

    def test_seeded_trajectory_reproducible(self):
        cfg = SubstrateConfig(drift_amplitude=0.01, seed=11)
        a, b = build_substrate(cfg), build_substrate(cfg)
        advance_drift(a, 50)
        advance_drift(b, 50)
        assert a.gain == b.gain

    def test_negative_steps_rejected(self):
        sub = build_substrate(SubstrateConfig())
        with pytest.raises(UsageError):
            advance_drift(sub, -1)


class TestBatchFrames:
    """Frame checks of :class:`LabeledBatch` and the aperture/fit rules of the
    batch builders."""

    @staticmethod
    def _batch(pixels):
        n = len(pixels)
        return LabeledBatch(pixels=pixels, targets=np.zeros(n), labels=np.zeros(n, dtype=int))

    @staticmethod
    def _digit_frames(side_in, value=255, side=None):
        """Frames of a two-image one-vs-all batch of uniform grayscale images."""
        data = DigitDataset(images=np.full((2, side_in, side_in), value, dtype=np.uint8),
                            labels=np.array([0, 1], dtype=np.uint8))
        return make_onevsall_batch(data, 0, 2, seed=0, input_side=side).pixels

    def test_pixels_outside_aperture_rejected(self):
        px = np.ones((1, 8, 8), dtype=bool)
        with pytest.raises(ConfigError):
            self._batch(px)

    def test_from_pixels_applies_aperture(self):
        for pat in self._digit_frames(8):
            assert np.array_equal(pat, circle_mask(8))

    def test_small_side_rejected(self):
        with pytest.raises(ConfigError):
            self._batch(np.zeros((1, 3, 3), dtype=bool))
        with pytest.raises(ConfigError):
            self._digit_frames(3, value=0)

    def test_non_boolean_or_non_square_rejected(self):
        with pytest.raises(ConfigError):
            self._batch(np.zeros((1, 8, 8), dtype=np.uint8))
        with pytest.raises(ShapeError):
            self._batch(np.zeros((1, 8, 6), dtype=bool))
        with pytest.raises(ShapeError):
            LabeledBatch(np.zeros((2, 8, 8), dtype=bool), np.zeros(3), np.zeros(2))

    def test_center_crop_and_pad(self):
        pat = self._digit_frames(12, side=8)[0]
        assert pat.shape == (8, 8)
        assert np.array_equal(pat, circle_mask(8))
        pat = self._digit_frames(6, side=10)[0]
        assert pat.shape == (10, 10)
        # the padded border stays dark
        assert not pat[0].any() and not pat[-1].any()
        assert np.array_equal(pat[2:8, 2:8], circle_mask(10)[2:8, 2:8])
