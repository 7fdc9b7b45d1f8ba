import json

import numpy as np
import pytest

import ternrc.substrate as substrate_mod
from ternrc import (ConfigError, InputPattern, ShapeError, SubstrateConfig,
                    UsageError, advance_drift, build_substrate, circle_mask,
                    forward, forward_batch, make_header_batch)


def make_pattern(side=28, seed=0, density=0.3):
    rng = np.random.default_rng(seed)
    return InputPattern.from_pixels(rng.random((side, side)) < density)


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
        assert np.array_equal(a.transmission, b.transmission)
        assert a.gain == b.gain == 1.0

    def test_different_seed_different_matrix(self):
        a = build_substrate(SubstrateConfig(seed=1))
        b = build_substrate(SubstrateConfig(seed=2))
        assert not np.array_equal(a.transmission, b.transmission)

    def test_unit_variance_entries(self):
        sub = build_substrate(SubstrateConfig(seed=3))
        power = np.abs(sub.transmission) ** 2
        assert abs(power.mean() - 1.0) < 0.01
        assert abs(sub.transmission.mean()) < 0.01

    def test_transmission_frozen(self):
        sub = build_substrate(SubstrateConfig())
        with pytest.raises(ValueError):
            sub.transmission[0, 0] = 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            build_substrate(SubstrateConfig(grid_side=1))
        with pytest.raises(ConfigError):
            SubstrateConfig(saturation=-1.0).validate()
        with pytest.raises(ConfigError):
            SubstrateConfig(saturation=float("nan")).validate()
        with pytest.raises(ConfigError):
            SubstrateConfig(drift_timescale=0.0).validate()


class TestConfigJson:
    def test_round_trip(self):
        cfg = SubstrateConfig(grid_side=16, input_side=8, saturation=0.01, seed=9)
        assert SubstrateConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_field_rejected(self):
        doc = json.loads(SubstrateConfig().to_json())
        doc["wavelength"] = 919
        with pytest.raises(ConfigError, match="wavelength"):
            SubstrateConfig.from_json(json.dumps(doc))

    def test_field_names_are_exact(self):
        doc = json.loads(SubstrateConfig().to_json())
        assert set(doc) == {"grid_side", "input_side", "saturation", "diffusion_sigma",
                            "noise_sigma", "drift_amplitude", "drift_timescale",
                            "vcsel_on", "seed"}


class TestForward:
    def test_all_off_gives_zero_state(self):
        sub = build_substrate(SubstrateConfig())
        dark = InputPattern.from_pixels(np.zeros((28, 28)))
        assert np.all(forward(sub, dark).intensities == 0.0)

    def test_single_pixel_off_mode_selects_column(self):
        # laser off: the state is exactly the squared moduli of one column
        cfg = SubstrateConfig(input_side=8, vcsel_on=False)
        sub = build_substrate(cfg)
        aperture = circle_mask(8)
        rows, cols = np.nonzero(aperture)
        for k in (0, 7, 20):
            px = np.zeros((8, 8), dtype=bool)
            px[rows[k], cols[k]] = True
            state = forward(sub, InputPattern(pixels=px, aperture=aperture))
            expected = np.abs(sub.transmission[:, k]) ** 2
            assert np.array_equal(state.intensities, expected)

    def test_off_mode_ignores_saturation_and_smoothing(self):
        on = build_substrate(SubstrateConfig(seed=5, vcsel_on=True))
        off = build_substrate(SubstrateConfig(seed=5, vcsel_on=False))
        pat = make_pattern(seed=5)
        p = forward(off, pat).intensities
        x = forward(on, pat).intensities
        assert not np.allclose(p, x)

    def test_saturation_bound_before_smoothing(self):
        s = 0.02
        cfg = SubstrateConfig(saturation=s, diffusion_sigma=0.0, vcsel_on=True)
        sub = build_substrate(cfg)
        for seed in range(5):
            x = forward(sub, make_pattern(seed=seed)).intensities
            assert np.all(x < 1.0 / s)

    def test_saturable_map_values(self):
        cfg = SubstrateConfig(saturation=0.5, diffusion_sigma=0.0, vcsel_on=True)
        sub = build_substrate(cfg)
        off = build_substrate(SubstrateConfig(saturation=0.5, vcsel_on=False))
        pat = make_pattern(seed=1)
        p = forward(off, pat).intensities
        x = forward(sub, pat).intensities
        assert np.allclose(x, p / (1 + 0.5 * p), rtol=1e-12)

    def test_smoothing_conserves_total_intensity(self):
        base = SubstrateConfig(saturation=0.01, diffusion_sigma=0.0, vcsel_on=True)
        smooth = SubstrateConfig(saturation=0.01, diffusion_sigma=2.0, vcsel_on=True)
        pat = make_pattern(seed=2)
        a = forward(build_substrate(base), pat).intensities
        b = forward(build_substrate(smooth), pat).intensities
        assert not np.allclose(a, b)
        assert abs(a.sum() - b.sum()) <= 1e-9 * a.sum()

    def test_forward_is_pure(self):
        sub = build_substrate(SubstrateConfig())
        pat = make_pattern(seed=3)
        assert np.array_equal(forward(sub, pat).intensities,
                              forward(sub, pat).intensities)

    def test_dimension_mismatch(self):
        sub = build_substrate(SubstrateConfig(input_side=28))
        with pytest.raises(ShapeError):
            forward(sub, make_pattern(side=16))


class TestForwardBatch:
    def test_matches_elementwise_forward(self):
        sub = build_substrate(SubstrateConfig(input_side=8))
        pats = [make_pattern(side=8, seed=s) for s in range(3)]
        batch = forward_batch(sub, pats)
        assert len(batch) == 3
        for got, pat in zip(batch, pats):
            assert np.array_equal(got.intensities, forward(sub, pat).intensities)

    def test_repeats_computed_once_and_bit_identical(self, monkeypatch):
        sub = build_substrate(SubstrateConfig(input_side=16))
        pats = make_header_batch(3, 5, 60, seed=2, image_side=16).patterns
        distinct = {p.pixels.tobytes() for p in pats}
        assert len(distinct) < len(pats)
        expect = [forward(sub, p).intensities for p in pats]
        calls = []

        def counting_forward(substrate, pattern):
            calls.append(pattern.pixels.tobytes())
            return forward(substrate, pattern)

        monkeypatch.setattr(substrate_mod, "forward", counting_forward)
        got = forward_batch(sub, pats)
        assert sorted(calls) == sorted(distinct)
        assert len(got) == len(pats)
        for state, want in zip(got, expect):
            assert state.intensities.tobytes() == want.tobytes()

    def test_thousand_patterns(self):
        sub = build_substrate(SubstrateConfig(grid_side=8, input_side=8))
        pats = [make_pattern(side=8, seed=s) for s in range(50)] * 20
        assert len(forward_batch(sub, pats)) == 1000

    def test_empty_batch_rejected(self):
        sub = build_substrate(SubstrateConfig())
        with pytest.raises(UsageError):
            forward_batch(sub, [])

    def test_mixed_sides_rejected(self):
        sub = build_substrate(SubstrateConfig(input_side=8))
        with pytest.raises(ShapeError):
            forward_batch(sub, [make_pattern(side=8), make_pattern(side=16)])


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


class TestInputPattern:
    def test_pixels_outside_aperture_rejected(self):
        ap = circle_mask(8)
        px = np.ones((8, 8), dtype=bool)
        with pytest.raises(ConfigError):
            InputPattern(pixels=px, aperture=ap)

    def test_from_pixels_applies_aperture(self):
        pat = InputPattern.from_pixels(np.ones((8, 8)))
        assert np.array_equal(pat.pixels, circle_mask(8))

    def test_small_side_rejected(self):
        with pytest.raises(ConfigError):
            InputPattern.from_pixels(np.zeros((3, 3)))

    def test_center_crop_and_pad(self):
        big = np.ones((12, 12))
        pat = InputPattern.from_pixels(big, side=8)
        assert pat.side == 8
        small = np.ones((6, 6))
        pat = InputPattern.from_pixels(small, side=10)
        assert pat.side == 10
        # the padded border stays dark
        assert not pat.pixels[0].any() and not pat.pixels[-1].any()
