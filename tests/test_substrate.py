import collections
import dataclasses
import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from ternrc.errors import ConfigError, UsageError
from ternrc import harness, substrate
from ternrc.harness import ExperimentConfig
from ternrc.optimizer import TrainConfig
from ternrc.substrate import (GRID, INPUT_SIDE_BOUND, SubstrateConfig, _coupling_matrix,
                              _transmission_blocks, advance_drift, build_substrate, circle_mask,
                              forward_batch, laser_response, states_matrix)
from ternrc.tasks import (DigitDataset, HeaderTask, LabeledBatch, MnistTask, make_glyph_dataset,
                          make_header_batch, make_onevsall_batch, render_headers)

import reference
from test_cli import GOLDEN, _case


def make_frames(side=28, seed=0, density=0.3, n=1):
    """(n, side, side) random frames, dark outside the aperture."""
    rng = np.random.default_rng(seed)
    return (rng.random((n, side, side)) < density) & circle_mask(side)


def drawn(sub):
    """The real (2K, D) transmission [Re T; Im T] a forward pass draws, whole."""
    return np.concatenate([block for _, block in _transmission_blocks(sub)])


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
        assert np.array_equal(drawn(a), drawn(b))
        assert a.gain == b.gain == 1.0

    def test_different_seed_different_matrix(self):
        a = build_substrate(SubstrateConfig(seed=1))
        b = build_substrate(SubstrateConfig(seed=2))
        assert not np.array_equal(drawn(a), drawn(b))

    def test_unit_variance_entries(self):
        sub = build_substrate(SubstrateConfig(seed=3))
        re, im = np.split(drawn(sub), 2)
        assert abs((re ** 2 + im ** 2).mean() - 1.0) < 0.01
        assert abs(complex(re.mean(), im.mean())) < 0.01

    def test_transmission_frozen(self):
        # the substrate holds no transmission to write to: every pass draws
        # the same one from the seed, before and after the gain drifts
        sub = build_substrate(SubstrateConfig())
        assert not any(isinstance(v, np.ndarray) and v.size >= sub.n_nodes * sub.n_inputs
                       for v in vars(sub).values())
        frames = make_frames(seed=6, n=3)
        first = forward_batch(sub, frames).tobytes()
        advance_drift(sub, 10)
        assert forward_batch(sub, frames).tobytes() == first
        assert drawn(sub).tobytes() == drawn(sub).tobytes()

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            build_substrate(SubstrateConfig(grid_side=1))
        with pytest.raises(ConfigError):
            SubstrateConfig(saturation=-1.0)
        with pytest.raises(ConfigError):
            SubstrateConfig(saturation=float("nan"))
        with pytest.raises(ConfigError):
            SubstrateConfig(drift_timescale=0.0)

    def test_input_side_past_the_aperture_bound_rejected(self):
        assert circle_mask(INPUT_SIDE_BOUND + 1).sum() >= 2 ** 19
        with pytest.raises(ConfigError, match="input_side"):
            SubstrateConfig(input_side=INPUT_SIDE_BOUND + 1)


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
                                         "drift_timescale", "seed"}


def forward(sub, frames):
    """(U, K) node states of a (U, d, d) frame stack: the laser's response
    to the optics' intensities."""
    return laser_response(sub, forward_batch(sub, frames))


#: the laser-off rig: saturation 0 with no diffusion
LINEAR = {"saturation": 0.0, "diffusion_sigma": 0.0}


def golden_substrates():
    """The substrate config of each repeat of each golden CLI case."""
    for case in sorted(GOLDEN):
        cfg = ExperimentConfig.from_json(_case(case, collections.defaultdict(str))[1])
        for seeds in cfg.derived_seeds().values():
            yield dataclasses.replace(cfg.substrate, seed=seeds["substrate"])


#: the benchmark's substrates: the stock physics (the config defaults) at
#: each workload seed's repeat-0 seed, at the digit and the header aperture
STOCK_SUBSTRATES = [SubstrateConfig(input_side=side, seed=harness.derive_seed(s, "substrate", 0))
                    for s in (*range(5, 15), 7919) for side in (28, 64)]


class TestForward:
    def test_all_off_gives_zero_state(self):
        sub = build_substrate(SubstrateConfig())
        dark = np.zeros((1, 28, 28), dtype=bool)
        assert np.all(forward(sub, dark) == 0.0)

    def test_single_pixel_off_mode_selects_column(self):
        # laser off: the state is exactly the squared moduli of one column, on
        # the frame's state grid
        cfg = SubstrateConfig(input_side=8, **LINEAR)
        sub = build_substrate(cfg)
        t, _ = reference.transmission(cfg)
        rows, cols = np.nonzero(circle_mask(8))
        for k in (0, 7, 20):
            px = np.zeros((1, 8, 8), dtype=bool)
            px[0, rows[k], cols[k]] = True
            expected = reference.on_grid(t.real[:, k] ** 2 + t.imag[:, k] ** 2,
                                         reference.state_bits(sub.n_nodes))
            assert forward(sub, px)[0].tobytes() == expected.tobytes()

    def test_off_mode_ignores_saturation_and_smoothing(self):
        # the optics no laser field moves are the linear rig's states
        on = build_substrate(SubstrateConfig(seed=5))
        off = build_substrate(SubstrateConfig(seed=5, **LINEAR))
        pat = make_frames(seed=5)
        p = forward(off, pat)
        assert p.tobytes() == forward_batch(on, pat).tobytes()
        assert not np.allclose(p, forward(on, pat))

    def test_saturation_bound_before_smoothing(self):
        s = 0.02
        cfg = SubstrateConfig(saturation=s, diffusion_sigma=0.0)
        sub = build_substrate(cfg)
        for seed in range(5):
            x = forward(sub, make_frames(seed=seed))
            assert np.all(x < 1.0 / s)

    def test_saturable_map_values(self):
        # p / (1 + s p) on the frame's grid of 18 bits fewer than a state
        cfg = SubstrateConfig(saturation=0.5, diffusion_sigma=0.0)
        sub = build_substrate(cfg)
        off = build_substrate(SubstrateConfig(**LINEAR))
        pat = make_frames(seed=1)
        (p,) = forward(off, pat)
        (x,) = forward(sub, pat)
        want = reference.on_grid(p / (1 + 0.5 * p), reference.state_bits(sub.n_nodes) - 18)
        assert x.tobytes() == want.tobytes()
        assert x.tobytes() != (p / (1 + 0.5 * p)).tobytes()

    def test_smoothing_conserves_total_intensity(self):
        base = SubstrateConfig(saturation=0.01, diffusion_sigma=0.0)
        smooth = SubstrateConfig(saturation=0.01, diffusion_sigma=2.0)
        pat = make_frames(seed=2)
        a = forward(build_substrate(base), pat)
        b = forward(build_substrate(smooth), pat)
        assert not np.allclose(a, b)
        assert a.sum() == b.sum()

    def test_forward_is_pure(self):
        sub = build_substrate(SubstrateConfig())
        pat = make_frames(seed=3)
        assert np.array_equal(forward(sub, pat), forward(sub, pat))

    def test_dimension_mismatch(self):
        sub = build_substrate(SubstrateConfig(input_side=28))
        with pytest.raises(UsageError):
            forward(sub, make_frames(side=16))


class TestForwardBatch:
    def test_matches_elementwise_forward(self):
        # one batched call against the reference's frames, one at a time
        sub = build_substrate(SubstrateConfig(input_side=8))
        pats = make_frames(side=8, n=3)
        batch = forward(sub, pats)
        assert batch.shape == (3, sub.n_nodes)
        assert batch.tobytes() == reference.forward_frames(sub, pats).tobytes()

    @pytest.mark.parametrize("cfg", [
        SubstrateConfig(input_side=8), SubstrateConfig(input_side=8, **LINEAR),
        SubstrateConfig(input_side=8, saturation=0.0),
        SubstrateConfig(input_side=8, diffusion_sigma=0.0)],
        ids=["on", "off", "no-saturation", "no-diffusion"])
    def test_matches_one_frame_matvec_to_rounding(self, cfg):
        # every sum is exact, the coupling's matrix-vector product too: every byte
        sub = build_substrate(cfg)
        pats = make_frames(side=8, n=20)
        assert forward(sub, pats).tobytes() == reference.forward_frames(sub, pats).tobytes()

    def test_repeats_computed_once_and_bit_identical(self):
        # a header batch renders each drawn value once, and the states
        # gathered by its index are those of every sample's frame
        sub = build_substrate(SubstrateConfig(input_side=16))
        b = make_header_batch(HeaderTask(3, 5, 60, image_side=16), seed=2)
        pats = b.frames[b.index]
        distinct = {p.tobytes() for p in pats}
        assert len(distinct) == len(b.frames) < len(pats)
        p = forward_batch(sub, b.frames)
        assert p.shape == (len(distinct), sub.n_nodes)
        assert b.index.shape == (len(pats),)
        got = states_matrix(laser_response(sub, p), b.index)
        for state, pat in zip(got, pats):
            # a repeated frame reads its shared row, bit for bit
            assert state.tobytes() == got[(pats == pat).all(axis=(1, 2))][0].tobytes()
        assert got.tobytes() == reference.forward_frames(sub, pats).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_any_memory_layout(self, n):
        # rendered headers keep the frame axis innermost; a reversed or
        # Fortran-ordered stack is strided too. Each reads as its C-ordered copy
        sub = build_substrate(SubstrateConfig(grid_side=8, input_side=32))
        pats = render_headers(4, 32, np.arange(n) % 16)
        assert n == 1 or not pats.flags.c_contiguous
        for stack in (pats, np.asfortranarray(pats), pats[::-1], pats[:, ::-1]):
            want = forward_batch(sub, np.ascontiguousarray(stack))
            assert forward_batch(sub, stack).tobytes() == want.tobytes()

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
        with pytest.raises(UsageError):
            forward_batch(sub, np.zeros((2, 8, 16), dtype=bool))
        with pytest.raises(UsageError):
            forward_batch(sub, make_frames(side=8)[0])

    def test_non_boolean_frames_rejected(self):
        sub = build_substrate(SubstrateConfig(input_side=8))
        with pytest.raises(ConfigError):
            forward_batch(sub, make_frames(side=8).astype(float))


class TestFieldsOracle:
    """The transmission drawn in row blocks and the blocked forward pass hold
    every byte of the complex transmission and the concatenating pass they
    replace, and the drift stream starts where the whole draw ends. Both
    round each entry to the grid, so the fields are exact sums in any order,
    and each frame's intensities to its state grid."""

    @pytest.mark.parametrize("seed", [0, 1, 17, 2 ** 32 - 1])
    @pytest.mark.parametrize("side", [12, 28, 64])
    def test_build_matches_complex_draw(self, side, seed):
        cfg = SubstrateConfig(input_side=side, seed=seed)
        t, rng = reference.transmission(cfg)
        sub = build_substrate(cfg)
        assert (sub.n_nodes, sub.n_inputs) == t.shape
        assert drawn(sub).tobytes() == np.concatenate((t.real, t.imag)).tobytes()
        # a forward pass positions the drift stream, and so does a first
        # drift on a fresh substrate
        passed, drifted = build_substrate(cfg), build_substrate(cfg)
        assert passed._rng is None
        forward_batch(passed, make_frames(side=side, seed=seed % 7, n=5))
        advance_drift(drifted, 0)
        for sub in (passed, drifted):
            assert sub._rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("configs", ["golden", "stock"])
    def test_drawn_entries_stay_below_2_34_grid_units(self, configs):
        # the bound on GRID's exact fields rests on numpy's ziggurat returning
        # no |z| >= 13.8: no golden case's or benchmark workload's draw comes near it
        for cfg in golden_substrates() if configs == "golden" else STOCK_SUBSTRATES:
            sub = build_substrate(cfg)
            units = max(np.abs(block).max() for _, block in _transmission_blocks(sub)) / GRID
            assert units < 2 ** 34, cfg

    def test_entries_lie_on_the_grid(self):
        # each entry is the scaled draw's nearest multiple of the grid, below
        # 2**4 in magnitude, and the rounding moved the draw
        sub = build_substrate(SubstrateConfig(seed=3))
        whole = np.random.default_rng(3).standard_normal((2 * sub.n_nodes, sub.n_inputs))
        t = drawn(sub)
        assert np.array_equal(t / GRID, np.rint(t / GRID))
        assert np.abs(t).max() < 2 ** 4
        assert np.abs(t - whole * (1.0 / np.sqrt(2.0))).max() <= GRID / 2
        assert (whole * (1.0 / np.sqrt(2.0))).tobytes() != t.tobytes()

    @pytest.mark.parametrize("grid,side,n", [
        *(pytest.param(24, side, n, id=f"{side}-{n}")
          for side in (28, 32, 64) for n in (1, 2, 3, 8, 16, 150)),
        (24, 64, 513), (20, 40, 2)])
    def test_blocked_forward_matches_one_gemm(self, grid, side, n):
        # at 64 px the transmission is 23 row blocks of at most 40 rows, one
        # across the real/imaginary boundary; 513 distinct frames are three
        # chunks, and one frame is a matrix-vector product
        cfg = SubstrateConfig(grid_side=grid, input_side=side, seed=side + n)
        sub = build_substrate(cfg)
        frames = make_frames(side=side, seed=n, n=n)
        states = forward_batch(sub, frames)
        ref_states = reference.forward_batch(sub, frames)
        assert states.tobytes() == ref_states.tobytes()
        assert states.flags.f_contiguous == ref_states.flags.f_contiguous

    @pytest.mark.parametrize("cfg", [
        SubstrateConfig(), SubstrateConfig(**LINEAR), SubstrateConfig(saturation=0.0),
        SubstrateConfig(diffusion_sigma=0.0), SubstrateConfig(input_side=64, seed=9)],
        ids=["on", "off", "no-saturation", "no-diffusion", "side-64"])
    def test_forward_matches_concatenating_pass(self, cfg):
        sub = build_substrate(cfg)
        frames = make_frames(side=cfg.input_side, seed=cfg.seed, n=150)
        frames = np.concatenate((frames, frames[::3]))
        states = forward_batch(sub, frames)
        ref_states = reference.forward_batch(sub, frames)
        assert states.tobytes() == ref_states.tobytes()
        assert states.flags.f_contiguous == ref_states.flags.f_contiguous
        # a repeated frame, in another frame chunk, is computed to the same bytes
        assert states[150:].tobytes() == states[:150:3].tobytes()

    def test_linear_rig_returns_its_input(self):
        # saturation 0 with no diffusion is the laser-off rig, bit for bit
        sub = build_substrate(SubstrateConfig(seed=2, **LINEAR))
        p = forward_batch(sub, make_frames(seed=2, n=40))
        kept = p.copy()
        assert laser_response(sub, p) is p
        assert p.tobytes() == kept.tobytes()

    def test_laser_response_writes_over_its_input(self):
        # the map and the coupling are written over the input one frame chunk
        # at a time (600 and 601 frames are three), with the bytes of the
        # whole-matrix map whatever the count
        for sigma, n in itertools.product((0.0, 0.5), (40, 600, 601)):
            sub = build_substrate(SubstrateConfig(seed=2, saturation=0.5, diffusion_sigma=sigma))
            p = forward_batch(sub, make_frames(seed=2, n=n))
            whole = reference.laser_response(sub, p)
            assert laser_response(sub, p) is p
            assert p.tobytes() == whole.tobytes()


def traced_peak(fn, *args):
    """Peak bytes the traced allocator holds while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestExactForward:
    """The forward pass's bytes depend on no row block, frame chunk, BLAS
    thread count or BLAS kernel: each shape's intensities, and its states,
    have one pinned digest under every block and chunk size, and under
    whatever BLAS runs the test."""

    #: sha256 of the (U, K) intensities, their index and their (U, K) states,
    #: per (grid, side, frames), the U distinct frames taken in the order of
    #: their bit-packed bytes
    DIGESTS = {
        (24, 28, 600):
            "245826c569340894ec42fd7861f02dce3f5a1b548c2e0fa43efe8765e097e31c",
        (24, 32, 513):
            "69cf0de0f1541a1de4c53aa78f60adf6c15e7442c9554a529ba552ff62d6eb46",
        (20, 48, 300):
            "49d775ab0b3275d5d4ff85b4b870e9ac1dc9daefeefbd2050cda063103bca829",
        (24, 64, 40):
            "6423dd328c8a190ac497189db8b5de8d617ccad794087321efa7322353a46e7e",
    }

    @pytest.mark.parametrize("shape", sorted(DIGESTS), ids=lambda s: "-".join(map(str, s)))
    def test_bytes_hold_across_blocks_and_chunks(self, shape, monkeypatch):
        grid, side, n = shape
        sub = build_substrate(SubstrateConfig(grid_side=grid, input_side=side, seed=n))
        frames = make_frames(side=side, seed=side, n=n)
        packed = np.packbits(frames.reshape(n, -1), axis=1)
        _, first, index = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                    return_index=True, return_inverse=True)
        for block, chunk in itertools.product((2 ** 15, 2 ** 17, 2 ** 22), (64, 256, 1024)):
            monkeypatch.setattr(substrate, "TRANSMISSION_BLOCK", block)
            monkeypatch.setattr(substrate, "FRAME_CHUNK", chunk)
            p = forward_batch(sub, frames[first])
            states = laser_response(sub, p.copy("F"))
            digest = hashlib.sha256(p.tobytes() + index.astype(np.int64).tobytes()
                                    + states.tobytes()).hexdigest()
            assert digest == self.DIGESTS[shape], (block, chunk)

    def test_fields_at_the_aperture_bound_are_exact_sums(self):
        # the widest aperture below 2**19 pixels: its fields, here of every
        # pixel lit and of a random half, are exact sums of the drawn entries'
        # grid units, added up as integers, and each frame's intensities lie on its grid
        assert circle_mask(INPUT_SIDE_BOUND).sum() < 2 ** 19
        sub = build_substrate(SubstrateConfig(grid_side=2, input_side=INPUT_SIDE_BOUND))
        frames = np.stack([circle_mask(INPUT_SIDE_BOUND),
                           make_frames(side=INPUT_SIDE_BOUND, density=0.5)[0]])
        lit = frames.reshape(2, -1)[:, sub.input_mask.ravel()].astype(np.int64)
        units = np.concatenate([(block / GRID).astype(np.int64) @ lit.T
                                for _, block in _transmission_blocks(sub)])
        assert np.abs(units).max() < 2 ** 53
        re, im = np.split(units.astype(float) * GRID, 2)
        p = forward_batch(sub, frames)
        want = [reference.on_grid(x, reference.state_bits(sub.n_nodes)) for x in (re ** 2 + im ** 2).T]
        assert p.tobytes() == np.array(want).tobytes()


class TestPeakMemory:
    """No transmission is held, and no second (U, K) array: the forward pass
    holds one row block of the transmission and one block of fields of at
    most FRAME_CHUNK frames at a time, squared in place, the laser one
    chunk's denominator or coupled product, and the coupling's build its
    (K, K) weights and one array of column offsets."""

    def test_build_at_side_64(self):
        # the whole transmission would be 23.1 MB
        assert traced_peak(build_substrate, SubstrateConfig(input_side=64)) <= 8e6

    def test_forward_of_thousand_distinct_frames(self):
        sub = build_substrate(SubstrateConfig())
        frames = make_frames(seed=4, n=1000)
        assert len(np.unique(frames.reshape(1000, -1), axis=0)) == 1000
        assert traced_peak(forward_batch, sub, frames) <= 8e6

    def test_forward_of_header_frames_at_side_64(self):
        # the harness's one stack of a 250 + 250 header split at 64 px, each
        # batch's 16 distinct frames: a 6 MB row block held 6.6e6
        sub = build_substrate(SubstrateConfig(input_side=64))
        frames = np.concatenate([make_header_batch(HeaderTask(n_samples=250), seed=s).frames
                                 for s in (1, 2)])
        assert len(frames) == 32
        assert traced_peak(forward_batch, sub, frames) <= 2.5e6

    def test_coupling_at_the_stock_grid(self):
        # the 448-node weights (1.6 MB) built in place, beside one array of
        # column offsets; building them through K x K temporaries held 6.4e6
        assert traced_peak(_coupling_matrix, circle_mask(24), 0.5) <= 4.0e6

    def test_laser_response_of_two_thousand_rows(self):
        # the stock comparison's 1000 + 1000 rows; a whole-matrix map holds 8.1e6
        sub = build_substrate(SubstrateConfig())
        p = np.asfortranarray(np.random.default_rng(5).random((2000, sub.n_nodes)))
        assert traced_peak(laser_response, sub, p) <= 2e6


#: the golden and stock (grid side, diffusion sigma), then a seeded sample
#: of sides 2 to 40 and sigmas about 0.2 to 4
_sample = np.random.default_rng(2409)
COUPLING_CASES = sorted({(c.grid_side, c.diffusion_sigma)
                         for c in [*golden_substrates(), *STOCK_SUBSTRATES]}) + [
    (side, round(sigma, 3)) for side, sigma in zip(_sample.integers(2, 41, 16).tolist(),
                                                   np.exp(_sample.uniform(-1.6, 1.4, 16)).tolist())]


class TestCouplingFlush:
    """The coupling has nothing to flush: its weights lie on a grid of 2**-18,
    so none is subnormal, and each column sums to exactly 1, so the laser
    conserves each frame's saturated total exactly."""

    @pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("side", [8, 16, 24, 32])
    def test_no_subnormal_entry_and_column_sums_kept(self, side, sigma):
        c = _coupling_matrix(circle_mask(side), sigma)
        assert (c >= 0).all() and np.array_equal(c * 2 ** 18, np.floor(c * 2 ** 18))
        assert not ((c != 0.0) & (c < np.finfo(float).tiny)).any()
        assert (c.sum(axis=0) == 1.0).all()

    @pytest.mark.parametrize("side,sigma", COUPLING_CASES)
    def test_floored_units_hold_under_one_ulp_of_the_gaussian(self, side, sigma, monkeypatch):
        # exp's last bit depends on numpy's SIMD dispatch level; the floor to
        # 2**-18 absorbs it: every nonzero gaussian value one ulp up, one ulp
        # down or either at random moves no weight
        want = _coupling_matrix(circle_mask(side), sigma)
        exp, rng, moved = np.exp, np.random.default_rng(side), []
        for toward in (np.inf, 0.0, None):
            def off_by_one_ulp(x, out=None):
                # honours out=, so an exp written in place takes the moved values
                w = exp(x)
                moved.append(toward)
                either = np.where(rng.random(w.shape) < 0.5, np.inf, 0.0)
                w = np.where(w != 0, np.nextafter(w, either if toward is None else toward), w)
                if out is None:
                    return w
                out[...] = w
                return out

            monkeypatch.setattr(np, "exp", off_by_one_ulp)
            assert _coupling_matrix(circle_mask(side), sigma).tobytes() == want.tobytes(), toward
        assert moved == [np.inf, 0.0, None]

    @pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("side", [8, 16, 24, 32])
    def test_laser_response_bytes_match_unflushed(self, side, sigma):
        # the reference's matrix is built with no flush step
        cfg = SubstrateConfig(grid_side=side, input_side=4, diffusion_sigma=sigma, seed=side)
        sub = build_substrate(cfg)
        unflushed = reference.coupling(cfg)
        assert sub._coupling.tobytes() == unflushed.tobytes()
        ref = dataclasses.replace(sub, _coupling=unflushed)
        rng = np.random.default_rng(int(side * sigma * 4))
        p = rng.random((60, sub.n_nodes)) * rng.uniform(1e-3, 1e3, size=(60, 1))
        p[rng.random(p.shape) < 0.2] = 0.0
        p[7] = 0.0
        total = [reference.saturated(cfg, x).sum() for x in p]
        x = laser_response(sub, p.copy())
        assert x.tobytes() == laser_response(ref, p).tobytes()
        assert x.sum(axis=1).tolist() == total


class TestSharedPass:
    """The laser-off states are the optics' intensities, which the laser-on
    states are the response to, so the comparison computes |T u|^2 once."""

    @pytest.mark.parametrize("kind", ["header", "digit"])
    def test_response_to_off_states_is_on_forward(self, kind):
        if kind == "header":
            side = 16
            b = make_header_batch(HeaderTask(3, 5, 60, image_side=side), seed=2)
        else:
            side = 28
            b = make_onevsall_batch(make_glyph_dataset(400, seed=1), 3, 40, seed=0)
        frames = b.frames[b.index]
        sub_on = build_substrate(SubstrateConfig(input_side=side, seed=4))
        sub_off = build_substrate(SubstrateConfig(input_side=side, seed=4, **LINEAR))
        # the comparison's laser-off arm is a linear rig of the same seed
        p = forward_batch(sub_on, b.frames)
        assert forward(sub_off, frames).tobytes() == states_matrix(p, b.index).tobytes()
        on = forward(sub_on, frames)
        assert states_matrix(laser_response(sub_on, p), b.index).tobytes() == on.tobytes()

    def test_response_to_gathered_rows_is_the_gathered_response(self, glyph_train):
        # the stock comparison's 1000 + 1000 digit split: the laser maps copies
        # of the gathered laser-off matrices, with the bytes of the gathered
        # response to the distinct intensities
        batches = [make_onevsall_batch(glyph_train, 3, 1000, seed=5, draw=d) for d in (0, 1)]
        sub = build_substrate(SubstrateConfig(seed=5))
        p = forward_batch(sub, np.concatenate([b.frames for b in batches]))
        assert len(p) == 2000  # one frame per sample, as in the benchmark
        indices = [batches[0].index, batches[1].index + 1000]
        off = [states_matrix(p, i) for i in indices]
        on = [laser_response(sub, s.copy("F")) for s in off]
        laser_response(sub, p)
        for s, i in zip(on, indices):
            assert s.flags.f_contiguous
            assert s.tobytes() == states_matrix(p, i).tobytes()

    @pytest.mark.parametrize("laser_off", [False, True], ids=["lasing", "with-laser-off"])
    @pytest.mark.parametrize("kind", ["header", "glyph", "half-distinct"])
    def test_acquired_maps_either_row_set_to_the_same_bytes(self, kind, laser_off, glyph_train,
                                                             monkeypatch):
        # the acquisition maps the U frames' rows when 2U <= N (a header batch,
        # and a hand-built split at exactly 2U == N), else the gathered rows
        # (glyphs): either way the bytes of the laser's response to copies of
        # the gathered laser-off matrices. It copies only a gathered pair that
        # must stay laser-off
        side = 28 if kind == "glyph" else 16
        if kind == "header":
            batches = [make_header_batch(HeaderTask(3, 5, 60, image_side=side), seed=s)
                       for s in (1, 2)]
        elif kind == "glyph":
            batches = [make_onevsall_batch(glyph_train, 3, 40, seed=5, draw=d) for d in (0, 1)]
        else:
            frames, t = make_frames(side=side, seed=3, n=4), np.array([1.0, 0.0, 1.0, 0.0])
            batches = [LabeledBatch(frames=frames[half], index=np.array([0, 1, 1, 0]), targets=t,
                                    labels=t) for half in (slice(0, 2), slice(2, 4))]
        sub = build_substrate(SubstrateConfig(input_side=side, seed=6))
        p = forward_batch(sub, np.concatenate([b.frames for b in batches]))
        indices = [batches[0].index, batches[1].index + len(batches[0].frames)]
        n = sum(map(len, indices))
        assert (2 * len(p) <= n) == (kind != "glyph")
        assert (2 * len(p) == n) == (kind == "half-distinct")
        off = [states_matrix(p, i) for i in indices]
        want = [[laser_response(sub, s.copy("F")) for s in off], off][:1 + laser_off]
        gathered = []

        def gather(rows, i):
            gathered.append(states_matrix(rows, i))
            return gathered[-1]

        monkeypatch.setattr(harness, "states_matrix", gather)
        got = harness._acquired(sub, batches, laser_off=laser_off)
        assert len(got) == 2 * len(want)
        copies = [s for pair in got[::2] for s in pair if not any(s is g for g in gathered)]
        assert len(copies) == (2 if laser_off and kind == "glyph" else 0)
        for s, power, w in zip(got[::2], got[1::2], want):
            assert [x.tobytes() for x in s] == [x.tobytes() for x in w]
            assert all(x.flags.f_contiguous for x in s)
            assert power == float(s[0].sum(axis=1).mean())

    def test_comparison_builds_one_substrate_per_repeat(self, monkeypatch):
        # both arms read one substrate, not a second draw
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
        assert len(built) == 2


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
    def _batch(frames, index=None):
        n = len(frames) if index is None else np.size(index)
        index = np.arange(n) if index is None else index
        return LabeledBatch(frames=frames, index=index, targets=np.zeros(n),
                            labels=np.zeros(n, dtype=int))

    @staticmethod
    def _digit_frames(side_in, value=255, side=None):
        """Frames of a two-image one-vs-all batch of uniform grayscale images."""
        data = DigitDataset(images=np.full((2, side_in, side_in), value, dtype=np.uint8),
                            labels=np.array([0, 1], dtype=np.uint8))
        return make_onevsall_batch(data, 0, 2, seed=0, input_side=side).frames

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
        with pytest.raises(UsageError):
            self._batch(np.zeros((1, 8, 6), dtype=bool))
        with pytest.raises(UsageError):
            LabeledBatch(np.zeros((2, 8, 8), dtype=bool), np.arange(2), np.zeros(3), np.zeros(2))

    @pytest.mark.parametrize("index", [
        np.array([0, 2]), np.array([-1, 0]), np.zeros(2), np.array([True, False]),
        np.zeros((2, 1), dtype=int), np.zeros((), dtype=int)],
        ids=["past-the-frames", "negative", "float", "bool", "2-d", "0-d"])
    def test_bad_index_rejected(self, index):
        # an index is an (N,) integer vector into the U frames
        with pytest.raises(UsageError, match="index"):
            self._batch(np.zeros((2, 8, 8), dtype=bool), index)

    def test_index_length_must_match_targets_and_labels(self):
        frames, index = np.zeros((2, 8, 8), dtype=bool), np.array([0, 1, 1])
        with pytest.raises(UsageError, match="equal length"):
            LabeledBatch(frames, index, np.zeros(2), np.zeros(3))
        with pytest.raises(UsageError, match="equal length"):
            LabeledBatch(frames, index, np.zeros(3), np.zeros(2))
        # any number of samples may share the frames, or leave some unread
        assert len(self._batch(frames, np.array([1, 1, 1])).index) == 3

    def test_center_crop_and_pad(self):
        pat = self._digit_frames(12, side=8)[0]
        assert pat.shape == (8, 8)
        assert np.array_equal(pat, circle_mask(8))
        pat = self._digit_frames(6, side=10)[0]
        assert pat.shape == (10, 10)
        # the padded border stays dark
        assert not pat[0].any() and not pat[-1].any()
        assert np.array_equal(pat[2:8, 2:8], circle_mask(10)[2:8, 2:8])
