"""The block-wise stability protocol: bit-for-bit agreement with the plain
per-check loop, the row statistics it rests on, and its input checks."""

import numpy as np
import pytest

from ternrc.errors import NumericalError, UsageError
from ternrc.harness import BatchReadout, ExperimentConfig, consistency, run_stability
from ternrc.optimizer import NORMALIZE_MODES, Normalizer, TrainConfig, nmse
from ternrc.substrate import SubstrateConfig, advance_drift, build_substrate
from ternrc.tasks import HeaderTask

import reference


def stability_config(normalize="zscore", noise_sigma=0.001, drift_amplitude=0.002, out=None):
    """A small header stability run: 40 samples on a 12-side node grid."""
    return ExperimentConfig(
        substrate=SubstrateConfig(grid_side=12, input_side=16, noise_sigma=noise_sigma,
                                  drift_amplitude=drift_amplitude, seed=31),
        train=TrainConfig(alpha=10.0, max_epochs=5, normalize=normalize, seed=32),
        task=HeaderTask(n_bits=3, target_value=5, n_samples=40, image_side=16),
        output_dir=out)


def hexed(rows):
    """Each row with its floats spelled as hex, so equality is bit for bit."""
    out = []
    for r in rows:
        assert type(r["check"]) is int
        assert all(type(r[k]) is float for k in ("consistency", "nmse", "gain"))
        out.append((r["check"], r["consistency"].hex(), r["nmse"].hex(), r["gain"].hex()))
    return out


def assert_rows_match(rows, want, normalize):
    """Rows equal bit for bit, except that a zscore error, taken from the raw
    trace in one pass, matches the normalised trace's error to rounding."""
    if normalize != "zscore":
        assert hexed(rows) == hexed(want)
        return
    assert [h[:2] + h[3:] for h in hexed(rows)] == [h[:2] + h[3:] for h in hexed(want)]
    assert [r["nmse"] for r in rows] == pytest.approx([r["nmse"] for r in want], rel=1e-12, abs=0)


class TestBlockLoopOracle:
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.001])
    @pytest.mark.parametrize("normalize", NORMALIZE_MODES)
    @pytest.mark.parametrize("drift_steps", [0, 2])
    @pytest.mark.parametrize("n_checks", [2, 63, 64, 65, 130])
    def test_rows_match_per_check_loop(self, n_checks, drift_steps, normalize, noise_sigma):
        cfg = stability_config(normalize, noise_sigma)
        rows = run_stability(cfg, n_checks=n_checks, drift_steps_per_check=drift_steps)
        want = reference.run_stability(cfg, n_checks, drift_steps)
        assert_rows_match(rows, want, normalize)
        assert rows[0]["consistency"] == 1.0

    def test_numpy_integer_counts_run(self):
        rows = run_stability(stability_config(), n_checks=np.int64(3),
                             drift_steps_per_check=np.int32(1))
        assert_rows_match(rows, reference.run_stability(stability_config(), 3, 1), "zscore")


class TestRowStatistics:
    """A (C, N) stack gives each row's statistic bit for bit."""

    @staticmethod
    def stack(rng, c, n):
        ref = rng.random(n) * rng.uniform(1e-3, 1e3)
        rows = ref + rng.standard_normal((c, n)) * rng.uniform(1e-6, 1.0, size=(c, 1))
        rows *= rng.uniform(1e-3, 1e6, size=(c, 1))
        rows[0] = ref  # a row equal to the reference
        return ref, rows

    @pytest.mark.parametrize("c", [1, 7, 64])
    @pytest.mark.parametrize("n", [2, 40, 250, 1001])
    def test_consistency_rows(self, c, n):
        rng = np.random.default_rng(41 * c + n)
        ref, rows = self.stack(rng, c, n)
        got = consistency(ref, rows)
        assert got.shape == (c,) and got[0] == 1.0
        assert [v.hex() for v in got.tolist()] == [consistency(ref, r[None].copy())[0].hex()
                                                   for r in rows]

    @pytest.mark.parametrize("c", [1, 7, 64])
    @pytest.mark.parametrize("n", [2, 40, 250, 1001])
    def test_nmse_and_normalizer_rows(self, c, n):
        rng = np.random.default_rng(43 * c + n)
        _, rows = self.stack(rng, c, n)
        rows[c // 2] = 3.0  # a constant row: its nmse is inf
        t = (rng.random(n) > 0.5).astype(float)
        t[:2] = (0.0, 1.0)
        for zscore in (False, True):
            got = nmse(rows, t, zscore=zscore)
            assert [v.hex() for v in got.tolist()] == [nmse(r.copy(), t, zscore=zscore).hex()
                                                       for r in rows]
        # a zscore normalizer takes one trace: the search's error reads the raw stack
        for mode in ("off", "first_epoch"):
            one = Normalizer(mode, t)
            want = np.stack([one(r.copy()) for r in rows])
            stacked = Normalizer(mode, t)
            assert stacked(rows).tobytes() == want.tobytes()
            assert stacked.transform == one.transform
        with pytest.raises(UsageError, match="one trace"):
            Normalizer("zscore", t)(rows)

    def test_all_rows_equal_to_a_constant_reference(self):
        # as for two identical vectors, identity wins over the constant check
        ref = np.full(10, 2.0)
        assert consistency(ref, np.tile(ref, (3, 1))).tolist() == [1.0, 1.0, 1.0]

    def test_constant_row_rejected(self):
        ref, rows = self.stack(np.random.default_rng(44), 5, 30)
        rows[3] = 7.0
        with pytest.raises(UsageError, match="constant trace"):
            consistency(ref, rows)

    def test_width_mismatch_rejected(self):
        rows = np.ones((4, 10))
        with pytest.raises(UsageError):
            consistency(np.ones(9), rows)
        with pytest.raises(UsageError):
            nmse(rows, np.ones(11))
        with pytest.raises(UsageError):
            consistency(np.ones(10), np.ones((2, 2, 10)))


@pytest.mark.parametrize("call", [
    lambda cfg, sub: run_stability(cfg, n_checks=2.5),
    lambda cfg, sub: run_stability(cfg, n_checks=True),
    lambda cfg, sub: run_stability(cfg, n_checks=np.float64(64)),
    lambda cfg, sub: run_stability(cfg, n_checks="64"),
    lambda cfg, sub: run_stability(cfg, drift_steps_per_check=1.5),
    lambda cfg, sub: run_stability(cfg, drift_steps_per_check=True),
    lambda cfg, sub: advance_drift(sub, 1.5),
    lambda cfg, sub: advance_drift(sub, True),
    lambda cfg, sub: advance_drift(sub, np.bool_(True)),
    lambda cfg, sub: advance_drift(sub, None),
], ids=["checks-float", "checks-bool", "checks-np-float", "checks-str", "drift-float",
        "drift-bool", "steps-float", "steps-bool", "steps-np-bool", "steps-none"])
def test_non_integer_counts_rejected(call):
    sub = build_substrate(SubstrateConfig(grid_side=4, input_side=4))
    with pytest.raises(UsageError, match="must be an integer"):
        call(stability_config(), sub)
    assert sub.gain == 1.0


def test_numpy_integer_drift_steps_accepted():
    a, b = (build_substrate(SubstrateConfig(seed=5)) for _ in range(2))
    advance_drift(a, np.int64(7))
    advance_drift(b, 7)
    assert a.gain == b.gain != 1.0


@pytest.mark.parametrize("bad_check, value", [(0, np.nan), (70, np.inf), (129, -np.inf)])
def test_non_finite_trace_names_its_check(bad_check, value, monkeypatch, tmp_path):
    # training reads the rig through __call__, so only the stability checks see this
    measure = BatchReadout.measure
    seen = []

    def corrupting(self, mask):
        y = measure(self, mask)
        seen.append(len(y))
        if len(seen) == bad_check + 1:
            y = y.copy()
            y[5] = value
        return y

    monkeypatch.setattr(BatchReadout, "measure", corrupting)
    with pytest.raises(NumericalError, match=f"check {bad_check} measured a non-finite trace"):
        run_stability(stability_config(out=str(tmp_path)), n_checks=130)
    assert not (tmp_path / "stability.csv").exists()


@pytest.mark.parametrize("amplitude", [0.002, 0.05, 0.2])
def test_scalar_drift_is_invisible_without_noise(amplitude):
    # drift is one scalar gain, and both statistics ignore a global scale, so
    # without detector noise the protocol cannot fail whatever the drift
    rows = run_stability(stability_config("zscore", noise_sigma=0.0, drift_amplitude=amplitude),
                         n_checks=130)
    gains = [r["gain"] for r in rows]
    assert max(gains) - min(gains) > amplitude
    assert all(abs(r["consistency"] - 1.0) <= 1e-12 for r in rows)
    e0 = rows[0]["nmse"]
    assert all(abs(r["nmse"] - e0) <= 1e-12 * e0 for r in rows)
