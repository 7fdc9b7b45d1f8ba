"""The accepted config domain as a property: a tiny run on any train or
substrate section drawn over its accepted ranges, bounds included, either
runs to finite numbers or exits 2 with a one-line config error. Never a
traceback, a numpy warning or a printed ``inf``."""

import contextlib
import io
import json
import math
import re
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from ternrc.cli import main
from ternrc.readout import MODES
from ternrc.substrate import DIFFUSION_SIGMA_FLOOR, NOISE_SIGMA_BOUND, SATURATION_BOUND

#: the largest finite float
BIGGEST = 1.7976931348623157e308


def magnitudes(low: float, high: float, *bounds):
    """A value log-uniform over [10**low, 10**high], or one of ``bounds``."""
    return st.one_of(st.sampled_from(bounds), st.floats(low, high).map(lambda e: 10.0 ** e))


TRAIN = st.fixed_dictionaries({
    "alpha": magnitudes(-320.0, 308.0, 0, 0.0, 5e-324, 1e308),
    "max_epochs": st.integers(1, 15),
    "mode": st.sampled_from(MODES),
    "seed": st.one_of(st.sampled_from([0, 2 ** 32 - 1]), st.integers(0, 2 ** 32 - 1)),
    "patience": st.one_of(st.none(), st.integers(1, 16)),
})

SUBSTRATE = st.fixed_dictionaries({
    "grid_side": st.integers(2, 8),
    "input_side": st.integers(4, 12),
    "saturation": magnitudes(-320.0, 150.0, 0.0, SATURATION_BOUND),
    "diffusion_sigma": magnitudes(-100.0, 308.0, 0.0, DIFFUSION_SIGMA_FLOOR, BIGGEST),
    "noise_sigma": magnitudes(-320.0, 100.0, 0.0, NOISE_SIGMA_BOUND),
    "drift_amplitude": magnitudes(-320.0, 308.0, 0.0, BIGGEST),
    "drift_timescale": magnitudes(-320.0, 308.0, 5e-324, BIGGEST),
    "seed": st.one_of(st.sampled_from([0, 2 ** 32 - 1]), st.integers(0, 2 ** 32 - 1)),
})


def finite_or_exits_2(path, doc, *argv):
    """Run ``ternrc`` on ``doc`` with RuntimeWarnings as errors and check
    the outcome: exit 0 printing only finite numbers, or exit 2 with one
    config error line on stderr and nothing on stdout."""
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, "--config", str(path)])
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("config error:") and err.getvalue().count("\n") == 1
        return
    assert code == 0 and err.getvalue() == ""
    values = re.findall(r"=([^\s:,]+)", out.getvalue())
    assert values and all(math.isfinite(float(v)) for v in values), out.getvalue()


@given(train=TRAIN, grid_side=st.integers(2, 8))
@settings(max_examples=150, deadline=None)
def test_train_section_runs_finite_or_exits_2(train, grid_side, tmp_path_factory):
    finite_or_exits_2(tmp_path_factory.getbasetemp() / "domain.json", {
        "substrate": {"grid_side": grid_side}, "train": train,
        "task": {"type": "header", "n_samples": 20, "image_side": 12}}, "header")


@given(substrate=SUBSTRATE)
@settings(max_examples=150, deadline=None)
def test_substrate_section_runs_finite_or_exits_2(substrate, tmp_path_factory):
    doc = {"substrate": substrate, "train": {"alpha": 10.0, "max_epochs": 10},
           "task": {"type": "header", "n_samples": 20, "image_side": substrate["input_side"]}}
    path = tmp_path_factory.getbasetemp() / "substrate.json"
    finite_or_exits_2(path, doc, "header")
    finite_or_exits_2(path, doc, "stability", "--checks", "70")
