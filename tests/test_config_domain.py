"""The accepted config domain as a property: ``ternrc header`` on any train
section drawn over its accepted ranges, bounds and near-flat target levels
included, either runs to finite numbers or exits 2 with a one-line config
error. Never a traceback, a numpy warning or a printed ``inf``."""

import contextlib
import io
import json
import math
import re
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from ternrc.cli import main
from ternrc.optimizer import STD_FLOOR, TARGET_LEVEL_BOUND
from ternrc.readout import MODES

#: a magnitude log-uniform from the subnormals to the level bound
MAGNITUDE = st.floats(-320.0, 150.0).map(lambda e: 10.0 ** e)
SIGNED = st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), MAGNITUDE)


@st.composite
def target_levels(draw):
    """Two levels: one draw in three around a midpoint at a gap near the flat
    boundary, else two independent draws, bounds and zero among them."""
    special = st.sampled_from([0.0, 1.0, -TARGET_LEVEL_BOUND, TARGET_LEVEL_BOUND])
    if draw(st.integers(0, 2)) == 0:
        mid = draw(st.one_of(special, SIGNED))
        gap = abs(mid) * STD_FLOOR * draw(st.floats(0.5, 2.0))
        return [mid - gap, mid + gap]
    return sorted(draw(st.lists(st.one_of(special, SIGNED), min_size=2, max_size=2,
                                unique=True)))


TRAIN = st.fixed_dictionaries({
    "alpha": st.one_of(st.sampled_from([0, 0.0, 5e-324, 1e308]),
                       st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e)),
    "max_epochs": st.integers(1, 15),
    "mode": st.sampled_from(MODES),
    "seed": st.one_of(st.sampled_from([0, 2 ** 32 - 1]), st.integers(0, 2 ** 32 - 1)),
    "patience": st.one_of(st.none(), st.integers(1, 16)),
    "target_levels": target_levels(),
})


@given(train=TRAIN, grid_side=st.integers(2, 8))
@settings(max_examples=150, deadline=None)
def test_train_section_runs_finite_or_exits_2(train, grid_side, tmp_path_factory):
    config = tmp_path_factory.getbasetemp() / "domain.json"
    config.write_text(json.dumps({
        "substrate": {"grid_side": grid_side}, "train": train,
        "task": {"type": "header", "n_samples": 20, "image_side": 12}}))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["header", "--config", str(config)])
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("config error:") and err.getvalue().count("\n") == 1
        return
    assert code == 0 and err.getvalue() == ""
    values = re.findall(r"=(\S+)", out.getvalue())
    assert values and all(math.isfinite(float(v)) for v in values), out.getvalue()
