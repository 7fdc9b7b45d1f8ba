"""The accepted config domain as a property: a tiny run on any section drawn
from the domains its fields declare (``errors.domain``) either runs to
finite numbers or exits 2 with a one-line config error, and a value past a
declared bound always exits 2. Never a traceback, a numpy warning or a
printed ``inf``. Every strategy here is read from the field table: a field
is drawn the moment it declares its domain."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import re
import string
import warnings
from pathlib import Path

import pytest
from hypothesis import find, given
from hypothesis import strategies as st

from ternrc.cli import main
from ternrc.errors import ConfigError, _check_fields, domain
from ternrc.harness import ExperimentConfig
from ternrc.optimizer import TrainConfig
from ternrc.substrate import SubstrateConfig
from ternrc.tasks import HeaderTask, MnistTask

README = Path(__file__).resolve().parents[1] / "README.md"

#: the largest finite float
BIGGEST = 1.7976931348623157e308

#: the largest value a tiny run draws for each size field: a time budget for
#: the test, not a restated domain; the first value past a declared upper
#: bound is still drawn, since it must exit 2 before anything is allocated
CAPS = {"grid_side": 8, "input_side": 12, "image_side": 12, "max_epochs": 15, "patience": 16,
        "n_samples": 24, "repeats": 2}


def inner(f):
    """The first and the last value inside field ``f``'s interval: an open
    end's neighbour, the largest finite float at an open infinite end."""
    low, high, (left, right) = f.metadata["interval"]
    if f.type.startswith("int"):
        return low + (left == "("), high - (right == ")")
    return (low if left == "[" else math.nextafter(low, math.inf),
            high if right == "]" else math.nextafter(high, -math.inf))


def bounds(f):
    """(inside, past) of field ``f``'s interval: each finite end, and the
    first value past it, NaN too for a float. A capped field keeps only the
    value past its upper end, which must exit 2 before anything is built."""
    integer = f.type.startswith("int")
    inside, past = [], [] if integer else [math.nan]
    for bound, step in zip(inner(f), (-1, 1)):
        if math.isinf(bound):
            continue  # an integer interval unbounded on this side
        past.append(bound + step if integer else math.nextafter(bound, step * math.inf))
        if not (step == 1 and f.name in CAPS):
            inside.append(bound)
    return inside, past


def interior(f):
    """A value log-uniform between field ``f``'s inner values, 0 standing as
    the smallest positive value, the upper one under the field's cap."""
    integer = f.type.startswith("int")
    lo, hi = inner(f)
    hi = min(hi, CAPS.get(f.name, math.inf))
    exponents = st.floats(math.log10(max(lo, 1 if integer else 5e-324)), math.log10(hi))
    if integer:
        return exponents.map(lambda e: min(max(round(10 ** e), lo), hi))
    return exponents.map(lambda e: min(max(10.0 ** min(e, 308.0), lo), hi))


def inside(f):
    """Values of field ``f`` in its declared domain: its choices, or its
    interval's ends and interior; null too for an optional field, and a
    list of one to three values for a tuple."""
    if "choices" in f.metadata:
        return st.sampled_from(f.metadata["choices"])
    one = st.one_of(st.sampled_from(bounds(f)[0]), interior(f))
    if f.type.startswith("tuple"):
        return st.lists(one, min_size=1, max_size=3)
    return st.one_of(st.none(), one) if f.type.endswith("| None") else one


def past(f):
    """Values of field ``f`` outside its declared domain: a string none of
    its choices, the first value past an end, or an empty or past tuple."""
    if "choices" in f.metadata:
        return st.text(string.ascii_lowercase, max_size=8).filter(
            lambda v: v not in f.metadata["choices"])
    one = st.sampled_from(bounds(f)[1])
    return st.one_of(st.just([]), one.map(lambda v: [v])) if f.type.startswith("tuple") else one


def declared(cls):
    """The fields of the dataclass ``cls`` that declare a domain."""
    return [f for f in dataclasses.fields(cls) if {"choices", "interval"} & set(f.metadata)]


def section(cls):
    """(document, inside) of a section ``cls``, each field that declares a
    domain drawn from it: half the documents lie inside, half hold one
    field's value past its domain."""
    fields = declared(cls)
    docs = st.fixed_dictionaries({f.name: inside(f) for f in fields})
    one_past = st.sampled_from(fields).flatmap(lambda f: st.tuples(docs, past(f)).map(
        lambda d: ({**d[0], f.name: d[1]}, False)))
    return st.one_of(docs.map(lambda d: (d, True)), one_past)


def field_of(cls, name):
    return next(f for f in dataclasses.fields(cls) if f.name == name)


def finite_or_exits_2(path, doc, ok, *argv):
    """Run ``ternrc`` on ``doc`` with RuntimeWarnings as errors and check
    the outcome: exit 0 printing only finite numbers, or exit 2 with one
    config error line on stderr and nothing on stdout, always exit 2 when a
    drawn value lies outside its domain."""
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, "--config", str(path)])
    assert ok or code == 2, (doc, out.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("config error:") and err.getvalue().count("\n") == 1
        return
    assert code == 0 and err.getvalue() == ""
    values = re.findall(r"=([^\s:,]+)", out.getvalue())
    assert values and all(math.isfinite(float(v)) for v in values), out.getvalue()


#: a tiny header document that the sections drawn below replace
TINY = {"substrate": {"grid_side": 4}, "train": {"alpha": 10.0, "max_epochs": 10},
        "task": {"type": "header", "n_samples": 20, "image_side": 12}}


@given(train=section(TrainConfig), grid_side=inside(field_of(SubstrateConfig, "grid_side")))
def test_train_section_runs_finite_or_exits_2(train, grid_side, tmp_path_factory):
    doc, ok = train
    finite_or_exits_2(tmp_path_factory.getbasetemp() / "domain.json",
                      {**TINY, "substrate": {"grid_side": grid_side}, "train": doc}, ok, "header")


@given(substrate=section(SubstrateConfig))
def test_substrate_section_runs_finite_or_exits_2(substrate, tmp_path_factory):
    sub, ok = substrate
    doc = {**TINY, "substrate": sub,
           "task": {"type": "header", "n_samples": 20, "image_side": sub["input_side"]}}
    path = tmp_path_factory.getbasetemp() / "substrate.json"
    finite_or_exits_2(path, doc, ok, "header")
    finite_or_exits_2(path, doc, ok, "stability", "--checks", "70")


@given(task=section(HeaderTask))
def test_header_task_section_runs_finite_or_exits_2(task, tmp_path_factory):
    # the substrate's input side follows the drawn image side
    doc, ok = task
    finite_or_exits_2(tmp_path_factory.getbasetemp() / "task.json",
                      {**TINY, "substrate": {"grid_side": 4}, "task": doc}, ok, "header")


@given(top=section(ExperimentConfig))
def test_top_level_fields_run_finite_or_exits_2(top, tmp_path_factory):
    doc, ok = top
    path = tmp_path_factory.getbasetemp() / "top.json"
    finite_or_exits_2(path, {**TINY, **doc}, ok, "alpha-scan")
    finite_or_exits_2(path, {**TINY, **doc}, ok, "compare")


@dataclasses.dataclass(frozen=True)
class Probe:
    """A section the package does not have: its fields are drawn from their
    declarations alone."""

    level: float = domain(0.5, 0, 1, "(]")
    count: int = domain(3, 1, 9, "[]")
    kind: str = domain("a", choices=("a", "b"))

    def __post_init__(self):
        _check_fields(self, "probe")


@pytest.mark.parametrize("name, inner_values, past_values", [
    ("level", [5e-324, 1], [0.0, math.nextafter(1.0, 2.0), math.nan]),
    ("count", [1, 9], [0, 10]),
    ("kind", ["a", "b"], ["c"])])
def test_a_declared_field_is_drawn_bounds_included(name, inner_values, past_values):
    # each value is found among the field's draws, and each past one is rejected
    f = field_of(Probe, name)
    for value in inner_values:
        Probe(**{name: find(inside(f), lambda v: repr(v) == repr(value))})
    for value in past_values:
        with pytest.raises(ConfigError, match=f"^probe {name} must be "):
            Probe(**{name: find(past(f), lambda v: repr(v) == repr(value))})


@given(probe=section(Probe))
def test_a_declared_section_is_checked_as_drawn(probe):
    doc, ok = probe
    if ok:
        Probe(**doc)
    else:
        with pytest.raises(ConfigError, match="^probe "):
            Probe(**doc)


def described(f):
    """Field ``f``'s domain as README's config tables write it."""
    if "choices" in f.metadata:
        text = " or ".join(f'`"{c}"`' for c in f.metadata["choices"])
    else:
        low, high, ends = f.metadata["interval"]
        text = f"`{ends[0]}{low}, {high}{ends[1]}`"
        text = "non-empty, each in " + text if f.type.startswith("tuple") else text
    return "null or " + text if f.type.endswith("| None") else text


def test_readme_tables_give_each_declared_domain_and_default():
    # the rows of "The config document", by the section class each table names
    rows, table = {}, None
    doc = README.read_text().split("\n## The config document\n")[1].split("\n## ")[0]
    for line in doc.splitlines():
        if m := re.search(r"\(`(\w+)`\):$", line):
            table = m[1]
        elif line.startswith("| `"):
            name, default, dom = (cell.strip() for cell in line.split(" | ")[:3])
            rows[table, name.strip("|` ")] = default, dom
    for cls in (ExperimentConfig, SubstrateConfig, TrainConfig, HeaderTask, MnistTask):
        for f in declared(cls):
            default, dom = rows[cls.__name__, f.name]
            assert dom == described(f), f.name
            if not f.type.startswith("tuple"):
                assert default == ("required" if f.default is dataclasses.MISSING
                                   else f"`{json.dumps(f.default)}`"), f.name
