"""Exception types shared across the package, the one check of each config
field's type and declared :func:`domain` (which the property tests draw
from), and the number test and count check of arguments."""

import dataclasses
import math
import numbers


class ConfigError(ValueError):
    """Invalid configuration (bad dimensions, non-finite parameters, bad JSON)."""


class UsageError(ValueError):
    """Operation called with arguments outside its contract, shape mismatches included."""


class NumericalError(ArithmeticError):
    """Numerical failure, e.g. a singular unregularized system."""


class DataError(RuntimeError):
    """Dataset missing, too small, or otherwise unusable."""


class FormatError(DataError):
    """Malformed binary file (bad magic, truncated payload)."""


def _is_number(v, kind) -> bool:
    """Whether ``v`` is an instance of ``kind`` (a type or ``numbers`` ABC);
    a bool is no number."""
    return isinstance(v, kind) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_number(v, (int, float))


def _check_count(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as a Python int; :class:`UsageError` unless it is an integer
    >= ``low`` (and <= ``high`` when given). numpy integers count; bool does
    not, nor does an integral float."""
    if not _is_number(value, numbers.Integral):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise UsageError(f"{name} must be {bound}, got {value}")
    return int(value)


#: value check per field annotation; a "T | None" field also takes None
_FIELD_TYPES = {"int": lambda v: _is_number(v, int), "float": _is_real,
                "str": lambda v: isinstance(v, str),
                "tuple[float, ...]": lambda v: isinstance(v, tuple) and all(map(_is_real, v))}


def domain(default=dataclasses.MISSING, low=-math.inf, high=math.inf, ends="[)", choices=None):
    """A dataclass field whose value is one of ``choices``, or else lies from
    ``low`` to ``high``, each end closed ("[", "]") or open ("(", ")"), an open
    infinite end meaning finite; a tuple is not empty and each value lies there."""
    return dataclasses.field(default=default, metadata={"choices": choices} if choices
                             else {"interval": (low, high, ends)})


def _check_fields(section, name: str) -> None:
    """Reject a field of the dataclass ``section`` whose value lacks its
    annotated type or lies outside its :func:`domain`. A nested section, whose
    annotation has no entry here, is not checked: it checks itself when built."""
    for f in dataclasses.fields(section):
        v = getattr(section, f.name)
        kind, _, optional = f.type.partition(" | ")
        if optional == "None" and v is None:
            continue
        if (check := _FIELD_TYPES.get(kind)) and not check(v):
            raise ConfigError(f"{name} {f.name} must be of type {f.type}, got {v!r}")
        if (choices := f.metadata.get("choices")) and v not in choices:
            raise ConfigError(f"{name} {f.name} must be one of {choices}, got {v!r}")
        low, high, ends = f.metadata.get("interval", (None, None, None))
        values = v if isinstance(v, tuple) else (v,)
        if ends and not (values and all(
                (low < x or low == x and ends[0] == "[")
                and (x < high or x == high and ends[1] == "]") for x in values)):
            raise ConfigError(f"{name} {f.name} must be {'non-empty, each ' if values is v else ''}"
                              f"in {ends[0]}{low}, {high}{ends[1]}, got {v!r}")
