"""Exception types shared across the package, the annotation type check
every config section runs when it is built, and the number test and count
check of arguments."""

import dataclasses
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


def _check_types(section, name: str) -> None:
    """Reject a field of the dataclass ``section`` whose value does not have
    its annotated type. A field whose annotation has no entry here, such as a
    nested section, is not checked; a section checks itself when built."""
    for f in dataclasses.fields(section):
        v = getattr(section, f.name)
        kind, _, optional = f.type.partition(" | ")
        check = _FIELD_TYPES.get(kind)
        if check and not (optional == "None" and v is None) and not check(v):
            raise ConfigError(f"{name} {f.name} must be of type {f.type}, got {v!r}")
