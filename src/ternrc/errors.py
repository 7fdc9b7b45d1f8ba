"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration (bad dimensions, non-finite parameters, bad JSON)."""


class ShapeError(ValueError):
    """Dimension mismatch between arrays that must agree."""


class UsageError(ValueError):
    """Operation called with arguments outside its contract."""


class NumericalError(ArithmeticError):
    """Numerical failure, e.g. a singular unregularized system."""


class DataError(RuntimeError):
    """Dataset missing, too small, or otherwise unusable."""


class FormatError(DataError):
    """Malformed binary file (bad magic, truncated payload)."""
