"""Exception types shared across the simulation modules, and the one test
of a number (is_number), of a count (is_count) and of positive parameters
(require_positive) that every public boundary uses.  numpy's float64 is a
float and passes; bools, strings and numpy integer scalars do not.  Each
boundary adds its own range and raises with its own message.
"""
import sys

_FLOAT_MAX = sys.float_info.max    # an int above it is too large for a float


class ParameterDomainError(ValueError):
    """A numeric argument is outside its documented domain."""


class RegimeError(ValueError):
    """Operation called with a demand speed outside the regime it models."""


class ContractViolationError(ValueError):
    """Caller handed in state that violates an operation's preconditions."""


class SizeLimitError(ValueError):
    """Instance exceeds the hard cap of an exact solver."""


def is_number(v) -> bool:
    """v is an int or a float, not a bool, with |v| <= float max: finite,
    and an int that converts to a float."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= _FLOAT_MAX


def is_count(v) -> bool:
    """v is an int, not a bool, in [0, sys.maxsize]."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= sys.maxsize


def require_positive(**kwargs) -> None:
    """Raise ParameterDomainError naming the first argument not a positive number."""
    for name, value in kwargs.items():
        if not is_number(value) or value <= 0:
            raise ParameterDomainError(f"{name} must be positive and finite, got {value!r}")
