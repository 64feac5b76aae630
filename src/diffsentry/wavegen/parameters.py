"""Parameter tables: what a generator takes from a case dict, checked in
one place. A table maps each parameter to (type, allowed, default):
``allowed`` is a tuple of the values it may take or an ``Interval``, and
a default of ``dataclasses.MISSING`` makes the parameter required.
"""

from __future__ import annotations

import enum
import math
from dataclasses import MISSING, dataclass

import numpy as np

from ..errors import ParameterOutOfRange


@dataclass(frozen=True)
class Interval:
    """The numbers from ``low`` to ``high``, both ends in unless
    ``open_low``; a number outside is an ``error``."""

    low: float
    high: float
    open_low: bool = False
    error: type = ParameterOutOfRange

    def __contains__(self, value) -> bool:
        return (self.low < value if self.open_low else self.low <= value) \
            and value <= self.high

    def __str__(self) -> str:
        return f"{'(' if self.open_low else '['}{self.low:g}, {self.high:g}]"


def _allowed_text(cast, allowed) -> str:
    if isinstance(allowed, Interval):
        return f"a number in {allowed}"
    if issubclass(cast, enum.Enum):
        return f"a {cast.__name__}, one of {', '.join(a.value for a in allowed)}"
    return f"one of {allowed}"


def check_parameters(owner: str, table: dict, params: dict) -> dict:
    """Every parameter of ``table`` converted to its type, or its default.
    A key outside ``table``, a missing required parameter, a bool, a value
    its conversion changes (an int is a float, 2.5 is no int, "0.6" is no
    float), NaN, or a value outside its allowed set (floats within
    ``math.isclose``) is a ParameterOutOfRange naming the parameter; a
    number outside an ``Interval`` is that interval's error."""
    for key in params:
        if key not in table:
            raise ParameterOutOfRange(f"{owner} takes no parameter {key!r}; "
                                      f"it takes {', '.join(table)}")
    out = {}
    for name, (cast, allowed, default) in table.items():
        raw = params.get(name, default)
        if raw is MISSING:
            raise ParameterOutOfRange(f"{owner}: {name} is required")
        try:
            value = cast(raw)
        except (TypeError, ValueError):
            value = None
        # an enum member is found by value or by itself, never by a bool
        exact = value is not None and (isinstance(value, enum.Enum) or (
            not isinstance(raw, (bool, np.bool_)) and value == raw))
        if isinstance(allowed, Interval):
            inside = exact and value in allowed
            error = allowed.error if exact else ParameterOutOfRange
        else:
            inside = exact and any(
                math.isclose(value, a) if cast is float else value == a
                for a in allowed)
            error = ParameterOutOfRange
        if not inside:
            raise error(f"{owner}: {name} must be "
                        f"{_allowed_text(cast, allowed)}, not {raw!r}")
        out[name] = value
    return out
