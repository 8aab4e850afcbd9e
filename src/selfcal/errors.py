"""Exception types raised across the package, and the type predicates
and JSON field check that input readers share."""

import math
import numbers


def is_integer(x) -> bool:
    """True for an integer other than a bool, so JSON true and false
    are rejected where a count belongs."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_finite(x) -> bool:
    """True for a finite real number that is not a bool."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x))


def json_fields(data, keys: tuple[str, ...], what: str,
                error: type[ValueError]) -> list:
    """The values of `keys` in the JSON object `data`, in order; `error`
    names `what` was read and the first key missing."""
    if not isinstance(data, dict):
        raise error(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise error(f"{what} is missing key {missing[0]!r}")
    return [data[key] for key in keys]


class TopologyError(ValueError):
    """Base class for invalid wiring descriptions."""


class SelfLoop(TopologyError):
    """An antenna was wired to itself."""


class DuplicateEdge(TopologyError):
    """The same transmission line appears more than once."""


class WrongEdgeCount(TopologyError):
    """The number of lines differs from the m-1 line budget."""


class IndexOutOfRange(TopologyError):
    """An antenna index lies outside 1..m."""


class NotEffective(TopologyError):
    """Some ordinary antenna has no wired path to the reference."""

    def __init__(self, message: str = "wiring does not connect every "
                 "antenna to the reference") -> None:
        super().__init__(message)


class ScenarioError(ValueError):
    """Physically inconsistent scenario parameters."""


class AmplitudeMismatch(ValueError):
    """Gain amplitudes disagree with the scenario's nominal values."""


class SingularFisherMatrix(ValueError):
    """Information matrix cannot be inverted reliably; the wiring is not
    effective or the gains are degenerate."""


class BudgetError(ValueError):
    """Time budget too small for even one collection round, or a budget
    and SNR under which a bound or a round's noise variance underflows
    to zero, or a bound overflows."""


class DivisionHazard(ArithmeticError):
    """An intermediate gain estimate fell below the magnitude floor, so
    propagating through it would only amplify noise."""


class ConfigError(ValueError):
    """Invalid experiment configuration."""
