"""Exception types shared by the whole package.

UsageError covers malformed arguments (bad grammar, empty input, out-of-range
parameters); DomainError covers mathematically undefined requests (Frobenius
number of a non-coprime set, geometric predicates on a linear cone).  The CLI
maps them to exit codes 2 and 3 respectively.
"""


class WciError(Exception):
    """Base class for all package errors."""


class UsageError(WciError, ValueError):
    """Invalid arguments: wrong shape, wrong range, unparsable text."""


class ParseError(UsageError):
    """Text does not match the pair/family grammar."""


class DomainError(WciError, ValueError):
    """The requested value is mathematically undefined for this input."""


class BoundsExceededError(UsageError):
    """Search bounds exceed the configured instance ceiling."""

    def __init__(self, estimate: int, ceiling: int):
        super().__init__(
            f"estimated {estimate} instances exceeds the ceiling of {ceiling}; "
            "narrow the bounds or raise WCI_INSTANCE_CEILING"
        )
        self.estimate = estimate
        self.ceiling = ceiling


class CeilingExceededError(UsageError):
    """An input exceeds a fixed ceiling that keeps time and memory bounded."""

    def __init__(self, what: str, value: int, ceiling: int):
        super().__init__(f"{what} {value} exceeds ceiling {ceiling}")
        self.value = value
        self.ceiling = ceiling
