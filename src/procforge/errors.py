"""Exception types shared across the package.

:class:`ValidationError` is the one class for bad input: a config, an
inventory, an oracle spec, a sample line or an artifact that is malformed,
names something that does not exist or repeats an id.  Its message says
which check failed and where; the CLI exits 1 on it.  Every other
:class:`ProcforgeError` is a runtime failure, and the CLI exits 2.
"""

from __future__ import annotations


class ProcforgeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ProcforgeError):
    """An input (config, inventory, oracle spec, sample or artifact) is invalid; the CLI exits 1."""


def distinct(values, what: str) -> tuple:
    """``values`` as a tuple; a repeated value raises :class:`ValidationError` naming it."""
    values, seen = tuple(values), set()
    for value in values:
        if value in seen:
            raise ValidationError(f"duplicate {what}: {value}")
        seen.add(value)
    return values


class UnknownObjectError(ProcforgeError):
    """A focal object id does not exist in the inventory."""


class StateSpaceLimitError(ProcforgeError):
    """Enumerating a template's state space would exceed the given limit."""

    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"state space has {size} states, exceeding the limit of {limit}")


class EndpointError(ProcforgeError):
    """A text-generation endpoint request failed after retries."""


class EndpointAuthError(EndpointError):
    """The endpoint rejected the configured credentials."""
