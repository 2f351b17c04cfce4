"""Exception types shared across the package."""

from __future__ import annotations


class ProcforgeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ProcforgeError):
    """An input (config, inventory or artifact) is invalid; the CLI exits 1."""


class InventorySyntaxError(ValidationError):
    """The inventory document is not well-formed JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class InventorySchemaError(ValidationError):
    """The document parses but violates the inventory schema."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class DuplicateIdError(ValidationError):
    """Two entities share an identifier that must be unique."""


def distinct(values, what: str) -> tuple:
    """``values`` as a tuple; a repeated value raises :class:`DuplicateIdError` naming it."""
    values, seen = tuple(values), set()
    for value in values:
        if value in seen:
            raise DuplicateIdError(f"duplicate {what}: {value}")
        seen.add(value)
    return values


class DanglingReferenceError(ValidationError):
    """A reference names an object or component that does not exist."""


class DomainResolutionError(ValidationError):
    """A dynamic state domain cannot be resolved from the interactions."""


class UnknownObjectError(ProcforgeError):
    """A focal object id does not exist in the inventory."""


class StateSpaceLimitError(ProcforgeError):
    """Enumerating a template's state space would exceed the given limit."""

    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"state space has {size} states, exceeding the limit of {limit}")


class SampleValidationError(ValidationError):
    """A transition sample does not fit its template."""


class OracleCoverageError(ValidationError):
    """The oracle spec does not cover an action of the template."""


class EndpointError(ProcforgeError):
    """A text-generation endpoint request failed after retries."""


class EndpointAuthError(EndpointError):
    """The endpoint rejected the configured credentials."""


class PermutationError(ValidationError):
    """A candidate permutation is not a bijection over the expected steps."""


class SequenceMismatchError(ValidationError):
    """Two sequences that must be permutations of each other are not."""


class ConfigError(ValidationError):
    """An input file (the config, an inventory or an artifact) is missing or malformed."""
