"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeLimitError(ValueError):
    """An input exceeds a configured brute-force size bound."""


class FamilyDoesNotExist(ValueError):
    """The requested graph family has no member for the given parameters."""


class InvariantError(Exception):
    """A mathematical invariant the code relies on failed to hold: a defect, not bad input."""
