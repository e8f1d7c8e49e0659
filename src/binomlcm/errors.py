"""Exception types raised by the library."""

__all__ = ["DomainError", "NotPrimeError", "UnknownCheckError", "InternalInvariantError"]


class DomainError(ValueError):
    """An argument fell outside the operation's domain (e.g. k > n, vp of
    n < 1, an empty range, a sieve bound above the ceiling)."""


class NotPrimeError(ValueError):
    """A number that must be prime failed the primality check."""


class UnknownCheckError(ValueError):
    """A verification sweep named a check that does not exist."""


class InternalInvariantError(RuntimeError):
    """A relation the library guarantees was violated; signals an implementation bug."""
