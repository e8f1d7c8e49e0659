"""Test helper: the invariants every factored map the package returns keeps."""

from binomlcm import DomainError, NotPrimeError, is_prime


def validate_factored(factors):
    """Check factored-map invariants: ascending prime keys, exponents >= 1."""
    previous = 1
    for p, e in factors.items():
        if not is_prime(p):
            raise NotPrimeError(f"factor key must be prime, got {p}")
        if e < 1:
            raise DomainError(f"exponent of prime {p} must be >= 1, got {e}")
        if p <= previous:
            raise DomainError(f"prime keys must be ascending, saw {p} after {previous}")
        previous = p
