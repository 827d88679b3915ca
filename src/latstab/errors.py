"""Exception types shared across the package."""


class LatstabError(Exception):
    """Base class for all package errors."""


class DimensionError(LatstabError):
    """Operands live on different qubit counts or an axis is out of range."""


class RegionError(LatstabError):
    """A region refers to sites outside its lattice."""


class CodeFormatError(LatstabError):
    """Malformed code file. Carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(LatstabError):
    """A code spec violates one of its declared invariants."""


class LocalityError(ValidationError):
    """A generator does not fit in the declared interaction hypercube."""

    def __init__(self, message, generator_index=None, actual_r=None):
        super().__init__(message)
        self.generator_index = generator_index
        self.actual_r = actual_r


class ContractViolation(LatstabError):
    """A precondition documented on an operation was not met by the caller."""


class PreconditionError(LatstabError):
    """Structural precondition failure (e.g. lattice too small for a transform)."""


class CapacityError(LatstabError):
    """An exact computation would pass a budget: ``required`` > ``cap``, and
    ``reason`` is the refusal's own clause for reports (else the message)."""

    def __init__(self, message, required=None, cap=None, reason=None):
        super().__init__(message)
        self.required = required
        self.cap = cap
        self.reason = message if reason is None else reason


class CertificateError(LatstabError):
    """A computed witness failed its own re-verification."""


def certify(ok: bool, what: str) -> None:
    """Raise CertificateError unless a witness passed a check; unlike an
    `assert`, the check also runs under `python -O`."""
    if not ok:
        raise CertificateError(f"certificate failed: {what}")


class NoLogicalQubitsError(LatstabError):
    """The operation needs at least one logical qubit and the code has none."""
