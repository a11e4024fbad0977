"""Exception types shared across the package."""


class CorrkitError(Exception):
    """Base class for all errors raised by corrkit."""


class InvalidSignatureError(CorrkitError):
    """Algebra signature is empty or contains a nonpositive block size."""


class InvalidPresentationError(CorrkitError):
    """A module presentation violates one of its structural axioms."""


class IncompatibleOperandsError(CorrkitError):
    """Two objects live over different algebras or different carriers."""


class PreconditionError(CorrkitError):
    """A documented precondition of an operation does not hold."""


class ResourceBudgetError(CorrkitError):
    """A construction would exceed the configured dimension budget."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class ConstructionError(CorrkitError):
    """A derived map failed to be well defined within tolerance."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class InstanceFormatError(CorrkitError):
    """An instance file is malformed or fails validation."""
