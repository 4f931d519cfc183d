"""Exception types shared across the package."""


class RatlinError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(RatlinError):
    """Operands have incompatible shapes."""


class BasisError(RatlinError):
    """Operands are expressed in incompatible polynomial bases."""


class PoleError(RatlinError):
    """The state matrix is singular at the requested point."""


class PreconditionError(RatlinError):
    """A mathematical precondition of the requested operation failed."""


class BreakdownError(RatlinError):
    """A numerical procedure could not reach or certify its result."""
