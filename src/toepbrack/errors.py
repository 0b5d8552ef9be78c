"""Exception hierarchy shared by all toepbrack modules."""


class ToepbrackError(Exception):
    """Base class for all library errors."""


class DuplicateAngleError(ToepbrackError):
    """Two factor angles coincide after reduction mod 2*pi."""


class InvalidMultiplicityError(ToepbrackError):
    """A factor multiplicity is not a positive integer."""


class OutOfClassError(ToepbrackError):
    """Pentadiagonal coefficients fall outside the decomposable class."""


class NonHermitianError(ToepbrackError):
    """Matrix data violates Hermitian symmetry beyond tolerance."""


class SizeTooSmallError(ToepbrackError):
    """Requested matrix size is below the band-width requirement."""


class NoConvergenceError(ToepbrackError):
    """The eigenvalue iteration did not reach tolerance within its sweep budget."""


class KernelMismatchError(ToepbrackError):
    """The computed kernel dimension differs from the symbol degree."""


class DuplicateNodeError(ToepbrackError):
    """Two Vandermonde nodes coincide within tolerance."""
