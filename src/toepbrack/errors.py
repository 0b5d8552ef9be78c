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
    """An iteration did not converge: the sweep budget or a non-finite entry of
    ``spectra._corner_lambda_min``, or the step cap of the gap's factor path."""


class KernelMismatchError(ToepbrackError):
    """A kernel vector of a softened window has a residual above its
    threshold (``spectra._gaps``)."""


class DuplicateNodeError(ToepbrackError):
    """Two Vandermonde nodes coincide within tolerance."""
