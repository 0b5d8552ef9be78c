"""Boundary conditions and spectral certificates for banded Hermitian Toeplitz matrices.

The library constructs finite windows of banded Hermitian Toeplitz
operators whose symbols are products of shifted one-dimensional Laplacian
factors, equips them with softening (modified Neumann) and stiffening
(modified Dirichlet) corner corrections built from rank-one stencil sums,
and certifies numerically that the resulting operator-inequality chain,
kernel dimensions and spectral-gap scaling behave as the construction
promises.

Importing the package loads none of its modules: each public name, and
each submodule (``toepbrack.spectra`` ...), is imported on first access,
so a command that needs only the symbol layer never loads the gap's
factor path.
"""

import importlib

#: The public names each submodule defines.
_EXPORTS = {
    "boundary": ("BoundaryKind", "build_restricted", "classic_split_difference", "corner_block", "stencil"),
    "errors": (
        "DuplicateAngleError", "DuplicateNodeError", "InvalidMultiplicityError", "KernelMismatchError",
        "NoConvergenceError", "NonHermitianError", "OutOfClassError", "SizeTooSmallError", "ToepbrackError",
    ),
    "matrices": ("HermitianMatrix", "circulant_periodic", "direct_sum", "hermitian", "toeplitz_finite"),
    "spectra": (
        "BracketReport", "GapReport", "Spectrum", "check_bracketing", "check_bracketing_penta",
        "confluent_vandermonde_abs", "eigenvalues", "gap_scan", "grid_shift", "kernel_basis",
        "sampled_gap_floor", "spectral_gap",
    ),
    "symbols": (
        "ANGLE_TOL", "TWO_PI", "BandedCoeffs", "PentaDecomposition", "SymbolSpec", "banded_coefficients",
        "circular_distance", "decompose_pentadiagonal", "evaluate_symbol", "fourier_coefficients",
        "make_symbol", "penta_coefficients", "reduce_angle",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a submodule, or the home of a public name, on first access."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
