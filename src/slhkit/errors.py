"""Exception types shared across the package."""

# Desk-scale memory budget behind TooLarge: the most bytes one level of a
# Fock kernel solve (charged by fock.boundary_kernel) or one grid defect
# suite (checked by punctured_line.GridSpec) may need.
MAX_SOLVE_BYTES = 2 * 2 ** 30


class SlhkitError(Exception):
    """Base class for all slhkit errors."""


class NonHermitianInput(SlhkitError):
    """A matrix required to be Hermitian fails the hermiticity tolerance."""



class DimensionMismatch(SlhkitError):
    """Operands live in spaces of different dimension."""


class SizeMismatch(SlhkitError):
    """A matrix does not have the size required by the block layout."""


class SingularDressing(SlhkitError):
    """The dressing factor 1 + iEW is numerically singular."""


class DomainTooSmall(SlhkitError):
    """Grid half-width too small for the truncation to sit below decay tolerance."""


class SpecMismatch(SlhkitError):
    """Two grid functions do not share the same grid specification."""


class InvalidMollifier(SlhkitError):
    """Mollifier fails smoothness/normalization requirements under quadrature."""


class TooLarge(SlhkitError):
    """Requested truncated space or grid exceeds the desk-scale size guard."""


class NotInDomain(SlhkitError):
    """Vector fails the boundary condition at the requested tolerance."""


class ParseError(SlhkitError):
    """Configuration file is not valid JSON."""


class ValidationError(SlhkitError):
    """Configuration parsed but violates the model schema."""
