"""Exception taxonomy shared across the package."""


class OdgError(Exception):
    """Base class for all package-specific errors."""


class MalformedInput(OdgError):
    """Input text could not be parsed (ragged rows, non-numeric fields, bad shape)."""


class NotAContrast(OdgError):
    """A coefficient column does not sum to zero."""


class ZeroRow(OdgError):
    """A treatment row is identically zero (treatment unused by the system)."""


class NotSymmetric(OdgError):
    """Matrix is not symmetric within tolerance."""


class NonPositiveEigenvalue(OdgError):
    """An eigenvalue required to be positive is at or below the threshold."""


class PreconditionViolated(OdgError):
    """A documented operation precondition does not hold for the given input."""


class InfeasibleDesign(OdgError):
    """Weights are not strictly positive, do not sum to one, or are not one per treatment."""


class NotBipartite(OdgError):
    """Graph contains an odd cycle; a bipartite-only construction was requested."""


class RankTooLow(OdgError):
    """System rank is below v-1; the uniform-design guarantee does not apply."""


class NotInvariant(OdgError):
    """Permutation does not leave the system's Gram matrix invariant."""


class TooLarge(OdgError):
    """Instance exceeds a documented enumeration or search bound."""


class NotConverged(OdgError):
    """Iterative solver exhausted its budget without meeting the tolerance."""
