"""Exception types shared across the package."""


class ProjBoundsError(Exception):
    """Base class for every error raised by projbounds."""


class InputError(ProjBoundsError):
    """Malformed argument: wrong shape, non-finite entries, or an
    out-of-range parameter."""


class ContainmentError(ProjBoundsError):
    """A required subspace containment does not hold."""


class InfeasibleError(ProjBoundsError):
    """Affine subspaces with empty intersection."""
