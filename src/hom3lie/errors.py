"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands live in incompatible dimensions or shapes."""


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated."""


class FixedPointRequired(PreconditionError):
    """Inner derivations need arguments fixed by the twist map."""


class RegularTwistRequired(PreconditionError):
    """Negative twist powers need an invertible, multiplicative twist."""


class IdealRequired(PreconditionError):
    """The given subspace is not a twist-stable ideal."""


class RepresentationInvalid(PreconditionError):
    """The given action fails the representation identities."""


class CocycleInvalid(PreconditionError):
    """The given trilinear map fails the 3-cocycle identity."""


class MetricRequired(PreconditionError):
    """The given bilinear form is not symmetric, invariant and non-degenerate."""


class IsotropicRequired(PreconditionError):
    """The given subspace is not isotropic for the form."""


class HalfDimensionRequired(PreconditionError):
    """The isotropic ideal must have exactly half the ambient dimension."""


class ComplementInvalid(PreconditionError):
    """The supplied complement is not an isotropic complement of the ideal."""
