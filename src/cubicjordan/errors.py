"""Exception types shared across the package."""


class InputError(ValueError):
    """User input that a suite cannot work with, such as a weight file
    without positive integer weights; the CLI reports it with exit 2."""


class ContextError(ValueError):
    """Operands belong to different ring contexts."""


class ShapeError(ValueError):
    """Matrix shape does not admit the requested operation."""


class SkewError(ValueError):
    """Pfaffian requested for a matrix that is not skew-symmetric."""


class SingularGroupElement(ValueError):
    """A rational group element has a vanishing determinant."""


class InfeasibleWeights(ValueError):
    """The homogeneity constraints admit no weight assignment."""


class NumeratorNotDivisible(ValueError):
    """Hilbert numerator lacks the vanishing order required at t = 1."""


class InternalError(RuntimeError):
    """An internally constructed object failed its own verification."""
