"""Exception types raised across the package."""


class InvalidSize(ValueError):
    """Site count is incompatible with the requested graph family."""


class InvalidEdge(ValueError):
    """Edge list contains an out-of-range index, a self-loop, or a duplicate."""


class InvalidCoupling(ValueError):
    """Cavity coupling is missing, non-finite, or internally inconsistent."""


class ConvergenceFailure(RuntimeError):
    """The symmetric eigensolver did not converge."""


class SingularMatrix(ArithmeticError):
    """The shifted Hamiltonian is exactly singular (eta = 0 at a bare resonance)."""


class NonFiniteResult(ArithmeticError):
    """A computed result table holds NaN or an infinity."""


class LengthMismatch(ValueError):
    """Paired arrays differ in length or are too short."""


class NonMonotonicGrid(ValueError):
    """A frequency grid is not finite or not strictly increasing."""


class PeakNotFound(RuntimeError):
    """No local maximum exists inside the requested window."""


class UnresolvedWidth(RuntimeError):
    """A half-height crossing falls outside the requested window."""


class MissingDipole(ValueError):
    """Absorption was requested without a transition dipole moment."""


class ConfigParseError(ValueError):
    """A run configuration file is malformed or incomplete."""
