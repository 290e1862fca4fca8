"""Exception types shared across the laboratory modules."""


class TangencyLabError(Exception):
    """Base class for all laboratory errors."""


class DegenerateVector(TangencyLabError):
    """A vector (or matrix row) has norm below 1e-12; its angle is undefined."""


class NearParallelRows(TangencyLabError):
    """Two distinct rows are antiparallel within 1e-9; the angle gradient is singular."""


class DimensionMismatch(TangencyLabError):
    """Operand dimensions are incompatible with the chart or matrix size."""


class InvalidPartition(TangencyLabError):
    """Block sizes do not form a valid ordered partition of d."""


class UnsupportedLabel(TangencyLabError):
    """Unknown isotypic component label."""


class UnsupportedFamily(TangencyLabError):
    """Unknown family identifier, or the family cannot be built at this d."""


class NewtonDiverged(TangencyLabError):
    """Newton residual failed to decrease for five consecutive iterations."""


class SingularJacobian(TangencyLabError):
    """Newton Jacobian condition number exceeded the solvable threshold."""


class AmbiguousType(TangencyLabError):
    """Big-block diagonal too close to zero to call the point type I or II."""


class MultiplicityMismatch(TangencyLabError):
    """Assembled spectrum multiplicities do not sum to d^2."""


class TooLarge(TangencyLabError):
    """Dense Hessian requested above the supported size (d > 12)."""


class BadDirection(TangencyLabError):
    """Arc seed direction is not a unit vector or not a Hessian eigenvector."""


class NoConvergence(TangencyLabError):
    """No sphere-extremization start reached stationarity within the iteration cap."""


class CoincidentPoint(TangencyLabError):
    """Tangency residual is undefined at the center itself."""


class NonFiniteGrid(TangencyLabError):
    """The toy's tangency residual, or a point sampled from it, is not finite."""
