"""Exception types shared across the package."""


class NmkSimError(Exception):
    """Base class for all package-specific failures."""


class NonPositiveDensity(NmkSimError):
    """Evaluated spectral density is negative or complex beyond tolerance."""


class QuadratureNotConverged(NmkSimError):
    """Adaptive quadrature exceeded its refinement budget."""


class EpsilonTooLarge(NmkSimError):
    """Mollifier scale does not satisfy 0 < epsilon < (b - a) / 2."""


class GridTooCoarse(NmkSimError):
    """Richardson estimate of the quadrature error exceeds the tolerance."""


class TailNotNegligible(NmkSimError):
    """Frequency grid does not contain the support of the coupling to tolerance."""


class DegenerateWeight(NmkSimError):
    """Discretized weight has fewer points of increase than requested nodes."""


class RecursionBreakdown(NmkSimError):
    """Orthogonal-polynomial recursion lost positivity of a squared norm."""

    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(
            f"recursion breakdown at index {index}: squared norm {value:.3e} <= 0"
        )


class DimensionOverflow(NmkSimError):
    """Requested truncated space exceeds the configured state cap."""


class ShapeMismatch(NmkSimError):
    """Operator or coefficient shapes are inconsistent."""


class StepControlFailure(NmkSimError):
    """A run the propagator cannot take (norm-time product above its limit,
    no bounding Taylor degree, a profile an oracle does not support), or a
    propagated state that failed its sanity checks."""


class UnsupportedInitialState(NmkSimError):
    """Initial environment state has no computable regularity constants."""


class SchemaViolation(NmkSimError):
    """Experiment document does not validate against the shipped schema."""
