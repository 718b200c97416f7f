"""Exception types shared across the package."""


class TurbomudError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefinite(TurbomudError):
    """A matrix required to be positive definite failed factorization."""


class DimensionMismatch(TurbomudError):
    """Operands have inconsistent dimensions."""


class InvalidCorrelation(TurbomudError):
    """Cross-correlation outside [0, 1)."""


class RankDeficient(TurbomudError):
    """Spreading matrix produced a singular correlation matrix."""


class SingularCovariance(TurbomudError):
    """Belief covariance is singular or not positive definite."""


class DegeneratePrior(TurbomudError):
    """Prior so confident that the extrinsic variance is not resolvable."""


class DomainError(TurbomudError):
    """Input outside a computation's domain: a soft-bit mean outside the
    open interval (-1, 1), or a non-finite LLR into the decoder."""


class LengthMismatch(TurbomudError):
    """LLR sequence length inconsistent with the trellis."""


class InvalidPermutation(TurbomudError):
    """Sequence is not a permutation of the expected index set."""


class ConfigError(TurbomudError):
    """Invalid or missing simulation configuration."""
