"""Exception types shared across the toolkit."""


class GFusionError(Exception):
    """Base class for all toolkit errors: a check could not be evaluated."""


class NotHermitian(GFusionError):
    pass


class NotPSD(GFusionError):
    pass


class RangeNotContained(GFusionError):
    """Factorization residual exceeds tolerance: the range of the left
    operator is not contained in the range of the right one."""


class ZeroDenominator(GFusionError):
    """Denominator operator of a generalized Rayleigh quotient is numerically zero."""


class NotInvertible(GFusionError):
    pass


class NotPositive(GFusionError):
    """A required positive (semi)definiteness condition failed; carries the
    offending index in its message when it is per-item."""


class NotAFrame(GFusionError):
    pass


class HypothesisFailed(GFusionError):
    """A sampled vector refutes the perturbation inequality.  Every other
    failed hypothesis is a false verdict in its check's report."""


class InvalidParameters(GFusionError):
    """Bad input: the CLI exits 2 on it."""


class DimensionMismatch(InvalidParameters):
    pass


class ItemCountMismatch(InvalidParameters):
    pass


class WeightMismatch(InvalidParameters):
    pass


class CodomainMismatch(InvalidParameters):
    pass


class ParseError(GFusionError):
    pass
