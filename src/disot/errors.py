"""Exception types shared across the library."""


class DisotError(Exception):
    """Base class for all library errors."""


class AllZeroMass(DisotError):
    """Raised when a measure's total mass is not strictly positive."""


class NegativeWeight(DisotError):
    """Raised when an atom carries a negative weight."""


class IndexOutOfRange(DisotError):
    """Raised when a point index does not belong to its point set."""


class InvalidGroundCost(DisotError):
    """Raised when a cost matrix fails the structural checks done at construction."""


class BaseMismatch(DisotError):
    """Raised when two fibered measures disagree on base points or base weights."""


class FiberMismatch(DisotError):
    """Raised when fiber point sets or costs do not line up across measures."""


class SupportOutOfRange(DisotError):
    """Raised when a measure's support is not contained in the cost's point set."""


class DegenerateInput(DisotError):
    """Raised when a solver receives an empty measure."""


class TooLarge(DisotError):
    """Raised when an instance exceeds the brute-force enumeration bounds."""


class ShapeMismatch(DisotError):
    """Raised when certificate or potential shapes do not match the problem."""


class EmptySupport(DisotError):
    """Raised when a barycenter problem has no candidate support on some fiber."""


class SupportViolation(DisotError):
    """Raised when a candidate measure puts mass outside the allowed support."""


class LPInfeasible(DisotError):
    """Internal error: a linear program that must be feasible reported failure."""


class ParseError(DisotError):
    """Raised on malformed input files or CLI arguments."""
