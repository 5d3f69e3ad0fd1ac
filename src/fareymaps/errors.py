"""Exception types raised across the package."""


class FareyMapError(ValueError):
    """Base class for all domain errors."""


class NotAVertex(FareyMapError):
    """(a, c) does not label a vertex at this level: gcd(a, c, n) != 1."""


class LevelMismatch(FareyMapError):
    """Operands live at different levels n."""


class Unsupported(FareyMapError):
    """Level outside the supported range."""


class ResourceLimit(FareyMapError):
    """Level above the configured construction bound."""


class UnknownVertex(FareyMapError):
    """Vertex does not belong to the map."""


class NotPrime(FareyMapError):
    """Operation defined only for prime levels p >= 5."""


class EqualVertices(FareyMapError):
    """Distance classification needs two distinct vertices."""


class WrongLevel(FareyMapError):
    """Operation is specific to another level."""


class MalformedLabel(FareyMapError):
    """Text is not a fraction a/c or an integer a."""


class MalformedMap(FareyMapError):
    """Text is not a map export: not JSON, or a missing or ill-typed field."""


class NoMatch(FareyMapError):
    """A polygon side has no orientation-reversed partner, or a side pairing
    glues corners that carry different labels."""


class BrokenInvariant(FareyMapError):
    """A constructed object fails one of its structural invariants."""


class NoSector(FareyMapError):
    """Sector search exhausted without a complete solution."""


class DisconnectedBoundary(FareyMapError):
    """One-sided edges of a face set form more than one cycle."""


class UnpairedEdge(NoMatch):
    """A directed boundary edge has no unique reversed occurrence."""


class NotUnimodular(FareyMapError):
    """An integer matrix has the wrong determinant for the operation."""


class NonIntegral(FareyMapError):
    """Exact rational arithmetic failed to produce an integer."""
