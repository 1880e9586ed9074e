"""Exception types shared across the package.

Every structural precondition that can fail gets its own class so callers
(and the CLI) can map failures to exit codes without string matching.
"""


class LatZetaError(Exception):
    """Base class for all package-specific errors."""


class NotALattice(LatZetaError):
    """A pair of elements has no unique least upper / greatest lower bound."""


class NoBoundedStructure(LatZetaError):
    """The order has no unique minimum or no unique maximum."""


class DegenerateLattice(LatZetaError):
    """The one-element order: bottom equals top, so nothing to measure."""


class CyclicCovers(LatZetaError):
    """The input cover relation contains a directed cycle."""


class NotComparable(LatZetaError):
    """Moebius value requested for a pair x, y with x not below y."""


class BottomHasNoIrreducibles(LatZetaError):
    """below_irreducibles was asked about the bottom element."""


class SizeLimitExceeded(LatZetaError):
    """A construction would exceed its configured element budget."""


class DegenerateGeneration(LatZetaError):
    """Atom-based series requested but the atoms do not join to the top."""


class BottomTarget(LatZetaError):
    """A probability was requested for the bottom element."""


class MismatchDetected(LatZetaError):
    """Two independently computed values disagree; carries both values."""

    def __init__(self, message, *, context=None):
        super().__init__(message)
        self.context = dict(context or {})


class NotAPrimePower(LatZetaError):
    """No finite field of the requested size is available."""


class SingularInput(LatZetaError):
    """A limit evaluation was requested exactly at its singular point."""


class PartNotDivisible(LatZetaError):
    """A block size in a d-divisible shape is not a multiple of d."""


class OrderLimitExceeded(LatZetaError):
    """A group construction would exceed the supported order bound."""


class BudgetExceeded(LatZetaError):
    """The census enumeration, the prime table or an oracle's exponent
    range would exceed its cap."""


class NotCoprimeOrders(LatZetaError):
    """A coprime-product identity was requested for non-coprime groups."""


class UnknownFixture(LatZetaError):
    """load_fixture was asked for a name it does not know."""


class UsageError(LatZetaError):
    """Malformed command-line input."""


class CatalogCorrupt(LatZetaError):
    """A catalog file holds a malformed line, a key out of order or a
    level marked complete twice or empty; the message names path and line."""
