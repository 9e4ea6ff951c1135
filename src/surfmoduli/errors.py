"""Exception hierarchy shared by all surfmoduli modules.

Every domain failure raises a subclass of :class:`SurfModuliError`; the CLI
maps these to exit code 1 with a one-line diagnostic.  Anything else (bad
flags, malformed argv) is a usage error and exits with code 2.
"""


class SurfModuliError(Exception):
    """Base class for all domain errors raised by this package."""


class OrderBoundExceeded(SurfModuliError):
    """A group closure grew past the desk-scale element cap."""


class DegreeMismatch(SurfModuliError):
    """Permutations of different degrees were combined."""


class AutBoundExceeded(SurfModuliError):
    """Automorphism enumeration was requested for a group above the cap."""


class NonIntegralGenus(SurfModuliError):
    """The branched-cover genus formula produced a non-integer.

    Cannot happen for a valid generating triple; raised defensively.
    """


class GroupMismatch(SurfModuliError):
    """Two triples that must live on one group live on different groups."""


class NonIntegralChi(SurfModuliError):
    """The quotient Euler characteristic is not an integer.

    Signals that the requested group order cannot act freely on a product
    of curves with the given genera.
    """


class ExcludedParameter(SurfModuliError):
    """The family parameter collides with one of the fixed branch points."""


class SizeMismatch(SurfModuliError):
    """Branch sets of different cardinalities cannot be equivalent."""


class StrandMismatch(SurfModuliError):
    """Braid words on different strand counts were combined."""


class PositionOutOfRange(SurfModuliError):
    """A factorization move was requested at an invalid position."""


class CancelMismatch(SurfModuliError):
    """The factors at the cancellation site are not the expected node pair."""


class BudgetExceeded(SurfModuliError):
    """A word-length or state budget was exhausted mid-computation, or an
    input exceeds a size cap (strands, genus) checked before any work."""
