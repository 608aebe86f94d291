"""Exception hierarchy shared by all modules.

``PreconditionError`` subclasses signal a violated caller contract and map
to CLI exit code 2; ``InternalInvariantError`` means a bug in this package
and maps to exit code 3.
"""


class PreconditionError(Exception):
    """A documented precondition of an operation was violated."""


class DuplicatePair(PreconditionError):
    """The same cross pair was supplied twice, possibly with opposite arcs."""


class OutOfRange(PreconditionError):
    """A vertex index or numeric argument is outside its allowed range."""


class SameSideArc(PreconditionError):
    """An arc was given with both endpoints on the same side."""


class ArcNotPresent(PreconditionError):
    """An operation referenced an arc the graph does not contain."""


class HasFourCycle(PreconditionError):
    """The input contains a 4-cycle where none is allowed."""

    def __init__(self, cycle):
        super().__init__(f"input contains the 4-cycle {'>'.join(map(str, cycle.vertices))}")
        self.cycle = cycle


class NotATournament(PreconditionError):
    """The input has non-adjacent cross pairs but a complete orientation is required."""


class TooLarge(PreconditionError):
    """The instance exceeds the size limit of an exponential-time routine."""


class InternalInvariantError(Exception):
    """A result failed its own certificate check; this is a bug, not bad input."""
