"""Domain exceptions.

Every exception carries a stable ``code`` (its class name) so the CLI can
emit machine-readable errors without string matching.
"""


class RibbonError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class BrokenInvariant(RibbonError):
    """An internal identity that guards a result failed (a bug, not bad input).

    Raised explicitly instead of ``assert`` so that ``python -O`` keeps the check.
    """


# --- permutation / graph construction ---------------------------------------

class FixedPointInvolution(RibbonError):
    """sigma1 is not a fixed-point-free involution."""


class DomainMismatch(RibbonError):
    """The two permutations do not act on the same side set."""


class EmptySides(RibbonError):
    """The side set is empty."""


class Disconnected(RibbonError):
    """Operation requires a connected graph."""


class LoopContraction(RibbonError):
    """Attempt to contract a loop edge."""


class NoSuchEdge(RibbonError):
    """Edge not present in the graph."""


# --- enumeration / profiles --------------------------------------------------

class InconsistentProfile(RibbonError):
    """Malformed or inconsistent valency profile."""


class TooLarge(RibbonError):
    """Requested enumeration exceeds the configured size bound."""


# --- arithmetic --------------------------------------------------------------

class EvenInput(RibbonError):
    """Double factorial of an even integer requested."""


# --- piecewise-linear forms --------------------------------------------------

class ZeroPerimeter(RibbonError):
    """Hole has perimeter zero."""


class VertexMark(RibbonError):
    """Label marks a vertex where a hole was required."""


class OddDimension(RibbonError):
    """Wedge power requested on an odd-dimensional slice."""


class ParityMismatch(RibbonError):
    """Cylinder side counts v1 + v2 must be even."""


class NotTopCell(RibbonError):
    """Cell is not top-dimensional (trivalent, reduced, hole-marked)."""


# --- degeneration ------------------------------------------------------------

class ConeViolation(RibbonError):
    """Shrinking would squeeze another hole (perimeter cone violated)."""


class InconsistentLabels(RibbonError):
    """Dual-graph labels are not a disjoint cover of the marking set."""


# --- stable complex ----------------------------------------------------------

class EmptySubset(RibbonError):
    """Subgraph of an empty edge subset requested."""


class DisconnectedSubset(RibbonError):
    """Edge subset must span a connected subgraph."""


class NotPermissible(RibbonError):
    """Sequence of edge subsets violates the permissibility rules."""

