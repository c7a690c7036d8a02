"""Exception types shared across the library.

Every failure mode that callers are expected to catch has its own class here;
anything else is a plain ValueError/TypeError bug.
"""


class EndoliftError(Exception):
    """Base class for all library-specific failures."""


class InexactDivision(EndoliftError):
    """A division that must be exact (by p, or by a p-power) left a remainder."""


class NotAUnit(EndoliftError):
    """Inversion was requested for an element that is zero modulo p."""


class PrecisionExhausted(EndoliftError):
    """A nontrivial operation was attempted with no p-adic precision left."""


class WindowExhausted(EndoliftError):
    """A truncated window gave no trustworthy answer.

    Raised when `lengths._stabilize` finds no two doubled x1-window radii
    that agree below its ceiling, when `windows.solve_vertical_recursion`
    reaches no fixed point within `_MAX_DEPTH` steps, and when
    `series.series_invert` cannot represent a required inverse inside the x1
    window.
    """


class PrecisionTooLow(EndoliftError):
    """The working precision cannot support the requested index/coindex."""


class NotAnOrder(EndoliftError):
    """The supplied (trace, norm) data degenerates: no quadratic order is generated."""


class ConsistencyFailure(EndoliftError):
    """Two independently computed values that must agree do not."""


class StructureViolation(EndoliftError):
    """A structural clause of the increment displays failed; names the clause."""


class ShapeViolation(EndoliftError):
    """A stable lattice outside the asserted diagonal family appeared."""


class StabilityFailure(EndoliftError):
    """A descended lattice failed its operator-stability verification."""
