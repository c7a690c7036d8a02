"""Exception types shared across the library, and the immutable-value base.

Every failure mode that callers are expected to catch has its own class here;
anything else is a plain ValueError/TypeError bug.  `Frozen` is the one way
to define a value: its fields are its `__slots__`, it is built from them in
order, and it compares and hashes by them.  Every engine module imports this
file, so the base costs no extra module.
"""

from operator import attrgetter


class Frozen:
    """Base of the immutable value classes.  A subclass names its fields in
    `__slots__`; `Frozen(*values)` sets them in that order through each
    slot's own descriptor, and any other count of values is a TypeError.  A
    class that validates or derives fields states its own `__init__`, which
    ends in one `Frozen.__init__` call.  Any later assignment or deletion
    raises AttributeError.  Values of one class with equal fields are equal
    and hash alike."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
        cls._fields = attrgetter(*cls.__slots__)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes {len(setters)} values, got {len(values)}")
        for i, setter in enumerate(setters):
            setter(self, values[i])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle hand back (None, {slot: value}) for a slots class
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


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
